"""Deterministic chaos harness: the ``REPRO_FAULT_PLAN`` grammar.

The self-healing tests need faults that strike at an exact, repeatable
point -- "kill worker rendering range 1 at its second block", not "kill
something eventually".  ``REPRO_FAULT_PLAN`` is a semicolon-separated
list of directives::

    kill-worker:range=1,block=2,scope=once
    kill-worker:job=1,scope=once
    wedge-worker:range=0,block=1,seconds=3600
    drop-shm:range=0,block=1,scope=once
    enospc:range=1,block=0,scope=once
    kill-run:after=1,mode=raise

Each action has fixed injection points in the pipelined engine
(:data:`ACTION_POINTS`); the engine calls :func:`maybe_fault` at those
points with its live context (``range=...``, ``block=...`` while
rendering a range; ``job=...`` when a worker picks up a profiles job)
and a directive fires when every matcher equals the context.  Reserved
keys (``scope``, ``mode``, ``seconds``) parameterize the fault instead
of matching.

``scope=once`` fires a directive exactly once across *every* process
of the run: firing requires atomically claiming a marker file under
``REPRO_FAULT_DIR`` (``O_CREAT | O_EXCL``, the same cross-process
claim as ``REPRO_FAULT_WARM=once:<path>``).  The default scope,
``always``, refires on every match -- how a test deterministically
exhausts a retry budget.

Actions
-------
``kill-worker``
    ``os._exit(1)`` in the rendering worker, or in the worker starting
    profiles job ``job`` of a batch -- a hard crash with no cleanup,
    like the OOM killer.
``wedge-worker``
    The worker sleeps ``seconds`` (default forever, by supervision
    standards) without producing events -- a livelocked worker whose
    heartbeat goes stale.
``drop-shm``
    The just-packed shared-memory segment is unlinked before its
    descriptor ships -- the consumer's mapping fails like a reaped
    ``/dev/shm`` entry.
``enospc``
    The worker's store demotes as if the disk filled mid-part; the
    range finishes incomplete and must be retried on a fresh store.
``kill-run``
    The *parent* crashes after ``after`` ranges completed:
    ``mode=raise`` raises :class:`InjectedCrash` (a ``BaseException``,
    so no ``except Exception`` can absorb it), ``mode=exit`` calls
    ``os._exit(42)`` -- the SIGKILL-equivalent for crash-resume tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Tuple

#: Injection points of each action; :func:`maybe_fault` only considers
#: directives whose action belongs to the point it is called from.
ACTION_POINTS = {
    "kill-worker": ("render-block", "profiles-job"),
    "wedge-worker": ("render-block", "profiles-job"),
    "enospc": ("render-block",),
    "drop-shm": ("ship-block",),
    "kill-run": ("range-complete",),
}

#: Directive keys that parameterize the fault rather than match.
_PARAM_KEYS = frozenset({"scope", "mode", "seconds"})


class InjectedCrash(BaseException):
    """An injected parent-process crash (``kill-run:mode=raise``).

    A ``BaseException`` so production ``except Exception`` blocks can
    never absorb it, mirroring how SIGKILL preempts cleanup."""


@dataclass(frozen=True)
class Fault:
    """One parsed, armed fault directive."""

    action: str
    matchers: Tuple[tuple, ...]
    params: Tuple[tuple, ...]
    token: str  # stable marker-file stem for scope=once claims

    def param(self, key: str, default=None):
        for name, value in self.params:
            if name == key:
                return value
        return default

    @property
    def scope(self) -> str:
        return str(self.param("scope", "always"))


def _coerce(value: str):
    try:
        return int(value)
    except ValueError:
        return value


def _parse_plan(text: str) -> tuple:
    faults = []
    for position, chunk in enumerate(text.split(";")):
        chunk = chunk.strip()
        if not chunk:
            continue
        action, _, spec = chunk.partition(":")
        action = action.strip()
        if action not in ACTION_POINTS:
            raise ValueError(
                f"REPRO_FAULT_PLAN: unknown action {action!r} "
                f"(known: {', '.join(sorted(ACTION_POINTS))})")
        matchers, params = [], []
        for field in filter(None, (f.strip() for f in spec.split(","))):
            key, eq, value = field.partition("=")
            if not eq:
                raise ValueError(
                    f"REPRO_FAULT_PLAN: malformed field {field!r} in "
                    f"{chunk!r} (want key=value)")
            key = key.strip()
            target = params if key in _PARAM_KEYS else matchers
            target.append((key, _coerce(value.strip())))
        faults.append(Fault(
            action=action, matchers=tuple(matchers), params=tuple(params),
            token=f"fault-{position}-{action}"))
    return tuple(faults)


#: Parse memo keyed by the plan text, so workers re-reading the env on
#: every block pay one parse per plan.
_CACHE: tuple = ("", ())


def active_faults(point: str) -> tuple:
    """The armed faults whose action injects at ``point``."""
    global _CACHE
    text = os.environ.get("REPRO_FAULT_PLAN", "")
    if not text:
        return ()
    if _CACHE[0] != text:
        _CACHE = (text, _parse_plan(text))
    return tuple(fault for fault in _CACHE[1]
                 if point in ACTION_POINTS[fault.action])


def _claim_once(fault: Fault) -> bool:
    """Atomically claim a ``scope=once`` directive across processes."""
    directory = os.environ.get("REPRO_FAULT_DIR")
    if not directory:
        raise ValueError(
            "REPRO_FAULT_PLAN: scope=once needs REPRO_FAULT_DIR "
            "(a scratch directory shared by every process of the run)")
    marker = os.path.join(directory, fault.token + ".fired")
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def maybe_fault(point: str, **context) -> Optional[Fault]:
    """The first armed fault at ``point`` whose matchers all equal
    ``context``, having claimed it if ``scope=once``; ``None`` when
    nothing fires.  The caller executes the action -- this module only
    decides *whether*."""
    for fault in active_faults(point):
        if all(context.get(key) == value for key, value in fault.matchers):
            if fault.scope == "once" and not _claim_once(fault):
                continue
            return fault
    return None
