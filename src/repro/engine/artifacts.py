"""Content-addressed on-disk artifact store.

Every stage of the render -> trace -> simulate pipeline is a pure
function of its inputs, so each intermediate can be cached on disk and
shared by every process that asks for the same inputs: benchmark
sessions, the CLI and the examples all hit one store instead of
re-rendering per process.

Artifacts are addressed by a SHA-256 fingerprint of a canonical JSON
payload describing *all* the inputs of the stage -- scene name,
reproduction scale, animation time, traversal-order spec, filtering
options, layout spec and a pipeline version stamp -- so artifacts
produced by an older pipeline (or different parameters) simply never
match and stale data self-invalidates.  Four artifact kinds exist:

``traces/``
    Rendered :class:`~repro.pipeline.trace.TexelTrace` archives
    (``.npz`` via :mod:`repro.pipeline.traceio`) plus a ``.json``
    sidecar carrying the render counters and the human-readable key.
    A trace may instead be stored *chunked* as ``<digest>.pNNNNN.npz``
    part files (one :class:`~repro.pipeline.trace.FragmentBlock` each)
    whose sidecar lists a per-part integrity envelope -- the streaming
    pipeline's representation, written and read one block at a time so
    traces larger than RAM round-trip through the store.
``addresses/``
    Per-layout byte-address streams (``.npy``).
``profiles/``
    LRU stack-distance summaries per line size (``.npz``).
``set_profiles/``
    Per-set stack-distance summaries per ``(line_size, n_sets)``
    (``.npz``); one answers every associativity sharing that set
    count, so warm sessions sweep whole grids without a distance pass.

The root directory defaults to ``benchmarks/.cache/`` and is
overridable with the ``REPRO_CACHE_DIR`` environment variable.

Failure model
-------------
The store assumes writers can be killed at any instruction, disks can
fill up or go read-only, and bytes can rot between a write and the
next read.  Its defenses:

* **Atomic publishes.**  Writes go to a ``*.tmp*`` sibling and are
  moved into place with ``os.replace``; readers never observe a
  half-written file, only litter (which :meth:`ArtifactStore.repair`
  purges once it is stale).
* **Integrity envelopes.**  Every payload's ``.json`` sidecar records
  a SHA-256 content digest and byte size.  Every load re-verifies
  them; anything torn, truncated, bit-rotted, foreign or legacy
  (pre-envelope) is moved to ``quarantine/`` with a reason record and
  reported as a miss, so the caller transparently recomputes.
  Missing-counterpart states younger than :data:`TORN_GRACE_S` are
  treated as in-flight writes (a concurrent saver between its two
  publishes) and skipped without quarantining.
* **Single-flight locks.**  :meth:`ArtifactStore.single_flight` takes
  a per-fingerprint ``fcntl`` advisory lock so N racing processes
  perform one render instead of N.  Locks die with their holder; a
  hung holder is abandoned after a timeout (the waiter proceeds and
  computes redundantly but correctly).
* **Degraded mode.**  A save that fails like a broken disk (ENOSPC,
  EROFS, EACCES, ...) demotes the store: one warning, writes become
  no-ops, reads keep working (a warm read-only store still serves
  artifacts) and callers fall back to their in-memory memos.

Tiered reads
------------
The directory above is tier T1 of a read-through hierarchy (see
:mod:`~repro.engine.tiers`).  Loads consult the process-wide
in-memory tier (T0) first -- deserialized artifacts in a byte-bounded
LRU, revalidated against the payload's ``(size, mtime_ns, inode)`` on
every hit -- and fill it on a verified disk read; integrity
verification consults a verify-once digest cache keyed the same way,
so an unchanged file is SHA-256-hashed at most once per process.  A
local miss can read through to an optional shared remote tier (T2,
``REPRO_STORE_REMOTE``): payload and sidecar are copied down with
atomic renames and then verified exactly like local artifacts, so
remote corruption quarantines locally and falls back to recompute;
local publishes are copied back up best-effort.  None of this changes
fingerprints or bytes -- every tier serves the same checksummed
envelope format.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import shutil
import tempfile
import time
import warnings
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..core.kernels import SetDistanceProfile
from ..core.stackdist import DistanceProfile
from ..pipeline import traceio
from ..pipeline.renderer import RenderResult
from ..pipeline.trace import FragmentBlock, concat_blocks
from . import tiers
from .spec import TraceSpec

#: Stamped into every fingerprint; bump when any pipeline stage changes
#: its output (renderer, layouts, trace format, ...) so every existing
#: artifact self-invalidates.
PIPELINE_VERSION = 1

#: Artifact kinds, also the store's subdirectory names.
KINDS = ("traces", "addresses", "profiles", "set_profiles")

#: Maintenance subdirectories (never fingerprint-addressed).
QUARANTINE_DIR = "quarantine"
LOCKS_DIR = "locks"

#: Age below which a missing-counterpart artifact (payload without
#: sidecar, or the reverse) and ``*.tmp*`` litter are presumed to be a
#: concurrent writer mid-publish rather than a crash, and left alone.
TORN_GRACE_S = 60.0

#: How long :meth:`ArtifactStore.single_flight` waits for a lock before
#: abandoning it (stale-lock takeover) and computing anyway.
LOCK_TIMEOUT_S = 300.0
LOCK_POLL_S = 0.05

#: Chunked-trace part files: ``<digest>.pNNNNN.npz`` (the stem a
#: ``Path`` reports is ``<digest>.pNNNNN``).  Parts are only artifacts
#: through the sidecar that lists them; a part no sidecar claims is
#: litter, like a stale ``*.tmp*``.
_PART_STEM = re.compile(r"^([0-9a-f]{64})\.p(\d+)$")

#: Crash-resume metadata of an interrupted pipelined render:
#: ``<digest>.plan.json`` (the range plan written at dispatch) and
#: ``<digest>.rNNNNN.done.json`` (one completion record per finished
#: range).  Their presence marks the digest's strided orphan parts as
#: *resumable* -- the next cold fold re-verifies and folds them warm
#: instead of re-rendering -- so maintenance must not mistake them for
#: damaged artifacts or purge the parts they cover.
_RESUME_STEM = re.compile(r"^([0-9a-f]{64})\.(plan|r\d+\.done)$")
_RANGE_RECORD_INDEX = re.compile(r"\.r(\d+)\.done\.json$")

#: ``errno`` values that mean "the disk, not the data": the store
#: demotes itself instead of failing the experiment.
_UNAVAILABLE_ERRNOS = frozenset(
    code for code in (
        errno.ENOSPC, errno.EROFS, errno.EACCES, errno.EPERM,
        getattr(errno, "EDQUOT", None),
    ) if code is not None
)


class StoreError(Exception):
    """Base class for artifact-store failures."""


class CorruptArtifact(StoreError):
    """An artifact failed integrity verification.

    ``transient`` marks states a concurrent writer passes through
    (payload published, sidecar not yet) which only count as damage
    once they are older than :data:`TORN_GRACE_S`.
    """

    def __init__(self, message: str, transient: bool = False):
        super().__init__(message)
        self.transient = transient


class StoreUnavailable(StoreError):
    """The store's disk is full, read-only or permission-denied."""


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``benchmarks/.cache`` in the
    repository the package is installed from."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "benchmarks" / ".cache"


def fingerprint(payload: dict) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload`` (with the
    pipeline version stamp mixed in)."""
    record = dict(payload)
    record["pipeline_version"] = PIPELINE_VERSION
    record["trace_format"] = traceio.FORMAT_VERSION
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def addresses_payload(trace_spec: TraceSpec, layout_spec, alignment: int = 16) -> dict:
    """Fingerprint payload for a byte-address stream."""
    return {
        "trace": trace_spec.payload(),
        "layout": list(layout_spec),
        "alignment": alignment,
    }


def profile_payload(address_payload: dict, line_size: int) -> dict:
    """Fingerprint payload for a stack-distance profile."""
    return {"addresses": address_payload, "line_size": line_size}


def set_profile_payload(address_payload: dict, line_size: int,
                        n_sets: int) -> dict:
    """Fingerprint payload for a per-set stack-distance profile."""
    return {"addresses": address_payload, "line_size": line_size,
            "n_sets": n_sets}


def _replace(source: str, destination) -> None:
    """Publish step of an atomic write.  A module-level indirection so
    fault-injection tests can simulate a writer killed (or a disk
    filling up) between payload write and publish."""
    os.replace(source, destination)


def _discard_temp(temp_name: str) -> None:
    """Cleanup step of a failed atomic write; also an indirection so a
    simulated kill can leave realistic ``*.tmp*`` litter behind."""
    if os.path.exists(temp_name):
        os.unlink(temp_name)


def _translate_os_error(fault: OSError) -> None:
    """Re-raise disk-shaped OS errors as :class:`StoreUnavailable`."""
    if fault.errno in _UNAVAILABLE_ERRNOS:
        raise StoreUnavailable(str(fault)) from fault
    raise fault


def _atomic_write(path: Path, write) -> None:
    """Call ``write(temp_path)`` then atomically move into place.

    The temporary name keeps the real extension last so numpy's savers
    (which append ``.npy``/``.npz`` to unrecognized names) write to the
    exact path being renamed.  OS errors that mean a broken disk are
    raised as :class:`StoreUnavailable`.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(dir=path.parent,
                                                 suffix=".tmp" + path.suffix)
        os.close(descriptor)
    except OSError as fault:
        _translate_os_error(fault)
    try:
        write(temp_name)
        _replace(temp_name, path)
    except BaseException as fault:
        _discard_temp(temp_name)
        if isinstance(fault, OSError):
            _translate_os_error(fault)
        raise


def _file_digest(path: Path) -> str:
    """SHA-256 of a file's bytes (:func:`hashlib.file_digest` on
    Python >= 3.11, streamed 1 MiB blocks otherwise)."""
    return tiers.file_digest(path)


def _cached_digest(path: Path) -> str:
    """SHA-256 of a file's bytes through the process-wide verify-once
    cache: an unchanged file (same size/mtime_ns/inode) is hashed at
    most once per process."""
    return tiers.digest_cache().digest(path)


def _object_nbytes(value) -> int:
    """Rough deserialized footprint of an artifact for the T0 byte
    budget: its numpy array fields plus a small fixed overhead."""
    total = 256
    try:
        fields = vars(value).values()
    except TypeError:
        return total
    for field in fields:
        if isinstance(field, np.ndarray):
            total += field.nbytes
    return total


def load_part_block(root, name: str, index: int) -> FragmentBlock:
    """Deserialize one chunked-trace part file into a
    :class:`~repro.pipeline.trace.FragmentBlock` -- the loader shared
    by :class:`ChunkedRenderReader` and the pipelined resume fold
    (which works from range-record envelopes instead of a sidecar)."""
    trace = traceio.load_trace(str(Path(root) / "traces" / name))
    return FragmentBlock(
        texture_id=trace.texture_id, level=trace.level,
        tu=trace.tu, tv=trace.tv,
        tu_raw=trace.tu_raw, tv_raw=trace.tv_raw,
        kind=trace.kind, n_fragments=trace.n_fragments,
        x=trace.x, y=trace.y, index=index)


def _is_stale(path: Path, grace_s: float = TORN_GRACE_S) -> bool:
    """Whether ``path`` is old enough that no live writer can still be
    mid-publish around it."""
    try:
        return time.time() - path.stat().st_mtime >= grace_s
    except OSError:
        return True  # vanished: nothing left to protect


class ArtifactStore:
    """Content-addressed cache of pipeline intermediates on disk.

    Loads verify the integrity envelope and quarantine damage; saves
    are atomic and, when the disk itself fails, demote the store to a
    warn-once no-op (readers keep working) rather than raising
    mid-experiment.
    """

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._demoted = False
        self._demotion_reason: Optional[str] = None
        #: Human-readable degradation log (demotions, quarantines) so
        #: CLI summaries can surface what a run survived instead of
        #: burying it in RuntimeWarnings.  Bounded; newest last.
        self.recovery_events: list = []

    def _note_recovery(self, event: str) -> None:
        if len(self.recovery_events) < 100:
            self.recovery_events.append(event)

    def _path(self, kind: str, digest: str, suffix: str) -> Path:
        return self.root / kind / (digest + suffix)

    # -- process tiers (T0 memory, T2 remote) ----------------------------

    def _memory_get(self, kind: str, digest: str):
        """T0 lookup: the deserialized artifact, or ``tiers.MISS``."""
        return tiers.memory_tier().get((str(self.root), kind, digest))

    def _memory_put(self, kind: str, digest: str, suffix: str, value,
                    nbytes: int) -> None:
        """T0 fill/write-through, anchored to the payload file AND the
        ``.json`` sidecar (one file, for chunked artifacts) whose stat
        identities revalidate the entry on every later hit -- so a
        rewrite of either reads as a miss, same as the disk tier."""
        tiers.memory_tier().put((str(self.root), kind, digest),
                                (self._path(kind, digest, suffix),
                                 self._path(kind, digest, ".json")),
                                value, nbytes)

    def _remote(self) -> Optional[tiers.RemoteTier]:
        """The configured T2 (re-read from the environment, so tests
        and benchmark subprocesses can flip it per run)."""
        return tiers.remote_tier()

    def _fetch_remote(self, kind: str, digest: str, suffix: str) -> bool:
        """Read-through: copy a remote artifact (payload or chunked
        parts, then the sidecar) into the local tier.  The caller
        re-runs the normal local verification afterwards, so corrupt
        remote bytes quarantine locally and read as a miss.

        Concurrent readers of one digest fetch under its single-flight
        lock: the sidecar lands last, so a reader that finds the
        payload but not yet the sidecar waits for the fetch in flight
        instead of reading the half-fetched artifact as a miss."""
        remote = self._remote()
        if remote is None or self._demoted:
            return False
        # A lock of its own: loads also run under the per-kind compute
        # lock of the same digest, which this process may already hold.
        with self.single_flight(kind + ".fetch", digest):
            if self._path(kind, digest, ".json").exists():
                return True  # another reader completed the fetch
            return self._fetch_remote_files(remote, kind, digest, suffix)

    def _fetch_remote_files(self, remote: tiers.RemoteTier, kind: str,
                            digest: str, suffix: str) -> bool:
        sidecar_name = digest + ".json"
        try:
            meta = json.loads(
                (remote.root / kind / sidecar_name).read_text())
        except (OSError, ValueError):
            return False
        if isinstance(meta, dict) and isinstance(meta.get("parts"), list):
            names = [entry.get("name") for entry in meta["parts"]
                     if isinstance(entry, dict)]
            if not all(isinstance(name, str) and os.sep not in name
                       and name.startswith(digest) for name in names):
                return False
        else:
            names = [digest + suffix]
        local_dir = self.root / kind
        for name in names:
            if not remote.fetch(kind, name, local_dir):
                return False
        if not remote.fetch(kind, sidecar_name, local_dir):
            return False
        self._note_recovery(
            f"fetched {kind}/{digest[:12]}… from the remote tier")
        return True

    def _publish_remote(self, kind: str, digest: str, suffix: str) -> None:
        """Write-back: best-effort copy of a locally published
        artifact (payload before sidecar) up to T2."""
        remote = self._remote()
        if remote is None:
            return
        remote.publish(kind, [self._path(kind, digest, suffix),
                              self._path(kind, digest, ".json")])

    # -- degraded mode ---------------------------------------------------

    @property
    def available(self) -> bool:
        """False once the store has demoted itself to read-only."""
        return not self._demoted

    def _demote(self, fault: StoreUnavailable) -> None:
        self._demoted = True
        self._demotion_reason = str(fault)
        self._note_recovery(f"store demoted to in-memory mode: {fault}")
        warnings.warn(
            f"artifact store at {self.root} is unavailable "
            f"({fault}); continuing without persistence -- results are "
            "kept in-memory only for this process",
            RuntimeWarning, stacklevel=4)

    def _guarded_write(self, publish) -> bool:
        """Run ``publish()``; on a disk-shaped failure demote the store
        (warn once) instead of propagating.  Returns True on success."""
        if self._demoted:
            return False
        try:
            publish()
            return True
        except StoreUnavailable as fault:
            self._demote(fault)
            return False

    # -- integrity envelope ----------------------------------------------

    def _write_sidecar(self, kind: str, digest: str, payload_path: Path,
                       key_payload: dict, extra: Optional[dict] = None) -> None:
        """Publish the ``.json`` sidecar: human-readable key, integrity
        envelope of the just-written payload, and kind-specific meta."""
        digest_value = _file_digest(payload_path)
        # The publisher just hashed the final payload: seed the
        # verify-once cache so the first load costs one stat().
        tiers.digest_cache().record(payload_path, digest_value)
        meta = {
            "key": key_payload,
            "envelope": {
                "kind": kind,
                "digest": digest_value,
                "nbytes": payload_path.stat().st_size,
            },
        }
        if extra:
            meta.update(extra)
        _atomic_write(self._path(kind, digest, ".json"),
                      lambda temp: Path(temp).write_text(json.dumps(meta, indent=1)))

    def _verify_envelope(self, kind: str, path: Path, sidecar: Path) -> dict:
        """Check one artifact's envelope; returns the sidecar meta or
        raises :class:`CorruptArtifact` describing the damage.

        Chunked artifacts (sidecars with a ``parts`` list instead of a
        monolithic ``envelope``) verify every listed part's size and
        digest; the monolithic payload path is not consulted."""
        if not sidecar.exists():
            if not path.exists():
                raise CorruptArtifact("orphaned sidecar (payload missing)",
                                      transient=True)
            raise CorruptArtifact(
                "missing sidecar (legacy artifact or torn write)",
                transient=True)
        try:
            meta = json.loads(sidecar.read_text())
        except (OSError, ValueError) as fault:
            raise CorruptArtifact(f"unreadable sidecar ({fault})") from fault
        if isinstance(meta, dict) and isinstance(meta.get("parts"), list):
            self._verify_parts(kind, meta["parts"])
            return meta
        if not path.exists():
            raise CorruptArtifact("orphaned sidecar (payload missing)",
                                  transient=True)
        envelope = meta.get("envelope") if isinstance(meta, dict) else None
        if not isinstance(envelope, dict):
            raise CorruptArtifact("legacy sidecar (no integrity envelope)")
        try:
            nbytes = path.stat().st_size
        except OSError:
            raise CorruptArtifact("payload vanished during verification",
                                  transient=True)
        if nbytes != envelope.get("nbytes"):
            raise CorruptArtifact(
                f"size mismatch ({nbytes} bytes on disk, "
                f"{envelope.get('nbytes')} recorded -- truncated or torn)")
        if _cached_digest(path) != envelope.get("digest"):
            raise CorruptArtifact(
                "content digest mismatch (bit rot or foreign payload)")
        return meta

    def _verify_parts(self, kind: str, parts: list) -> None:
        """Check every part of a chunked artifact against its recorded
        envelope; raises :class:`CorruptArtifact` on the first defect."""
        for entry in parts:
            name = entry.get("name") if isinstance(entry, dict) else None
            if (not isinstance(name, str) or os.sep in name
                    or ".tmp" in name or not _PART_STEM.match(
                        name[:-len(".npz")] if name.endswith(".npz") else name)):
                raise CorruptArtifact("malformed parts manifest")
            part = self.root / kind / name
            try:
                nbytes = part.stat().st_size
            except OSError:
                raise CorruptArtifact(f"missing part {name}", transient=True)
            if nbytes != entry.get("nbytes"):
                raise CorruptArtifact(
                    f"part {name}: size mismatch ({nbytes} bytes on disk, "
                    f"{entry.get('nbytes')} recorded -- truncated or torn)")
            if _cached_digest(part) != entry.get("digest"):
                raise CorruptArtifact(
                    f"part {name}: content digest mismatch "
                    "(bit rot or foreign payload)")

    def _listed_part_names(self, kind: str, digest: str):
        """Part names the digest's sidecar claims, or ``None`` when
        there is no (readable, chunked) sidecar."""
        try:
            meta = json.loads(self._path(kind, digest, ".json").read_text())
        except (OSError, ValueError):
            return None
        parts = meta.get("parts") if isinstance(meta, dict) else None
        if not isinstance(parts, list):
            return None
        return {entry.get("name") for entry in parts
                if isinstance(entry, dict)}

    def _open_verified(self, kind: str, digest: str, suffix: str):
        """``(path, meta)`` for a verified artifact, or ``None`` on a
        miss.  Damage is quarantined; in-flight writes (younger than
        the grace window) read as a plain miss."""
        path = self._path(kind, digest, suffix)
        sidecar = self._path(kind, digest, ".json")
        if not sidecar.exists():
            fetched = self._fetch_remote(kind, digest, suffix)
            if not fetched and not path.exists():
                return None
        try:
            meta = self._verify_envelope(kind, path, sidecar)
        except CorruptArtifact as fault:
            survivor = path if path.exists() else sidecar
            if fault.transient and not _is_stale(survivor):
                return None  # concurrent writer mid-publish
            self.quarantine(kind, digest, str(fault))
            return None
        return path, meta

    def quarantine(self, kind: str, digest: str, reason: str) -> None:
        """Move an artifact's files to ``quarantine/<kind>/`` alongside
        a ``<digest>.reason.json`` record.  Best-effort: on an
        unwritable store the damage stays in place and keeps reading as
        a miss."""
        self._note_recovery(
            f"quarantined {kind}/{digest[:12]}…: {reason}")
        target_dir = self.root / QUARANTINE_DIR / kind
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            moved = []
            for candidate in sorted((self.root / kind).glob(digest + ".*")):
                if ".tmp" in candidate.name:
                    continue
                tiers.invalidate_path(candidate)
                os.replace(candidate, target_dir / candidate.name)
                moved.append(candidate.name)
            record = {"kind": kind, "digest": digest, "reason": reason,
                      "files": moved, "quarantined_at": time.time()}
            (target_dir / (digest + ".reason.json")).write_text(
                json.dumps(record, indent=1))
        except OSError:
            pass

    # -- single-flight locking -------------------------------------------

    @contextmanager
    def single_flight(self, kind: str, digest: str,
                      timeout: Optional[float] = None):
        """Advisory per-fingerprint lock for miss-path computation.

        Yields True when this process holds the lock.  Yields False --
        and the caller simply computes redundantly, which is always
        correct -- when locking is unavailable (no ``fcntl``, unwritable
        store) or a hung holder did not release within ``timeout``
        (stale-lock takeover; crashed holders release automatically).
        Callers must re-check the store after acquisition: the previous
        holder usually published the artifact.
        """
        if fcntl is None or self._demoted:
            yield False
            return
        lock_path = self.root / LOCKS_DIR / f"{kind}-{digest}.lock"
        try:
            lock_path.parent.mkdir(parents=True, exist_ok=True)
            handle = open(lock_path, "a+")
        except OSError:
            yield False
            return
        acquired = False
        try:
            deadline = time.monotonic() + \
                (LOCK_TIMEOUT_S if timeout is None else timeout)
            while True:
                try:
                    fcntl.flock(handle.fileno(),
                                fcntl.LOCK_EX | fcntl.LOCK_NB)
                    acquired = True
                    break
                except OSError:
                    if time.monotonic() >= deadline:
                        break
                    time.sleep(LOCK_POLL_S)
            yield acquired
        finally:
            if acquired:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                except OSError:
                    pass
            handle.close()

    # -- rendered traces -------------------------------------------------

    def load_render(self, spec: TraceSpec) -> Optional[RenderResult]:
        """The cached render for ``spec``, or ``None`` on a miss.

        Reconstructed results carry the trace and the triangle/fragment
        counters; the framebuffer and per-triangle breakdown are only
        available from a fresh render.
        """
        digest = fingerprint(spec.payload())
        cached = self._memory_get("traces", digest)
        if cached is not tiers.MISS:
            return cached
        checked = self._open_verified("traces", digest, ".npz")
        if checked is None:
            return None
        path, meta = checked
        chunked = isinstance(meta.get("parts"), list)
        try:
            if chunked:
                # Chunked representation: materialize for callers that
                # want the whole trace (streaming consumers iterate
                # open_render_blocks instead and never do this).
                trace = concat_blocks(
                    traceio.load_trace(
                        str(self.root / "traces" / entry["name"]))
                    for entry in meta["parts"])
            else:
                trace = traceio.load_trace(str(path))
            submitted = int(meta["n_triangles_submitted"])
            rasterized = int(meta["n_triangles_rasterized"])
        except (ValueError, OSError, KeyError, TypeError,
                zipfile.BadZipFile) as fault:
            self.quarantine("traces", digest,
                            f"undecodable trace artifact ({fault!r})")
            return None
        result = RenderResult(
            trace=trace,
            framebuffer=None,
            n_fragments=trace.n_fragments,
            n_triangles_submitted=submitted,
            n_triangles_rasterized=rasterized,
        )
        # Chunked artifacts anchor T0 revalidation on the sidecar (the
        # one file whose identity covers the whole part set).
        self._memory_put("traces", digest,
                         ".json" if chunked else ".npz",
                         result, _object_nbytes(trace))
        return result

    def save_render(self, spec: TraceSpec, result: RenderResult) -> Path:
        digest = fingerprint(spec.payload())
        path = self._path("traces", digest, ".npz")

        def publish():
            _atomic_write(path,
                          lambda temp: traceio.save_trace(temp, result.trace))
            self._write_sidecar("traces", digest, path, spec.payload(), {
                "n_triangles_submitted": int(result.n_triangles_submitted),
                "n_triangles_rasterized": int(result.n_triangles_rasterized),
            })
        if self._guarded_write(publish):
            self._publish_remote("traces", digest, ".npz")
        return path

    # -- chunked (streaming) traces --------------------------------------

    def open_render_writer(self, spec: TraceSpec,
                           part_base: int = 0) -> "ChunkedRenderWriter":
        """A :class:`ChunkedRenderWriter` that persists ``spec``'s
        render one :class:`~repro.pipeline.trace.FragmentBlock` at a
        time; peak store-side memory is one block.  ``part_base``
        offsets the part numbering so several writers (one per
        pipelined range) can stream the same trace without colliding;
        the parent renumbers densely before publishing the sidecar."""
        return ChunkedRenderWriter(self, spec, part_base=part_base)

    def publish_chunked_sidecar(self, spec: TraceSpec, parts: list,
                                counters: dict) -> bool:
        """Publish the sidecar that turns already-written part files
        into a complete chunked trace artifact -- the single commit
        point shared by the serial :class:`ChunkedRenderWriter` and
        the pipelined parent assembling parts from several writers.
        ``counters`` must carry ``n_triangles_submitted`` /
        ``n_triangles_rasterized`` (and optionally ``has_positions``);
        access/fragment totals come from the part envelopes."""
        digest = fingerprint(spec.payload())
        meta = {
            "key": spec.payload(),
            "parts": list(parts),
            "n_parts": len(parts),
            "n_accesses": sum(int(entry["n_accesses"]) for entry in parts),
            "n_fragments": sum(int(entry["n_fragments"]) for entry in parts),
            "has_positions": bool(counters.get("has_positions", False)),
            "n_triangles_submitted": int(counters["n_triangles_submitted"]),
            "n_triangles_rasterized": int(counters["n_triangles_rasterized"]),
        }

        def publish():
            _atomic_write(
                self._path("traces", digest, ".json"),
                lambda temp: Path(temp).write_text(json.dumps(meta, indent=1)))
        published = self._guarded_write(publish)
        if published:
            remote = self._remote()
            if remote is not None:
                # Every part before the sidecar: a torn upload can
                # never verify as a complete remote artifact.
                remote.publish("traces", [
                    self.root / "traces" / entry["name"]
                    for entry in meta["parts"]
                ] + [self._path("traces", digest, ".json")])
        return published

    def renumber_parts(self, spec: TraceSpec, parts: list):
        """Rename strided part files (``part_base`` writers) into the
        dense ``.p00000``... sequence the sidecar will list, in the
        given order.  Returns the renamed envelopes, or ``None`` when a
        rename failed (the caller then withholds the sidecar and the
        strided parts age out as orphan litter)."""
        digest = fingerprint(spec.payload())
        renamed = []
        for index, entry in enumerate(parts):
            source = self.root / "traces" / entry["name"]
            target = self._path(
                "traces", digest, f".p{index:0{traceio.PART_DIGITS}d}.npz")
            if source != target:
                try:
                    os.replace(source, target)
                except OSError:
                    return None
            renamed.append({**entry, "name": target.name})
        return renamed

    # -- crash-resume metadata (interrupted pipelined renders) -----------

    def save_stream_plan(self, spec: TraceSpec, plan: dict) -> bool:
        """Record the range plan of a pipelined cold render before the
        first block is dispatched: how the clipped-triangle space was
        cut (``n_ranges``, ``chunk_size``, ``part_stride``).  A later
        run killed mid-render re-reads this to reuse the *same* slicing
        geometry, so surviving parts stay valid verbatim."""
        digest = fingerprint(spec.payload())
        meta = {"key": spec.payload(), **plan}
        return self._guarded_write(lambda: _atomic_write(
            self._path("traces", digest, ".plan.json"),
            lambda temp: Path(temp).write_text(json.dumps(meta, indent=1))))

    def load_stream_plan(self, spec: TraceSpec) -> Optional[dict]:
        try:
            return json.loads(
                self._path("traces", fingerprint(spec.payload()),
                           ".plan.json").read_text())
        except (OSError, ValueError):
            return None

    def save_range_record(self, spec: TraceSpec, index: int,
                          payload: dict) -> bool:
        """Atomically record one completed range of a pipelined render:
        its part envelopes and render totals.  The record is what makes
        the range's strided parts *resumable* -- a future run verifies
        the envelopes and folds the parts warm instead of re-rendering
        the slice."""
        digest = fingerprint(spec.payload())
        return self._guarded_write(lambda: _atomic_write(
            self._path("traces", digest, f".r{int(index):05d}.done.json"),
            lambda temp: Path(temp).write_text(
                json.dumps(payload, indent=1))))

    def load_range_records(self, spec: TraceSpec) -> dict:
        """``{range_index: record}`` for every readable completion
        record of ``spec``'s interrupted render (unverified -- callers
        check the envelopes against the parts on disk)."""
        digest = fingerprint(spec.payload())
        records: dict = {}
        directory = self.root / "traces"
        if not directory.is_dir():
            return records
        for path in sorted(directory.glob(digest + ".r*.done.json")):
            match = _RANGE_RECORD_INDEX.search(path.name)
            if match is None:
                continue
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(record, dict):
                records[int(match.group(1))] = record
        return records

    def discard_range_record(self, spec: TraceSpec, index: int,
                             part_names=()) -> None:
        """Drop one range's stale completion record and (optionally)
        the part files it claimed -- the record failed verification, so
        the range re-renders from scratch."""
        digest = fingerprint(spec.payload())
        candidates = [self._path("traces", digest,
                                 f".r{int(index):05d}.done.json")]
        for name in part_names:
            if isinstance(name, str) and os.sep not in name \
                    and name.startswith(digest):
                candidates.append(self.root / "traces" / name)
        for path in candidates:
            try:
                path.unlink()
            except OSError:
                pass

    def discard_resume_state(self, spec: TraceSpec) -> None:
        """Drop every resume-metadata file of ``spec`` (plan and range
        records) -- called after the assembled artifact publishes, when
        there is nothing left to resume.  Part files are not touched:
        published ones belong to the artifact, unpublished ones age out
        as orphan litter."""
        digest = fingerprint(spec.payload())
        directory = self.root / "traces"
        if not directory.is_dir():
            return
        for path in [directory / (digest + ".plan.json"),
                     *directory.glob(digest + ".r*.done.json")]:
            try:
                path.unlink()
            except OSError:
                pass

    def verify_part_list(self, kind: str, parts: list) -> bool:
        """Whether every part envelope in ``parts`` matches the file on
        disk (size and content digest) -- :meth:`_verify_parts` as a
        predicate, for resume-record validation."""
        try:
            self._verify_parts(kind, parts)
        except CorruptArtifact:
            return False
        return True

    def open_render_blocks(self, spec: TraceSpec):
        """A :class:`ChunkedRenderReader` over ``spec``'s chunked trace
        parts, or ``None`` when the store holds no chunked
        representation (monolithic artifact, miss, or damage -- damage
        is quarantined exactly as :meth:`load_render` would).

        Every part's integrity envelope is verified up front (constant
        memory); parts then deserialize lazily, one block per
        :meth:`ChunkedRenderReader.read_part`."""
        digest = fingerprint(spec.payload())
        checked = self._open_verified("traces", digest, ".npz")
        if checked is None:
            return None
        _, meta = checked
        if not isinstance(meta.get("parts"), list):
            return None
        return ChunkedRenderReader(self, meta)

    # -- byte-address streams --------------------------------------------

    def load_addresses(self, payload: dict) -> Optional[np.ndarray]:
        digest = fingerprint(payload)
        cached = self._memory_get("addresses", digest)
        if cached is not tiers.MISS:
            return cached
        checked = self._open_verified("addresses", digest, ".npy")
        if checked is None:
            return None
        path, _ = checked
        try:
            # A read-only map instead of a copy: every consumer derives
            # new arrays (line reduction, collapses) and never writes
            # back, so warm loads cost page-ins, not a full decompress.
            if tiers.mmap_enabled():
                addresses = np.load(path, mmap_mode="r")
            else:
                addresses = np.load(path)
        except (ValueError, OSError) as fault:
            self.quarantine("addresses", digest,
                            f"undecodable address stream ({fault!r})")
            return None
        self._memory_put("addresses", digest, ".npy", addresses,
                         addresses.nbytes)
        return addresses

    def save_addresses(self, payload: dict, addresses: np.ndarray) -> Path:
        digest = fingerprint(payload)
        path = self._path("addresses", digest, ".npy")

        def publish():
            _atomic_write(path, lambda temp: np.save(temp, addresses))
            self._write_sidecar("addresses", digest, path, payload)
        if self._guarded_write(publish):
            self._memory_put("addresses", digest, ".npy", addresses,
                             addresses.nbytes)
            self._publish_remote("addresses", digest, ".npy")
        return path

    # -- stack-distance profiles -----------------------------------------

    def load_profile(self, payload: dict) -> Optional[DistanceProfile]:
        digest = fingerprint(payload)
        cached = self._memory_get("profiles", digest)
        if cached is not tiers.MISS:
            return cached
        checked = self._open_verified("profiles", digest, ".npz")
        if checked is None:
            return None
        path, _ = checked
        try:
            with np.load(path) as archive:
                counts = archive["counts"]
                cold, duplicate_hits = archive["meta"].tolist()
        except (ValueError, OSError, KeyError,
                zipfile.BadZipFile) as fault:
            self.quarantine("profiles", digest,
                            f"undecodable profile ({fault!r})")
            return None
        profile = DistanceProfile(counts=counts, cold=int(cold),
                                  duplicate_hits=int(duplicate_hits))
        self._memory_put("profiles", digest, ".npz", profile,
                         counts.nbytes + 64)
        return profile

    def save_profile(self, payload: dict, profile: DistanceProfile) -> Path:
        digest = fingerprint(payload)
        path = self._path("profiles", digest, ".npz")

        def write(temp):
            # Stored (uncompressed) npz, like the chunked parts: the
            # envelope digest already guards integrity, and skipping
            # deflate keeps both publish and warm load IO-bound.
            np.savez(
                temp, counts=profile.counts,
                meta=np.array([profile.cold, profile.duplicate_hits],
                              dtype=np.int64))

        def publish():
            _atomic_write(path, write)
            self._write_sidecar("profiles", digest, path, payload)
        if self._guarded_write(publish):
            self._memory_put("profiles", digest, ".npz", profile,
                             profile.counts.nbytes + 64)
            self._publish_remote("profiles", digest, ".npz")
        return path

    # -- per-set stack-distance profiles ---------------------------------

    def load_set_profile(self, payload: dict) -> Optional[SetDistanceProfile]:
        digest = fingerprint(payload)
        cached = self._memory_get("set_profiles", digest)
        if cached is not tiers.MISS:
            return cached
        checked = self._open_verified("set_profiles", digest, ".npz")
        if checked is None:
            return None
        path, _ = checked
        try:
            with np.load(path) as archive:
                counts = archive["counts"]
                line_size, n_sets, cold, duplicate_hits = \
                    archive["meta"].tolist()
        except (ValueError, OSError, KeyError,
                zipfile.BadZipFile) as fault:
            self.quarantine("set_profiles", digest,
                            f"undecodable per-set profile ({fault!r})")
            return None
        profile = SetDistanceProfile(
            line_size=int(line_size), n_sets=int(n_sets), counts=counts,
            cold=int(cold), duplicate_hits=int(duplicate_hits))
        self._memory_put("set_profiles", digest, ".npz", profile,
                         counts.nbytes + 64)
        return profile

    def save_set_profile(self, payload: dict,
                         profile: SetDistanceProfile) -> Path:
        digest = fingerprint(payload)
        path = self._path("set_profiles", digest, ".npz")

        def write(temp):
            # Stored (uncompressed) npz -- see save_profile.
            np.savez(
                temp, counts=profile.counts,
                meta=np.array([profile.line_size, profile.n_sets,
                               profile.cold, profile.duplicate_hits],
                              dtype=np.int64))

        def publish():
            _atomic_write(path, write)
            self._write_sidecar("set_profiles", digest, path, payload)
        if self._guarded_write(publish):
            self._memory_put("set_profiles", digest, ".npz", profile,
                             profile.counts.nbytes + 64)
            self._publish_remote("set_profiles", digest, ".npz")
        return path

    # -- maintenance -----------------------------------------------------

    def _scan_kind(self, kind: str):
        """``(payloads, sidecar_stems, tmp_names, parts, resume)`` for
        one kind, tolerant of files vanishing mid-scan (concurrent
        ``clear()``).  ``parts`` maps each digest to its chunked part
        files on disk (listed or not by any sidecar); ``resume`` maps
        each digest to its crash-resume metadata files (plan and range
        records), which must never be mistaken for artifact sidecars."""
        payloads, sidecars, tmp, parts, resume = {}, set(), [], {}, {}
        directory = self.root / kind
        if not directory.is_dir():
            return payloads, sidecars, tmp, parts, resume
        for entry in sorted(directory.glob("*")):
            try:
                if not entry.is_file():
                    continue
                entry.stat()
            except OSError:
                continue  # deleted between glob and stat: skip
            match = _PART_STEM.match(entry.stem)
            resume_match = _RESUME_STEM.match(entry.stem)
            if ".tmp" in entry.name:
                tmp.append(entry.name)
            elif match is not None and entry.suffix == ".npz":
                parts.setdefault(match.group(1), []).append(entry)
            elif resume_match is not None and entry.suffix == ".json":
                resume.setdefault(resume_match.group(1), []).append(entry)
            elif entry.suffix == ".json":
                sidecars.add(entry.stem)
            else:
                payloads[entry.stem] = entry
        return payloads, sidecars, tmp, parts, resume

    def _resumable_part_names(self, kind: str, resume_paths) -> set:
        """Part names claimed by the readable range records among
        ``resume_paths`` -- name-level only (cheap); deep envelope
        verification happens in :meth:`verify` / at resume time."""
        names = set()
        for path in resume_paths:
            if not path.name.endswith(".done.json"):
                continue
            try:
                record = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            envelopes = record.get("envelopes") \
                if isinstance(record, dict) else None
            if not isinstance(envelopes, list):
                continue
            for entry in envelopes:
                if isinstance(entry, dict) and \
                        isinstance(entry.get("name"), str):
                    names.add(entry["name"])
        return names

    def stats(self) -> dict:
        """Per-kind artifact counts and byte totals -- chunked trace
        parts reported separately -- plus orphaned ``*.tmp*`` litter,
        orphaned part files (parts no sidecar lists, counted as
        litter) and quarantined-file counts."""
        remote = self._remote()
        report = {"root": str(self.root), "kinds": {}, "total_bytes": 0,
                  "total_files": 0, "tmp_files": 0,
                  "part_files": 0, "part_bytes": 0, "orphaned_parts": 0,
                  "resumable_parts": 0,
                  "quarantined": self._count_quarantined(),
                  "memory": tiers.memory_tier().stats(),
                  "digest_cache": tiers.digest_cache().stats(),
                  "remote": {
                      "configured": remote is not None,
                      "root": str(remote.root) if remote else None,
                      "reachable": remote.reachable() if remote else False,
                  }}
        for kind in KINDS:
            payloads, sidecars, tmp_names, parts, resume = \
                self._scan_kind(kind)
            files = nbytes = 0
            for entry in list(payloads.values()) + [
                    self._path(kind, stem, ".json") for stem in sidecars]:
                try:
                    size = entry.stat().st_size
                except OSError:
                    continue  # vanished between glob and stat
                files += 1
                nbytes += size
            part_files = part_bytes = orphaned = resumable = 0
            for digest, entries in parts.items():
                listed = self._listed_part_names(kind, digest)
                covered = (self._resumable_part_names(
                    kind, resume.get(digest, ())) if digest in resume
                    else set())
                for part in entries:
                    try:
                        size = part.stat().st_size
                    except OSError:
                        continue
                    part_files += 1
                    part_bytes += size
                    if listed is not None and part.name in listed:
                        continue
                    if part.name in covered:
                        resumable += 1
                    else:
                        orphaned += 1
            report["kinds"][kind] = {
                "files": files, "bytes": nbytes, "tmp": len(tmp_names),
                "parts": part_files, "part_bytes": part_bytes,
                "orphaned_parts": orphaned, "resumable_parts": resumable}
            report["total_files"] += files + part_files
            report["total_bytes"] += nbytes + part_bytes
            report["tmp_files"] += len(tmp_names)
            report["part_files"] += part_files
            report["part_bytes"] += part_bytes
            report["orphaned_parts"] += orphaned
            report["resumable_parts"] += resumable
        return report

    def _count_quarantined(self) -> int:
        quarantine_root = self.root / QUARANTINE_DIR
        if not quarantine_root.is_dir():
            return 0
        count = 0
        for entry in quarantine_root.glob("*/*"):
            try:
                if entry.is_file() and not entry.name.endswith(".reason.json"):
                    count += 1
            except OSError:
                continue
        return count

    def verify(self) -> dict:
        """Scan every artifact's integrity envelope without modifying
        anything.  ``bad`` lists verifiable damage; ``pending`` counts
        in-flight (younger than the grace window) torn states; ``tmp``
        lists temp-file litter; ``orphaned_parts`` lists stale part
        files no sidecar claims (litter, not corruption -- a streaming
        writer died before publishing its sidecar); ``resumable`` lists
        stale unlisted parts that an interrupted pipelined render's
        completion records cover (envelope-verified) -- the next cold
        fold resumes from them, so they are neither damage nor litter
        and :meth:`repair` keeps them."""
        remote = self._remote()
        report = {"root": str(self.root), "kinds": {},
                  "ok": 0, "bad": 0, "pending": 0, "tmp": 0,
                  "orphaned_parts": 0, "resumable": 0,
                  "remote": {
                      "configured": remote is not None,
                      "root": str(remote.root) if remote else None,
                      "reachable": remote.reachable() if remote else False,
                  }}
        for kind in KINDS:
            payloads, sidecars, tmp_names, parts, resume = \
                self._scan_kind(kind)
            entry = {"ok": 0, "bad": [], "pending": 0, "tmp": tmp_names,
                     "orphaned_parts": [], "resumable": [],
                     "stale_resume": []}
            for stem in sorted(set(payloads) | sidecars):
                path = payloads.get(stem, self._path(kind, stem, ".npz"))
                sidecar = self._path(kind, stem, ".json")
                try:
                    self._verify_envelope(kind, path, sidecar)
                except CorruptArtifact as fault:
                    survivor = path if path.exists() else sidecar
                    if fault.transient and not _is_stale(survivor):
                        entry["pending"] += 1
                    else:
                        name = path.name if stem in payloads else sidecar.name
                        entry["bad"].append({"file": name,
                                             "reason": str(fault)})
                else:
                    entry["ok"] += 1
            verified_resumable: dict = {}
            for digest, meta_paths in resume.items():
                covered: set = set()
                for path in meta_paths:
                    if not path.name.endswith(".done.json"):
                        continue
                    try:
                        record = json.loads(path.read_text())
                    except (OSError, ValueError):
                        continue
                    envelopes = record.get("envelopes") \
                        if isinstance(record, dict) else None
                    if isinstance(envelopes, list) \
                            and self.verify_part_list(kind, envelopes):
                        covered.update(
                            item["name"] for item in envelopes
                            if isinstance(item, dict)
                            and isinstance(item.get("name"), str))
                verified_resumable[digest] = covered
                if digest in sidecars:
                    # The artifact published; leftover resume metadata
                    # is stale litter for repair() to purge.
                    entry["stale_resume"].extend(
                        path.name for path in meta_paths
                        if _is_stale(path))
            for digest in sorted(parts):
                listed = self._listed_part_names(kind, digest) or set()
                covered = verified_resumable.get(digest, set())
                for part in parts[digest]:
                    if part.name in listed:
                        continue  # accounted for by its artifact above
                    if not _is_stale(part):
                        entry["pending"] += 1
                    elif part.name in covered:
                        entry["resumable"].append(part.name)
                    else:
                        entry["orphaned_parts"].append(part.name)
            report["kinds"][kind] = entry
            report["ok"] += entry["ok"]
            report["bad"] += len(entry["bad"])
            report["pending"] += entry["pending"]
            report["tmp"] += len(entry["tmp"])
            report["orphaned_parts"] += len(entry["orphaned_parts"])
            report["resumable"] += len(entry["resumable"])
        report["clean"] = report["bad"] == 0
        return report

    def repair(self) -> dict:
        """Self-heal the store: quarantine every artifact that fails
        verification, purge stale ``*.tmp*`` litter left by killed
        writers and stale orphaned part files left by killed streaming
        writers.  In-flight writes (within the grace window) and
        resumable parts of interrupted pipelined renders -- along with
        the resume metadata that covers them -- are left alone; resume
        metadata is only purged once its artifact has published."""
        scan = self.verify()
        quarantined, purged, purged_parts, purged_resume = [], [], [], []
        for kind, entry in scan["kinds"].items():
            for problem in entry["bad"]:
                digest = problem["file"].split(".", 1)[0]
                self.quarantine(kind, digest, problem["reason"])
                quarantined.append(f"{kind}/{problem['file']}")
            for name in entry["tmp"]:
                litter = self.root / kind / name
                if not _is_stale(litter):
                    continue  # a live writer may still publish it
                try:
                    litter.unlink()
                except OSError:
                    continue
                purged.append(f"{kind}/{name}")
            for name in entry["orphaned_parts"]:
                # verify() already held these to the staleness window.
                try:
                    (self.root / kind / name).unlink()
                except OSError:
                    continue
                purged_parts.append(f"{kind}/{name}")
            for name in entry["stale_resume"]:
                try:
                    (self.root / kind / name).unlink()
                except OSError:
                    continue
                purged_resume.append(f"{kind}/{name}")
        return {"root": str(self.root), "quarantined": quarantined,
                "purged_tmp": purged, "purged_parts": purged_parts,
                "purged_resume": purged_resume,
                "kept_resumable": scan["resumable"]}

    def clear(self, tier: Optional[str] = None) -> dict:
        """Delete artifacts; returns the pre-clear :meth:`stats`.

        ``tier=None`` clears everything: the disk tier (including
        quarantine, locks and temp litter) and this store's entries in
        the process tiers.  ``tier="disk"`` touches only the on-disk
        files; ``tier="memory"`` only drops the in-process T0 and
        digest-cache entries, leaving disk intact."""
        if tier not in (None, "memory", "disk"):
            raise ValueError(f"unknown tier {tier!r} "
                             "(expected 'memory' or 'disk')")
        report = self.stats()
        if tier in (None, "disk"):
            for kind in KINDS + (QUARANTINE_DIR, LOCKS_DIR):
                shutil.rmtree(self.root / kind, ignore_errors=True)
        # Cleared disk entries could only ever read as stat-mismatch
        # misses anyway; dropping them keeps the byte budget honest.
        tiers.memory_tier().invalidate_store(str(self.root))
        tiers.digest_cache().invalidate_under(self.root)
        return report


class ChunkedRenderWriter:
    """Stream a render into the store as checksummed part files.

    Feed :meth:`append` each :class:`~repro.pipeline.trace.FragmentBlock`
    as it is produced, then :meth:`finish` with the render counters;
    only then is the sidecar -- the thing that makes the parts an
    artifact -- published.  A writer killed mid-stream leaves orphaned
    parts, which read as a plain miss and are purged by
    :meth:`ArtifactStore.repair` once stale.  On a demoted store every
    method is a no-op and :meth:`finish` returns ``False``; if any
    single part fails to publish, the sidecar is withheld so a partial
    trace can never verify as complete.
    """

    def __init__(self, store: ArtifactStore, spec: TraceSpec,
                 part_base: int = 0):
        self._store = store
        self._spec = spec
        self._payload = spec.payload()
        self._digest = fingerprint(self._payload)
        self._part_base = int(part_base)
        self._parts = []
        self._n_accesses = 0
        self._n_fragments = 0
        self._has_positions = False
        self._complete = True
        self._finished = False

    @property
    def part_envelopes(self) -> list:
        """Integrity envelopes of the parts published so far."""
        return list(self._parts)

    def append(self, block) -> None:
        """Atomically publish one block as the next part file."""
        if self._finished:
            raise StoreError("ChunkedRenderWriter already finished")
        store = self._store
        index = self._part_base + len(self._parts)
        path = store._path(
            "traces", self._digest,
            f".p{index:0{traceio.PART_DIGITS}d}.npz")

        def publish():
            # Stored (uncompressed) npz: the part's integrity lives in
            # its envelope digest, and skipping deflate roughly triples
            # cold streamed throughput on trace-bound scenes.
            _atomic_write(path, lambda temp: traceio.save_trace(
                temp, block, compress=False))
        if not store._guarded_write(publish):
            self._complete = False
            return
        try:
            digest_value = _file_digest(path)
            # Hashed at publish: the writer's own warm folds (and any
            # reader in this process) verify this part with a stat().
            tiers.digest_cache().record(path, digest_value)
            envelope = {
                "name": path.name,
                "digest": digest_value,
                "nbytes": path.stat().st_size,
                "n_accesses": int(block.n_accesses),
                "n_fragments": int(block.n_fragments),
            }
        except OSError:
            self._complete = False
            return
        self._parts.append(envelope)
        self._n_accesses += int(block.n_accesses)
        self._n_fragments += int(block.n_fragments)
        self._has_positions = bool(block.has_positions)

    def finish(self, counters: dict) -> bool:
        """Publish the sidecar listing every part.  ``counters`` must
        carry ``n_triangles_submitted``/``n_triangles_rasterized`` (the
        ``totals`` dict filled by
        :func:`~repro.pipeline.renderer.render_trace_blocks` works).
        Returns whether the artifact is now complete on disk."""
        parts, complete, has_positions = self.finish_parts()
        if not complete:
            return False
        return self._store.publish_chunked_sidecar(
            self._spec, parts, {**counters, "has_positions": has_positions})

    def finish_parts(self) -> tuple:
        """Close the writer WITHOUT publishing a sidecar; returns
        ``(envelopes, complete, has_positions)``.  This is the
        pipelined-range half of :meth:`finish`: each worker's writer
        hands its envelopes to the parent, which assembles every
        range's parts in order and commits the sidecar itself -- so a
        partial fleet can never publish a partial trace."""
        if self._finished:
            raise StoreError("ChunkedRenderWriter already finished")
        self._finished = True
        complete = self._complete and not self._store._demoted
        return list(self._parts), complete, self._has_positions


class ChunkedRenderReader:
    """Iterate a chunked trace artifact one
    :class:`~repro.pipeline.trace.FragmentBlock` at a time.

    Obtained from :meth:`ArtifactStore.open_render_blocks`, which has
    already verified every part's integrity envelope; reading holds
    one part in memory.  Carries the render counters the monolithic
    sidecar would."""

    def __init__(self, store: ArtifactStore, meta: dict):
        self._root = store.root
        self.meta = meta
        self.parts = meta["parts"]
        self._pending_digest = None

    @classmethod
    def pending(cls, store: ArtifactStore,
                spec: TraceSpec) -> "ChunkedRenderReader":
        """A reader over a chunked trace that is still being written:
        there is no sidecar yet, so parts are readiness-polled
        (:meth:`poll_part`) as their producers publish them.  Totals
        are unknown until the producers report; only per-part access
        is meaningful on a pending reader."""
        reader = cls(store, {"parts": [], "n_accesses": 0,
                             "n_fragments": 0, "key": spec.payload()})
        reader._pending_digest = fingerprint(spec.payload())
        return reader

    def poll_part(self, part_index: int):
        """The part at absolute index ``part_index`` if its producer
        has already published it, else ``None`` -- the readiness
        protocol for folding a trace while it is still being written.
        Parts are committed with an atomic rename, so existence implies
        completeness; no lock, size or digest handshake is needed."""
        if self._pending_digest is None:
            raise StoreError("poll_part needs a pending() reader")
        name = (f"{self._pending_digest}"
                f".p{int(part_index):0{traceio.PART_DIGITS}d}.npz")
        path = self._root / "traces" / name
        if not path.exists():
            return None
        return self._load_block(name, int(part_index))

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    @property
    def n_accesses(self) -> int:
        return int(self.meta["n_accesses"])

    @property
    def n_fragments(self) -> int:
        return int(self.meta["n_fragments"])

    @property
    def n_triangles_submitted(self) -> int:
        return int(self.meta["n_triangles_submitted"])

    @property
    def n_triangles_rasterized(self) -> int:
        return int(self.meta["n_triangles_rasterized"])

    def read_part(self, index: int) -> FragmentBlock:
        return self._load_block(self.parts[index]["name"], index)

    def _load_block(self, name: str, index: int) -> FragmentBlock:
        return load_part_block(self._root, name, index)

    def __iter__(self):
        for index in range(self.n_parts):
            yield self.read_part(index)

    def __len__(self) -> int:
        return self.n_parts
