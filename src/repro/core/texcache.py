"""Cycle-level prefetching texture cache (Igehy, Eldridge & Proudfoot,
*Prefetching in a Texture Cache Architecture*, SIGGRAPH/Eurographics
Workshop on Graphics Hardware 1998).

The source paper's Section 7.1.1 assumes a prefetching rasterizer hides
the ~50-cycle line-fill latency; Igehy et al. is the follow-on that
models the architecture precisely with three queues:

* a **fragment FIFO** of ``fragment_fifo`` entries between the tag
  check and the texture applicator -- *every* fragment traverses it,
  hit or miss, which is what lets misses overlap with the latency of
  earlier fills;
* a bounded **request FIFO** of ``request_fifo`` pending line fills
  between the tag check and the memory system -- when it is full the
  tag check (and therefore the rasterizer) stalls;
* a **reorder buffer** of ``reorder_buffer`` line slots absorbing the
  fixed-latency, pipelined DRAM returns -- a slot is reserved when the
  memory system accepts the request and freed when the owning fragment
  reaches the head of the fragment FIFO and reads its texels.

:func:`simulate_texcache` walks a per-fragment fill-count stream (from
:func:`~repro.core.prefetch.fragment_miss_counts`, i.e. the exact
per-access verdicts of :func:`~repro.core.kernels.miss_mask`) through
this machine in **integer cycles** and reports total/stall cycles and
queue occupancies.  Two implementations sit behind the repository's
``kernel={"vectorized", "reference"}`` knob:

``"reference"``
    a per-event sequential walk of the recurrences below -- the oracle;
``"vectorized"``
    a lag-blocked scan: the stream is cut into blocks short enough
    that every lagged gate (``begin[i - fragment_fifo]``,
    ``accept[j - request_fifo]``, ``accept[j - reorder_buffer]``)
    lands in an already-computed block, and within a block every
    recurrence collapses to ``np.maximum.accumulate`` over running-sum
    transforms.  All arithmetic is int64, so the two kernels agree
    cycle-exactly, and a whole axis of fill latencies is batched as
    rows of the same 2-D scans (:func:`sweep_texcache`).  Each block
    costs a fixed handful of numpy calls, so on short or shallow grids
    the sequential walk is faster: below :data:`_BLOCKED_CROSSOVER`
    the vectorized entry points run the walk instead.

Timing semantics (all quantities in cycles, fragment ``i``, fill ``j``
with ``frag(j)`` its owner, ``J(i)`` the last fill of fragment ``i``):

* tag check / fragment-FIFO entry::

      enter[i]  = max(deposit[i-1] + arrival, gate[i])
      gate[i]   = begin[i - F]            (F >= 1; the FIFO is full)
                = begin[i - 1] + consume  (F == 0; no prefetch -- the
                                           merged stage reaches i)
      deposit[i] = max(enter[i], accept[J(i) - R])   (request FIFO
                   full: the tag stage holds fragment i until its last
                   request fits)

* memory acceptance of fill ``j`` (one fill in flight per channel
  slot, a reorder-buffer slot reserved on acceptance)::

      accept[j] = max(enter[frag(j)], accept[j-1] + service[j-1],
                      begin[frag(j - B)])

  The request-FIFO bound never delays *acceptance* (``accept[j - R] <=
  accept[j-1] + service[j-1]`` for any ``R >= 1``); it acts purely as
  back-pressure on the tag stage through ``deposit``.

* pipelined return and texturing::

      return[j] = accept[j] + latency
      begin[i]  = max(begin[i-1] + consume, enter[i], return[J(i)])

``total = begin[n-1] + consume``; the ideal pipeline retires one
fragment per ``max(arrival, consume)``, and ``stall`` is the excess.

A real reorder buffer smaller than one fragment's worst-case fill
count deadlocks (fill ``j`` cannot be accepted until its own fragment
begins texturing, which waits on fill ``j``), so
:func:`simulate_texcache` raises ``ValueError`` for it up front.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import kernels
from .cache import CacheConfig
from .dram import PAPER_DRAM, DramModel
from .kernels import _argsort_bounded
from .machine import MachineModel
from .prefetch import fragment_miss_counts

#: "Minus infinity" for int64 cycle arithmetic: low enough to lose
#: every max, high enough that adding latencies/offsets cannot wrap.
_NEG = np.int64(-(np.int64(1) << np.int64(60)))

#: Ceiling on depth x latency grid rows solved in one blocked pass --
#: bounds the transient (events x rows) arrays in :func:`sweep_texcache`.
_SWEEP_ROW_CAP = 64

#: Below this ratio of sequential-walk steps (fragments x grid cells)
#: to blocked-scan blocks (fragments / minimum FIFO depth) the
#: vectorized kernel runs the sequential walk instead, which is then
#: the faster of two cycle-identical implementations.  Measured on a
#: 2-vCPU host over 500-50,000 fragments: the two break even near a
#: ratio of 64-128 (``bench_prefetch_timing --smoke``'s 4 cells at
#: depth 8, ratio 32, ran the blocked scan at 0.4x the walk's speed;
#: 48 cells at depth 32, ratio 1536, ran it at 7-8x).
_BLOCKED_CROSSOVER = 128


def _as_cycles(value, name: str) -> int:
    """An integral cycle count, rejecting fractional machine values."""
    cycles = int(round(float(value)))
    if abs(float(value) - cycles) > 1e-9:
        raise ValueError(f"{name} must be an integral cycle count, "
                         f"got {value!r}")
    return cycles


@dataclass(frozen=True)
class TexCacheParams:
    """The three queue depths and the pipeline's cycle constants.

    Defaults model the source paper's machine with a 128-byte line:
    fills return after 50 cycles and occupy the memory channel for 32
    (128 B at 4 B/cycle); the texture stage consumes and the
    rasterizer produces one fragment per 2 cycles (8 texels through 4
    ports).
    """

    fragment_fifo: int = 32
    request_fifo: int = 8
    reorder_buffer: int = 8
    fill_latency: int = 50
    fill_interval: int = 32
    consume_cycles: int = 2
    arrival_cycles: int = 2
    clock_hz: float = 100e6

    def __post_init__(self) -> None:
        for name, minimum in (("fragment_fifo", 0), ("request_fifo", 1),
                              ("reorder_buffer", 1), ("fill_latency", 1),
                              ("fill_interval", 1), ("consume_cycles", 1),
                              ("arrival_cycles", 1)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer cycle count")
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}")

    @classmethod
    def from_machine(cls, machine: MachineModel, line_size: int,
                     fragment_fifo: int = 32,
                     request_fifo: Optional[int] = None,
                     reorder_buffer: Optional[int] = None) -> "TexCacheParams":
        """Cycle constants derived from a :class:`MachineModel`.

        The request FIFO and reorder buffer default to one fragment's
        worst case (``texels_per_fragment`` fills), the minimum that
        can never deadlock.
        """
        worst_case = int(machine.texels_per_fragment)
        consume = _as_cycles(machine.cycles_per_fragment,
                             "machine.cycles_per_fragment")
        return cls(
            fragment_fifo=int(fragment_fifo),
            request_fifo=int(request_fifo if request_fifo is not None
                             else worst_case),
            reorder_buffer=int(reorder_buffer if reorder_buffer is not None
                               else worst_case),
            fill_latency=_as_cycles(machine.miss_latency_cycles(line_size),
                                    "miss_latency_cycles"),
            fill_interval=_as_cycles(line_size / machine.dram_bytes_per_cycle,
                                     "line_size / dram_bytes_per_cycle"),
            consume_cycles=consume,
            arrival_cycles=consume,
            clock_hz=machine.clock_hz,
        )


@dataclass(frozen=True)
class TexCacheResult:
    """Integer-cycle outcome of one stream through the three queues.

    The ``*_wait`` fields are occupancy integrals (cycles summed over
    entries), so ``wait / total_cycles`` is the queue's average
    occupancy in entries.
    """

    n_fragments: int
    n_fills: int
    total_cycles: int
    ideal_cycles: int
    stall_cycles: int
    fragment_fifo_wait: int
    request_fifo_wait: int
    reorder_buffer_wait: int
    params: TexCacheParams

    @property
    def fragments_per_second(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.n_fragments / self.total_cycles * self.params.clock_hz

    @property
    def efficiency(self) -> float:
        """Achieved fragment rate over the stall-free pipeline's."""
        if self.total_cycles == 0:
            return 0.0
        return self.ideal_cycles / self.total_cycles

    @property
    def avg_fragment_fifo(self) -> float:
        return self.fragment_fifo_wait / self.total_cycles \
            if self.total_cycles else 0.0

    @property
    def avg_request_fifo(self) -> float:
        return self.request_fifo_wait / self.total_cycles \
            if self.total_cycles else 0.0

    @property
    def avg_reorder_buffer(self) -> float:
        return self.reorder_buffer_wait / self.total_cycles \
            if self.total_cycles else 0.0


def _check_streams(miss_counts: np.ndarray, services, params: TexCacheParams):
    miss_counts = np.ascontiguousarray(miss_counts, dtype=np.int64)
    if miss_counts.ndim != 1:
        raise ValueError("miss_counts must be one-dimensional")
    if len(miss_counts) and int(miss_counts.min()) < 0:
        raise ValueError("miss_counts must be non-negative")
    worst = int(miss_counts.max()) if len(miss_counts) else 0
    if worst > params.reorder_buffer:
        raise ValueError(
            f"reorder_buffer={params.reorder_buffer} deadlocks: a fragment "
            f"needs up to {worst} fills, and a fill cannot be accepted "
            "until its slot frees, which waits on the owning fragment")
    n_fills = int(miss_counts.sum())
    if services is None:
        services = np.full(n_fills, params.fill_interval, dtype=np.int64)
    else:
        services = np.ascontiguousarray(services, dtype=np.int64)
        if len(services) != n_fills:
            raise ValueError(
                f"services has {len(services)} entries for {n_fills} fills")
        if n_fills and int(services.min()) < 1:
            raise ValueError("per-fill service times must be >= 1 cycle")
    return miss_counts, services


def _timing_reference(miss_counts: np.ndarray, services: np.ndarray,
                      params: TexCacheParams, latency: int):
    """Sequential oracle: one event at a time, plain Python integers.

    Returns ``(enter, accept, begin)`` int64 arrays -- the complete
    event times, from which every reported metric derives.
    """
    F = params.fragment_fifo
    R = params.request_fifo
    B = params.reorder_buffer
    A = params.arrival_cycles
    C = params.consume_cycles
    L = int(latency)
    n = len(miss_counts)
    counts = miss_counts.tolist()
    serv = services.tolist()
    enter = [0] * n
    begin = [0] * n
    accept = []
    fill_owner = []
    deposit_prev = -A  # so enter[0] >= 0
    channel_free = 0
    j = 0
    for i in range(n):
        if F >= 1:
            gate = begin[i - F] if i >= F else None
        else:
            gate = begin[i - 1] + C if i >= 1 else 0
        e = deposit_prev + A
        if gate is not None and gate > e:
            e = gate
        m = counts[i]
        if m:
            for _ in range(m):
                base = e
                if j >= B:
                    freed = begin[fill_owner[j - B]]
                    if freed > base:
                        base = freed
                if channel_free > base:
                    base = channel_free
                accept.append(base)
                fill_owner.append(i)
                channel_free = base + serv[j]
                j += 1
            ready = accept[j - 1] + L
            deposit = e
            if j - 1 - R >= 0 and accept[j - 1 - R] > deposit:
                deposit = accept[j - 1 - R]
        else:
            ready = None
            deposit = e
        b = begin[i - 1] + C if i >= 1 else 0
        if e > b:
            b = e
        if ready is not None and ready > b:
            b = ready
        enter[i] = e
        begin[i] = b
        deposit_prev = deposit
    return (np.asarray(enter, dtype=np.int64),
            np.asarray(accept, dtype=np.int64),
            np.asarray(begin, dtype=np.int64))


def _timing_blocked(miss_counts: np.ndarray, services: np.ndarray,
                    params: TexCacheParams, depths, latencies):
    """Lag-blocked scan kernel, batched over a whole depth x latency grid.

    Returns ``(enter, accept, begin)`` with a leading axis of
    ``len(depths) * len(latencies)`` rows in depth-major order -- row
    ``d * len(latencies) + l`` is cycle-exactly the reference walk with
    ``fragment_fifo=depths[d], fill_latency=latencies[l]``
    (``params.fragment_fifo`` is ignored in favour of ``depths``).

    Blocks hold at most ``max(min(depths), 1)`` fragments *and* at most
    ``min(request_fifo, reorder_buffer)`` fills (except a block that is
    a single fragment, whose only cross-fill lag is the reorder buffer
    -- already validated ``>=`` its fill count), so every lagged gate
    resolves to a previous block for *every* FIFO depth at once and
    each recurrence becomes one ``np.maximum.accumulate`` over a
    running-sum transform.  Only the fragment-FIFO gate depends on the
    depth, so it alone is applied per depth-group of latency columns;
    the whole grid shares one pass over the blocks, which is where the
    order-of-magnitude win over per-cell sequential walks comes from.
    """
    depths = [int(depth) for depth in depths]
    lats = [int(latency) for latency in latencies]
    n_lats = len(lats)
    lat = np.asarray(np.tile(lats, len(depths)), dtype=np.int64)
    rows = lat.shape[0]
    R = params.request_fifo
    B = params.reorder_buffer
    A = np.int64(params.arrival_cycles)
    C = np.int64(params.consume_cycles)
    n = len(miss_counts)
    n_fills = len(services)
    # Event times live transposed -- (events, grid cells) -- so a
    # block is a contiguous chunk and every gather/scatter is a
    # whole-row memcpy; callers get the (grid cells, events) views.
    enter = np.empty((n, rows), dtype=np.int64)
    accept = np.empty((n_fills, rows), dtype=np.int64)
    begin = np.empty((n, rows), dtype=np.int64)
    if n == 0:
        return enter.T, accept.T, begin.T

    m = miss_counts
    cumf = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(m, out=cumf[1:])
    cumf_list = cumf.tolist()
    last_fill = cumf[1:] - 1  # J(i); only meaningful where m > 0
    fill_owner = np.repeat(np.arange(n, dtype=np.int64), m)
    serv_list = services.tolist()
    chan_prefix = np.zeros(n_fills + 1, dtype=np.int64)
    np.cumsum(services, out=chan_prefix[1:])

    F_min = min(depths)
    F_max = max(depths)
    groups = [(gi * n_lats, (gi + 1) * n_lats, F_d)
              for gi, F_d in enumerate(depths)]
    frag_cap = max(min(F_min, n), 1)
    fill_cap = min(R, B)

    # ---- block boundaries, hoisted out of the hot loop
    bounds = []  # (s, t, j0, j1)
    s = 0
    while s < n:
        t = min(n, s + frag_cap)
        j0 = cumf_list[s]
        if cumf_list[t] - j0 > fill_cap:
            limit = bisect_right(cumf_list, j0 + fill_cap) - 1
            t = max(s + 1, min(t, limit))
        bounds.append((s, t, j0, cumf_list[t]))
        s = t
    n_blocks = len(bounds)
    starts = np.fromiter((b[0] for b in bounds), dtype=np.int64,
                         count=n_blocks)
    ends = np.fromiter((b[1] for b in bounds), dtype=np.int64,
                       count=n_blocks)
    j0s = cumf[starts]
    width = int((ends - starts).max())
    arrive_row = np.arange(width, dtype=np.int64) * A
    consume_row = np.arange(width, dtype=np.int64) * C
    arrive_off = arrive_row[:, None]
    consume_off = consume_row[:, None]

    # ---- per-fill gather tables: owning block, in-block channel
    # offset (service prefix), and reorder-buffer gate sources
    if n_fills:
        blk_of_fill = np.searchsorted(j0s, np.arange(n_fills),
                                      side="right") - 1
        soff = (chan_prefix[:n_fills] -
                chan_prefix[j0s[blk_of_fill]])[:, None]
        fwidth = int((cumf[ends] - j0s).max())
        ya = np.empty((fwidth, rows), dtype=np.int64)
        ga = np.empty((fwidth, rows), dtype=np.int64)
    if n_fills > B:
        rob_src = fill_owner[:n_fills - B]  # owner of fill j - B

    # ---- per-fragment gather tables for the fill-return floor
    miss_i = np.flatnonzero(m > 0)
    blk_of_miss = np.searchsorted(starts, miss_i, side="right") - 1
    mcols = miss_i - starts[blk_of_miss]
    lf_miss = last_fill[miss_i]
    ready_add = lat[None, :] - consume_row[mcols][:, None]
    mp = np.searchsorted(miss_i, np.append(starts, n)).tolist()

    # ---- request-FIFO back-pressure: fragment i waits for
    # accept[J(i-1) - R].  Provably dominated (never binds) when every
    # latency >= arrival and the F-fragment window behind i carries at
    # most R fills: then fill J(i-1)-R belongs to a fragment i'' < i-F,
    # and accept[J(i-1)-R] + A <= begin[i''] - L + A <= begin[i-F], the
    # fragment-FIFO gate itself.  Domination for the largest F implies
    # it for every smaller one (the window only shrinks), and applying
    # a dominated max to the other depth-groups is a no-op, so one
    # conservative mask serves the whole grid; everything not provably
    # dominated is gathered exactly.
    dep_mask = np.zeros(n, dtype=bool)
    if n > 1:
        dep_mask[1:] = (m[:-1] > 0) & (last_fill[:-1] >= R)
    if int(lat.min()) >= int(A):
        if F_max == 0:
            # gate is begin[i-1] + C and owner(J(i-1)-R) <= i-1 always
            dep_mask[:] = False
        elif n > F_max:
            window = cumf[F_max:n] - cumf[0:n - F_max]
            dep_mask[F_max:] &= window > R
    dep_i = np.flatnonzero(dep_mask)
    dcols = dep_i - starts[np.searchsorted(starts, dep_i,
                                           side="right") - 1]
    dep_gd = last_fill[dep_i - 1] - R
    dep_add = (A - arrive_row[dcols])[:, None]
    dp = np.searchsorted(dep_i, np.append(starts, n)).tolist()

    ye = np.empty((width, rows), dtype=np.int64)
    yb = np.empty((width, rows), dtype=np.int64)
    gy = np.empty((width, rows), dtype=np.int64)
    carry_e = np.zeros(rows, dtype=np.int64)  # prev enter + A
    carry_b = np.zeros(rows, dtype=np.int64)  # prev begin + C
    channel_free = np.zeros(rows, dtype=np.int64)
    vmax, vadd, vsub = np.maximum, np.add, np.subtract
    accumulate = np.maximum.accumulate

    for k in range(n_blocks):
        s, t, j0, j1 = bounds[k]
        w = t - s
        ye_w = ye[:w]
        a_off = arrive_off[:w]

        # --- tag-check scan: enter[i] = max(enter[i-1] + A, floor[i]);
        # the fragment-FIFO gate is the one depth-dependent term, so it
        # is applied per depth-group of latency columns.
        for c0, c1, F_d in groups:
            ye_g = ye_w[:, c0:c1]
            if F_d >= 1:
                if s >= F_d:
                    vsub(begin[s - F_d:t - F_d, c0:c1], a_off, out=ye_g)
                else:
                    ye_g[...] = _NEG
                    lo = F_d - s  # first in-block index with a gate
                    if lo < w:
                        vsub(begin[0:t - F_d, c0:c1], a_off[lo:],
                             out=ye_g[lo:])
            else:
                # F == 0: the merged stage reaches fragment i; blocks
                # hold exactly one fragment.
                if s:
                    vadd(begin[s - 1:t - 1, c0:c1], C, out=ye_g)
                else:
                    ye_g[...] = 0
        d0, d1 = dp[k], dp[k + 1]
        if d0 < d1:
            g = gy[:d1 - d0]
            accept.take(dep_gd[d0:d1], axis=0, out=g)
            g += dep_add[d0:d1]
            if d1 - d0 == w:
                vmax(ye_w, g, out=ye_w)
            else:
                cols = dcols[d0:d1]
                ye_w[cols] = vmax(ye_w[cols], g)
        vmax(ye_w[0], carry_e, out=ye_w[0])
        accumulate(ye_w, axis=0, out=ye_w)
        vadd(ye_w, a_off, out=enter[s:t])
        vadd(enter[t - 1], A, out=carry_e)

        # --- memory-channel scan over the block's fills
        nf = j1 - j0
        if nf:
            ya_w = ya[:nf]
            so = soff[j0:j1]
            enter.take(fill_owner[j0:j1], axis=0, out=ya_w)
            ya_w -= so
            if j1 > B:
                k0 = max(j0, B)
                r0 = k0 - j0
                g = ga[:j1 - k0]
                begin.take(rob_src[k0 - B:j1 - B], axis=0, out=g)
                g -= soff[k0:j1]
                tail = ya[r0:nf] if r0 else ya_w
                vmax(tail, g, out=tail)
            vmax(ya_w[0], channel_free, out=ya_w[0])
            accumulate(ya_w, axis=0, out=ya_w)
            vadd(ya_w, so, out=accept[j0:j1])
            vadd(accept[j1 - 1], serv_list[j1 - 1], out=channel_free)

        # --- texture-stage scan: begin[i] = max(begin[i-1] + C,
        #     enter[i], accept[J(i)] + latency); acceptance is
        #     nondecreasing, so the last fill is the latest return.
        yb_w = yb[:w]
        c_off = consume_off[:w]
        vsub(enter[s:t], c_off, out=yb_w)
        p0, p1 = mp[k], mp[k + 1]
        if p0 < p1:
            g = gy[:p1 - p0]
            accept.take(lf_miss[p0:p1], axis=0, out=g)
            g += ready_add[p0:p1]
            if p1 - p0 == w:
                vmax(yb_w, g, out=yb_w)
            else:
                cols = mcols[p0:p1]
                yb_w[cols] = vmax(yb_w[cols], g)
        vmax(yb_w[0], carry_b, out=yb_w[0])
        accumulate(yb_w, axis=0, out=yb_w)
        vadd(yb_w, c_off, out=begin[s:t])
        vadd(begin[t - 1], C, out=carry_b)
    return enter.T, accept.T, begin.T


def _result_from_times(miss_counts, params: TexCacheParams,
                       enter, accept, begin) -> TexCacheResult:
    """Shared (vectorized) epilogue: metrics from the event times."""
    n = len(miss_counts)
    n_fills = len(accept)
    A = params.arrival_cycles
    C = params.consume_cycles
    R = params.request_fifo
    if n == 0:
        return TexCacheResult(0, 0, 0, 0, 0, 0, 0, 0, params)
    total = int(begin[-1]) + C
    ideal = (n - 1) * max(A, C) + C
    frag_wait = int(np.subtract(begin, enter, dtype=np.int64).sum())
    if n_fills:
        fill_owner = np.repeat(np.arange(n, dtype=np.int64), miss_counts)
        deposit = enter[fill_owner]
        if n_fills > R:
            deposit = deposit.copy()
            np.maximum(deposit[R:], accept[:-R], out=deposit[R:])
        req_wait = int((accept - deposit).sum())
        # A reorder-buffer slot is reserved from acceptance until the
        # owning fragment reads its texels.
        rob_wait = int((begin[fill_owner] - accept).sum())
    else:
        req_wait = 0
        rob_wait = 0
    return TexCacheResult(
        n_fragments=n, n_fills=n_fills, total_cycles=total,
        ideal_cycles=ideal, stall_cycles=total - ideal,
        fragment_fifo_wait=frag_wait, request_fifo_wait=req_wait,
        reorder_buffer_wait=rob_wait, params=params)


def _grid_results(miss_counts, params: TexCacheParams, depths, latencies,
                  enter, accept, begin) -> dict:
    """Epilogue for a whole grid: metrics vectorized across the rows.

    ``enter``/``accept``/``begin`` are the (rows, events) views from
    :func:`_timing_blocked` in depth-major order; every reduction runs
    once over the (events, rows) bases instead of once per cell.
    """
    n = len(miss_counts)
    n_lats = len(latencies)
    A = params.arrival_cycles
    C = params.consume_cycles
    R = params.request_fifo
    cells = [(depth, latency) for depth in depths for latency in latencies]
    if n == 0:
        return {(depth, latency): TexCacheResult(
            0, 0, 0, 0, 0, 0, 0, 0,
            replace(params, fragment_fifo=depth, fill_latency=latency))
            for depth, latency in cells}
    eb, ab, bb = enter.T, accept.T, begin.T  # (events, rows) bases
    n_fills = len(ab)
    rows = eb.shape[1]
    total = bb[-1] + C
    ideal = (n - 1) * max(A, C) + C
    frag_wait = (bb - eb).sum(axis=0)
    if n_fills:
        fill_owner = np.repeat(np.arange(n, dtype=np.int64), miss_counts)
        deposit = eb[fill_owner]
        if n_fills > R:
            np.maximum(deposit[R:], ab[:-R], out=deposit[R:])
        req_wait = (ab - deposit).sum(axis=0)
        # A reorder-buffer slot is reserved from acceptance until the
        # owning fragment reads its texels.
        rob_wait = (bb[fill_owner] - ab).sum(axis=0)
    else:
        req_wait = rob_wait = np.zeros(rows, dtype=np.int64)
    results = {}
    for d, depth in enumerate(depths):
        for row, latency in enumerate(latencies):
            r = d * n_lats + row
            cell = replace(params, fragment_fifo=depth,
                           fill_latency=latency)
            results[(depth, latency)] = TexCacheResult(
                n_fragments=n, n_fills=n_fills,
                total_cycles=int(total[r]), ideal_cycles=ideal,
                stall_cycles=int(total[r]) - ideal,
                fragment_fifo_wait=int(frag_wait[r]),
                request_fifo_wait=int(req_wait[r]),
                reorder_buffer_wait=int(rob_wait[r]), params=cell)
    return results


def simulate_texcache(miss_counts: np.ndarray, params: TexCacheParams,
                      services: Optional[np.ndarray] = None,
                      kernel: str = "vectorized") -> TexCacheResult:
    """Run one fill-count stream through the three-queue machine.

    ``miss_counts[i]`` is fragment ``i``'s line-fill count (from
    :func:`~repro.core.prefetch.fragment_miss_counts`); ``services``
    optionally gives each fill's memory-channel occupancy in cycles
    (e.g. :func:`fill_service_cycles` for page-mode DRAM timing),
    defaulting to the uniform ``params.fill_interval``.
    """
    kernels.check_kernel(kernel)
    miss_counts, services = _check_streams(miss_counts, services, params)
    latency = params.fill_latency
    if kernel == "vectorized" and _blocked_pays(
            len(miss_counts), 1, params.fragment_fifo):
        enter, accept, begin = (x[0] for x in _timing_blocked(
            miss_counts, services, params, [params.fragment_fifo],
            [latency]))
    else:
        enter, accept, begin = _timing_reference(
            miss_counts, services, params, latency)
    return _result_from_times(miss_counts, params, enter, accept, begin)


def sweep_texcache(miss_counts: np.ndarray, params: TexCacheParams,
                   depths, latencies=None,
                   services: Optional[np.ndarray] = None,
                   kernel: str = "vectorized") -> dict:
    """Igehy's latency-tolerance grid: ``{(fragment_fifo, fill_latency):
    TexCacheResult}`` over FIFO ``depths`` x fill ``latencies``.

    The vectorized kernel batches the whole latency axis of one depth
    as rows of the same 2-D scans (the block structure depends only on
    the depth), which is where the order-of-magnitude win over the
    per-cell sequential walk comes from -- on grids too small for that
    (see :data:`_BLOCKED_CROSSOVER`) it runs the walk instead.
    """
    kernels.check_kernel(kernel)
    if latencies is None:
        latencies = (params.fill_latency,)
    latencies = [int(latency) for latency in latencies]
    depths = [int(depth) for depth in depths]
    if not depths or not latencies:
        return {}
    counts, serv = _check_streams(miss_counts, services, params)
    if kernel == "vectorized" and _blocked_pays(
            len(counts), len(depths) * len(latencies), min(depths)):
        return _sweep_blocked(counts, serv, params, depths, latencies)
    results = {}
    for depth in depths:
        for latency in latencies:
            run = replace(params, fragment_fifo=depth, fill_latency=latency)
            enter, accept, begin = _timing_reference(
                counts, serv, run, latency)
            results[(depth, latency)] = _result_from_times(
                counts, run, enter, accept, begin)
    return results


def _blocked_pays(n_fragments: int, n_cells: int, min_depth: int) -> bool:
    """Whether the lag-blocked scan beats the sequential walk on a grid
    of ``n_cells`` (depth, latency) cells over ``n_fragments``
    fragments: the walk steps once per fragment and cell, the scan
    once per block of ``min_depth`` fragments."""
    blocks = max(n_fragments / max(min_depth, 1), 1.0)
    return n_fragments * n_cells >= _BLOCKED_CROSSOVER * blocks


def _sweep_blocked(counts: np.ndarray, services: np.ndarray,
                   params: TexCacheParams, depths, latencies) -> dict:
    """:func:`sweep_texcache`'s grid on the lag-blocked scan, whatever
    its size (``counts``/``services`` already through
    :func:`_check_streams`)."""
    # One blocked pass covers a whole batch of depths (block width =
    # the batch's smallest depth, so batch neighbours); cap the grid
    # rows per pass to bound the (events x rows) transients.
    results = {}
    group = max(1, _SWEEP_ROW_CAP // max(len(latencies), 1))
    ordered = sorted(set(depths))
    for lo in range(0, len(ordered), group):
        batch = ordered[lo:lo + group]
        enter, accept, begin = _timing_blocked(
            counts, services, params, batch, latencies)
        results.update(_grid_results(
            counts, params, batch, latencies, enter, accept, begin))
    return {(depth, latency): results[(depth, latency)]
            for depth in depths for latency in latencies}


def fill_service_cycles(fill_lines: np.ndarray, line_size: int,
                        dram: DramModel = PAPER_DRAM,
                        kernel: str = "vectorized") -> np.ndarray:
    """Per-fill memory-channel occupancy for a miss-line stream.

    ``fill_lines`` is the line-address sequence from
    :func:`~repro.core.kernels.miss_stream`; each fill bursts a whole
    line, paying ``row_cycles`` extra exactly where its row differs
    from the previous fill *of the same bank* (the decomposition behind
    :meth:`DramModel.access_cycles`, kept per access here), so the
    services sum to ``dram.access_cycles(fill_lines * line_size,
    line_size)``.
    """
    kernels.check_kernel(kernel)
    addresses = np.asarray(fill_lines, dtype=np.int64) * int(line_size)
    beats = max(-(-int(line_size) // dram.beat_nbytes), 1)
    burst = np.int64(beats * dram.col_cycles)
    bank, row = dram.bank_and_row(addresses)
    n = len(bank)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if kernel == "vectorized":
        order = _argsort_bounded(bank, dram.n_banks)
        grouped_bank = bank[order]
        grouped_row = row[order]
        grouped_switch = np.empty(n, dtype=bool)
        grouped_switch[0] = True
        np.not_equal(grouped_row[1:], grouped_row[:-1],
                     out=grouped_switch[1:])
        grouped_switch[1:] |= grouped_bank[1:] != grouped_bank[:-1]
        switch = np.empty(n, dtype=bool)
        switch[order] = grouped_switch
    else:
        open_rows = np.full(dram.n_banks, -1, dtype=np.int64)
        switch = np.empty(n, dtype=bool)
        for index, (b, r) in enumerate(zip(bank.tolist(), row.tolist())):
            switch[index] = open_rows[b] != r
            open_rows[b] = r
    return burst + np.int64(dram.row_cycles) * switch


def fragment_fill_streams(addresses: np.ndarray, config: CacheConfig,
                          accesses_per_fragment: int = 8,
                          dram: Optional[DramModel] = None,
                          kernel: str = "vectorized"):
    """``(miss_counts, services)`` for a byte-address stream.

    Folds the exact per-access outcomes into per-fragment fill counts
    and, when ``dram`` is given, derives each fill's page-mode service
    time from the miss-line stream; with ``dram=None`` the services
    are ``None`` (the uniform ``fill_interval`` applies).  Trailing
    accesses short of a whole fragment are dropped, consistently for
    both streams.
    """
    addresses = np.asarray(addresses, dtype=np.int64).ravel()
    whole = len(addresses) - (len(addresses) % accesses_per_fragment)
    miss_counts = fragment_miss_counts(
        addresses[:whole], config,
        accesses_per_fragment=accesses_per_fragment, kernel=kernel)
    services = None
    if dram is not None:
        fills = kernels.miss_stream(addresses[:whole], config)
        services = fill_service_cycles(fills, config.line_size, dram,
                                       kernel=kernel)
    return miss_counts, services
