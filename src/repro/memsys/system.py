"""Event-driven memory-system simulator for the §8.2 evaluation.

A deliberately Ramulator-shaped model: trace-driven cores issue requests
into per-bank queues; an FR-FCFS+Cap scheduler serves them with DDR5-like
service times; a PuD "core" injects SiMRA-32 + CoMRA operation pairs; PRAC
counters observe every row activation and assert back-off, which stalls
the channel while the RFM's preventive refreshes run.

The run loop is a single global event heap -- core-ready, bank-free,
PuD-arrival, and stall-release events -- so idle banks and MLP-blocked
cores are never scanned.  Each bank keeps indexed queues: per-row hit
buckets plus an arrival-ordered heap, both with lazy deletion via a
``served`` flag, making the FR-FCFS pick O(log n) instead of the O(n)
``min()``/``remove()`` scans of the original implementation (kept in
:mod:`.reference` as ``ScanLoopMemorySystem``).  The event engine visits
exactly the time points the scan loop visited and runs the same phase
order within each -- inject cores in id order, deliver PuD arrivals,
schedule free banks in index order under one snapshotted issue floor,
then retire due completions -- so fixed-seed ``SimResult``s are
bit-identical (see ``tests/memsys/golden_simresults.json``).

The simulator is event-driven at request granularity rather than
cycle-by-cycle: service times fold the relevant DDR timings (row hit /
miss / conflict) into per-request latencies.  That preserves exactly the
effects Fig. 25 measures -- queueing, bank blocking from PuD ops and
counter updates, and channel stalls from back-off -- at a cost Python can
afford.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import astuple, dataclass
from time import perf_counter
from typing import Optional

from ..mitigations.prac import OpClass, PracConfig, PracCounters
from ..obs import NULL_OBS
from ..workloads.fast_traces import BatchedTraceGenerator
from ..workloads.mixes import PudWorkloadConfig, WorkloadMix
from ..workloads.profiles import WorkloadProfile


@dataclass
class MemSysConfig:
    """Service-time and system parameters (DDR5-4800-flavored)."""

    banks: int = 8
    #: row-buffer hit service (CL + burst), ns
    t_hit_ns: float = 17.0
    #: closed-bank service (RCD + CL + burst), ns
    t_miss_ns: float = 31.0
    #: row-conflict service (RP + RCD + CL + burst), ns
    t_conflict_ns: float = 45.0
    #: one SiMRA op occupies the bank about one tRC
    t_simra_ns: float = 48.0
    #: one CoMRA copy cycle: two activations' worth
    t_comra_ns: float = 96.0
    #: channel-wide stall when back-off forces an RFM (ABO + targeted
    #: refreshes of the tripping rows' victims)
    t_backoff_ns: float = 900.0
    #: in-order core with this peak IPC (instructions per ns)
    peak_ipc: float = 4.0
    #: max outstanding reads per core
    mlp: int = 4
    #: FR-FCFS row-hit streak cap
    frfcfs_cap: int = 4
    #: simulated time horizon, ns
    horizon_ns: float = 300_000.0


class _Request:
    """One memory request (plain slots class: created on the hot path)."""

    __slots__ = (
        "issue_ns", "seq", "core", "bank", "row", "is_write",
        "gap_instructions", "is_pud", "served",
    )

    def __init__(
        self,
        issue_ns: float,
        seq: int,
        core: int,
        bank: int,
        row: int,
        is_write: bool,
        gap_instructions: int,
        is_pud: bool = False,
    ) -> None:
        self.issue_ns = issue_ns
        self.seq = seq
        self.core = core
        self.bank = bank
        self.row = row
        self.is_write = is_write
        self.gap_instructions = gap_instructions
        #: PuD operation pair (SiMRA-32 + CoMRA) rather than a CPU access
        self.is_pud = is_pud
        #: lazy-deletion marker for the indexed bank queues
        self.served = False

    def __lt__(self, other: "_Request") -> bool:
        return (self.issue_ns, self.seq) < (other.issue_ns, other.seq)


class _Core:
    """In-order trace-driven core with bounded memory-level parallelism."""

    __slots__ = (
        "core_id", "config", "trace", "outstanding", "next_ready_ns",
        "retired_instructions", "blocked",
    )

    def __init__(
        self,
        core_id: int,
        profile: WorkloadProfile,
        config: MemSysConfig,
        seed: int,
    ) -> None:
        self.core_id = core_id
        self.config = config
        self.trace = BatchedTraceGenerator(profile, seed=seed)
        self.outstanding = 0
        self.next_ready_ns = 0.0
        self.retired_instructions = 0.0
        self.blocked = False

    def try_generate(
        self, now_ns: float
    ) -> Optional[tuple[int, int, int, bool]]:
        """Produce the next request if the core is ready and not MLP-bound.

        Returns the trace entry as a ``(gap, bank, row, is_write)``
        tuple (no ``TraceEntry`` construction on the hot path).
        """
        if self.outstanding >= self.config.mlp:
            self.blocked = True
            return None
        if now_ns < self.next_ready_ns:
            return None
        entry = self.trace.next_tuple()
        gap = entry[0]
        self.next_ready_ns = max(self.next_ready_ns, now_ns) + (
            gap / self.config.peak_ipc
        )
        self.retired_instructions += gap
        if not entry[3]:
            self.outstanding += 1
        return entry

    def complete(self, request: _Request) -> None:
        if not request.is_write:
            self.outstanding -= 1
            self.blocked = False


def _make_counters(
    prac: Optional[PracConfig], banks: int
) -> Optional[list[PracCounters]]:
    if prac is None:
        return None
    return [PracCounters(i, prac, warm_start=True) for i in range(banks)]


class _Bank:
    """One bank: open-row state, indexed request queues, busy window.

    Requests live in two structures at once: an arrival-ordered heap
    (FCFS fallback) and, for CPU requests, a per-row hit-bucket heap
    (the FR part).  Serving marks the request ``served``; the copy left
    in the other structure is discarded lazily on a later pop.
    """

    __slots__ = (
        "index", "open_row", "busy_until", "hit_streak",
        "live", "_arrival", "_buckets",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.open_row: Optional[int] = None
        self.busy_until = 0.0
        self.hit_streak = 0
        #: unserved requests in the queues
        self.live = 0
        self._arrival: list[tuple[float, int, _Request]] = []
        self._buckets: dict[int, list[tuple[float, int, _Request]]] = {}

    def pick(self, cap: int) -> Optional[_Request]:
        """FR-FCFS with a row-hit streak cap; O(log n) per pick."""
        if self.live == 0:
            return None
        if self.hit_streak < cap and self.open_row is not None:
            bucket = self._buckets.get(self.open_row)
            if bucket is not None:
                while bucket and bucket[0][2].served:
                    heapq.heappop(bucket)
                if bucket:
                    request = heapq.heappop(bucket)[2]
                    request.served = True
                    self.live -= 1
                    if not bucket:
                        del self._buckets[self.open_row]
                    return request
                del self._buckets[self.open_row]
        arrival = self._arrival
        while arrival[0][2].served:
            heapq.heappop(arrival)
        request = heapq.heappop(arrival)[2]
        request.served = True
        self.live -= 1
        return request


@dataclass
class SimResult:
    """Outcome of one memory-system simulation."""

    ipc_per_core: list[float]
    pud_ops_completed: int
    backoffs: int
    elapsed_ns: float
    requests_served: int

    def weighted_speedup(self, alone_ipc: list[float]) -> float:
        total = 0.0
        for shared, alone in zip(self.ipc_per_core, alone_ipc):
            if alone > 0:
                total += shared / alone
        return total


#: event kinds on the global heap (the int doubles as a same-time
#: tiebreaker for heap entries; visits pop all entries at one time point
#: before running the phases, so the order among kinds is irrelevant)
_EV_CORE = 0
_EV_PUD = 1
_EV_BANK = 2
_EV_STALL = 3


class MemorySystem:
    """The five-core shared memory system of Fig. 25."""

    def __init__(
        self,
        mix: WorkloadMix,
        pud: Optional[PudWorkloadConfig],
        prac: Optional[PracConfig],
        config: Optional[MemSysConfig] = None,
        seed: int = 0,
        obs=None,
    ) -> None:
        self.config = config or MemSysConfig()
        self.mix = mix
        self.pud = pud
        #: metrics registry; the simulator records one span plus its final
        #: counters per :meth:`run` -- never anything inside the event loop
        self.obs = obs if obs is not None else NULL_OBS
        self.cores = [
            _Core(i, profile, self.config, seed=seed * 101 + i)
            for i, profile in enumerate(mix.profiles)
        ]
        self.banks = [_Bank(i) for i in range(self.config.banks)]
        self.counters = _make_counters(prac, self.config.banks)
        self._seq = itertools.count()
        self.channel_stall_until = 0.0
        self.stats = {"backoffs": 0, "pud_ops": 0, "requests": 0}
        self._heap: list[tuple[float, int, int]] = []

    # ------------------------------------------------------------------
    def _record_activation(
        self, bank: int, rows: list[int], op: OpClass, now_ns: float
    ) -> float:
        """Update PRAC counters; returns extra blocking latency."""
        if self.counters is None:
            return 0.0
        counters = self.counters[bank]
        extra = counters.record(rows, op)
        if counters.back_off_pending is not None:
            # Back-off stalls the whole channel while the RFM's preventive
            # refreshes run (DDR5 ABO semantics).
            release = now_ns + self.config.t_backoff_ns
            if release > self.channel_stall_until:
                self.channel_stall_until = release
                heapq.heappush(self._heap, (release, _EV_STALL, 0))
            counters.serve_rfm()
            self.stats["backoffs"] += 1
        return extra

    def _service_time(self, bank: _Bank, request: _Request, now_ns: float) -> float:
        config = self.config
        if bank.open_row == request.row:
            bank.hit_streak += 1
            return config.t_hit_ns
        bank.hit_streak = 0
        extra = self._record_activation(
            bank.index, [request.row], OpClass.ACT, now_ns
        )
        if bank.open_row is None:
            bank.open_row = request.row
            return config.t_miss_ns + extra
        bank.open_row = request.row
        return config.t_conflict_ns + extra

    def _serve_pud_op(self, bank: _Bank, now_ns: float) -> float:
        """One SiMRA-32 + one CoMRA pair on the PuD bank."""
        config = self.config
        assert self.pud is not None
        simra_rows = list(range(self.pud.simra_rows))
        comra_rows = [40, 42]
        extra = self._record_activation(bank.index, simra_rows, OpClass.SIMRA, now_ns)
        extra += self._record_activation(bank.index, comra_rows, OpClass.COMRA, now_ns)
        bank.open_row = None  # SiMRA is destructive; bank precharged after
        bank.hit_streak = 0
        self.stats["pud_ops"] += 1
        return config.t_simra_ns + config.t_comra_ns + extra

    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        # The loop body is deliberately inlined and alias-heavy: it is the
        # hot path of the Fig. 25 sweep (hundreds of runs), and attribute
        # lookups / tiny method calls dominate otherwise.  Visit sets are
        # int bitmasks (cores and banks are single-digit counts), walked
        # lowest-bit-first, which yields id order for free.
        t_wall = perf_counter() if self.obs.enabled else 0.0
        config = self.config
        horizon = config.horizon_ns
        frfcfs_cap = config.frfcfs_cap
        peak_ipc = config.peak_ipc
        mlp = config.mlp
        n_banks = config.banks
        t_hit = config.t_hit_ns
        t_miss = config.t_miss_ns
        t_conflict = config.t_conflict_ns
        t_backoff = config.t_backoff_ns
        counters = self.counters
        cores = self.cores
        banks = self.banks
        heap = self._heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        served = 0
        requests = 0
        seq = 0
        pud = self.pud
        pud_next = 0.0 if pud is not None else float("inf")
        pud_queue = 0
        completions: list[tuple[float, _Request]] = []
        #: banks known free with live requests, scheduled next visit
        ready_mask = 0
        #: cores MLP-unblocked mid-visit; they inject at the *next* visit
        revived_mask = 0

        for core in cores:
            heappush(heap, (0.0, _EV_CORE, core.core_id))
        if pud is not None:
            heappush(heap, (0.0, _EV_PUD, 0))

        while heap and heap[0][0] < horizon:
            now = heap[0][0]
            inject_mask = 0
            visit = False
            while heap and heap[0][0] == now:
                _, kind, payload = heappop(heap)
                if kind == _EV_CORE:
                    inject_mask |= 1 << payload
                elif kind == _EV_BANK:
                    if banks[payload].live > 0:
                        ready_mask |= 1 << payload
                elif kind == _EV_STALL and now != self.channel_stall_until:
                    # superseded by a later back-off; not a real event
                    continue
                visit = True
            if not visit:
                continue
            if revived_mask:
                inject_mask |= revived_mask
                revived_mask = 0

            # 1) cores inject requests that are ready at `now`
            while inject_mask:
                bit = inject_mask & -inject_mask
                inject_mask ^= bit
                core_id = bit.bit_length() - 1
                core = cores[core_id]
                trace = core.trace
                outstanding = core.outstanding
                next_ready = core.next_ready_ns
                retired = core.retired_instructions
                while outstanding < mlp and next_ready <= now:
                    # read the batched generator's pending buffer directly;
                    # next_tuple() only on exhaustion (or scalar fallback,
                    # whose buffer stays empty)
                    ppos = trace._pending_pos
                    pending = trace._pending
                    if ppos < len(pending):
                        trace._pending_pos = ppos + 1
                        gap, bank_id, row, is_write = pending[ppos]
                    else:
                        gap, bank_id, row, is_write = trace.next_tuple()
                    next_ready = (
                        next_ready if next_ready > now else now
                    ) + gap / peak_ipc
                    retired += gap
                    bank_id %= n_banks
                    request = _Request(
                        now, seq, core_id, bank_id, row, is_write, gap
                    )
                    seq += 1
                    requests += 1
                    if not is_write:
                        outstanding += 1
                    bank = banks[bank_id]
                    bank.live += 1
                    entry = (now, request.seq, request)
                    heappush(bank._arrival, entry)
                    bucket = bank._buckets.get(row)
                    if bucket is None:
                        bank._buckets[row] = [entry]
                    else:
                        heappush(bucket, entry)
                    if bank.busy_until <= now:
                        ready_mask |= 1 << bank_id
                core.outstanding = outstanding
                core.next_ready_ns = next_ready
                core.retired_instructions = retired
                if outstanding >= mlp:
                    core.blocked = True
                else:
                    heappush(heap, (next_ready, _EV_CORE, core_id))

            # 2) PuD op arrivals: the accelerator attempts one op pair per
            # period but self-throttles (bounded backlog) when the bank
            # cannot keep up -- it competes in the bank queue like any
            # other agent rather than starving CPU traffic outright.
            if pud_next <= now:
                while pud_next <= now:
                    if pud_queue < 4:
                        pud_queue += 1
                        request = _Request(
                            pud_next, seq, -1, pud.target_bank, -1,
                            True, 0, is_pud=True,
                        )
                        seq += 1
                        bank = banks[pud.target_bank]
                        bank.live += 1
                        heappush(
                            bank._arrival,
                            (request.issue_ns, request.seq, request),
                        )
                        if bank.busy_until <= now:
                            ready_mask |= 1 << pud.target_bank
                    pud_next += pud.period_ns
                heappush(heap, (pud_next, _EV_PUD, 0))

            # 3) schedule free banks (one FR-FCFS pick per bank per visit;
            # the issue floor is snapshotted once so a back-off raised by
            # one bank only stalls *later* visits, as in the scan loop)
            if ready_mask:
                stall = self.channel_stall_until
                issue_floor = now if now >= stall else stall
                while ready_mask:
                    bit = ready_mask & -ready_mask
                    ready_mask ^= bit
                    bank_index = bit.bit_length() - 1
                    bank = banks[bank_index]
                    if bank.live == 0:
                        continue
                    # FR-FCFS pick, inlined: open-row hit bucket first,
                    # then the arrival heap, skipping served leftovers
                    request = None
                    open_row = bank.open_row
                    if bank.hit_streak < frfcfs_cap and open_row is not None:
                        bucket = bank._buckets.get(open_row)
                        if bucket is not None:
                            while bucket and bucket[0][2].served:
                                heappop(bucket)
                            if bucket:
                                request = heappop(bucket)[2]
                                request.served = True
                                bank.live -= 1
                                if not bucket:
                                    del bank._buckets[open_row]
                            else:
                                del bank._buckets[open_row]
                    if request is None:
                        arrival = bank._arrival
                        while arrival[0][2].served:
                            heappop(arrival)
                        request = heappop(arrival)[2]
                        request.served = True
                        bank.live -= 1
                    if request.is_pud:
                        duration = self._serve_pud_op(bank, issue_floor)
                        bank.busy_until = issue_floor + duration
                        pud_queue -= 1
                    else:
                        row = request.row
                        if bank.open_row == row:
                            bank.hit_streak += 1
                            duration = t_hit
                        else:
                            bank.hit_streak = 0
                            if counters is not None:
                                # single-row ACT: counter-update latency is
                                # always zero, so only the back-off matters
                                ctr = counters[bank_index]
                                ctr.record_act(row)
                                if ctr._pending_backoff is not None:
                                    release = issue_floor + t_backoff
                                    if release > self.channel_stall_until:
                                        self.channel_stall_until = release
                                        heappush(
                                            heap, (release, _EV_STALL, 0)
                                        )
                                    ctr.serve_rfm()
                                    self.stats["backoffs"] += 1
                            duration = (
                                t_miss if bank.open_row is None else t_conflict
                            )
                            bank.open_row = row
                        finish = issue_floor + duration
                        bank.busy_until = finish
                        heappush(completions, (finish, request))
                        served += 1
                    heappush(heap, (bank.busy_until, _EV_BANK, bank_index))

            # 4) deliver completions due by `now` (each finish time is also
            # a bank-free event, so the visit is guaranteed to happen)
            while completions and completions[0][0] <= now:
                request = heappop(completions)[1]
                if not request.is_write:
                    core = cores[request.core]
                    core.outstanding -= 1
                    if core.blocked:
                        core.blocked = False
                        if core.next_ready_ns > now:
                            heappush(
                                heap,
                                (core.next_ready_ns, _EV_CORE, request.core),
                            )
                        else:
                            revived_mask |= 1 << request.core

        # flush remaining completions for accounting
        while completions:
            _, request = heapq.heappop(completions)
            self.cores[request.core].complete(request)

        self.stats["requests"] = requests
        obs = self.obs
        if obs.enabled:
            obs.observe_s("memsys.run_s", perf_counter() - t_wall)
            obs.inc("memsys.requests", requests)
            obs.inc("memsys.requests_served", served)
            obs.inc("memsys.pud_ops", self.stats["pud_ops"])
            obs.inc("memsys.backoffs", self.stats["backoffs"])
        elapsed = max(horizon, 1.0)
        return SimResult(
            ipc_per_core=[
                core.retired_instructions / elapsed for core in self.cores
            ],
            pud_ops_completed=self.stats["pud_ops"],
            backoffs=self.stats["backoffs"],
            elapsed_ns=elapsed,
            requests_served=served,
        )


#: shared alone-IPC results, keyed (profile name, config fields, seed);
#: also used by Fig25Evaluation, which previously kept its own copy
_ALONE_IPC_CACHE: dict[tuple, float] = {}


def alone_ipc(
    profile: WorkloadProfile,
    config: Optional[MemSysConfig] = None,
    seed: int = 0,
) -> float:
    """IPC of one workload running alone, no PuD traffic, no mitigation."""
    config = config or MemSysConfig()
    key = (profile.name, astuple(config), seed)
    cached = _ALONE_IPC_CACHE.get(key)
    if cached is None:
        mix = WorkloadMix(mix_id=-1, profiles=(profile,))
        system = MemorySystem(mix, pud=None, prac=None, config=config, seed=seed)
        cached = system.run().ipc_per_core[0]
        _ALONE_IPC_CACHE[key] = cached
    return cached
