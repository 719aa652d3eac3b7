"""Traced-run instrumentation: span and count recorders around public callables.

Nothing here is imported by an untraced run's workload path.  A traced run
calls :func:`install`, which replaces public functions and methods of each
layer with thin wrappers that record either a span (name, start, end,
parent, unit id) or a count into one in-memory :class:`Recorder`.  The
spans are written out once, when the run ends, and reduced here to the
per-layer metrics listed in :func:`per_layer_catalog`.

Layer time is the union of a span name's intervals, so a call nested in
another call of the same layer is never counted twice; self time is a
span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, Optional

from stats import union_length
from workloads import CAMPAIGN_IDS, CHARACTERIZE_IDS

GAUNTLET_KINDS = ("prac", "trr", "none", "admission")
RATE_KINDS = ("prac", "trr", "none")
PROBE_STAGES = ("capture", "replay_kernel", "replay_snapshot", "translate")

_COUNTS = (
    "attack.prac_hook_events",
    "dram.act_calls",
    "dram.streamed_acts",
    "dram.stream_calls",
    "dram.modules_built",
    "disturbance.apply_event_calls",
    "core.searches",
    "memsys.requests",
    "memsys.sim_ns",
    "memsys.backoffs",
    "mitigations.prac_record_calls",
    "trr.on_act_calls",
    "trr.on_act_stream_calls",
)


#: which way is better, by unit: times and overheads down, rates and
#: shares up, work counts down (counts that only record outcomes, such as
#: blocked cells or back-offs, must not move at all)
BETTER = {"s": "lower", "%": "lower", "count": "lower", "1/s": "higher",
          "ns/s": "higher", "fraction": "higher"}


def per_layer_catalog() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    out = [(f"attack.cell_s.{k}", "s") for k in GAUNTLET_KINDS]
    out += [(f"attack.acts_per_s.{k}", "1/s") for k in RATE_KINDS]
    out += [
        ("attack.synth_s", "s"),
        ("attack.prac_hook_events", "count"),
        ("attack.cells_blocked", "count"),
        ("attack.cells_exploited", "count"),
        ("bender.run_s", "s"),
        ("bender.runs", "count"),
        ("bender.io_s", "s"),
        ("dram.act_calls", "count"),
        ("dram.stream_calls", "count"),
        ("dram.streamed_act_frac", "fraction"),
        ("dram.module_build_s", "s"),
        ("dram.modules_built", "count"),
        ("disturbance.apply_event_calls", "count"),
        ("disturbance.population_s", "s"),
        ("core.measure_s", "s"),
        ("core.searches", "count"),
        ("core.searches_per_s", "1/s"),
    ]
    out += [(f"core.stage_s.{s}", "s") for s in PROBE_STAGES + ("other",)]
    out += [(f"experiments.run_s.{e}", "s") for e in CHARACTERIZE_IDS]
    out += [
        ("memsys.run_s", "s"),
        ("memsys.runs", "count"),
        ("memsys.requests_per_s", "1/s"),
        ("memsys.sim_ns_per_s", "ns/s"),
        ("memsys.alone_ipc_s", "s"),
        ("memsys.backoffs", "count"),
        ("mitigations.prac_record_calls", "count"),
        ("trr.on_act_calls", "count"),
        ("trr.on_act_stream_calls", "count"),
        ("campaign.tasks", "count"),
        ("campaign.task_s", "s"),
    ]
    out += [(f"campaign.experiment_s.{e}", "s") for e in CAMPAIGN_IDS]
    out += [
        ("campaign.parallel_eff", "fraction"),
        ("campaign.critical_task_s", "s"),
        ("campaign.store_put_s", "s"),
        ("campaign.store_puts", "count"),
        ("campaign.fingerprint_s", "s"),
        ("campaign.pool_restarts", "count"),
        ("trace.overhead_pct", "%"),
    ]
    return out


class Recorder:
    """Spans and counts of one traced run, kept in memory until it ends."""

    def __init__(self) -> None:
        #: [name, start, end, parent index (-1 for a root), unit id]
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        for name in _COUNTS:
            self.counts[name] = 0
        #: per-session probe stage dicts (``session.probe_stage_s``)
        self.stage_dicts: list[dict] = []
        self.unit: Optional[str] = None
        self._stack: list[int] = []
        self._in_stream = 0
        self._in_measure = 0

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.unit])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def span_s(self, name: str) -> float:
        return union_length([(s[1], s[2]) for s in self.spans if s[0] == name])

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)


def self_times(spans: Iterable[list]) -> dict[str, dict]:
    """``{name: {"count", "total_s", "self_s"}}`` over finished spans.

    Self time is the span's duration minus the union of its direct
    children's intervals clipped to the span.
    """
    spans = list(spans)
    children: defaultdict[int, list] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append(span)
    out: dict[str, dict] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        covered = union_length([
            (max(c[1], start), min(c[2], end))
            for c in children.get(index, ())
            if c[2] > start and c[1] < end
        ])
        entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - covered
    return out


def attach_units(spans: list[list], units: list[dict]) -> list[list]:
    """The spans plus one ``unit`` span per unit, with root spans re-parented.

    Units are timed by the runner, outside the recorder, so a layer span
    opened during a unit starts as a root; here it gains the unit span
    that contains it as parent, and every span the unit id of its root.
    """
    spans = [list(span) for span in spans]
    base = len(spans)
    unit_spans = sorted(
        (u["start"], u["start"] + u["seconds"], u["id"]) for u in units
    )
    starts = [start for start, _, _ in unit_spans]
    for span in spans:  # a parent always precedes its children
        if span[3] < 0:
            i = bisect_right(starts, span[1]) - 1
            if i >= 0 and span[2] <= unit_spans[i][1]:
                span[3] = base + i
                span[4] = unit_spans[i][2]
        else:
            span[4] = spans[span[3]][4]
    return spans + [["unit", start, end, -1, uid] for start, end, uid in unit_spans]


def measurement_count(result) -> int:
    """Per-victim outcomes in a ``measure_*`` result.

    Scalar calls return one outcome or a list of them, batched
    (``measure_many_*``) calls a list of such lists; a ``None`` entry
    (no measurable outcome) counts zero.  The same work therefore counts
    the same whether it was asked for one victim at a time or in a batch.
    """
    if result is None:
        return 0
    if isinstance(result, (list, tuple)):
        return sum(measurement_count(item) for item in result)
    return 1


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _spanned(rec: Recorder, name: str, fn: Callable, after=None) -> Callable:
    def wrapper(*args, **kwargs):
        index = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if after is not None:
            after(result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(rec: Recorder, name: str, fn: Callable) -> Callable:
    counts = rec.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _patch_method(cls, name: str, make: Callable[[Callable], Callable]) -> None:
    setattr(cls, name, make(cls.__dict__[name]))


def _patch_function(module, name: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``module.name`` and every ``from module import name`` copy."""
    original = getattr(module, name)
    replacement = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "repro" and getattr(mod, name, None) is original:
            setattr(mod, name, replacement)


def install(rec: Recorder, campaign_only: bool = False) -> None:
    """Wrap each layer's public callables so they record into ``rec``.

    ``campaign_only`` wraps just the parent-side store writes: a campaign's
    work runs in pool children, whose wrappers would record into memory
    nobody reads and only slow the run down.
    """
    from repro.campaign.store import ArtifactStore

    _patch_method(ArtifactStore, "put",
                  lambda fn: _spanned(rec, "campaign.store_put", fn))
    if campaign_only:
        return

    import repro.attack.synthesis as synthesis
    import repro.disturbance.population as population
    import repro.dram.vendors as vendors
    import repro.memsys.system as memsys_system
    from repro.attack.mitigations import PracHook, WeightedSamplingTrr
    from repro.bender.host import DramBenderHost
    from repro.core.session import CharacterizationSession
    from repro.disturbance.model import DisturbanceModel
    from repro.dram.bank import Bank
    from repro.memsys.system import MemorySystem
    from repro.mitigations.prac import PracCounters
    from repro.trr.mechanism import SamplingTrr

    counts = rec.counts

    _patch_function(synthesis, "synthesize_attacks",
                    lambda fn: _spanned(rec, "attack.synth", fn))
    _patch_method(PracHook, "on_event",
                  lambda fn: _counted(rec, "attack.prac_hook_events", fn))

    _patch_method(DramBenderHost, "run",
                  lambda fn: _spanned(rec, "bender.run", fn))
    for name in ("write_rows", "read_rows"):
        _patch_method(DramBenderHost, name,
                      lambda fn: _spanned(rec, "bender.io", fn))

    def make_act(fn):
        def act(self, row, now_ns):
            counts["dram.act_calls"] += 1
            if rec._in_stream:
                counts["dram.streamed_acts"] += 1
            return fn(self, row, now_ns)
        return act

    def make_stream(fn):
        def execute_stream(self, *args, **kwargs):
            counts["dram.stream_calls"] += 1
            rec._in_stream += 1
            try:
                return fn(self, *args, **kwargs)
            finally:
                rec._in_stream -= 1
        return execute_stream

    _patch_method(Bank, "act", make_act)
    _patch_method(Bank, "execute_stream", make_stream)
    _patch_function(vendors, "make_module", lambda fn: _counted(
        rec, "dram.modules_built", _spanned(rec, "dram.module_build", fn)))
    _patch_function(vendors, "build_population",
                    lambda fn: _spanned(rec, "dram.module_build", fn))

    _patch_method(DisturbanceModel, "apply_event",
                  lambda fn: _counted(rec, "disturbance.apply_event_calls", fn))
    _patch_function(population, "sample_population",
                    lambda fn: _spanned(rec, "disturbance.population", fn))

    def make_measure(fn):
        def measure(self, *args, **kwargs):
            outer = not rec._in_measure
            rec._in_measure += 1
            index = rec.begin("core.measure")
            try:
                result = fn(self, *args, **kwargs)
            finally:
                rec.end(index)
                rec._in_measure -= 1
            if outer:
                counts["core.searches"] += measurement_count(result)
            return result
        return measure

    for name in list(vars(CharacterizationSession)):
        if name.startswith("measure_") and name != "measure_wcdp":
            _patch_method(CharacterizationSession, name, make_measure)

    def make_session_init(fn):
        def __init__(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            self.probe_stage_s = {}
            rec.stage_dicts.append(self.probe_stage_s)
        return __init__

    _patch_method(CharacterizationSession, "__init__", make_session_init)

    def after_sim(result):
        counts["memsys.requests"] += result.requests_served
        counts["memsys.sim_ns"] += result.elapsed_ns
        counts["memsys.backoffs"] += result.backoffs

    _patch_method(MemorySystem, "run",
                  lambda fn: _spanned(rec, "memsys.run", fn, after=after_sim))
    _patch_function(memsys_system, "alone_ipc",
                    lambda fn: _spanned(rec, "memsys.alone_ipc", fn))
    _patch_method(PracCounters, "record",
                  lambda fn: _counted(rec, "mitigations.prac_record_calls", fn))

    for cls in (SamplingTrr, WeightedSamplingTrr):
        _patch_method(cls, "on_act",
                      lambda fn: _counted(rec, "trr.on_act_calls", fn))
        _patch_method(cls, "on_act_stream",
                      lambda fn: _counted(rec, "trr.on_act_stream_calls", fn))


# ----------------------------------------------------------------------
# reduction to per-layer metrics
# ----------------------------------------------------------------------
def _rate(numerator: float, seconds: float) -> float:
    return numerator / seconds if seconds > 0 else 0.0


def layer_metrics(rec: Recorder, units: list[dict], extra: dict,
                  speed: float = 1.0) -> dict[str, float]:
    """Reduce one traced run to every per-layer metric but the overhead.

    ``units`` are the run's unit records (``kind``, ``seconds``, ``extra``)
    and the recorder's spans are on the reference time axis; ``extra``
    carries workload-level numbers the recorder cannot see, such as a
    campaign's manifest figures.  Durations measured outside the spans
    (the campaign's fingerprinting, probe stage times) are raw seconds and
    are scaled by the run's mean ``speed``.  Metrics of layers the workload
    does not exercise read 0.
    """
    c = rec.counts
    m: dict[str, float] = {}
    by_kind: defaultdict[str, list] = defaultdict(list)
    for unit in units:
        by_kind[unit["kind"]].append(unit)
    for kind in GAUNTLET_KINDS:
        m[f"attack.cell_s.{kind}"] = sum(u["seconds"] for u in by_kind[kind])
    for kind in RATE_KINDS:
        acts = sum(u["extra"].get("acts", 0) for u in by_kind[kind])
        m[f"attack.acts_per_s.{kind}"] = _rate(acts, m[f"attack.cell_s.{kind}"])
    m["attack.synth_s"] = rec.span_s("attack.synth")
    m["attack.prac_hook_events"] = c["attack.prac_hook_events"]
    m["attack.cells_blocked"] = len(by_kind["admission"])
    m["attack.cells_exploited"] = sum(
        1 for u in units if u["extra"].get("flips", 0) > 0
    )
    m["bender.run_s"] = rec.span_s("bender.run")
    m["bender.runs"] = rec.span_count("bender.run")
    m["bender.io_s"] = rec.span_s("bender.io")
    m["dram.act_calls"] = c["dram.act_calls"]
    m["dram.stream_calls"] = c["dram.stream_calls"]
    m["dram.streamed_act_frac"] = (
        c["dram.streamed_acts"] / c["dram.act_calls"] if c["dram.act_calls"] else 0.0
    )
    m["dram.module_build_s"] = rec.span_s("dram.module_build")
    m["dram.modules_built"] = c["dram.modules_built"]
    m["disturbance.apply_event_calls"] = c["disturbance.apply_event_calls"]
    m["disturbance.population_s"] = rec.span_s("disturbance.population")
    m["core.measure_s"] = rec.span_s("core.measure")
    m["core.searches"] = c["core.searches"]
    m["core.searches_per_s"] = _rate(c["core.searches"], m["core.measure_s"])
    staged = 0.0
    for stage in PROBE_STAGES:
        value = speed * sum(d.get(stage, 0.0) for d in rec.stage_dicts)
        m[f"core.stage_s.{stage}"] = value
        staged += value
    m["core.stage_s.other"] = m["core.measure_s"] - staged
    for experiment_id in CHARACTERIZE_IDS:
        m[f"experiments.run_s.{experiment_id}"] = sum(
            u["seconds"] for u in by_kind.get(f"experiment:{experiment_id}", ())
        )
    m["memsys.run_s"] = rec.span_s("memsys.run")
    m["memsys.runs"] = rec.span_count("memsys.run")
    m["memsys.requests_per_s"] = _rate(c["memsys.requests"], m["memsys.run_s"])
    m["memsys.sim_ns_per_s"] = _rate(c["memsys.sim_ns"], m["memsys.run_s"])
    m["memsys.alone_ipc_s"] = rec.span_s("memsys.alone_ipc")
    m["memsys.backoffs"] = c["memsys.backoffs"]
    m["mitigations.prac_record_calls"] = c["mitigations.prac_record_calls"]
    m["trr.on_act_calls"] = c["trr.on_act_calls"]
    m["trr.on_act_stream_calls"] = c["trr.on_act_stream_calls"]
    # a campaign unit is a task, and its kind is its experiment id
    tasks = [u for u in units if u["kind"] in CAMPAIGN_IDS]
    m["campaign.tasks"] = extra.get("campaign.tasks", 0)
    m["campaign.task_s"] = sum(u["seconds"] for u in tasks)
    for experiment_id in CAMPAIGN_IDS:
        m[f"campaign.experiment_s.{experiment_id}"] = sum(
            u["seconds"] for u in by_kind.get(experiment_id, ()))
    m["campaign.parallel_eff"] = extra.get("campaign.parallel_eff", 0.0)
    m["campaign.critical_task_s"] = max((u["seconds"] for u in tasks), default=0.0)
    m["campaign.fingerprint_s"] = speed * extra.get("campaign.fingerprint_s", 0.0)
    m["campaign.pool_restarts"] = extra.get("campaign.pool_restarts", 0)
    m["campaign.store_put_s"] = rec.span_s("campaign.store_put")
    m["campaign.store_puts"] = rec.span_count("campaign.store_put")
    return m
