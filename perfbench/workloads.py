"""The benchmark's four workloads, built only from the package's public API.

Each ``setup_<name>(seed, workdir)`` does the workload's set-up (imports
included: nothing from ``repro`` is imported at module level, so a fresh
interpreter pays for its imports inside set-up) and returns a
:class:`Plan`.  ``Plan.execute(record)`` runs the work and calls
``record`` once per unit -- a gauntlet cell, an experiment, a simulation or
a campaign task -- with the unit's output payload, whose digest the
correctness gate compares with ``reference.json``.

Layer callables are always reached through their module at call time
(``attack.synthesize_attacks``, not a name imported here) so that a traced
run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import speed

WORKLOADS = ("gauntlet", "characterize", "memsys", "campaign")

GAUNTLET_CONFIG = "hynix-a-8gb"
GAUNTLET_ATTACKS = ("naive-rowhammer", "sync-rowhammer", "sync-comra", "sync-simra16")
GAUNTLET_MITIGATIONS = ("none", "sampling-trr", "prac-po-wc", "compute-region")

CHARACTERIZE_IDS = (
    "table2",
    "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    "fig21", "fig22", "fig23",
)

#: Fig. 25 at default scale: 8 mixes x DEFAULT_PERIODS x these variants,
#: plus each mix's alone-IPC runs
MEMSYS_MIXES = 8
MEMSYS_VARIANTS = ("baseline", "PRAC-PO-Naive", "PRAC-PO-WC")

#: the experiment registry the campaign workload runs (one metric each)
CAMPAIGN_IDS = (
    "attack_surface",
    "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    "fig21", "fig22", "fig23", "fig24", "fig25",
    "pud_reliability", "table1", "table2",
)
CAMPAIGN_JOBS = 2

#: workloads whose inputs do not depend on the seed; their reference
#: digests are stored once, under this key
UNSEEDED = ("characterize", "campaign")
FIXED_INPUT = "fixed"

Record = Callable[..., None]


@dataclass
class Plan:
    """A set-up workload, ready to run."""

    execute: Callable[[Record], None]
    #: headline checks computed from ``{unit id: output}``
    headline: Callable[[dict], dict]
    #: seed-independent invariants; returns a list of violated ones
    problems: Callable[[dict], list]
    #: workload-level numbers for the traced run's per-layer metrics
    extra: Callable[[], dict] = dict
    cleanup: Callable[[], None] = lambda: None
    #: reference clocks of the processes that did the work, when that was
    #: not the worker itself (the campaign's pool children)
    work_clocks: Callable[[], list] = list


def reference_key(workload: str, seed: int) -> str:
    return FIXED_INPUT if workload in UNSEEDED else str(seed)


def run_units(units: list, record: Record) -> None:
    """Run ``(uid, kind, fn)`` units in order; ``fn() -> (output, payload, extra)``."""
    for uid, kind, fn in units:
        start = time.perf_counter()
        try:
            output, payload, extra = fn()
        except Exception as error:  # a unit that raises is a counted failure
            record(uid, kind, start, time.perf_counter(), error=error)
        else:
            record(uid, kind, start, time.perf_counter(), output=output,
                   payload=payload, extra=extra)


# ----------------------------------------------------------------------
# gauntlet
# ----------------------------------------------------------------------
def _cell_kind(mitigation: str, blocked: bool) -> str:
    if blocked:
        return "admission"
    if mitigation.startswith("prac"):
        return "prac"
    return "none" if mitigation == "none" else "trr"


def setup_gauntlet(seed: int, workdir: Path) -> Plan:
    import repro.attack as attack
    import repro.dram.vendors as vendors
    from repro.core.scale import ExperimentScale

    budget = ExperimentScale.small().attack_acts
    module = vendors.make_module(GAUNTLET_CONFIG, serial=seed)
    specs = {spec.name: spec for spec in attack.synthesize_attacks(module, simra_rows=16)}
    missing = [name for name in GAUNTLET_ATTACKS if name not in specs]
    if missing:
        raise RuntimeError(f"synthesis produced no {missing} for {GAUNTLET_CONFIG}")

    def cell(spec, mitigation):
        def fn():
            result = attack.run_cell(GAUNTLET_CONFIG, spec, mitigation, budget,
                                     serial=seed)
            extra = {"acts": result.acts_issued, "flips": result.flips,
                     "blocked": result.blocked,
                     "kind": _cell_kind(mitigation, result.blocked)}
            return result, result.to_row(), extra
        return fn

    units = [
        (f"{name}/{mitigation}", "cell", cell(specs[name], mitigation))
        for name in GAUNTLET_ATTACKS
        for mitigation in GAUNTLET_MITIGATIONS
    ]

    def headline(outputs: dict) -> dict:
        def flips(name, mitigation):
            cell = outputs.get(f"{name}/{mitigation}")
            return float(cell.flips) if cell is not None else -1.0

        holding = sum(
            1 for mitigation in GAUNTLET_MITIGATIONS[2:]
            if all(
                (cell := outputs.get(f"{name}/{mitigation}")) is not None
                and (cell.blocked or cell.flips == 0)
                for name in GAUNTLET_ATTACKS
            )
        )
        return {
            "bypass_flips": flips("sync-comra", "sampling-trr"),
            "naive_rh_trr_flips": flips("naive-rowhammer", "sampling-trr"),
            "mitigations_holding": float(holding),
            "cells_blocked": float(sum(c.blocked for c in outputs.values())),
            "cells_exploited": float(sum(c.flips > 0 for c in outputs.values())),
        }

    def problems(outputs: dict) -> list:
        found = []
        for uid, cell in outputs.items():
            if cell.acts_issued > budget:
                found.append(f"{uid}: {cell.acts_issued} ACTs over the {budget} budget")
            if cell.blocked and cell.acts_issued:
                found.append(f"{uid}: blocked cell issued ACTs")
            if cell.mitigation == "prac-po-wc" and cell.flips:
                found.append(f"{uid}: PRAC-PO-WC let {cell.flips} bits flip")
        for name in ("sync-comra", "sync-simra16"):
            cell = outputs.get(f"{name}/compute-region")
            if cell is not None and not cell.blocked:
                found.append(f"{name}/compute-region: not blocked at admission")
        return found

    return Plan(execute=lambda record: run_units(units, record),
                headline=headline, problems=problems)


# ----------------------------------------------------------------------
# characterize
# ----------------------------------------------------------------------
def setup_characterize(seed: int, workdir: Path) -> Plan:
    import repro.experiments as experiments
    from repro.core.scale import ExperimentScale

    scale = ExperimentScale.default()

    def experiment(experiment_id):
        def fn():
            result = experiments.run_experiment(experiment_id, scale)
            return result, result.to_dict(), {}
        return fn

    units = [
        (experiment_id, f"experiment:{experiment_id}", experiment(experiment_id))
        for experiment_id in CHARACTERIZE_IDS
    ]

    def headline(outputs: dict) -> dict:
        return {
            f"{experiment_id}.{name}": value
            for experiment_id, result in outputs.items()
            for name, value in result.checks.items()
        }

    def problems(outputs: dict) -> list:
        return [f"{uid}: no rows" for uid, result in outputs.items() if not result.rows]

    return Plan(execute=lambda record: run_units(units, record),
                headline=headline, problems=problems)


# ----------------------------------------------------------------------
# memsys
# ----------------------------------------------------------------------
def setup_memsys(seed: int, workdir: Path) -> Plan:
    import repro.memsys as memsys
    from repro.experiments.prac_overhead import DEFAULT_PERIODS
    from repro.mitigations.prac import PracConfig
    from repro.workloads.mixes import PudWorkloadConfig, build_mixes

    config = memsys.MemSysConfig()
    mixes = build_mixes(MEMSYS_MIXES)
    pracs = dict(zip(MEMSYS_VARIANTS,
                     (None, PracConfig.po_naive(), PracConfig.po_weighted())))

    def mix_unit(mix):
        """One mix: its alone IPCs, then every (period, variant) simulation.

        This drives ``alone_ipc`` and ``MemorySystem.run`` directly, the
        way ``Fig25Evaluation.evaluate`` does, because ``evaluate`` runs all
        mixes as one call with fixed seeds; so a change to ``evaluate``
        itself shows only through the ``campaign`` workload's fig25 task.
        A unit is a whole mix rather than one 0.2 s simulation so that the
        slowest unit is a few seconds long and steady on a shared host.
        """
        def fn():
            alone = [memsys.alone_ipc(p, config=config, seed=seed) for p in mix.profiles]
            sims = {}
            for period in DEFAULT_PERIODS:
                for variant in MEMSYS_VARIANTS:
                    system = memsys.MemorySystem(
                        mix, pud=PudWorkloadConfig(period_ns=period),
                        prac=pracs[variant], config=config, seed=mix.mix_id + seed,
                    )
                    sims[period, variant] = system.run()
            payload = {"alone_ipc": alone,
                       "sims": [[period, variant, dataclasses.asdict(result)]
                                for (period, variant), result in sims.items()]}
            return (alone, sims), payload, {}
        return fn

    units = [(f"mix{mix.mix_id}", "mix", mix_unit(mix)) for mix in mixes]

    def headline(outputs: dict) -> dict:
        """Sweep totals: mean weighted speedup per variant, requests, back-offs.

        These are the benchmark's own summary of the simulations, not
        ``run_fig25``'s checks, which this workload does not compute.
        """
        results = [(alone, variant, result) for alone, sims in outputs.values()
                   for (_, variant), result in sims.items()]
        checks = {}
        for variant in MEMSYS_VARIANTS:
            speedups = [r.weighted_speedup(alone) for alone, v, r in results if v == variant]
            if speedups:
                checks[f"weighted_speedup_{variant}"] = sum(speedups) / len(speedups)
        checks["requests_served"] = float(sum(r.requests_served for _, _, r in results))
        checks["backoffs"] = float(sum(r.backoffs for _, _, r in results))
        return checks

    def problems(outputs: dict) -> list:
        found = []
        for uid, (alone, sims) in outputs.items():
            if not all(ipc > 0 for ipc in alone):
                found.append(f"{uid}: non-positive alone IPC")
            for (period, variant), result in sims.items():
                if result.requests_served <= 0:
                    found.append(f"{uid}/{period:g}ns/{variant}: served no requests")
                if variant == "baseline" and result.backoffs:
                    found.append(f"{uid}/{period:g}ns/{variant}: back-offs without PRAC")
        return found

    return Plan(execute=lambda record: run_units(units, record),
                headline=headline, problems=problems)


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
def setup_campaign(seed: int, workdir: Path) -> Plan:
    from repro.campaign import ArtifactStore, CampaignRunner
    from repro.campaign import store as store_module
    from repro.core.scale import ExperimentScale
    from repro.experiments import EXPERIMENTS

    workdir.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="campaign-", dir=workdir))
    probes = root / "probes"
    probes.mkdir()
    speed.probe_forked_children(probes)
    started = time.perf_counter()
    store_module.code_fingerprint()
    for experiment_id in sorted(EXPERIMENTS):
        store_module.code_fingerprint(experiment_id)
    fingerprint_s = time.perf_counter() - started
    runner = CampaignRunner(store=ArtifactStore(root), scale=ExperimentScale.smoke(),
                            jobs=CAMPAIGN_JOBS)
    state: dict = {}

    def execute(record: Record) -> None:
        summary = runner.run()
        state["summary"] = summary
        # a task ran in a pool child and ended about when the parent logged
        # it; time it on that child's own reference clock
        to_perf = time.perf_counter() - time.time()
        state["events"] = [json.loads(line) for line in
                           summary.events_path.read_text().splitlines() if line.strip()]
        finished = {
            (event["experiment_id"], event.get("shard")): event["timestamp"]
            for event in state["events"]
            if event["event"] in ("task_finished", "task_failed")
        }
        clocks = speed.child_clocks(probes)
        state["clocks"] = list(clocks.values())
        now = time.perf_counter()
        for outcome in summary.outcomes:
            task = outcome.task
            uid = f"{task.experiment_id}[{task.shard}]" if task.shard else task.experiment_id
            logged = finished.get((task.experiment_id, task.shard))
            end = now if logged is None else logged + to_perf
            start = end - outcome.elapsed
            clock = clocks.get(outcome.worker)
            ref = None if clock is None else clock(end) - clock(start)
            if outcome.status == "failed" or outcome.result is None:
                record(uid, task.experiment_id, start, end, ref_seconds=ref,
                       error=RuntimeError(outcome.error or outcome.status))
            else:
                record(uid, task.experiment_id, start, end, ref_seconds=ref,
                       output=outcome.result, payload=outcome.result.to_dict())

    def headline(outputs: dict) -> dict:
        summary = state["summary"]
        return {"executed": float(summary.executed), "cached": float(summary.cached),
                "failed": float(summary.failed),
                "pool_restarts": float(summary.pool_restarts),
                "experiments": float(len(summary.results))}

    def problems(outputs: dict) -> list:
        summary = state["summary"]
        found = [f"{eid}: {error}" for eid, error in summary.failures.items()]
        if summary.cached:
            found.append(f"{summary.cached} tasks served from a store that should be empty")
        if summary.pool_restarts:
            found.append(f"process pool restarted {summary.pool_restarts} times")
        return found

    def extra() -> dict:
        """Campaign layer numbers from the run's manifest, event log and obs.json.

        Task times per experiment are the units' own (each task timed on
        the clock of the pool worker that ran it); these are the rest.
        """
        summary = state["summary"]
        manifest = json.loads(summary.manifest_path.read_text())
        obs = json.loads(summary.obs_path.read_text())
        tasks = [t for t in manifest["tasks"] if t["status"] == "executed"]
        finished = [e for e in state["events"] if e["event"] == "task_finished"]
        executed = obs["counters"].get("campaign.tasks", {}).get("status=executed", 0)
        if not (len(tasks) == len(finished) == executed):
            raise RuntimeError(
                f"campaign records disagree: manifest {len(tasks)} executed tasks, "
                f"event log {len(finished)}, obs.json {executed}"
            )
        task_s = sum(t["elapsed"] for t in tasks)
        return {
            "campaign.tasks": executed,
            "campaign.parallel_eff": task_s / (manifest["jobs"] * manifest["total_elapsed"]),
            "campaign.fingerprint_s": fingerprint_s,
            "campaign.pool_restarts": manifest["pool_restarts"],
        }

    return Plan(execute=execute, headline=headline, problems=problems, extra=extra,
                cleanup=lambda: shutil.rmtree(root, ignore_errors=True),
                work_clocks=lambda: state.get("clocks", []))


SETUPS = {
    "gauntlet": setup_gauntlet,
    "characterize": setup_characterize,
    "memsys": setup_memsys,
    "campaign": setup_campaign,
}
