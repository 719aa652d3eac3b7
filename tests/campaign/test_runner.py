"""Campaign runner: scheduling, caching, resume, determinism, crashes.

Uses the fastest experiments (table1, fig21, fig22, fig13, fig05) to keep
the tier-1 suite quick; the properties under test are scale-independent.
"""

import json
import multiprocessing
import os

import pytest

from repro import ExperimentScale
from repro.campaign import (
    CACHE_HIT,
    POOL_RESTART,
    TASK_FAILED,
    TASK_FINISHED,
    TASK_REQUEUED,
    WORKER_CRASHED,
    ArtifactStore,
    CampaignRunner,
    read_events,
    run_campaign,
)
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.base import ExperimentResult

SMALL = ExperimentScale.small()

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="registry monkeypatching needs fork workers",
)


def test_serial_campaign_writes_artifacts_manifest_and_events(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    summary = run_campaign(["table1", "fig21"], scale=SMALL, store=store)
    assert summary.executed == 2 and summary.cached == 0 and not summary.failures
    assert sorted(summary.results) == ["fig21", "table1"]
    assert summary.results["table1"].checks["total_chips"] > 0
    # every task is persisted content-addressed
    for experiment_id in ("table1", "fig21"):
        key = store.key(experiment_id, SMALL)
        assert store.has(key)
        assert store.get(key).to_dict() == summary.results[experiment_id].to_dict()
    manifest = json.loads(summary.manifest_path.read_text())
    assert manifest["run_id"] == summary.run_id
    assert manifest["counts"] == {"executed": 2, "cached": 0, "failed": 0}
    assert {t["experiment_id"] for t in manifest["tasks"]} == {"table1", "fig21"}
    assert all(t["status"] == "executed" for t in manifest["tasks"])
    events = list(read_events(summary.events_path))
    assert events[0].event == "campaign_started"
    assert events[-1].event == "campaign_finished"
    assert sum(e.event == TASK_FINISHED for e in events) == 2


def test_corrupt_artifact_reexecutes_and_is_quarantined(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    first = run_campaign(["table1"], scale=SMALL, store=store)
    path = store.artifact_path(store.key("table1", SMALL))
    path.write_text("garbage")
    summary = run_campaign(["table1"], scale=SMALL, store=store)
    assert summary.executed == 1 and summary.cached == 0
    assert summary.results["table1"].to_dict() == first.results["table1"].to_dict()
    assert path.with_name(path.name + ".corrupt").read_text() == "garbage"
    assert store.get(store.key("table1", SMALL)) is not None
    obs = json.loads(summary.obs_path.read_text())
    assert obs["counters"]["store.corrupt"] == {"reason=json": 1}


def test_parallel_matches_serial_byte_identical(tmp_path):
    """Satellite: --jobs 4 must be byte-identical to a serial run.

    fig05 additionally shards per config under jobs>1, so this also proves
    session-granularity merging reproduces the whole-experiment result.
    """
    ids = ["fig05", "fig21"]
    serial = run_campaign(ids, scale=SMALL, jobs=1,
                          store=ArtifactStore(tmp_path / "serial"),
                          granularity="experiment")
    parallel = run_campaign(ids, scale=SMALL, jobs=4,
                            store=ArtifactStore(tmp_path / "parallel"))
    for experiment_id in ids:
        a = serial.results[experiment_id]
        b = parallel.results[experiment_id]
        assert json.dumps(a.checks, sort_keys=False) == json.dumps(
            b.checks, sort_keys=False
        )
        assert a.to_dict() == b.to_dict()
    # direct execution outside the campaign agrees too
    direct = run_experiment("fig05", SMALL)
    assert direct.to_dict() == parallel.results["fig05"].to_dict()


def test_resume_skips_completed_artifacts(tmp_path):
    """Satellite: a killed campaign resumes by skipping completed work."""
    store = ArtifactStore(tmp_path / "store")
    # campaign killed after K=2 artifacts: only the first two ran
    first = run_campaign(["table1", "fig21"], scale=SMALL, store=store)
    assert first.executed == 2

    resumed = run_campaign(["table1", "fig21", "fig22", "fig13"],
                           scale=SMALL, store=store)
    assert resumed.cached == 2 and resumed.executed == 2
    events = list(read_events(resumed.events_path))
    hits = sorted(e.experiment_id for e in events if e.event == CACHE_HIT)
    ran = sorted(e.experiment_id for e in events if e.event == TASK_FINISHED)
    assert hits == ["fig21", "table1"]
    assert ran == ["fig13", "fig22"]
    # cached results are identical to the stored originals
    assert (resumed.results["fig21"].to_dict()
            == first.results["fig21"].to_dict())

    # a third run is a full cache hit and touches nothing
    full = run_campaign(["table1", "fig21", "fig22", "fig13"],
                        scale=SMALL, store=store)
    assert full.executed == 0 and full.cached == 4 and not full.failures


def test_force_recomputes(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    run_campaign(["table1"], scale=SMALL, store=store)
    forced = run_campaign(["table1"], scale=SMALL, store=store, force=True)
    assert forced.executed == 1 and forced.cached == 0


def test_scale_change_invalidates_cache(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    run_campaign(["table1"], scale=SMALL, store=store)
    other = run_campaign(["table1"], scale=SMALL.with_overrides(row_step=7),
                         store=store)
    assert other.executed == 1 and other.cached == 0


def test_unknown_experiment_rejected(tmp_path):
    with pytest.raises(KeyError):
        run_campaign(["fig99"], scale=SMALL,
                     store=ArtifactStore(tmp_path / "store"))


def _failing_runner(scale=None, **kwargs):
    raise ValueError("synthetic failure")


def test_failed_task_is_recorded_not_raised(tmp_path, monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "failing", _failing_runner)
    store = ArtifactStore(tmp_path / "store")
    summary = run_campaign(["failing", "table1"], scale=SMALL, store=store)
    assert summary.failed == 1 and summary.executed == 1
    assert "synthetic failure" in summary.failures["failing"]
    assert "failing" not in summary.results and "table1" in summary.results
    events = list(read_events(summary.events_path))
    assert any(e.event == TASK_FAILED and e.experiment_id == "failing"
               for e in events)
    manifest = json.loads(summary.manifest_path.read_text())
    statuses = {t["experiment_id"]: t["status"] for t in manifest["tasks"]}
    assert statuses == {"failing": "failed", "table1": "executed"}


def _crash_in_pool_runner(scale=None, **kwargs):
    # kill pool workers outright (simulates OOM/segfault); survive when the
    # runner falls back to in-process serial execution
    if multiprocessing.current_process().name != "MainProcess":
        os._exit(3)
    return ExperimentResult("crashy", "synthetic crashy", checks={"ok": 1.0})


@fork_only
def test_worker_crash_retries_then_serial_fallback(tmp_path, monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "crashy", _crash_in_pool_runner)
    store = ArtifactStore(tmp_path / "store")
    runner = CampaignRunner(store=store, scale=SMALL, jobs=2,
                            max_pool_restarts=1)
    summary = runner.run(["crashy"])
    assert summary.executed == 1 and not summary.failures
    assert summary.results["crashy"].checks == {"ok": 1.0}
    events = list(read_events(summary.events_path))
    crashes = [e for e in events if e.event == WORKER_CRASHED]
    # initial attempt + one restart both died before the serial fallback
    assert len(crashes) >= 2
    assert any(e.event == TASK_FINISHED and e.worker == "serial"
               for e in events)
    # every crash is attributed to the task that was in flight
    assert all(e.experiment_id == "crashy" for e in crashes)
    # each crash requeues the surviving work with the restart attempt
    requeues = [e for e in events if e.event == TASK_REQUEUED]
    assert [e.experiment_id for e in requeues] == ["crashy", "crashy"]
    assert [e.detail["restart"] for e in requeues] == [1, 2]
    restarts = [e for e in events if e.event == POOL_RESTART]
    assert [e.detail["mode"] for e in restarts] == ["pool", "serial"]
    assert all(e.detail["remaining"] == 1 for e in restarts)
    # the restart count survives into the manifest and the summary
    assert summary.pool_restarts == 2
    manifest = json.loads(summary.manifest_path.read_text())
    assert manifest["pool_restarts"] == 2
    # ...and the obs snapshot mirrors the crash-path event counts
    obs = json.loads(summary.obs_path.read_text())
    events_by_kind = obs["counters"]["campaign.events"]
    assert events_by_kind[f"kind={WORKER_CRASHED}"] == 2
    assert events_by_kind[f"kind={TASK_REQUEUED}"] == 2
    assert events_by_kind[f"kind={POOL_RESTART}"] == 2


@fork_only
def test_crash_env_hook_kills_one_pool_worker(tmp_path, monkeypatch):
    """REPRO_CRASH_WORKER_ONCE (the CI crash-smoke hook) crashes a real
    experiment's worker exactly once; the campaign still completes."""
    from repro.campaign.runner import CRASH_ENV

    flag = tmp_path / "crashed.flag"
    monkeypatch.setenv(CRASH_ENV, f"table1:{flag}")
    store = ArtifactStore(tmp_path / "store")
    runner = CampaignRunner(store=store, scale=SMALL, jobs=2,
                            max_pool_restarts=1)
    summary = runner.run(["table1", "fig21"])
    assert flag.exists()  # the hook fired (and only once: the flag gates it)
    assert summary.executed == 2 and not summary.failures
    assert summary.pool_restarts >= 1
    events = list(read_events(summary.events_path))
    crashes = [e for e in events if e.event == WORKER_CRASHED]
    assert any(e.experiment_id == "table1" for e in crashes)
    assert any(e.event == TASK_REQUEUED for e in events)


SMOKE = ExperimentScale.smoke()


def test_attack_gauntlet_parallel_matches_serial_byte_identical(tmp_path):
    """Acceptance: the gauntlet matrix (4 vendors at smoke scale) must be
    byte-identical between --jobs 1 and --jobs 4 campaign runs."""
    serial = run_campaign(["attack_surface"], scale=SMOKE, jobs=1,
                          store=ArtifactStore(tmp_path / "serial"),
                          granularity="session")
    parallel = run_campaign(["attack_surface"], scale=SMOKE, jobs=4,
                            store=ArtifactStore(tmp_path / "parallel"),
                            granularity="session")
    a = serial.results["attack_surface"]
    b = parallel.results["attack_surface"]
    assert json.dumps(a.to_dict(), sort_keys=False) == json.dumps(
        b.to_dict(), sort_keys=False
    )
    # the merged result is published under the whole-experiment key
    whole = ArtifactStore(tmp_path / "serial").key("attack_surface", SMOKE)
    assert ArtifactStore(tmp_path / "serial").get(whole).to_dict() == a.to_dict()


def test_shard_filter_limits_and_forces_sharding(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    runner = CampaignRunner(store=store, scale=SMOKE, jobs=1,
                            granularity="session",
                            shard_filter=("hynix-a-8gb",))
    summary = runner.run(["attack_surface"])
    assert summary.executed == 1 and not summary.failures
    result = summary.results["attack_surface"]
    assert {row["config"] for row in result.rows} == {"hynix-a-8gb"}
    # a partial (filtered) run must NOT publish the whole-experiment key
    assert not store.has(store.key("attack_surface", SMOKE))
    # but the shard artifact is stored and resumable
    assert store.has(store.key("attack_surface", SMOKE, shard="hynix-a-8gb"))
    resumed = CampaignRunner(store=store, scale=SMOKE, jobs=1,
                             granularity="session",
                             shard_filter=("hynix-a-8gb",)).run(["attack_surface"])
    assert resumed.cached == 1 and resumed.executed == 0


def test_shard_filter_with_no_match_is_an_error(tmp_path):
    runner = CampaignRunner(store=ArtifactStore(tmp_path / "store"),
                            scale=SMOKE, shard_filter=("no-such-config",))
    with pytest.raises(ValueError):
        runner.run(["attack_surface"])


def test_pending_tasks_submitted_longest_first(tmp_path):
    """Satellite: prior-run elapsed drives submission order, newest wins."""
    from repro.campaign.shards import Task

    store = ArtifactStore(tmp_path / "store")

    def write_manifest(run_id, created_at, tasks):
        run_dir = store.runs_dir / run_id
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text(
            json.dumps({"run_id": run_id, "created_at": created_at,
                        "tasks": tasks})
        )

    write_manifest("20250101T000000-old", 1.0, [
        {"experiment_id": "fig13", "shard": None,
         "status": "executed", "elapsed": 99.0},
        {"experiment_id": "fig05", "shard": "hynix-a-8gb",
         "status": "executed", "elapsed": 5.0},
    ])
    write_manifest("20250102T000000-new", 2.0, [
        # newest manifest overrides the stale 99s figure for fig13
        {"experiment_id": "fig13", "shard": None,
         "status": "executed", "elapsed": 1.0},
        {"experiment_id": "fig21", "shard": None,
         "status": "cached", "elapsed": 7.0},
        # failed tasks report partial timings -- never schedule off them
        {"experiment_id": "fig22", "shard": None,
         "status": "failed", "elapsed": 50.0},
    ])
    corrupt = store.runs_dir / "corrupt"
    corrupt.mkdir()
    (corrupt / "manifest.json").write_text("{not json")

    runner = CampaignRunner(store=store, scale=SMALL)
    pending = [
        Task("table1"),
        Task("fig13"),
        Task("fig05", shard="hynix-a-8gb"),
        Task("fig21"),
        Task("fig22"),
    ]
    ordered = runner._order_longest_first(list(pending))
    # known history descending (7s > 5s > 1s); table1 (no history) and
    # fig22 (failed-only history) keep declared order at the end
    assert [t.label for t in ordered] == [
        "fig21", "fig05[hynix-a-8gb]", "fig13", "table1", "fig22",
    ]


def test_ordering_without_history_keeps_declared_order(tmp_path):
    from repro.campaign.shards import Task

    runner = CampaignRunner(store=ArtifactStore(tmp_path / "store"), scale=SMALL)
    pending = [Task("fig21"), Task("table1"), Task("fig13")]
    assert runner._order_longest_first(list(pending)) == pending
