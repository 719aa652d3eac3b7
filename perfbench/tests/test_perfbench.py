"""Self-tests of the benchmark's own logic (no workload is run here).

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import statistics
from pathlib import Path

import pytest

import compare
import run
import tracer
from stats import quartiles, relative_iqr, tail_percentile, union_length
from worker import digest
from workloads import WORKLOADS

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- digest check ------------------------------------------------------
def _run(units, problems=()):
    return {"units": [{"id": uid, "digest": d, "error": err} for uid, d, err in units],
            "problems": list(problems)}


REFERENCE = {"memsys": {"units": ["a", "b", "c"], "digests": {"7": ["da", "db", "dc"]}}}


def test_digest_is_stable_and_key_order_free():
    assert digest({"x": 1.5, "y": [1, 2]}) == digest({"y": [1, 2], "x": 1.5})
    assert digest({"x": 1.5}) != digest({"x": 1.5000000000000002})
    assert len(digest([])) == 16


def test_gate_accepts_matching_digests():
    verdict = run.gate("memsys", 7, _run([("a", "da", None), ("b", "db", None),
                                          ("c", "dc", None)]), REFERENCE)
    assert verdict == {"attempted": 3, "failed": 0, "reference": True, "reasons": []}


def test_gate_counts_mismatch_exception_and_missing_unit():
    verdict = run.gate("memsys", 7, _run([("a", "xx", None), ("b", None, "ValueError: boom")]),
                       REFERENCE)
    assert verdict["reference"]
    assert verdict["attempted"] == 3
    assert verdict["failed"] == 3
    assert any("digest xx" in r for r in verdict["reasons"])
    assert any("c: not run" in r for r in verdict["reasons"])


def test_gate_without_reference_checks_invariants_only():
    ok = run.gate("memsys", 8, _run([("a", "anything", None)]), REFERENCE)
    assert ok == {"attempted": 1, "failed": 0, "reference": False, "reasons": []}
    bad = run.gate("memsys", 8, _run([("a", "anything", None)], ["no requests"]), REFERENCE)
    assert bad["failed"] == 0 and bad["reasons"] == ["invariant: no requests"]


def test_unseeded_workloads_share_one_reference():
    reference = {"campaign": {"units": ["t"], "digests": {"fixed": ["dt"]}}}
    for seed in (0, 1, 12345):
        assert run.gate("campaign", seed, _run([("t", "dt", None)]), reference)["reference"]


# -- self time ---------------------------------------------------------
def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(10.0)


def test_self_time_subtracts_child_coverage():
    spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["inner", 1.0, 4.0, 0, None],
        ["inner", 3.0, 5.0, 0, None],   # overlaps its sibling: counted once
        ["leaf", 1.5, 2.0, 1, None],
    ]
    times = tracer.self_times(spans)
    assert times["outer"]["self_s"] == pytest.approx(6.0)
    assert times["inner"]["count"] == 2
    assert times["inner"]["total_s"] == pytest.approx(5.0)
    assert times["inner"]["self_s"] == pytest.approx(4.5)
    assert times["leaf"]["self_s"] == pytest.approx(0.5)


def test_recorder_layer_time_never_double_counts_nesting():
    rec = tracer.Recorder()
    rec.spans = [["core.measure", 0.0, 4.0, -1, None], ["core.measure", 1.0, 2.0, 0, None],
                 ["core.measure", 6.0, 7.0, -1, None]]
    assert rec.span_s("core.measure") == pytest.approx(5.0)
    assert rec.span_count("core.measure") == 3


def test_measurement_count_flattens_batches_and_skips_none():
    m = object()  # any outcome that is not a list, tuple or None
    assert tracer.measurement_count(m) == 1
    assert tracer.measurement_count(None) == 0
    assert tracer.measurement_count([m, m, m]) == 3          # scalar, one per victim
    assert tracer.measurement_count([[m, m], [m], []]) == 3  # batched twin of the same
    assert tracer.measurement_count([m, None, m]) == 2       # measure_many_combined


def test_attach_units_reparents_roots_inside_units():
    spans = [["bender.run", 1.0, 2.0, -1, None], ["dram.x", 1.2, 1.3, 0, None],
             ["attack.synth", 9.0, 9.5, -1, None]]
    units = [{"id": "u1", "start": 0.5, "seconds": 2.0}]
    out = tracer.attach_units(spans, units)
    assert out[-1] == ["unit", 0.5, 2.5, -1, "u1"]
    assert out[0][3] == 3 and out[0][4] == "u1"
    assert out[1][4] == "u1"
    assert out[2][3] == -1 and out[2][4] is None
    assert tracer.self_times(out)["unit"]["self_s"] == pytest.approx(1.0)


# -- tail and percentile helper ----------------------------------------
def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert relative_iqr(values) == pytest.approx((q3 - q1) / q2)


@pytest.mark.parametrize("n, expected", [(19, None), (99, None), (100, 90.0),
                                         (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = [float(v) for v in range(1, n + 1)]
    tail = tail_percentile(values)
    if expected is None:
        assert tail is None
        return
    p, value = tail
    assert p == expected
    beyond = sum(1 for v in values if v > value)
    assert beyond >= 10
    assert sum(1 for v in values if v <= value) >= p * n / 100 - 1e-6


# -- metric names ------------------------------------------------------
def test_benchmark_json_is_valid_and_matches_the_code():
    bench = json.loads(BENCHMARK.read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, tracer.BETTER[unit]) for name, unit in tracer.per_layer_catalog()]
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert 1 <= len(bench["per_layer"]) <= 128
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert len(BENCHMARK.read_bytes()) <= 64 * 1024


# -- compare mode ------------------------------------------------------
def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "gain"
    assert compare.verdict(parent, faster, "lower", 0.1, more_failures=True)[0].startswith(
        "gain (void")
    assert compare.verdict(parent, [v * 1.3 for v in parent], "lower", 0.1)[0] == "regression"
    assert compare.verdict(parent, [v * 1.01 for v in parent], "lower", 0.1)[0] == "same"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"


def test_compare_flags_a_host_second_regression_the_reference_hides():
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    slower = [v * 1.3 for v in parent]
    assert compare.with_host_seconds("same", parent, slower, "lower", 0.2) == (
        "unresolved (host seconds regressed)")
    assert compare.with_host_seconds("gain", parent, slower, "lower", 0.2).startswith(
        "unresolved")
    assert compare.with_host_seconds("same", parent, parent, "lower", 0.2) == "same"
    assert compare.with_host_seconds("regression", parent, slower, "lower", 0.2) == (
        "regression")
    assert compare.with_host_seconds("same", [], slower, "lower", 0.2) == "same"


def test_compare_reads_host_seconds_from_results_files(tmp_path, capsys):
    def write(path, walls, raws):
        lines = []
        for wall, raw in zip(walls, raws):
            lines.append(json.dumps({
                "workload": "memsys", "seed": 0, "trace": 0, "correct": True,
                "attempted": 8, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}},
                "raw": {"medians": {"wall_s": raw, "speed": wall / raw}}}))
        path.write_text("\n".join(lines) + "\n")

    walls = [19.0, 19.2, 19.1, 18.9, 19.0, 19.05, 19.1, 18.95, 19.0, 19.02]
    write(tmp_path / "parent.jsonl", walls, walls)
    write(tmp_path / "change.jsonl", walls, [w * 1.4 for w in walls])
    assert compare.main([str(tmp_path / "parent.jsonl"), str(tmp_path / "change.jsonl")]) == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if " wall_s " in line)
    assert row.endswith("unresolved (host seconds regressed)")
    assert "speed (reference s per host s): parent median 1.0000, change median 0.7143" in out


# -- reference clock ---------------------------------------------------
def test_reference_clock_scales_work_and_skips_probes():
    from speed import REF_PROBE_S, SENSITIVITY, ReferenceClock

    # probes every second, each 0.1 s long, reading twice the reference
    # time: the host runs at half speed, as far as the probe can tell
    rate = 0.5 ** SENSITIVITY
    samples = [(float(t), t + 0.1, 2 * REF_PROBE_S) for t in range(1, 6)]
    clock = ReferenceClock(samples, origin=0.0)
    assert clock(0.0) == 0.0
    assert clock(1.0) == pytest.approx(rate)             # before the first probe
    assert clock(1.05) == pytest.approx(rate)            # inside a probe: no work
    assert clock(2.0) == pytest.approx(rate + 0.9 * rate)
    assert clock(7.1) - clock(5.1) == pytest.approx(2 * rate)  # tail speed
    assert clock.speed(1.1, 2.0) == pytest.approx(rate)
    times = [0.0, 0.5, 1.0, 1.02, 1.1, 3.3, 9.0]
    assert [clock(t) for t in times] == sorted(clock(t) for t in times)


def test_reference_clock_without_probes_reads_raw_seconds():
    from speed import ReferenceClock

    clock = ReferenceClock([], origin=10.0)
    assert clock(12.5) == pytest.approx(2.5)
