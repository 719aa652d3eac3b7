"""The repository benchmark: cold runs of named workloads, checked and timed.

    python3 perfbench/run.py --workload gauntlet --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all             # every workload in turn
    python3 perfbench/run.py --workload memsys --seed 3 --record   # store digests

Every measured run is a fresh interpreter (``worker.py``), so module-level
caches start cold as they do for ``repro campaign``.  With ``--trace 0`` the
runner repeats cold runs while the next one still fits in ``--seconds`` of
measured work (at least one run), adds a few set-up-only interpreters, and
reports the medians of the end-to-end metrics, in reference seconds (see
``speed.py``).  With ``--trace 1`` it makes one untraced and one traced
run and reports the per-layer metrics plus the tracing overhead.  Each unit's output digest is checked against
``reference.json``; a mismatch, an exception or a violated invariant makes
the run incorrect and the exit code 1.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Each run's summary is also appended to ``perfbench/results/runs.jsonl``
(compare two such files with ``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import tail_percentile  # noqa: E402
from workloads import WORKLOADS, reference_key  # noqa: E402

REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"
WORK = HERE / ".work"

#: set-up-only interpreters per run, on top of the measured runs' own set-ups
SETUP_REPS = 4
#: one invocation per workload must end well inside 180 s
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("slowest_unit_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not a correctness failure)."""


def _child_env() -> dict:
    env = dict(os.environ)
    # never let a user's cache or a crash-injection hook into the run
    for name in ("REPRO_CACHE_DIR", "REPRO_CRASH_WORKER_ONCE"):
        env.pop(name, None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _end_group(pgid: int) -> None:
    """Kill what is left of a worker's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(workload: str, seed: int, deadline: float, setup_only: bool = False,
          trace: bool = False) -> dict:
    """One fresh-interpreter run of ``workload``; returns the worker's result."""
    WORK.mkdir(parents=True, exist_ok=True)
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    out = WORK / f"result-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--workdir", str(WORK)]
    if setup_only:
        cmd.append("--setup-only")
    trace_out = None
    if trace:
        RESULTS.mkdir(parents=True, exist_ok=True)
        trace_out = RESULTS / f"trace-{workload}-seed{seed}.json"
        cmd += ["--trace-out", str(trace_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for another {workload} run")
    cmd += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _end_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{workload} run exceeded the {DEADLINE_S:.0f} s limit") from None
    finally:
        _end_group(proc.pid)
    try:
        if proc.returncode != 0:
            tail = "\n".join(stderr.strip().splitlines()[-15:])
            raise BenchError(f"{workload} worker exited {proc.returncode}:\n{tail}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


# ----------------------------------------------------------------------
# correctness gate
# ----------------------------------------------------------------------
def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text())


def gate(workload: str, seed: int, run: dict, reference: dict) -> dict:
    """Judge one worker result: unit digests against the reference, invariants.

    Returns ``attempted``, ``failed``, ``reference`` (whether digests were
    compared) and ``reasons`` (one line per failure).
    """
    units = run["units"]
    reasons = [f"{u['id']}: {u['error']}" for u in units if u["error"]]
    failed = {u["id"] for u in units if u["error"]}
    entry = reference.get(workload, {})
    digests = entry.get("digests", {}).get(reference_key(workload, seed))
    attempted = len(units)
    if digests is not None:
        expected = dict(zip(entry["units"], digests))
        seen = {u["id"] for u in units}
        for unit in units:
            want = expected.get(unit["id"])
            if unit["error"] is None and unit["digest"] != want:
                failed.add(unit["id"])
                reasons.append(f"{unit['id']}: digest {unit['digest']} != reference {want}")
        missing = [uid for uid in expected if uid not in seen]
        attempted += len(missing)
        failed.update(missing)
        reasons += [f"{uid}: not run" for uid in missing]
    reasons += [f"invariant: {p}" for p in run["problems"]]
    return {"attempted": attempted, "failed": len(failed),
            "reference": digests is not None, "reasons": reasons}


def combined_digest(run: dict) -> str:
    from worker import digest

    return digest([[u["id"], u["digest"]] for u in run["units"]])


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    """Runs for one workload invocation; returns the aggregated summary."""
    reference = load_reference()
    setup_runs = [spawn(workload, seed, deadline, setup_only=True)
                  for _ in range(SETUP_REPS)]
    setups = [r["setup_s"] for r in setup_runs]
    setups_raw = [r["setup_raw_s"] for r in setup_runs]
    runs: list[dict] = []
    while True:
        runs.append(spawn(workload, seed, deadline))
        # budget in reference seconds, so the number of runs does not
        # depend on how fast the host happens to be
        measured = sum(r["wall_s"] for r in runs)
        if trace or measured + measured / len(runs) > seconds:
            break
    traced = spawn(workload, seed, deadline, trace=True) if trace else None

    verdicts = [gate(workload, seed, run, reference) for run in runs]
    if traced is not None:
        verdicts.append(gate(workload, seed, traced, reference))
    attempted = sum(v["attempted"] for v in verdicts)
    failed = sum(v["failed"] for v in verdicts)
    reasons = [r for v in verdicts for r in v["reasons"]]
    values = {
        "wall_s": median([r["wall_s"] for r in runs]),
        "setup_s": median(setups + [r["setup_s"] for r in runs]),
        "slowest_unit_s": median(
            [max((u["seconds"] for u in r["units"]), default=0.0) for r in runs]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
    }
    raw = {
        "wall_s": median([r["wall_raw_s"] for r in runs]),
        "setup_s": median(setups_raw + [r["setup_raw_s"] for r in runs]),
        "slowest_unit_s": median(
            [max((u["raw_seconds"] for u in r["units"]), default=0.0) for r in runs]),
        "speed": median([r["speed"] for r in runs]),
    }
    summary = {
        "workload": workload, "seed": seed, "runs": runs, "traced": traced,
        "setups": setups, "values": values, "raw": raw, "attempted": attempted,
        "failed": failed, "reasons": reasons, "correct": not reasons,
        "reference": verdicts[0]["reference"],
    }
    if traced is not None:
        import tracer

        layers = dict(traced["layers"])
        layers["trace.overhead_pct"] = 100.0 * (
            traced["wall_s"] - values["wall_s"]) / values["wall_s"]
        summary["layers"] = layers
        summary["catalog"] = tracer.per_layer_catalog()
    return summary


def report(summary: dict) -> None:
    """Human-readable lines for one workload (everything but the JSON line)."""
    w, runs = summary["workload"], summary["runs"]
    first = runs[0]
    units = first["units"]
    print(f"== {w} seed {summary['seed']}: {len(runs)} cold run(s), "
          f"{len(summary['setups']) + len(runs)} set-ups, {len(units)} units per run")
    ref = "checked against reference" if summary["reference"] else (
        "no stored reference for this seed: invariants only")
    print(f"  digest {combined_digest(first)}  ({ref})")
    checks = first["checks"]
    for name in sorted(checks):
        print(f"  check {name} = {checks[name]:.6g}")
    times = [u["seconds"] for u in units]
    slowest = max(units, key=lambda u: u["seconds"]) if units else None
    line = f"  unit times: n={len(times)} median {median(times):.4f} s" if times else ""
    tail = tail_percentile(times)
    if tail is not None:
        line += f", p{tail[0]:g} {tail[1]:.4f} s"
    if slowest is not None:
        line += f", slowest {slowest['seconds']:.4f} s ({slowest['id']})"
    print(line)
    raw = summary["raw"]
    print(f"  host speed {raw['speed']:.3f} reference s per raw s; "
          f"raw medians: wall {raw['wall_s']:.4f} s, setup {raw['setup_s']:.4f} s, "
          f"slowest unit {raw['slowest_unit_s']:.4f} s")
    for name, unit in END_TO_END:
        print(f"  {name:<15} {summary['values'][name]:12.4f} {unit}")
    frac = summary["failed"] / summary["attempted"] if summary["attempted"] else 0.0
    print(f"  {'failed_frac':<15} {frac:12.4f} fraction "
          f"({summary['failed']}/{summary['attempted']} units)")
    for reason in summary["reasons"][:20]:
        print(f"  FAIL {reason}")
    if "layers" in summary:
        layers = summary["layers"]
        idle = 0
        for name, unit in summary["catalog"]:
            if layers[name] == 0:
                idle += 1
            else:
                print(f"  {name:<40} {layers[name]:14.6g} {unit}")
        print(f"  ({idle} more per-layer metrics read 0: layers {w} does not exercise)")
        if w == "gauntlet" and summary["traced"]["wall_s"] > 0:
            share = layers["attack.cell_s.prac"] / summary["traced"]["wall_s"]
            print(f"  attack.cell_s.prac is {100 * share:.1f}% of traced wall_s")
        top = sorted(summary["traced"]["self_s"].items(),
                     key=lambda kv: -kv[1]["self_s"])[:8]
        for name, entry in top:
            print(f"  self {name:<28} {entry['self_s']:10.4f} s "
                  f"of {entry['total_s']:10.4f} s over {entry['count']} spans")


def result_json(summary: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": summary["layers"][name], "unit": unit}
                   for name, unit in summary["catalog"]}
    else:
        metrics = {name: {"value": summary["values"][name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def record_reference(workload: str, seed: int, summary: dict) -> None:
    """Store the first run's unit digests as the reference for this input."""
    run = summary["runs"][0]
    broken = [f"{u['id']}: {u['error']}" for u in run["units"] if u["error"]]
    broken += run["problems"]
    if broken:
        raise BenchError("refusing to record a run that fails:\n" + "\n".join(broken))
    reference = load_reference()
    entry = reference.setdefault(workload, {"units": [u["id"] for u in run["units"]],
                                            "digests": {}})
    if entry["units"] != [u["id"] for u in run["units"]]:
        raise BenchError(f"{workload}: unit list differs from the stored reference")
    entry["digests"][reference_key(workload, seed)] = [u["digest"] for u in run["units"]]
    entry["digests"] = dict(sorted(entry["digests"].items(),
                                   key=lambda kv: (len(kv[0]), kv[0])))
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's unit digests in reference.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    seconds = 0.0 if args.record else args.seconds
    results, raw = {}, {}
    try:
        for workload in workloads:
            summary = measure(workload, args.seed, seconds, bool(args.trace), deadline)
            report(summary)
            if args.record:
                record_reference(workload, args.seed, summary)
                print(f"  recorded reference digests for {workload} "
                      f"({reference_key(workload, args.seed)})")
            results[workload] = result_json(summary, bool(args.trace))
            raw[workload] = {
                # host-second medians of wall_s, setup_s and slowest_unit_s,
                # and the median speed (reference s per host s)
                "medians": summary["raw"],
                "setups": summary["setups"],
                "runs": [{"wall_s": r["wall_s"], "wall_raw_s": r["wall_raw_s"],
                          "speed": r["speed"], "setup_s": r["setup_s"],
                          "setup_raw_s": r["setup_raw_s"], "peak_rss_mb": r["peak_rss_mb"],
                          "slowest_unit_s": max((u["seconds"] for u in r["units"]),
                                                default=0.0)}
                         for r in summary["runs"]],
            }
    except BenchError as error:
        print(f"benchmark: {error}", file=sys.stderr)
        return 2

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": value for w, r in results.items()
                        for name, value in r["metrics"].items()},
        }
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a") as log:
        for workload, result in results.items():
            log.write(json.dumps({"workload": workload, "seed": args.seed,
                                  "trace": args.trace, "time": time.time(),
                                  **result, "raw": raw[workload]}) + "\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
