"""One cold run of one workload, in the fresh interpreter ``run.py`` spawns.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T \\
        --out result.json --workdir DIR [--trace-out spans.json] [--setup-only]

``--spawned-at`` is the parent's ``perf_counter()`` just before the spawn
(a system-wide monotonic clock on Linux), so ``setup_s`` covers interpreter
start, imports and the workload's own set-up.  Every time is reported in
reference seconds (see ``speed.py``) next to its raw host seconds.  The
result -- per-unit timings and output digests, headline checks, invariant
violations, peak RSS and, for a traced run, the per-layer metrics -- is
written as JSON to ``--out``; the parent judges correctness.
``--trace-out`` turns tracing on and receives the spans and counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import ReferenceClock, SpeedProbe  # noqa: E402
from workloads import SETUPS  # noqa: E402


def digest(payload) -> str:
    """Stable 16-hex digest of a JSON-serializable unit output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Highest RSS of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    rec = None
    if args.trace_out is not None:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec, campaign_only=args.workload == "campaign")

    plan = SETUPS[args.workload](args.seed, args.workdir)
    ready = time.perf_counter()
    try:
        if args.setup_only:
            probe.stop()
            clock = ReferenceClock(probe.samples, args.spawned_at)
            args.out.write_text(json.dumps({
                "setup_s": clock(ready), "setup_raw_s": ready - args.spawned_at}))
            return 0

        units: list[dict] = []
        outputs: dict = {}

        def record(uid, kind, start, end, output=None, payload=None, extra=None,
                   error=None, ref_seconds=None):
            """One finished unit; ``ref_seconds`` overrides this process's
            clock for a unit that ran in another process."""
            extra = extra or {}
            unit = {"id": uid, "kind": extra.get("kind", kind), "t0": start, "t1": end,
                    "ref_seconds": ref_seconds, "extra": extra, "digest": None,
                    "error": None}
            if error is not None:
                unit["error"] = f"{type(error).__name__}: {error}"
            else:
                unit["digest"] = digest(payload)
                outputs[uid] = output
            units.append(unit)

        started = time.perf_counter()
        plan.execute(record)
        ended = time.perf_counter()
        probe.stop()

        clock = ReferenceClock(probe.samples, args.spawned_at)
        workers = plan.work_clocks() or [clock]
        wall_s = sum(c(ended) - c(started) for c in workers) / len(workers)
        speed = wall_s / (ended - started)
        for unit in units:
            t0, t1 = unit.pop("t0"), unit.pop("t1")
            ref = unit.pop("ref_seconds")
            unit["raw_seconds"] = t1 - t0
            unit["seconds"] = clock(t1) - clock(t0) if ref is None else ref
            unit["start"] = clock(t0)

        problems = list(plan.problems(outputs))
        try:
            extra = plan.extra()
        except (OSError, ValueError, KeyError, RuntimeError) as error:
            extra = {}
            problems.append(f"workload records unreadable: {error}")
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "setup_s": clock(ready),
            "setup_raw_s": ready - args.spawned_at,
            "wall_s": wall_s,
            "wall_raw_s": ended - started,
            "speed": speed,
            "probes": len(probe.samples),
            "peak_rss_mb": peak_rss_mb(),
            "units": units,
            "checks": plan.headline(outputs),
            "problems": problems,
        }
        if rec is not None:
            import tracer

            for span in rec.spans:  # onto the reference time axis
                span[1], span[2] = clock(span[1]), clock(span[2])
            result["layers"] = tracer.layer_metrics(rec, units, extra, speed)
            spans = rec.spans
            if args.workload != "campaign":
                # campaign tasks run in pool children; their parent-side
                # intervals are not real and must not adopt store spans
                spans = tracer.attach_units(spans, units)
            result["self_s"] = tracer.self_times(spans)
            args.trace_out.write_text(json.dumps(
                {"spans": spans, "counts": dict(rec.counts)}))
        args.out.write_text(json.dumps(result))
        return 0
    finally:
        probe.stop()
        plan.cleanup()


if __name__ == "__main__":
    sys.exit(main())
