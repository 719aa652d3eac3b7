"""Compare mode: a parent commit's benchmark runs against a change's.

    python3 perfbench/compare.py parent/runs.jsonl change/runs.jsonl

Each file is the ``perfbench/results/runs.jsonl`` a commit's runs appended
to (untraced runs only are read).  Runs are paired in file order per
workload, so make them alternately -- parent, change, change, parent, ...
-- on the same machine with the same ``--seconds``.  One row per workload
and end-to-end metric of ``BENCHMARK.json``, with each side's median and
quartiles and a verdict on the reported (reference-second) values:

* ``gain`` -- the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's own
  inter-quartile distance; void when the change fails more units;
* ``regression`` -- the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` -- either side's spread (IQR / median) is wider than the
  bound, unless every change run reads better than every parent run;
* ``same`` -- none of the above.

Reference seconds discount the host's speed as the in-process probe sees
it (``speed.py``), so a change that slows the probe along with itself
would have part of its regression discounted.  The time metrics are
therefore also judged on the raw host seconds each record keeps: a row
whose host-second median is worse by more than the bound, while the
reference verdict is ``same`` or ``gain``, reads ``unresolved (host
seconds regressed)``.  Each workload's line also gives both sides' median
speed (reference seconds per host second); a shift there means the probe
ran at another speed on one side.

Exit status 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles, relative_iqr  # noqa: E402

BENCHMARK = HERE.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced run records of one results file, by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if record.get("trace") == 0:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def regressed(parent: list[float], change: list[float], better: str, bound: float) -> bool:
    """Whether the change's median is worse than the parent's by more than ``bound``."""
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = quartiles(parent)[1], quartiles(change)[1]
    return -sign * (cm - pm) > bound * abs(pm)


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            more_failures: bool = False) -> tuple[str, int, int]:
    """``(verdict, wins, pairs)`` for one workload x metric; see the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = max(relative_iqr(parent), relative_iqr(change))
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if (pairs and wins >= WIN_SHARE * len(pairs) and sign * (cm - pm) > 0
            and abs(cm - pm) > p3 - p1):
        return ("gain (void: more failures)" if more_failures else "gain"), wins, len(pairs)
    if regressed(parent, change, better, bound):
        return "regression", wins, len(pairs)
    return "same", wins, len(pairs)


def with_host_seconds(result: str, parent_raw: list[float], change_raw: list[float],
                      better: str, bound: float) -> str:
    """Downgrade a ``same`` or ``gain`` verdict that host seconds contradict."""
    if (parent_raw and change_raw and (result == "same" or result.startswith("gain"))
            and regressed(parent_raw, change_raw, better, bound)):
        return "unresolved (host seconds regressed)"
    return result


def host_values(records: list[dict], name: str) -> list[float]:
    """Each record's host-second median of ``name`` (empty for ``peak_rss_mb``)."""
    return [r["raw"]["medians"][name] for r in records if name in r["raw"]["medians"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    header = (f"{'workload':<13} {'metric':<15} {'n':>3} {'parent median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'delta':>8} {'host':>8} {'wins':>6}  verdict")
    print(header)
    print("-" * len(header))
    regressions = 0
    for workload in sorted(set(parent_runs) & set(change_runs)):
        before, after = parent_runs[workload], change_runs[workload]
        more_failures = (sum(r["failed"] for r in after) > sum(r["failed"] for r in before))
        speeds = [host_values(side, "speed") for side in (before, after)]
        if all(speeds):
            print(f"{workload:<13} speed (reference s per host s): parent median "
                  f"{median(speeds[0]):.4f}, change median {median(speeds[1]):.4f}")
        for metric in metrics:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in before if name in r["metrics"]]
            c = [r["metrics"][name]["value"] for r in after if name in r["metrics"]]
            if not p or not c:
                continue
            result, wins, pairs = verdict(p, c, metric["better"], metric["bound"],
                                          more_failures)
            p_raw, c_raw = host_values(before, name), host_values(after, name)
            result = with_host_seconds(result, p_raw, c_raw, metric["better"],
                                       metric["bound"])
            regressions += result == "regression"
            pq, cq = quartiles(p), quartiles(c)
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
            host = "-"
            if p_raw and c_raw and median(p_raw):
                host = f"{100 * (median(c_raw) - median(p_raw)) / median(p_raw):.2f}%"
            print(f"{workload:<13} {name:<15} {pairs:>3} "
                  f"{pq[1]:>12.4f} [{pq[0]:.4f}, {pq[2]:.4f}] "
                  f"{cq[1]:>12.4f} [{cq[0]:.4f}, {cq[2]:.4f}] "
                  f"{100 * delta:>7.2f}% {host:>8} {wins:>3}/{pairs:<2}  {result}")
    missing = sorted(set(parent_runs) ^ set(change_runs))
    if missing:
        print(f"workloads run on one side only: {', '.join(missing)}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
