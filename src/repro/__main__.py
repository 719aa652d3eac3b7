"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list``                      -- show registered experiments
* ``run <id> [--scale NAME]``   -- run one experiment and print its table
* ``campaign [ids...]``         -- run experiments through the campaign
  scheduler: parallel workers, content-addressed result store, manifest +
  event log, resumable
* ``report [ids...]``           -- emit a markdown report served from the
  campaign store (computes only what is missing)
* ``attack``                    -- synthesize TRR-aware PuD attacks and run
  the mitigation gauntlet (through the campaign store, resumable)
* ``reliability``               -- run PuD application kernels under the
  corruption oracle and the integrity-defense matrix (through the
  campaign store, resumable)
* ``trace [run_id]``            -- render one campaign run's manifest,
  event log and metrics snapshot (default: the most recent run)
* ``verify [ids...]``           -- check the paper-claims table
  (``repro.claims``) against campaign results; exits 1 on any failed or
  missing claim
"""

from __future__ import annotations

import argparse
import json
import sys

from . import claims
from .analysis.report import generate_report
from .campaign import (
    GRANULARITIES, ArtifactStore, CampaignRunner, run_campaign,
)
from .core.scale import ExperimentScale
from .experiments import EXPERIMENTS, run_experiment

_SCALES = {
    "smoke": ExperimentScale.smoke,
    "small": ExperimentScale.small,
    "default": ExperimentScale.default,
    "paper": ExperimentScale.paper,
}


def _scale_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="default",
        help="experiment scale preset (default: %(default)s)",
    )


def _store_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default: %(default)s; 1 = serial)",
    )
    parser.add_argument(
        "--output", metavar="DIR", default=None,
        help="artifact store root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="recompute even when a cached artifact exists",
    )


def _run_attack(parser: argparse.ArgumentParser, args) -> int:
    from .attack import MITIGATIONS
    from .campaign.shards import ALL_CONFIGS

    scale = _SCALES[args.scale]()
    unknown = [c for c in args.configs or [] if c not in ALL_CONFIGS]
    if unknown:
        parser.error(
            f"unknown configs: {', '.join(unknown)} "
            f"(known: {', '.join(ALL_CONFIGS)})"
        )
    unknown = [m for m in args.mitigations or [] if m not in MITIGATIONS]
    if unknown:
        parser.error(
            f"unknown mitigations: {', '.join(unknown)} "
            f"(known: {', '.join(MITIGATIONS)})"
        )

    if args.mitigations or args.attacks:
        # a hand-picked slice of the matrix is exploratory: run it directly
        # and skip the store, whose keys only describe full-matrix cells
        result = run_experiment(
            "attack_surface",
            scale,
            config_ids=args.configs,
            mitigations=args.mitigations,
            attacks=args.attacks,
        )
        result.print()
        return 0

    runner = CampaignRunner(
        store=ArtifactStore(args.output),
        scale=scale,
        jobs=args.jobs,
        granularity="session",
        force=args.force,
        stream=None if args.quiet else sys.stderr,
        shard_filter=args.configs,
    )
    summary = runner.run(["attack_surface"])
    result = summary.results.get("attack_surface")
    if result is not None:
        result.print()
    print(
        f"campaign {summary.run_id}: "
        f"{summary.executed} executed, {summary.cached} cached, "
        f"{summary.failed} failed in {summary.total_elapsed:.1f}s"
    )
    print(f"artifacts: {runner.store.root}")
    for experiment_id, error in summary.failures.items():
        print(f"FAILED {experiment_id}: {error}", file=sys.stderr)
    return 1 if summary.failures else 0


def _run_reliability(parser: argparse.ArgumentParser, args) -> int:
    from .campaign.shards import ALL_CONFIGS
    from .reliability import DEFENSES, WORKLOAD_NAMES

    scale = _SCALES[args.scale]()
    unknown = [c for c in args.configs or [] if c not in ALL_CONFIGS]
    if unknown:
        parser.error(
            f"unknown configs: {', '.join(unknown)} "
            f"(known: {', '.join(ALL_CONFIGS)})"
        )
    unknown = [d for d in args.defenses or [] if d not in DEFENSES]
    if unknown:
        parser.error(
            f"unknown defenses: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(DEFENSES))})"
        )
    unknown = [w for w in args.workloads or [] if w not in WORKLOAD_NAMES]
    if unknown:
        parser.error(
            f"unknown workloads: {', '.join(unknown)} "
            f"(known: {', '.join(WORKLOAD_NAMES)})"
        )

    if args.defenses or args.workloads:
        # a hand-picked slice of the matrix is exploratory: run it directly
        # and skip the store, whose keys only describe full-matrix cells
        result = run_experiment(
            "pud_reliability",
            scale,
            config_ids=args.configs,
            workloads=args.workloads,
            defenses=args.defenses,
        )
        result.print()
        return 0

    runner = CampaignRunner(
        store=ArtifactStore(args.output),
        scale=scale,
        jobs=args.jobs,
        granularity="session",
        force=args.force,
        stream=None if args.quiet else sys.stderr,
        shard_filter=args.configs,
    )
    summary = runner.run(["pud_reliability"])
    result = summary.results.get("pud_reliability")
    if result is not None:
        result.print()
    print(
        f"campaign {summary.run_id}: "
        f"{summary.executed} executed, {summary.cached} cached, "
        f"{summary.failed} failed in {summary.total_elapsed:.1f}s"
    )
    print(f"artifacts: {runner.store.root}")
    for experiment_id, error in summary.failures.items():
        print(f"FAILED {experiment_id}: {error}", file=sys.stderr)
    return 1 if summary.failures else 0


def _run_trace(parser: argparse.ArgumentParser, args) -> int:
    from .obs.trace import list_runs, load_run, render_run, resolve_run

    store = ArtifactStore(args.output)
    if args.list_runs:
        for run_dir in list_runs(store.runs_dir):
            print(run_dir.name)
        return 0
    try:
        run_dir = resolve_run(store.runs_dir, args.run_id)
    except FileNotFoundError as error:
        parser.error(str(error))
    run = load_run(run_dir)
    if args.as_json:
        payload = dict(run)
        payload["events"] = [
            json.loads(event.to_json()) for event in run["events"]
        ]
        print(json.dumps(payload, indent=1))
    else:
        print(render_run(run))
    return 0


def _run_verify(args) -> int:
    selected = [
        c for c in claims.CLAIMS
        if not args.experiment_ids or c.experiment in args.experiment_ids
    ]
    # every experiment a claim reads comes from this one campaign, so a
    # cross-experiment claim compares values of the same run
    experiment_ids = sorted({e for c in selected for e in c.experiments})
    summary = run_campaign(
        experiment_ids=experiment_ids,
        scale=_SCALES[args.scale](),
        jobs=args.jobs,
        store=ArtifactStore(args.output),
        force=args.force,
        stream=sys.stderr,
    )
    verdicts = [
        claims.evaluate(claim, summary.results, args.scale)
        for claim in selected
    ]
    print(claims.format_verdicts(verdicts))
    for experiment_id, error in summary.failures.items():
        print(f"FAILED {experiment_id}: {error}", file=sys.stderr)
    failed = summary.failures or any(v.failed for v in verdicts)
    return 1 if failed else 0


def _experiment_description(runner) -> str:
    """First line of the runner's docstring, the one-line description."""
    doc = (runner.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="PuDHammer reproduction harness"
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    list_parser = subcommands.add_parser(
        "list", help="list registered experiments"
    )
    list_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a JSON array of {id, description} objects",
    )

    run_parser = subcommands.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment_id", choices=sorted(EXPERIMENTS))
    _scale_arg(run_parser)

    campaign_parser = subcommands.add_parser(
        "campaign",
        help="run experiments in parallel with caching, manifest and event log",
    )
    campaign_parser.add_argument(
        "experiment_ids", nargs="*", default=None,
        help="experiments to run (default: all)",
    )
    _scale_arg(campaign_parser)
    _store_args(campaign_parser)
    campaign_parser.add_argument(
        "--granularity", choices=GRANULARITIES, default="auto",
        help="task size: whole experiments or per-config session shards "
             "(default: %(default)s = shard when --jobs > 1)",
    )
    campaign_parser.add_argument(
        "--quiet", action="store_true", help="suppress progress events"
    )

    report_parser = subcommands.add_parser(
        "report",
        help="print a markdown report served from the campaign store",
    )
    report_parser.add_argument("experiment_ids", nargs="*", default=None)
    _scale_arg(report_parser)
    _store_args(report_parser)

    attack_parser = subcommands.add_parser(
        "attack",
        help="synthesize TRR-aware PuD attacks and run the mitigation gauntlet",
    )
    attack_parser.add_argument(
        "--configs", nargs="+", metavar="ID", default=None,
        help="module configurations to attack (default: one per vendor)",
    )
    attack_parser.add_argument(
        "--mitigations", nargs="+", metavar="NAME", default=None,
        help="mitigation subset (default: the scale preset's matrix); "
             "bypasses the campaign store",
    )
    attack_parser.add_argument(
        "--attacks", nargs="+", metavar="NAME", default=None,
        help="attack subset by synthesized name (e.g. sync-comra); "
             "bypasses the campaign store",
    )
    _scale_arg(attack_parser)
    _store_args(attack_parser)
    attack_parser.add_argument(
        "--quiet", action="store_true", help="suppress progress events"
    )

    reliability_parser = subcommands.add_parser(
        "reliability",
        help="run PuD kernels under the corruption oracle and defense matrix",
    )
    reliability_parser.add_argument(
        "--configs", nargs="+", metavar="ID", default=None,
        help="module configurations to test (default: one per vendor)",
    )
    reliability_parser.add_argument(
        "--defenses", nargs="+", metavar="NAME", default=None,
        help="defense subset (default: the scale preset's matrix); "
             "bypasses the campaign store",
    )
    reliability_parser.add_argument(
        "--workloads", nargs="+", metavar="NAME", default=None,
        help="workload subset (e.g. memcpy-sweep quac-stream); "
             "bypasses the campaign store",
    )
    _scale_arg(reliability_parser)
    _store_args(reliability_parser)
    reliability_parser.add_argument(
        "--quiet", action="store_true", help="suppress progress events"
    )

    trace_parser = subcommands.add_parser(
        "trace",
        help="render one campaign run's manifest, events and metrics",
    )
    trace_parser.add_argument(
        "run_id", nargs="?", default=None,
        help="run to render (default: the most recent run)",
    )
    trace_parser.add_argument(
        "--output", metavar="DIR", default=None,
        help="artifact store root (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    trace_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the raw manifest/events/obs payload as JSON",
    )
    trace_parser.add_argument(
        "--list", action="store_true", dest="list_runs",
        help="list known run ids (oldest first) and exit",
    )

    verify_parser = subcommands.add_parser(
        "verify",
        help="check the paper's claims against campaign results",
    )
    verify_parser.add_argument(
        "experiment_ids", nargs="*", default=None,
        help="check only these experiments' claims (default: all)",
    )
    _scale_arg(verify_parser)
    _store_args(verify_parser)

    args = parser.parse_args(argv)
    if args.command in ("campaign", "report", "verify"):
        unknown = [i for i in args.experiment_ids or [] if i not in EXPERIMENTS]
        if unknown:
            parser.error(
                f"unknown experiments: {', '.join(unknown)} "
                f"(see `repro list`)"
            )
    if args.command == "list":
        if args.as_json:
            print(json.dumps(
                [
                    {
                        "id": experiment_id,
                        "description": _experiment_description(
                            EXPERIMENTS[experiment_id]
                        ),
                    }
                    for experiment_id in sorted(EXPERIMENTS)
                ],
                indent=2,
            ))
        else:
            for experiment_id in sorted(EXPERIMENTS):
                print(experiment_id)
        return 0
    if args.command == "run":
        result = run_experiment(args.experiment_id, _SCALES[args.scale]())
        result.print()
        return 0
    if args.command == "campaign":
        runner = CampaignRunner(
            store=ArtifactStore(args.output),
            scale=_SCALES[args.scale](),
            jobs=args.jobs,
            granularity=args.granularity,
            force=args.force,
            stream=None if args.quiet else sys.stderr,
        )
        summary = runner.run(args.experiment_ids or None)
        print(
            f"campaign {summary.run_id}: "
            f"{summary.executed} executed, {summary.cached} cached, "
            f"{summary.failed} failed in {summary.total_elapsed:.1f}s"
        )
        print(f"artifacts: {runner.store.root}")
        print(f"manifest:  {summary.manifest_path}")
        print(f"events:    {summary.events_path}")
        print(f"obs:       {summary.obs_path}")
        for experiment_id, error in summary.failures.items():
            print(f"FAILED {experiment_id}: {error}", file=sys.stderr)
        return 1 if summary.failures else 0
    if args.command == "attack":
        return _run_attack(parser, args)
    if args.command == "reliability":
        return _run_reliability(parser, args)
    if args.command == "trace":
        return _run_trace(parser, args)
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "report":
        report = generate_report(
            scale=_SCALES[args.scale](),
            experiment_ids=args.experiment_ids or None,
            stream=sys.stderr,
            store=ArtifactStore(args.output),
            jobs=args.jobs,
            force=args.force,
        )
        sys.stdout.write(report)
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    raise SystemExit(main())
