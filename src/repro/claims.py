"""The paper's claims as one declarative table, checked against results.

Each :class:`Claim` names the experiment it reads, where the paper makes
the claim (figure, observation, paper value), the ``checks`` key it reads
and one band per scale: ``small`` for CI-grade runs and ``default`` for the
benchmark size (``paper`` reuses ``default``).  A claim may reduce every
key matching a glob with ``min``/``max``/``sum``, or subtract a second
value (possibly from another experiment) so that orderings and crossovers
are bands on a difference.

:func:`evaluate` checks one claim against a ``{experiment_id:
ExperimentResult}`` dict -- ``run_campaign(...).results`` -- and
``python -m repro verify`` prints the whole table.  A key that is absent
is a ``MISSING`` verdict, never a silent pass: a renamed check must fail.

Moving a band is a one-line diff here; it is the only place bands live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Mapping, Optional, Sequence

from .experiments.base import ExperimentResult


@dataclass(frozen=True)
class Band:
    """An interval of accepted values; ``*_open`` bounds are strict."""

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False

    def contains(self, value: float) -> bool:
        above = value > self.lo if self.lo_open else value >= self.lo
        below = value < self.hi if self.hi_open else value <= self.hi
        return above and below

    def __str__(self) -> str:
        if self.lo == self.hi:
            return f"== {self.lo:g}"
        if self.hi == math.inf:
            return f"{'>' if self.lo_open else '>='} {self.lo:g}"
        if self.lo == -math.inf:
            return f"{'<' if self.hi_open else '<='} {self.hi:g}"
        return (
            f"{'(' if self.lo_open else '['}{self.lo:g}, "
            f"{self.hi:g}{')' if self.hi_open else ']'}"
        )


def above(x: float) -> Band:
    return Band(lo=x, lo_open=True)


def at_least(x: float) -> Band:
    return Band(lo=x)


def below(x: float) -> Band:
    return Band(hi=x, hi_open=True)


def at_most(x: float) -> Band:
    return Band(hi=x)


def within(lo: float, hi: float) -> Band:
    return Band(lo=lo, hi=hi)


def exactly(x: float) -> Band:
    return Band(lo=x, hi=x)


def near(x: float, rel: float) -> Band:
    """``pytest.approx(x, rel=rel)`` as a band."""
    return Band(lo=x * (1 - rel), hi=x * (1 + rel))


_REDUCERS = {"min": min, "max": max, "sum": sum}


@dataclass(frozen=True)
class Claim:
    """One paper claim: what it reads and the band it must land in."""

    id: str
    #: where the paper states it: figure, observation and paper value
    paper: str
    experiment: str
    #: a ``checks`` key, or an fnmatch glob over the keys when ``reduce``
    key: str
    small: Optional[Band] = None
    default: Optional[Band] = None
    #: "min" / "max" / "sum" over every key matching the ``key`` glob
    reduce: Optional[str] = None
    #: (experiment, key) whose value is subtracted from the measured one
    minus: Optional[tuple[str, str]] = None

    @property
    def experiments(self) -> tuple[str, ...]:
        """Every experiment the claim reads, its own first."""
        if self.minus is None or self.minus[0] == self.experiment:
            return (self.experiment,)
        return (self.experiment, self.minus[0])

    def band(self, scale: str) -> Optional[Band]:
        if scale == "small":
            return self.small
        if scale in ("default", "paper"):
            return self.default
        return None


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    measured: Optional[float]
    band: Optional[Band]

    @property
    def status(self) -> str:
        if self.band is None:
            return "-"
        if self.measured is None:
            return "MISSING"
        return "PASS" if self.band.contains(self.measured) else "FAIL"

    @property
    def failed(self) -> bool:
        return self.status in ("FAIL", "MISSING")


def _read(
    results: Mapping[str, ExperimentResult],
    experiment: str,
    key: str,
    reduce: Optional[str] = None,
) -> Optional[float]:
    result = results.get(experiment)
    if result is None:
        return None
    if reduce is None:
        return result.checks.get(key)
    values = [v for k, v in result.checks.items() if fnmatchcase(k, key)]
    return _REDUCERS[reduce](values) if values else None


def evaluate(
    claim: Claim, results: Mapping[str, ExperimentResult], scale: str
) -> Verdict:
    """Measure ``claim`` from ``results`` and band it at ``scale``."""
    measured = _read(results, claim.experiment, claim.key, claim.reduce)
    if measured is not None and claim.minus is not None:
        other = _read(results, *claim.minus)
        measured = None if other is None else measured - other
    return Verdict(claim, measured, claim.band(scale))


def format_verdicts(verdicts: Sequence[Verdict]) -> str:
    """Render claim / paper / measured / band / verdict as a text table."""
    header = ("claim", "paper", "measured", "band", "verdict")
    rows = [header] + [
        (
            v.claim.id,
            v.claim.paper,
            "missing" if v.measured is None else f"{v.measured:.4g}",
            "-" if v.band is None else str(v.band),
            v.status,
        )
        for v in verdicts
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "-" * len(lines[0]))
    counts = {}
    for v in verdicts:
        counts[v.status] = counts.get(v.status, 0) + 1
    lines.append(
        f"{len(verdicts)} claims: "
        + ", ".join(f"{counts.get(s, 0)} {s}" for s in ("PASS", "FAIL", "MISSING"))
        + f", {counts.get('-', 0)} without a band at this scale"
    )
    return "\n".join(lines)


_HYNIX = "SK Hynix"
_R90 = "mean_reduction_at_90pct"

#: The paper's claims.  A ``small`` band equal to ``default`` is the
#: default band reused where it already holds at small scale.
CLAIMS: tuple[Claim, ...] = (
    # -- Table 1/2 --------------------------------------------------------
    Claim("table1.total_chips", "Table 1: 316 chips", "table1",
          "total_chips", small=exactly(316), default=exactly(316)),
    Claim("table1.total_modules", "Table 1: 40 modules", "table1",
          "total_modules", small=exactly(40), default=exactly(40)),
    Claim("table2.min_ratio_floor", "Table 2: minima (every config)",
          "table2", "*min_ratio*", reduce="min",
          small=at_least(0.5), default=at_least(0.5)),
    Claim("table2.min_ratio_ceiling", "Table 2: minima (every config)",
          "table2", "*min_ratio*", reduce="max",
          small=at_most(2.0), default=at_most(2.0)),
    Claim("table2.rh_min_ratio_hynix", "Table 2: RH min, hynix-a-8gb",
          "table2", "rh_min_ratio_hynix-a-8gb",
          small=near(1.0, rel=0.05), default=within(0.95, 1.05)),
    Claim("table2.comra_min_ratio_hynix", "Table 2: CoMRA min, hynix-a-8gb",
          "table2", "comra_min_ratio_hynix-a-8gb",
          small=near(1.0, rel=0.05), default=within(0.95, 1.05)),
    Claim("table2.simra_min_ratio_hynix", "Table 2: SiMRA min, hynix-a-8gb",
          "table2", "simra_min_ratio_hynix-a-8gb",
          small=near(1.0, rel=0.35), default=within(0.95, 1.4)),
    # -- §4 CoMRA ---------------------------------------------------------
    Claim("fig04.min_reduction_hynix", "Fig. 4, Obs. 1: 13.98x", "fig04",
          f"min_reduction_{_HYNIX}",
          small=near(13.98, rel=0.15), default=within(10.0, 18.0)),
    Claim("fig04.min_reduction_micron", "Fig. 4, Obs. 1: 1.18x", "fig04",
          "min_reduction_Micron",
          small=within(1.0, 2.5), default=within(1.0, 2.5)),
    Claim("fig04.min_reduction_samsung", "Fig. 4, Obs. 1: 3.28x", "fig04",
          "min_reduction_Samsung",
          small=within(2.3, 4.5), default=within(2.3, 4.5)),
    Claim("fig04.min_reduction_nanya", "Fig. 4, Obs. 1: 1.58x", "fig04",
          "min_reduction_Nanya",
          small=within(1.1, 2.2), default=within(1.1, 2.2)),
    Claim("fig04.min_reduction_every_vendor", "Fig. 4, Obs. 1: > 1x everywhere",
          "fig04", "min_reduction_*", reduce="min", small=above(1.0)),
    Claim("fig04.fraction_improved", "Fig. 4, Obs. 2: 99% of rows", "fig04",
          "fraction_improved", small=at_least(0.85), default=at_least(0.85)),
    # four vendors, at most one where checkerboard is not the best pattern
    Claim("fig05.checkerboard_best", "Fig. 5, Obs. 3: checkerboard best",
          "fig05", "best_pattern_is_checker_*", reduce="sum",
          small=at_least(3.0), default=at_least(3.0)),
    Claim("fig06.temp_ratio_hynix", "Fig. 6, Obs. 4: hotter is worse",
          "fig06", f"hc_ratio_50C_over_80C_{_HYNIX}",
          small=above(1.15), default=above(1.2)),
    Claim("fig06.temp_ratio_samsung", "Fig. 6, Obs. 4: hotter is worse",
          "fig06", "hc_ratio_50C_over_80C_Samsung",
          small=above(1.1), default=above(1.1)),
    Claim("fig06.temp_ratio_nanya", "Fig. 6, Obs. 4: hotter is worse",
          "fig06", "hc_ratio_50C_over_80C_Nanya",
          small=above(1.0), default=above(1.0)),
    Claim("fig06.temp_ratio_micron", "Fig. 6, Obs. 4: Micron inverts (1.14x)",
          "fig06", "hc_ratio_50C_over_80C_Micron",
          small=below(1.0), default=below(1.0)),
    Claim("fig07.ss_comra_vs_ss_rh", "Fig. 7, Obs. 5: 1.42x", "fig07",
          f"ss_comra_vs_ss_rh_{_HYNIX}", small=above(1.05), default=above(1.1)),
    Claim("fig07.ss_comra_vs_far_ds", "Fig. 7, Obs. 5: tracks far DS RH",
          "fig07", f"ss_comra_vs_far_ds_{_HYNIX}",
          small=within(0.8, 1.25), default=within(0.85, 1.2)),
    Claim("fig08.comra_press_gain_micron", "Fig. 8, Obs. 6: 78.7x", "fig08",
          "comra_press_gain_Micron", small=above(25.0), default=above(25.0)),
    Claim("fig08.rowpress_gain_micron", "Fig. 8, Obs. 6: 31.2x", "fig08",
          "rowpress_gain_Micron", small=above(10.0), default=above(10.0)),
    Claim("fig08.rowpress_beats_comra_at_trefi",
          "Fig. 8, Obs. 7: RowPress overtakes at tREFI", "fig08",
          "rowpress_beats_comra_at_trefi_Micron",
          small=above(1.0), default=above(1.0)),
    Claim("fig09.hc_increase_hynix", "Fig. 9, Obs. 8: 3.10x", "fig09",
          f"hc_increase_7p5_to_12_{_HYNIX}",
          small=within(2.0, 4.5), default=within(2.0, 4.5)),
    Claim("fig09.hc_increase_micron", "Fig. 9, Obs. 8: 1.18x", "fig09",
          "hc_increase_7p5_to_12_Micron",
          small=within(1.05, 1.5), default=within(1.05, 1.5)),
    Claim("fig09.hc_increase_samsung", "Fig. 9, Obs. 8: 1.17x", "fig09",
          "hc_increase_7p5_to_12_Samsung",
          small=within(1.02, 1.5), default=within(1.02, 1.5)),
    Claim("fig09.hc_increase_nanya", "Fig. 9, Obs. 8: 3.01x", "fig09",
          "hc_increase_7p5_to_12_Nanya",
          small=within(2.0, 4.5), default=within(2.0, 4.5)),
    Claim("fig09.hc_increase_every_vendor", "Fig. 9, Obs. 8: > 1x everywhere",
          "fig09", "hc_increase_7p5_to_12_*", reduce="min", small=above(1.0)),
    Claim("fig09.hynix_above_micron", "Fig. 9, Obs. 8: 3.10x > 1.18x",
          "fig09", f"hc_increase_7p5_to_12_{_HYNIX}",
          minus=("fig09", "hc_increase_7p5_to_12_Micron"), small=above(0.0)),
    Claim("fig10.median_change_double", "Fig. 10, Obs. 9: 2.79%", "fig10",
          "median_abs_change_pct_double", small=below(15.0), default=below(12.0)),
    Claim("fig10.median_change_single", "Fig. 10, Obs. 9: 0.40%", "fig10",
          "median_abs_change_pct_single", small=below(8.0), default=below(8.0)),
    Claim("fig11.spatial_span_hynix", "Fig. 11, Obs. 10: 1.40x", "fig11",
          f"spatial_span_{_HYNIX}",
          small=within(1.1, 1.9), default=within(1.1, 1.9)),
    Claim("fig11.spatial_span_micron", "Fig. 11, Obs. 10: 2.25x", "fig11",
          "spatial_span_Micron",
          small=within(1.4, 3.2), default=within(1.4, 3.2)),
    Claim("fig11.spatial_span_samsung", "Fig. 11, Obs. 10: 2.57x", "fig11",
          "spatial_span_Samsung",
          small=within(1.5, 4.3), default=within(1.5, 4.3)),
    # Nanya's profile is nearly flat, so its sampled span is noise: the
    # claim is only that it sits below the structured vendors
    Claim("fig11.nanya_below_micron", "Fig. 11, Obs. 10: 1.04x < 2.25x",
          "fig11", "spatial_span_Nanya", minus=("fig11", "spatial_span_Micron"),
          small=below(0.0), default=below(0.0)),
    Claim("fig11.nanya_below_samsung", "Fig. 11, Obs. 10: 1.04x < 2.57x",
          "fig11", "spatial_span_Nanya", minus=("fig11", "spatial_span_Samsung"),
          small=below(0.0), default=below(0.0)),
    # -- §5 SiMRA ---------------------------------------------------------
    Claim("fig13.lowest_simra_hc", "Fig. 13, Obs. 12: HC_first 26", "fig13",
          "lowest_simra_hc", small=within(22.0, 30.0), default=within(22.0, 40.0)),
    Claim("fig13.min_reduction_vs_rowhammer", "Fig. 13, Obs. 12: > 100x",
          "fig13", "min_reduction_vs_rowhammer",
          small=above(100.0), default=above(100.0)),
    Claim("fig13.fraction_improved", "Fig. 13, Obs. 12: every N improves",
          "fig13", "fraction_improved_n*", reduce="min",
          small=at_least(0.8), default=at_least(0.8)),
    Claim("fig14.victim_polarity_penalty", "Fig. 14, Obs. 13: up to 57.8x",
          "fig14", "victim00_penalty_n*", reduce="min",
          small=above(3.0), default=above(4.0)),
    Claim("fig15.temp_ratio_min", "Fig. 15, Obs. 15: 3.0-3.3x", "fig15",
          "hc_ratio_50C_over_80C_n*", reduce="min",
          small=at_least(1.8), default=at_least(2.0)),
    Claim("fig15.temp_ratio_max", "Fig. 15, Obs. 15: 3.0-3.3x", "fig15",
          "hc_ratio_50C_over_80C_n*", reduce="max",
          small=at_most(5.0), default=at_most(4.5)),
    Claim("fig16.ss_simra_32_vs_2_mean", "Fig. 16, Obs. 16: more rows, lower HC",
          "fig16", "ss_simra_32_vs_2_mean", small=above(1.1), default=above(1.15)),
    Claim("fig16.mean_decreases_with_n", "Fig. 16, Obs. 16: monotone in N",
          "fig16", "mean_decreases_with_n",
          small=exactly(1.0), default=exactly(1.0)),
    Claim("fig16.ss_simra32_vs_ss_rh_min", "Fig. 16, Obs. 17: SiMRA-32 < SS RH",
          "fig16", "ss_simra32_vs_ss_rh_min",
          small=above(1.0), default=above(1.0)),
    Claim("fig17.press_gain", "Fig. 17, Obs. 18: 144.9x-270.3x", "fig17",
          "press_gain_n*", reduce="min", small=above(40.0), default=above(60.0)),
    Claim("fig18.preact_gain", "Fig. 18, Obs. 19: 1.23x", "fig18",
          "preact_gain_1p5_to_4p5", small=above(1.0), default=within(1.05, 1.6)),
    Claim("fig18.partial_activation_penalty", "Fig. 18, Obs. 20: 2.28x",
          "fig18", "partial_activation_penalty",
          small=above(1.2), default=above(1.3)),
    Claim("fig19.spatial_span_max", "Fig. 19, Obs. 21: region effects",
          "fig19", "spatial_span_n*", reduce="max",
          small=above(1.05), default=above(1.1)),
    # -- §6 combined patterns ---------------------------------------------
    # small scale averages only four sandwichable victims, so its 90% mean
    # sits well off the population value
    Claim("fig21.mean_reduction_at_90pct", "Fig. 21, Obs. 22: 1.34x", "fig21",
          _R90, small=Band(1.1, 2.0, lo_open=True, hi_open=True),
          default=within(1.15, 1.70)),
    Claim("fig21.mean_reduction_at_10pct", "Fig. 21, Obs. 22: 1.02x", "fig21",
          "mean_reduction_at_10pct",
          small=at_least(0.99), default=within(0.99, 1.15)),
    Claim("fig21.reduction_grows_with_prehammer", "Fig. 21, Obs. 22: 1.34x > 1.02x",
          "fig21", _R90, minus=("fig21", "mean_reduction_at_10pct"),
          small=above(0.0)),
    Claim("fig21.fraction_improved_at_90pct", "Fig. 21, Obs. 22: most rows",
          "fig21", "fraction_improved_at_90pct",
          small=at_least(0.85), default=at_least(0.85)),
    Claim("fig22.mean_reduction_at_90pct", "Fig. 22, Obs. 23: 1.22x", "fig22",
          _R90, small=within(1.05, 1.55), default=within(1.05, 1.55)),
    Claim("fig22.not_above_fig21", "Obs. 23: RH+SiMRA 1.22x < RH+CoMRA 1.34x",
          "fig22", _R90, minus=("fig21", _R90),
          small=at_most(0.10), default=at_most(0.10)),
    Claim("fig23.mean_reduction_at_90pct", "Fig. 23, Obs. 24: 1.66x", "fig23",
          _R90, default=within(1.35, 2.2)),
    Claim("fig23.not_below_fig21", "Obs. 24: all three 1.66x >= RH+CoMRA 1.34x",
          "fig23", _R90, minus=("fig21", _R90),
          small=at_least(0.0), default=at_least(0.0)),
    # -- §7 TRR bypass and §8 PRAC ----------------------------------------
    Claim("fig24.rowhammer_trr_reduction_pct", "Fig. 24, Obs. 25: 99.89%",
          "fig24", "rowhammer_trr_reduction_pct",
          small=at_least(90.0), default=at_least(95.0)),
    Claim("fig24.simra_trr_reduction_pct", "Fig. 24, Obs. 26: 15.62%", "fig24",
          "simra_trr_reduction_pct", small=at_most(60.0), default=at_most(50.0)),
    Claim("fig24.simra_vs_rowhammer_with_trr", "Fig. 24, Obs. 26: SiMRA >> RH",
          "fig24", "simra_vs_rowhammer_with_trr",
          small=above(20.0), default=above(50.0)),
    # fig25 carries no small band: its small run alone costs ~6 s
    Claim("fig25.avg_overhead_wc", "Fig. 25: WC averages 48.26%", "fig25",
          "avg_overhead_PRAC-PO-WC", default=within(25.0, 70.0)),
    Claim("fig25.naive_above_wc", "Fig. 25: Naive worse than WC", "fig25",
          "avg_overhead_PRAC-PO-Naive", minus=("fig25", "avg_overhead_PRAC-PO-WC"),
          default=above(0.0)),
    Claim("fig25.wc_beats_naive_fraction", "Fig. 25: WC wins most points",
          "fig25", "wc_beats_naive_fraction", default=at_least(0.6)),
    Claim("fig25.max_overhead_wc", "Fig. 25: up to 98.83%", "fig25",
          "max_overhead_PRAC-PO-WC", default=at_least(50.0)),
)
