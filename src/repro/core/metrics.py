"""Measurement records and distribution summaries.

The paper reports HC_first populations as box plots (five-number summaries)
and "change in HC_first" curves (per-row ratios sorted from most positive
to most negative).  These containers are what every experiment returns and
what the benchmark harness prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ..disturbance.calibration import DataPattern, Mechanism
from ..dram.organization import SubarrayRegion


@dataclass(frozen=True)
class Measurement:
    """One HC_first measurement for one victim row."""

    module_label: str
    vendor: str
    bank: int
    victim: int
    mechanism: Mechanism
    hc_first: Optional[float]
    region: SubarrayRegion
    pattern: Optional[DataPattern] = None
    temperature_c: float = 80.0
    params: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def found(self) -> bool:
        return self.hc_first is not None and math.isfinite(self.hc_first)


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number summary plus mean, the paper's box-plot statistics."""

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "DistributionSummary":
        arr = np.asarray([v for v in values if v is not None and math.isfinite(v)],
                         dtype=float)
        if arr.size == 0:
            raise ValueError("no finite values to summarize")
        return cls(
            count=int(arr.size),
            minimum=float(arr.min()),
            q1=float(np.percentile(arr, 25)),
            median=float(np.percentile(arr, 50)),
            q3=float(np.percentile(arr, 75)),
            maximum=float(arr.max()),
            mean=float(arr.mean()),
        )

    def format_row(self, label: str) -> str:
        return (
            f"{label:<28} n={self.count:<5} min={self.minimum:<10.4g} "
            f"q1={self.q1:<10.4g} med={self.median:<10.4g} "
            f"q3={self.q3:<10.4g} max={self.maximum:<10.4g} "
            f"mean={self.mean:<10.4g}"
        )


def summarize(measurements: Sequence[Measurement]) -> DistributionSummary:
    """Summarize the HC_first values of found measurements."""
    return DistributionSummary.from_values(
        m.hc_first for m in measurements if m.found
    )


@dataclass(frozen=True)
class ChangeDistribution:
    """Per-row HC_first change of a technique versus a baseline (Fig. 4/13).

    ``changes`` holds per-row percentage changes sorted from most positive
    (technique is weaker: higher HC_first) to most negative (technique is
    stronger), matching the paper's x-axis convention.
    """

    changes: tuple[float, ...]

    @classmethod
    def from_pairs(
        cls, baseline: Sequence[float], technique: Sequence[float]
    ) -> "ChangeDistribution":
        if len(baseline) != len(technique):
            raise ValueError("baseline/technique length mismatch")
        changes = []
        for base, tech in zip(baseline, technique):
            if base is None or tech is None:
                continue
            if not (math.isfinite(base) and math.isfinite(tech)) or base <= 0:
                continue
            changes.append(100.0 * (tech - base) / base)
        return cls(tuple(sorted(changes, reverse=True)))

    @property
    def fraction_improved(self) -> float:
        """Fraction of rows where the technique lowered HC_first."""
        if not self.changes:
            return 0.0
        return sum(1 for c in self.changes if c < 0) / len(self.changes)

    def fraction_reduced_by(self, percent: float) -> float:
        """Fraction of rows with at least ``percent``% HC_first reduction."""
        if not self.changes:
            return 0.0
        return sum(1 for c in self.changes if c <= -percent) / len(self.changes)


def ratio_of_means(
    baseline: Sequence[Measurement], technique: Sequence[Measurement]
) -> float:
    """Mean HC_first ratio baseline/technique (>1 means technique stronger)."""
    base = summarize(baseline).mean
    tech = summarize(technique).mean
    if tech <= 0:
        raise ValueError("non-positive technique mean")
    return base / tech


def ratio_of_minima(
    baseline: Sequence[Measurement], technique: Sequence[Measurement]
) -> float:
    """Lowest-HC_first ratio baseline/technique (headline reductions)."""
    base = summarize(baseline).minimum
    tech = summarize(technique).minimum
    if tech <= 0:
        raise ValueError("non-positive technique minimum")
    return base / tech
