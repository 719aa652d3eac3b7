"""Corruption oracle: shadow execution + per-bit mismatch classification.

Every reliability workload runs twice, in effect: once on the simulated
chip (through the DRAM Bender command pipeline, where the disturbance
model damages victim rows) and once inside :class:`CorruptionOracle`'s
shadow memory, where each kernel's ideal result is computed in software.
At each kernel checkpoint the oracle probes every tracked row through
:meth:`Bank.probe_row` -- materializing damaged-but-unrealized flips the
way a victim's next read would -- and classifies each mismatched bit
(PuDGhost's taxonomy):

* **operand corruption** -- a kernel input row no longer holds what the
  program wrote into it;
* **result corruption**  -- a kernel output row disagrees with the ideal
  result computed from the shadow operands;
* **bystander flip**     -- any other tracked data row changed (the
  classic read-disturbance victim: a row not involved in the op at all).

Rows whose contents are *defined* to be unpredictable (FracDRAM cells
mid-restore, QUAC-TRNG harvest rows) are declared per kernel and excluded
from classification.  After counting, the shadow resynchronizes to the
observed state, so every corrupted bit is counted exactly once -- at the
checkpoint where it first became visible.

Counts aggregate per (mechanism, data pattern), the axes §6's sensitivity
studies sweep, so the experiment can emit per-vendor/mechanism/pattern
silent-corruption tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..disturbance.calibration import DataPattern, Mechanism
from ..dram.module import DramModule

#: a corrector transforms (expected, actual) bytes into
#: (corrected_actual, corrected_words, miscorrected_words) -- the hook an
#: ECC defense uses to scrub the read path before classification
Corrector = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, int, int]]


def popcount_diff(expected: np.ndarray, actual: np.ndarray) -> int:
    """Number of differing bits between two byte buffers."""
    return int(np.unpackbits(np.bitwise_xor(expected, actual)).sum())


@dataclass
class KernelReport:
    """Classified corruption observed at one kernel checkpoint."""

    kernel: str
    mechanism: Mechanism
    pattern: DataPattern
    operand_bits: int = 0
    result_bits: int = 0
    bystander_bits: int = 0
    #: ECC read-path accounting (zero without a corrector)
    corrected_words: int = 0
    miscorrected_words: int = 0
    #: rows that showed at least one surviving mismatch, with bit counts
    corrupt_rows: dict[int, int] = field(default_factory=dict)

    @property
    def silent_bits(self) -> int:
        """Corrupted data bits that no mechanism detected or repaired."""
        return self.operand_bits + self.result_bits + self.bystander_bits


@dataclass
class CorruptionTotals:
    """Aggregated counts for one (mechanism, pattern) cell."""

    operand_bits: int = 0
    result_bits: int = 0
    bystander_bits: int = 0
    corrected_words: int = 0
    miscorrected_words: int = 0
    ops: int = 0

    def add(self, report: KernelReport, ops: int) -> None:
        self.operand_bits += report.operand_bits
        self.result_bits += report.result_bits
        self.bystander_bits += report.bystander_bits
        self.corrected_words += report.corrected_words
        self.miscorrected_words += report.miscorrected_words
        self.ops += ops

    @property
    def silent_bits(self) -> int:
        return self.operand_bits + self.result_bits + self.bystander_bits


class CorruptionOracle:
    """Shadows PuD execution on one bank and classifies every flipped bit."""

    def __init__(self, module: DramModule, bank: int = 0) -> None:
        self.module = module
        self.bank = bank
        self._bank = module.banks[bank]
        #: intent state: physical row -> the bytes the program believes it
        #: holds (initial writes, then ideal kernel results)
        self.shadow: dict[int, np.ndarray] = {}
        self.totals: dict[tuple[Mechanism, DataPattern], CorruptionTotals] = {}
        self.reports: list[KernelReport] = []

    # -- tracking ------------------------------------------------------
    def note_write(self, row: int, data: np.ndarray) -> None:
        """Record that the program wrote ``data`` into physical ``row``."""
        self.shadow[row] = np.array(data, dtype=np.uint8, copy=True)

    def expected(self, row: int) -> np.ndarray:
        return self.shadow[row]

    # -- checkpointing -------------------------------------------------
    def checkpoint(
        self,
        kernel,
        ideal_results: dict[int, np.ndarray],
        now_ns: float,
        corrector: Optional[Corrector] = None,
    ) -> KernelReport:
        """Probe every tracked row and classify mismatches for ``kernel``.

        ``ideal_results`` maps the kernel's result rows to their ideal
        contents (computed from the shadow *before* the kernel ran); all
        other rows are expected to still hold their shadow state.
        Classification priority is entropy > result > operand > bystander,
        using the kernel's declared row roles.
        """
        report = KernelReport(kernel.name, kernel.mechanism, kernel.pattern)
        # Probe everything with an intent state *plus* the kernel's output
        # surface: result rows produced by in-DRAM computation (RowClone
        # destinations, SiMRA groups) have never been written through the
        # host, so they are not in the shadow yet -- but their ideal
        # contents are known and their corruption is the one that matters.
        probe = set(self.shadow)
        probe.update(ideal_results)
        probe.update(kernel.result_rows)
        probe.update(kernel.entropy_rows)
        for row in sorted(probe):
            actual = self._bank.probe_row(row, now_ns)
            if row in kernel.entropy_rows:
                # unpredictable by design: resync, never classify
                self.shadow[row] = actual
                continue
            expected = ideal_results.get(row, self.shadow.get(row))
            if expected is None:
                # output row with no predictable ideal: adopt, don't judge
                self.shadow[row] = np.array(actual, dtype=np.uint8, copy=True)
                continue
            if corrector is not None:
                actual, corrected, miscorrected = corrector(expected, actual)
                report.corrected_words += corrected
                report.miscorrected_words += miscorrected
            bits = popcount_diff(expected, actual)
            if bits:
                if row in kernel.result_rows:
                    report.result_bits += bits
                elif row in kernel.operand_rows:
                    report.operand_bits += bits
                else:
                    report.bystander_bits += bits
                report.corrupt_rows[row] = bits
            # count once: the observed (possibly corrected) state becomes
            # the new intent the next kernel builds on
            self.shadow[row] = np.array(actual, dtype=np.uint8, copy=True)
        self.reports.append(report)
        key = (kernel.mechanism, kernel.pattern)
        self.totals.setdefault(key, CorruptionTotals()).add(report, kernel.ops)
        return report

    # -- aggregation ---------------------------------------------------
    def grand_total(self) -> CorruptionTotals:
        total = CorruptionTotals()
        for cell in self.totals.values():
            total.operand_bits += cell.operand_bits
            total.result_bits += cell.result_bits
            total.bystander_bits += cell.bystander_bits
            total.corrected_words += cell.corrected_words
            total.miscorrected_words += cell.miscorrected_words
            total.ops += cell.ops
        return total
