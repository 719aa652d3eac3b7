"""Experiment invariants that are not paper claims.

The paper's shape claims (who wins, rough factors) and their per-scale
bands live in ``repro.claims``; ``tests/test_claims.py`` checks every
small-scale band.  These tests pin what the claims do not: row counts, the
registry, and a kwargs-tiny Fig. 25 run.
"""

import pytest

from repro import run_experiment


def test_fig05_four_patterns_per_vendor(small_result):
    hynix = [r for r in small_result("fig05").rows if r["vendor"] == "SK Hynix"]
    assert len(hynix) == 4


def test_fig24_reports_every_technique_both_ways(small_result):
    assert len(small_result("fig24").rows) == 16  # 8 techniques x {off, on}


def test_table2_measures_every_config(small_result):
    assert len(small_result("table2").rows) == 14


class TestFig25Tiny:
    def test_wc_beats_naive(self):
        result = run_experiment(
            "fig25", mix_count=2, periods_ns=(1000.0, 8000.0)
        )
        wc = result.checks["avg_overhead_PRAC-PO-WC"]
        naive = result.checks["avg_overhead_PRAC-PO-Naive"]
        assert naive > wc > 0
        assert result.checks["wc_beats_naive_fraction"] == 1.0


class TestRegistry:
    def test_all_experiments_registered(self):
        from repro.experiments import EXPERIMENTS
        expected = {"table1", "table2", "attack_surface",
                    "pud_reliability"} | {
            f"fig{n:02d}" for n in (4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15,
                                    16, 17, 18, 19, 21, 22, 23, 24, 25)
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")
