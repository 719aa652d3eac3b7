"""Population-table engine: vectorized sampling and oracle equivalence.

The bulk-sampled :class:`PopulationTable` replaced the per-row scalar
sampler as the source of row profiles.  These tests pin down the three
properties the replacement must preserve:

* the vectorized analytic oracles equal the scalar ones row for row,
* the sampled population still lands on Table 2's min/avg calibration,
* the sentinel rows still sit exactly on the paper's headline minima.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.disturbance import (
    DisturbanceModel,
    Mechanism,
    MODULE_CALIBRATIONS,
    module_calibration,
)
from repro.dram.organization import ModuleGeometry


def make_model(config_id: str = "hynix-a-8gb", serial: int = 0) -> DisturbanceModel:
    return DisturbanceModel(ModuleGeometry(), module_calibration(config_id), serial)


class TestOracleEquivalence:
    """Array oracles must equal the scalar oracles element for element."""

    @pytest.mark.parametrize("config_id", ["hynix-a-8gb", "samsung-b-16gb"])
    @pytest.mark.parametrize("mechanism", list(Mechanism))
    def test_reference_hcfirst_array_matches_scalar(self, config_id, mechanism):
        model = make_model(config_id, serial=5)
        rows = list(range(0, model.geometry.rows_per_bank, 11))
        vec = model.reference_hcfirst_array(0, rows, mechanism)
        scalar = [model.reference_hcfirst(0, row, mechanism) for row in rows]
        assert vec.tolist() == scalar  # bit-exact, not approx

    @pytest.mark.parametrize("mechanism", list(Mechanism))
    def test_worst_case_patterns_match_scalar(self, mechanism):
        model = make_model(serial=2)
        rows = list(range(0, model.geometry.rows_per_bank, 7))
        vec = model.worst_case_patterns(0, rows, mechanism)
        scalar = [model.worst_case_pattern(0, row, mechanism) for row in rows]
        assert vec == scalar

    def test_simra_counts_all_covered(self):
        model = make_model(serial=1)
        rows = list(range(32, 96, 3))
        for count in (2, 4, 8, 16, 32):
            vec = model.reference_hcfirst_array(
                0, rows, Mechanism.SIMRA, simra_count=count
            )
            scalar = [
                model.reference_hcfirst(0, row, Mechanism.SIMRA, count)
                for row in rows
            ]
            assert vec.tolist() == scalar

    def test_rows_spanning_subarrays_keep_input_order(self):
        model = make_model()
        rps = model.geometry.rows_per_subarray
        rows = [3 * rps + 1, 5, 2 * rps + 7, 6, rps + 2]  # deliberately shuffled
        vec = model.reference_hcfirst_array(0, rows, Mechanism.ROWHAMMER)
        scalar = [
            model.reference_hcfirst(0, row, Mechanism.ROWHAMMER) for row in rows
        ]
        assert vec.tolist() == scalar


class TestTableConsistency:
    def test_view_roundtrips_through_table(self):
        model = make_model()
        table = model.population(0, 1)
        rps = model.geometry.rows_per_subarray
        for offset in (0, 7, rps - 1):
            prof = table.view(offset)
            assert prof.hc_ref == table.hc_ref[offset]
            assert prof.weak_cells == table.weak_cells[offset]
            for count, arr in table.simra_ratio.items():
                assert prof.simra_ratio[count] == arr[offset]

    def test_profile_served_from_table(self):
        model = make_model()
        row = 2 * model.geometry.rows_per_subarray + 5
        prof = model.profile(0, row)
        table = model.population(0, 2)
        assert prof.hc_ref == table.hc_ref[row - table.row_start]

    def test_tables_deterministic_across_instances(self):
        a = make_model(serial=9).population(1, 3)
        b = make_model(serial=9).population(1, 3)
        assert np.array_equal(a.hc_ref, b.hc_ref)
        assert np.array_equal(a.weak_cells, b.weak_cells)
        for mech in Mechanism:
            assert np.array_equal(a.direction_ratio[mech], b.direction_ratio[mech])

    def test_tables_vary_with_serial_and_bank(self):
        base = make_model(serial=0).population(0, 0)
        other_serial = make_model(serial=1).population(0, 0)
        other_bank = make_model(serial=0).population(1, 0)
        assert not np.array_equal(base.hc_ref, other_serial.hc_ref)
        assert not np.array_equal(base.hc_ref, other_bank.hc_ref)


class TestPopulationCalibration:
    """Bulk sampling must stay on the Table 2 min/avg anchors."""

    def test_population_minimum_is_the_sentinel(self):
        model = make_model()
        cal = model.calibration
        rows = list(range(model.geometry.rows_per_bank))
        hc = model.reference_hcfirst_array(0, rows, Mechanism.ROWHAMMER)
        sentinel = model.sentinel_row(Mechanism.ROWHAMMER)
        assert hc[sentinel] == pytest.approx(cal.rh_min)
        # sampled rows may dip slightly below through pattern noise, but
        # the floor clamp keeps the population minimum near the paper's
        assert hc.min() >= 0.7 * cal.rh_min

    @pytest.mark.parametrize("config_id", [c.config_id for c in MODULE_CALIBRATIONS])
    def test_population_average_tracks_table2(self, config_id):
        model = make_model(config_id)
        cal = model.calibration
        hc = np.concatenate(
            [model.population(0, sub).hc_ref
             for sub in range(model.geometry.subarrays_per_bank)]
        )
        # hc_ref is the double-sided RowHammer threshold before condition
        # factors; its mean must track the Table 2 average within sampling
        # noise for a 576-row population.
        assert hc.mean() == pytest.approx(cal.rh_avg, rel=0.25)

    def test_comra_ratio_keeps_population_minimum(self):
        model = make_model()
        cal = model.calibration
        for sub in range(model.geometry.subarrays_per_bank):
            table = model.population(0, sub)
            assert (table.hc_ref / table.comra_ratio).min() >= 0.9 * cal.comra_min


class TestSentinels:
    def test_headline_minima_exact(self):
        model = make_model()
        rh = model.sentinel_row(Mechanism.ROWHAMMER)
        comra = model.sentinel_row(Mechanism.COMRA)
        simra = model.sentinel_row(Mechanism.SIMRA)
        assert model.reference_hcfirst(0, rh, Mechanism.ROWHAMMER) == pytest.approx(25_000)
        assert model.reference_hcfirst(0, comra, Mechanism.COMRA) == pytest.approx(1_885)
        assert model.reference_hcfirst(0, simra, Mechanism.SIMRA, 4) == pytest.approx(26)

    def test_sentinels_pinned_in_table_arrays(self):
        """Array oracles must observe the pinned sentinel values too."""
        model = make_model()
        for mechanism in (Mechanism.ROWHAMMER, Mechanism.COMRA, Mechanism.SIMRA):
            sentinel = model.sentinel_row(mechanism)
            vec = model.reference_hcfirst_array(0, [sentinel], mechanism)
            assert vec[0] == model.reference_hcfirst(0, sentinel, mechanism)
