"""Bank command engine: sessions, CoMRA/SiMRA detection, PuD semantics."""

import numpy as np
import pytest

from repro.dram import make_module
from repro.dram.errors import TimingError


@pytest.fixture()
def bank(hynix_module):
    return hynix_module.banks[0]


def _fill(bank, row, byte, t=0.0):
    bank.backdoor_write(row, np.full(bank.geometry.row_bytes, byte, np.uint8), t)


class TestBasicCommands:
    def test_act_rd_pre_roundtrip(self, bank):
        _fill(bank, 10, 0x5A)
        data = bank.read_row_direct(10, 100.0)
        assert (data == 0x5A).all()

    def test_wr_changes_open_row(self, bank):
        bank.act(10, 0.0)
        bank.wr(10, np.full(bank.geometry.row_bytes, 0x77, np.uint8), 15.0)
        data = bank.rd(10, 20.0)
        bank.pre(36.0)
        assert (data == 0x77).all()

    def test_rd_without_open_row_raises(self, bank):
        with pytest.raises(TimingError):
            bank.rd(10, 0.0)

    def test_wr_wrong_row_raises(self, bank):
        bank.act(10, 0.0)
        with pytest.raises(TimingError):
            bank.wr(11, np.zeros(bank.geometry.row_bytes, np.uint8), 15.0)

    def test_strict_act_on_open_bank_raises(self, bank):
        bank.act(10, 0.0)
        with pytest.raises(TimingError):
            bank.act(11, 50.0)

    def test_non_strict_act_implicitly_precharges(self, hynix_module):
        from repro.dram.vendors import make_module as mk
        module = mk("hynix-a-8gb", strict=False)
        lenient = module.banks[0]
        lenient.act(10, 0.0)
        lenient.act(11, 100.0)  # no error
        assert lenient._open.rows == (11,)

    def test_stats_accumulate(self, bank):
        bank.read_row_direct(5, 0.0)
        assert bank.stats["acts"] == 1
        assert bank.stats["reads"] == 1
        assert bank.stats["pres"] == 1


class TestComraDetection:
    def test_copy_happens_in_window(self, bank):
        _fill(bank, 20, 0xAB, 0.0)
        _fill(bank, 25, 0x00, 0.0)
        t = 100.0
        bank.act(20, t)
        bank.pre(t + 36.0)
        bank.act(25, t + 36.0 + 7.5)  # violated tRP
        bank.pre(t + 36.0 + 7.5 + 36.0)
        bank.flush(t + 200.0)
        assert (bank.backdoor_read(25) == 0xAB).all()
        assert bank.stats["comra_copies"] == 1

    def test_no_copy_at_nominal_trp(self, bank):
        _fill(bank, 20, 0xAB, 0.0)
        _fill(bank, 25, 0x00, 0.0)
        t = 100.0
        bank.act(20, t)
        bank.pre(t + 36.0)
        bank.act(25, t + 36.0 + 13.5)  # nominal
        bank.pre(t + 36.0 + 13.5 + 36.0)
        bank.flush(t + 300.0)
        assert (bank.backdoor_read(25) == 0x00).all()

    def test_no_copy_across_subarrays(self, bank):
        src = 20
        dst = 96 + 20  # next subarray
        _fill(bank, src, 0xAB, 0.0)
        _fill(bank, dst, 0x11, 0.0)
        t = 100.0
        bank.act(src, t)
        bank.pre(t + 36.0)
        bank.act(dst, t + 36.0 + 7.5)
        bank.pre(t + 36.0 + 7.5 + 36.0)
        bank.flush(t + 300.0)
        assert (bank.backdoor_read(dst) == 0x11).all()

    def test_copy_needs_sensed_source(self, bank):
        # source closed after only 3 ns: bitlines never carried its data
        _fill(bank, 20, 0xAB, 0.0)
        _fill(bank, 25, 0x11, 0.0)
        t = 100.0
        bank.act(20, t)
        bank.pre(t + 3.0)
        bank.act(25, t + 3.0 + 7.5)
        bank.pre(t + 3.0 + 7.5 + 36.0)
        bank.flush(t + 300.0)
        assert (bank.backdoor_read(25) == 0x11).all()


class TestSimra:
    def test_group_from_differing_bits(self, bank):
        assert bank.simra_group(0, 1) == (0, 1)
        assert bank.simra_group(0, 6) == (0, 2, 4, 6)
        assert bank.simra_group(0, 31) == tuple(range(32))

    def test_group_requires_same_block(self, bank):
        assert bank.simra_group(0, 33) is None

    def test_group_requires_same_subarray(self, hynix_module):
        module = make_module("hynix-a-8gb", rows_per_subarray=32)
        assert module.banks[0].simra_group(30, 33) is None

    def test_charge_sharing_majority(self, bank):
        # 3 of 4 rows hold ones -> majority is ones everywhere
        for row, byte in zip((0, 2, 4, 6), (0xFF, 0xFF, 0xFF, 0x00)):
            _fill(bank, row, byte, 0.0)
        t = 100.0
        bank.act(0, t)
        bank.pre(t + 3.0)
        bank.act(6, t + 6.0)
        bank.pre(t + 42.0)
        bank.flush(t + 200.0)
        for row in (0, 2, 4, 6):
            assert (bank.backdoor_read(row) == 0xFF).all()
        assert bank.stats["simra_ops"] == 1

    def test_wr_broadcasts_to_group(self, bank):
        t = 100.0
        bank.act(0, t)
        bank.pre(t + 3.0)
        bank.act(6, t + 6.0)
        marker = np.full(bank.geometry.row_bytes, 0x3D, np.uint8)
        bank.wr(6, marker, t + 20.0)
        bank.pre(t + 60.0)
        bank.flush(t + 200.0)
        for row in (0, 2, 4, 6):
            assert (bank.backdoor_read(row) == 0x3D).all()

    def test_simra_ignored_without_vendor_support(self, samsung_module):
        bank = samsung_module.banks[0]
        for row in (0, 2, 4, 6):
            bank.backdoor_write(row, np.full(bank.geometry.row_bytes, 0x0F, np.uint8))
        t = 100.0
        bank.act(0, t)
        bank.pre(t + 3.0)
        bank.act(6, t + 6.0)
        bank.pre(t + 42.0)
        bank.flush(t + 300.0)
        assert bank.stats["simra_ops"] == 0
        assert (bank.backdoor_read(2) == 0x0F).all()


class TestFracAndMultiCopy:
    def test_frac_window_marks_row(self, bank):
        _fill(bank, 12, 0xFF, 0.0)
        bank.act(12, 100.0)
        bank.pre(110.5)  # inside the 7..16 ns frac window
        bank.flush(300.0)
        assert 12 in bank._frac

    def test_nominal_close_does_not_mark(self, bank):
        _fill(bank, 12, 0xFF, 0.0)
        bank.act(12, 100.0)
        bank.pre(136.0)
        bank.flush(300.0)
        assert 12 not in bank._frac

    def test_multi_copy_latches_source(self, bank):
        data = np.arange(bank.geometry.row_bytes, dtype=np.uint8)
        bank.backdoor_write(32, data, 0.0)
        t = 100.0
        bank.act(32, t)
        bank.pre(t + 36.0)       # fully sensed source
        bank.act(39, t + 39.0)   # SiMRA trigger into the 8-row group
        bank.pre(t + 80.0)
        bank.flush(t + 300.0)
        for row in range(32, 40):
            assert np.array_equal(bank.backdoor_read(row), data)


class TestRefresh:
    def test_rotor_covers_all_rows(self, hynix_module):
        module = make_module("hynix-a-8gb", rows_per_subarray=32,
                             subarrays_per_bank=2)
        bank = module.banks[0]
        refs_per_window = round(module.timing.tREFW / module.timing.tREFI)
        t = 0.0
        for _ in range(refs_per_window):
            t += module.timing.tREFI
            bank.ref(t)
        assert bank._refresh_cursor >= module.geometry.rows_per_bank


# ----------------------------------------------------------------------
# Fused restore, majority fixpoint and deduplicated targeted refresh,
# each checked against the per-row code it replaced
# ----------------------------------------------------------------------
def _reference_restore(bank, row, now_ns):
    """The per-row restore ``Bank._restore_rows`` fuses (the oracle)."""
    if bank.probe_tap is not None:
        bank.probe_tap(("touch", row, now_ns))
    data = bank._row_data(row)
    changed = 0
    last = bank._last_restore.get(row)
    if last is not None:
        elapsed = now_ns - last
        changed += bank.retention.apply_decay(bank.index, row, elapsed, data)
    changed += bank.model.realize_flips(bank.index, row, data)
    bank.model.restore_row(bank.index, row)
    if changed:
        bank._bump_version(row)
    bank._last_restore[row] = now_ns


def _reference_majority(bank, group, partial_rows):
    """The unconditional MAJ write ``_apply_simra_charge_sharing`` replaced."""
    active = [row for row in group if row not in partial_rows]
    if not active:
        return
    frac_rows = [row for row in active if row in bank._frac]
    full_rows = [row for row in active if row not in bank._frac]
    if full_rows:
        stack = np.stack([np.unpackbits(bank._row_data(row)) for row in full_rows])
        ones = stack.sum(axis=0).astype(np.float64)
    else:
        ones = np.zeros(bank.geometry.columns, dtype=np.float64)
    ones += 0.5 * len(frac_rows)
    majority = np.where(ones * 2 > len(active), 1, 0).astype(np.uint8)
    ties = ones * 2 == len(active)
    if ties.any():
        bank._tie_counter += 1
        rng = np.random.default_rng(
            (bank.model.serial * 0x9E3779B1 + bank._tie_counter) & 0xFFFFFFFF
        )
        majority[ties] = rng.integers(0, 2, int(ties.sum()), dtype=np.uint8)
    packed = np.packbits(majority)
    for row in active:
        bank._row_data(row)[:] = packed
        bank._bump_version(row)
        bank._frac.discard(row)


#: one restore late enough that some of these rows outlived their
#: retention time (1.1-3.6 s on hynix-a-8gb bank 0) and others did not
_LATE_NS = 3.0e9


def _damaged_bank():
    """A fresh bank whose rows 44-57 and 200 hold data and whose rows
    around aggressors 50 and 52 carry enough damage to flip."""
    bank = make_module("hynix-a-8gb").banks[0]
    for row in (*range(44, 58), 200):
        _fill(bank, row, 0x55, 0.0)
    bank.event_times = 300_000
    for aggressor in (50, 52):
        bank.act(aggressor, 1000.0)
        bank.pre(1036.0)
        bank.flush(1100.0)
    bank.event_times = 1
    return bank


def _tap(bank):
    taps = []
    bank.probe_tap = taps.append
    return taps


def _restore_state(bank, rows):
    led = bank.model.ledger
    state = {}
    for row in rows:
        slot = led.peek(bank.index, row)
        state[row] = (
            bank._data[row].tobytes() if row in bank._data else None,
            bank._data_version.get(row),
            bank._last_restore.get(row),
            None if slot is None else (
                led.damage[slot].tolist(), list(led.pool_order[slot]),
                led.flips[slot].tolist(), sorted(led.flipped[slot]),
            ),
        )
    return state


class TestFusedRestore:
    # realized flips inside retention (49), flips and decay (51, 53), decay
    # of a slot below its flip threshold (48, 50), decay without a slot
    # (46, 200), neither (54), a row never written (300), and a repeat
    ROWS = (49, 51, 48, 53, 54, 46, 200, 300, 52, 50, 49)

    def test_matches_per_row_reference(self):
        fused, reference = _damaged_bank(), _damaged_bank()
        before = _restore_state(fused, self.ROWS)
        fused_taps, reference_taps = _tap(fused), _tap(reference)
        fused._restore_rows(self.ROWS, _LATE_NS)
        for row in self.ROWS:
            _reference_restore(reference, row, _LATE_NS)
        after = _restore_state(fused, self.ROWS)
        assert after == _restore_state(reference, self.ROWS)
        assert fused_taps == reference_taps
        assert [tap[1] for tap in fused_taps] == list(self.ROWS)
        # the scenario is not vacuous: flips realized, retention decayed
        changed = {row for row in self.ROWS if after[row][1] != before[row][1]}
        assert {46, 48, 49, 50, 51, 53, 200} <= changed
        assert 54 not in changed


class TestTargetedRefreshDedup:
    def test_matches_duplicated_sequence(self):
        # aggressors 50 and 52 share victims 51 (distance 1) and 50/52
        # (each other's distance-2 neighbour)
        aggressors = (50, 52)
        fused, reference = _damaged_bank(), _damaged_bank()
        fused_taps, reference_taps = _tap(fused), _tap(reference)
        fused.targeted_refresh(aggressors, _LATE_NS)
        for aggressor in aggressors:
            for distance in (1, 2):
                for victim in reference.geometry.neighbors(aggressor, distance):
                    _reference_restore(reference, victim, _LATE_NS)
        rows = tuple(range(44, 58))
        assert _restore_state(fused, rows) == _restore_state(reference, rows)
        first_seen = list(dict.fromkeys(reference_taps))
        assert len(first_seen) < len(reference_taps)
        assert fused_taps == first_seen


class TestMajorityFixpoint:
    GROUP = (0, 2, 4, 6)

    @staticmethod
    def _bank(contents, frac=()):
        bank = make_module("hynix-a-8gb").banks[0]
        for row, byte in contents.items():
            _fill(bank, row, byte, 0.0)
        bank._frac.update(frac)
        return bank

    @staticmethod
    def _observed(bank, rows):
        return (
            {row: bank._data[row].tobytes() for row in rows},
            sorted(bank._frac), bank._tie_counter,
        )

    def test_identical_rows_in_a_simra_op_keep_versions(self):
        bank = self._bank({row: 0x3C for row in self.GROUP})
        versions = dict(bank._data_version)
        t = 100.0
        bank.act(0, t)
        bank.pre(t + 3.0)
        bank.act(6, t + 6.0)
        bank.pre(t + 42.0)
        bank.flush(t + 200.0)
        assert bank.stats["simra_ops"] == 1
        assert all((bank.backdoor_read(row) == 0x3C).all() for row in self.GROUP)
        assert bank._data_version == versions

    @pytest.mark.parametrize(
        "group, contents, frac, partial",
        [
            # identical rows: the fixpoint, nothing written
            (GROUP, {row: 0xA5 for row in GROUP}, (), ()),
            # two rows, one differing: every differing bit ties
            ((0, 1), {0: 0xF0, 1: 0x0F}, (), ()),
            # three agree, one differs: no ties
            (GROUP, {0: 0xA5, 2: 0xA5, 4: 0xA5, 6: 0x5A}, (), ()),
            # identical bytes, but one row holds fractional charge
            (GROUP, {row: 0xA5 for row in GROUP}, (4,), ()),
            # two fractional rows: every bitline ties
            ((0, 1), {0: 0xFF, 1: 0xFF}, (0, 1), ()),
            # a partial row sits out; the active rows still differ
            (GROUP, {0: 0xA5, 2: 0x5A, 4: 0xA5, 6: 0x00}, (), (6,)),
            # a differing partial row does not block the fixpoint
            (GROUP, {0: 0xA5, 2: 0xA5, 4: 0xA5, 6: 0x00}, (), (6,)),
        ],
    )
    def test_matches_unconditional_majority(self, group, contents, frac, partial):
        fused = self._bank(contents, frac)
        reference = self._bank(contents, frac)
        versions = dict(fused._data_version)
        fused._apply_simra_charge_sharing(group, set(partial))
        _reference_majority(reference, group, set(partial))
        assert self._observed(fused, group) == self._observed(reference, group)
        active = [row for row in group if row not in partial]
        fixpoint = not frac and len({contents[row] for row in active}) == 1
        if fixpoint:
            assert fused._data_version == versions
        else:
            assert fused._data_version == reference._data_version
