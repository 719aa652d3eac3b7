"""PRAC counters, variants and back-off."""

import pytest

from repro.mitigations import (
    LOWEST_HC_ROWHAMMER,
    LOWEST_HC_SIMRA,
    OpClass,
    PracConfig,
    PracCounters,
    WEIGHT_COMRA,
    WEIGHT_SIMRA,
)


class TestConfigs:
    def test_weighted_counting_weights(self):
        assert WEIGHT_SIMRA == 204 or WEIGHT_SIMRA == 200 or WEIGHT_SIMRA == 4096 // 20
        assert WEIGHT_COMRA == 4096 // 400

    def test_naive_uses_simra_rdt(self):
        assert PracConfig.po_naive().rdt == LOWEST_HC_SIMRA

    def test_weighted_uses_rowhammer_rdt(self):
        config = PracConfig.po_weighted()
        assert config.rdt == LOWEST_HC_ROWHAMMER
        assert config.weight_for(OpClass.SIMRA) == WEIGHT_SIMRA
        assert config.weight_for(OpClass.ACT) == 1

    def test_ao_serializes_updates(self):
        config = PracConfig.ao_weighted()
        assert config.update_latency_ns(32) == pytest.approx(31 * config.t_rc_ns)
        assert config.update_latency_ns(1) == 0.0

    def test_po_updates_parallel(self):
        assert PracConfig.po_weighted().update_latency_ns(32) == 0.0


class TestCounters:
    def test_backoff_at_threshold(self):
        counters = PracCounters(0, PracConfig.po_naive())
        for _ in range(LOWEST_HC_SIMRA - 1):
            counters.record([7], OpClass.ACT)
        assert counters.back_off_pending is None
        counters.record([7], OpClass.ACT)
        assert counters.back_off_pending is not None
        assert counters.back_off_pending.hottest_row == 7

    def test_weighted_simra_trips_fast(self):
        counters = PracCounters(0, PracConfig.po_weighted())
        rows = list(range(32))
        ops = 0
        while counters.back_off_pending is None:
            counters.record(rows, OpClass.SIMRA)
            ops += 1
        import math
        assert ops == math.ceil(LOWEST_HC_ROWHAMMER / WEIGHT_SIMRA)  # ~20 ops

    def test_rfm_resets_tripped_rows(self):
        counters = PracCounters(0, PracConfig.po_naive())
        for _ in range(LOWEST_HC_SIMRA):
            counters.record([7], OpClass.ACT)
        reset = counters.serve_rfm()
        assert 7 in reset
        assert counters.counter(7) == 0
        assert counters.back_off_pending is None

    def test_warm_start_phases_counters(self):
        config = PracConfig.po_weighted()
        warm = PracCounters(0, config, warm_start=True)
        values = {warm.counter(r) for r in range(50)}
        assert len(values) > 10
        assert all(0 <= v < config.rdt for v in values)

    def test_cold_start_zeros(self):
        counters = PracCounters(0, PracConfig.po_weighted())
        assert counters.counter(123) == 0

    @pytest.mark.parametrize(
        "config", [PracConfig.po_naive(), PracConfig.ao_weighted()],
        ids=["po-naive", "ao-wc"],
    )
    @pytest.mark.parametrize("op", [OpClass.ACT, OpClass.COMRA, OpClass.SIMRA])
    def test_batched_record_equals_repeated_records(self, config, op):
        rows = list(range(40, 56)) if op is OpClass.SIMRA else [40, 42]
        times = 3
        batched = PracCounters(0, config)
        repeated = PracCounters(0, config)
        latency = batched.record(rows, op, times=times)
        total = sum(repeated.record(rows, op) for _ in range(times))
        assert batched.back_off_pending is None  # no crossing inside
        assert latency == total
        assert batched.stats == repeated.stats
        assert [batched.counter(r) for r in rows] == [
            repeated.counter(r) for r in rows
        ]

    def test_headroom_is_last_repetition_below_rdt(self):
        config = PracConfig.po_weighted()
        counters = PracCounters(0, config, warm_start=True)
        increments = {40: WEIGHT_SIMRA, 41: WEIGHT_SIMRA, 90: 1}
        bound = counters.headroom(increments)
        assert bound == min(
            (config.rdt - 1 - counters.counter(row)) // step
            for row, step in increments.items()
        )
        for _ in range(bound):
            counters.record([40, 41], OpClass.SIMRA)
            counters.record([90], OpClass.ACT)
        assert counters.back_off_pending is None
        counters.record([40, 41], OpClass.SIMRA)
        counters.record([90], OpClass.ACT)
        assert counters.back_off_pending is not None
        assert PracCounters(0, config).headroom({}) is None
