"""Host execution: loop-scaling equivalence, path counters, IO, warnings."""

import numpy as np
import pytest

from repro.bender.host import DramBenderHost
from repro.bender.program import ProgramBuilder
from repro.disturbance import DataPattern, Mechanism
from repro.dram import make_module
from repro.obs import Obs


def hammer_program(module, victim, count):
    low = module.to_logical(victim - 1)
    high = module.to_logical(victim + 1)
    body = (
        ProgramBuilder()
        .act(0, low, 13.5).pre(0, 36.0)
        .act(0, high, 13.5).pre(0, 36.0)
    )
    return ProgramBuilder("ds").loop(count, body).build()


class TestScaledEquivalence:
    def test_scaled_matches_exact_damage(self):
        victim = 2 * 96 + 40
        results = {}
        for scaled in (False, True):
            module = make_module("hynix-a-8gb")
            host = DramBenderHost(module, interpret=not scaled)
            host.run(hammer_program(module, victim, 400))
            results[scaled] = sum(
                module.model.damage_fraction(0, victim).values()
            )
        assert results[True] == pytest.approx(results[False], rel=1e-9)

    def test_scaled_advances_clock_fully(self):
        victim = 2 * 96 + 40
        times = {}
        for scaled in (False, True):
            module = make_module("hynix-a-8gb")
            host = DramBenderHost(module, interpret=not scaled)
            result = host.run(hammer_program(module, victim, 400))
            times[scaled] = result.duration_ns
        assert times[True] == pytest.approx(times[False])

    def test_bodies_with_reads_take_exact_path(self, hynix_module):
        host = DramBenderHost(hynix_module)
        body = (
            ProgramBuilder()
            .act(0, 3, 13.5).rd(0, 3, 15.0).pre(0, 36.0)
        )
        program = ProgramBuilder().loop(5, body).build()
        result = host.run(program)
        assert len(result.reads) == 5


class TestPathCounters:
    """``host.chunks`` / ``host.loops`` record the path each loop took."""

    def test_compilable_loop_takes_stream(self, hynix_module):
        obs = Obs()
        host = DramBenderHost(hynix_module, obs=obs)
        host.run(hammer_program(hynix_module, 2 * 96 + 40, 400))
        assert obs.by_label("host.chunks", "path") == {"stream": 1}
        assert obs.by_label("host.chunk_passes", "mode") == {"scaled": 1}
        assert obs.total("host.loops") == 0

    def test_prac_loop_chunk_streams(self, hynix_module):
        from repro.attack.mitigations import PracHook
        from repro.mitigations.prac import PracConfig

        hynix_module.attach_trr(PracHook(hynix_module, PracConfig.po_naive()))
        obs = Obs()
        host = DramBenderHost(hynix_module, obs=obs)
        host.run(hammer_program(hynix_module, 2 * 96 + 40, 400))
        assert obs.by_label("host.chunks", "path") == {"stream": 1}
        # RDT 20: every back-off period runs exactly, between scaled passes
        passes = obs.by_label("host.chunk_passes", "mode")
        assert passes["scaled"] > 0
        assert passes["exact"] > passes["scaled"]

    def test_hook_without_horizon_is_interpreted(self, hynix_module):
        class CommandHook:
            """Sees every ACT; cannot bound a batched pass."""

            def __init__(self):
                self.acts = 0

            def on_act(self, bank, row, now_ns):
                self.acts += 1

            def on_ref(self, bank, now_ns):
                return []

        hook = CommandHook()
        hynix_module.attach_trr(hook)
        obs = Obs()
        host = DramBenderHost(hynix_module, obs=obs)
        host.run(hammer_program(hynix_module, 2 * 96 + 40, 400))
        assert obs.by_label("host.chunks", "path") == {"unrolled": 1}
        assert obs.total("host.chunk_passes") == 0
        assert hook.acts == 800

    def test_loop_with_reads_is_unrolled(self, hynix_module):
        obs = Obs()
        host = DramBenderHost(hynix_module, obs=obs)
        body = ProgramBuilder().act(0, 3, 13.5).rd(0, 3, 15.0).pre(0, 36.0)
        host.run(ProgramBuilder().loop(5, body).build())
        assert obs.by_label("host.loops", "path") == {"unrolled": 1}
        assert obs.total("host.chunks") == 0


class TestRowIO:
    def test_write_then_read(self, hynix_module):
        host = DramBenderHost(hynix_module)
        data = np.arange(hynix_module.geometry.row_bytes, dtype=np.uint8)
        host.write_rows(0, {5: data})
        back = host.read_rows(0, [5])[5]
        assert np.array_equal(back, data)

    def test_result_data_for(self, hynix_module):
        host = DramBenderHost(hynix_module)
        program = (
            ProgramBuilder()
            .act(0, 3, 13.5).rd(0, 3, 15.0).pre(0, 36.0)
            .build()
        )
        result = host.run(program)
        assert result.data_for(0, 3) is not None
        with pytest.raises(KeyError):
            result.data_for(0, 99)


class TestRefreshWindowGuard:
    def _long_program(self, module):
        body = ProgramBuilder().nop(70_200.0)
        return ProgramBuilder("press").loop(1000, body).build()

    def test_warns_beyond_refresh_window(self, hynix_module):
        host = DramBenderHost(hynix_module)
        result = host.run(self._long_program(hynix_module))
        assert result.warnings

    def test_enforcement_raises(self, hynix_module):
        host = DramBenderHost(hynix_module, enforce_refresh_window=True)
        with pytest.raises(RuntimeError):
            host.run(self._long_program(hynix_module))


class TestTrrDisablesScaling:
    def test_trr_forces_exact_path(self, hynix_module):
        from repro.trr import SamplingTrr
        hynix_module.attach_trr(SamplingTrr())
        host = DramBenderHost(hynix_module)
        victim = 2 * 96 + 40
        host.run(hammer_program(hynix_module, victim, 50))
        # the sampler saw every ACT individually
        assert hynix_module.banks[0].trr.stats["acts_seen"] == 100
