"""Compiled/chunked execution must be indistinguishable from unrolled.

Every case runs the same program twice on freshly instantiated modules:
once on the reference host (``interpret=True``, pure per-instruction
interpretation) and once on the default fast host.
Victim bytes must be byte-identical, flip sets identical, TRR stats
(including ``targeted_refreshes``, which depends on bit-exact sampler
buffer state at every capable REF) identical, and the clock must land on
the same nanosecond.
"""

import numpy as np
import pytest

from repro.attack.mitigations import PracHook, WeightedSamplingTrr
from repro.bender.host import DramBenderHost
from repro.bender.program import ProgramBuilder
from repro.core import patterns
from repro.disturbance import Mechanism
from repro.dram import make_module
from repro.mitigations.prac import PracConfig
from repro.trr import SamplingTrr

CONFIG = "hynix-a-8gb"
VICTIM = 2 * 96 + 40


def _flip_bits(read_back: dict, expected: np.ndarray) -> set:
    flips = set()
    for row, data in read_back.items():
        diff = np.flatnonzero(np.unpackbits(data) != np.unpackbits(expected))
        flips.update((row, int(bit)) for bit in diff)
    return flips


def _log_passes(host) -> list:
    """Record ``(periods, back-offs)`` per chunk pass, ``None`` per chunk."""
    log = []
    run_stream, execute_chunk = host._run_stream, host._execute_chunk

    def logged_chunk(step, result):
        log.append(None)
        execute_chunk(step, result)

    def logged_run(bank, stream, count):
        before = getattr(bank.trr, "rfms", 0)
        run_stream(bank, stream, count)
        log.append((count, getattr(bank.trr, "rfms", 0) - before))

    host._execute_chunk = logged_chunk
    host._run_stream = logged_run
    return log


def _execute(program_factory, setup_rows, victims, hook_factory, fast, rounds=1):
    """One side of an equivalence comparison, on a fresh module."""
    module = make_module(CONFIG)
    hook = hook_factory(module) if hook_factory else None
    module.attach_trr(hook)
    host = DramBenderHost(module, interpret=not fast)
    passes = _log_passes(host) if fast else None
    rows, expected = setup_rows(module)
    host.write_rows(0, {module.to_logical(r): d for r, d in rows.items()})
    program = program_factory(module)
    for _ in range(rounds):
        host.run(program)
    read_back = host.read_rows(0, [module.to_logical(v) for v in victims])
    return {
        "data": read_back,
        "flips": _flip_bits(read_back, expected),
        "trr": dict(hook.stats) if hook is not None else None,
        "bank": dict(module.banks[0].stats),
        "now_ns": host.now_ns,
        "passes": passes,
    }


def _assert_equivalent(fast, ref):
    assert fast["now_ns"] == ref["now_ns"]
    assert fast["trr"] == ref["trr"]
    assert fast["bank"] == ref["bank"]
    assert fast["flips"] == ref["flips"]
    for row in ref["data"]:
        assert (fast["data"][row] == ref["data"][row]).all()


def _hammer_setup(aggressor_offsets, victims=(VICTIM,), base=VICTIM):
    def setup(module):
        pattern = module.model.worst_case_pattern(0, base, Mechanism.ROWHAMMER)
        nbytes = module.geometry.row_bytes
        rows = {base + off: pattern.fill(nbytes) for off in aggressor_offsets}
        expected = pattern.negated.fill(nbytes)
        for victim in victims:
            rows[victim] = expected.copy()
        return rows, expected

    return setup


def _compare(program_factory, setup_rows, victims, hook_factory, rounds=1):
    fast = _execute(program_factory, setup_rows, victims, hook_factory, True, rounds)
    ref = _execute(program_factory, setup_rows, victims, hook_factory, False, rounds)
    _assert_equivalent(fast, ref)
    return fast


SAMPLING = lambda module: SamplingTrr(seed=0)  # noqa: E731
WEIGHTED = lambda module: WeightedSamplingTrr(seed=0)  # noqa: E731


@pytest.mark.parametrize("hook_factory", [None, SAMPLING], ids=["no-trr", "trr"])
class TestLoopBodies:
    """Classical RowHammer / RowPress / CoMRA / SiMRA loop programs."""

    def test_rowhammer(self, hook_factory):
        oracle = make_module(CONFIG).model.reference_hcfirst(
            0, VICTIM, Mechanism.ROWHAMMER
        )
        count = int(oracle * 1.25)
        fast = _compare(
            lambda m: patterns.double_sided_rowhammer(m, VICTIM, count),
            _hammer_setup((-1, 1)),
            (VICTIM,),
            hook_factory,
        )
        assert fast["flips"]  # the comparison must cover real bitflips

    def test_rowpress(self, hook_factory):
        _compare(
            lambda m: patterns.double_sided_rowhammer(
                m, VICTIM, 4000, t_agg_on_ns=336.0
            ),
            _hammer_setup((-1, 1)),
            (VICTIM,),
            hook_factory,
        )

    def test_comra(self, hook_factory):
        fast = _compare(
            lambda m: patterns.double_sided_comra(m, VICTIM, 3000),
            _hammer_setup((-1, 1)),
            (VICTIM,),
            hook_factory,
        )
        assert fast["bank"]["comra_copies"] > 0

    def test_simra(self, hook_factory):
        module = make_module(CONFIG)
        block_base = (VICTIM // 32) * 32
        pair = patterns.simra_pair_for(module, block_base, 4)
        victim = pair.sandwiched_victims()[0]
        oracle = module.model.reference_hcfirst(0, victim, Mechanism.SIMRA)
        count = int(oracle * 1.25)
        fast = _compare(
            lambda m: patterns.simra_hammer(m, pair, count),
            _hammer_setup(
                tuple(r - victim for r in pair.group), (victim,), victim
            ),
            (victim,),
            hook_factory,
        )
        assert fast["bank"]["simra_ops"] > 0
        assert fast["flips"]


class TestFlatTrrPrograms:
    """§7 patterns: flat ACT/PRE windows with embedded REFs, TRR attached.

    These exercise the periodic-run chunking *and* the batched
    ``on_act_stream``: targeted-refresh equality requires the sampler's
    buffer (content and emptiness) to match the unrolled run at every
    TRR-capable REF, i.e. the RNG draw sequences must be bit-identical.
    """

    def test_n_sided(self):
        fast = _compare(
            lambda m: patterns.n_sided_trr_pattern(
                m, (VICTIM - 1, VICTIM + 1), VICTIM + 30,
                windows=2, dummy_windows=2,
            ),
            _hammer_setup((-1, 1, 30)),
            (VICTIM,),
            SAMPLING,
            rounds=12,
        )
        assert fast["trr"]["targeted_refreshes"] > 0

    def test_comra_pattern(self):
        fast = _compare(
            lambda m: patterns.comra_trr_pattern(
                m, VICTIM, VICTIM + 30, dummy_windows=2
            ),
            _hammer_setup((-1, 1, 30)),
            (VICTIM,),
            SAMPLING,
            rounds=8,
        )
        assert fast["bank"]["comra_copies"] > 0

    def test_simra_pattern(self):
        module = make_module(CONFIG)
        block_base = (VICTIM // 32) * 32
        pair = patterns.simra_pair_for(module, block_base, 4)
        victim = pair.sandwiched_victims()[0]
        fast = _compare(
            lambda m: patterns.simra_trr_pattern(
                m, pair, victim + 40, dummy_windows=2
            ),
            _hammer_setup(
                tuple(r - victim for r in pair.group) + (40,), (victim,), victim
            ),
            (victim,),
            SAMPLING,
            rounds=8,
        )
        assert fast["bank"]["simra_ops"] > 0

    def test_weighted_trr(self):
        fast = _compare(
            lambda m: patterns.n_sided_trr_pattern(
                m, (VICTIM - 1, VICTIM + 1), VICTIM + 30,
                windows=2, dummy_windows=2,
            ),
            _hammer_setup((-1, 1, 30)),
            (VICTIM,),
            WEIGHTED,
            rounds=12,
        )
        assert fast["trr"]["targeted_refreshes"] > 0


PRAC_VARIANTS = {
    "po-naive": PracConfig.po_naive,
    "po-wc": PracConfig.po_weighted,
    "ao-wc": PracConfig.ao_weighted,
}


def _prac(variant):
    return lambda module: PracHook(module, PRAC_VARIANTS[variant]())


def _mid_chunk_backoffs(passes) -> int:
    """Back-offs serviced in exact passes that follow a scaled pass of the
    same chunk, i.e. strictly inside a compiled chunk."""
    count = 0
    scaled = False
    for entry in passes:
        if entry is None:
            scaled = False
            continue
        periods, backoffs = entry
        if periods > 1:
            scaled = True
        elif scaled:
            count += backoffs
    return count


@pytest.mark.parametrize("variant", sorted(PRAC_VARIANTS))
class TestPracStreams:
    """PRAC chunks split at exact back-off horizons vs interpretation.

    Every program services back-offs in exact periods that follow a scaled
    pass of the same chunk, so the comparison covers the horizon bound,
    its margin for the held-back session and the history shift between
    passes, not only chunk edges.  Equal hook stats (``rfms``,
    ``targeted_refreshes``, ``stall_ns``, ``acts_seen``) mean every
    back-off fired at the same event as under interpretation.
    """

    def test_rowhammer_windows(self, variant):
        fast = _compare(
            lambda m: patterns.n_sided_trr_pattern(
                m, (VICTIM - 1, VICTIM + 1), VICTIM + 30,
                windows=2, dummy_windows=2,
            ),
            _hammer_setup((-1, 1, 30)),
            (VICTIM,),
            _prac(variant),
            rounds=16,
        )
        assert _mid_chunk_backoffs(fast["passes"]) > 0

    def test_comra_windows(self, variant):
        fast = _compare(
            lambda m: patterns.comra_trr_pattern(
                m, VICTIM, VICTIM + 30, dummy_windows=2
            ),
            _hammer_setup((-1, 1, 30)),
            (VICTIM,),
            _prac(variant),
            rounds=8,
        )
        assert fast["bank"]["comra_copies"] > 0
        assert _mid_chunk_backoffs(fast["passes"]) > 0

    def test_simra_windows(self, variant):
        module = make_module(CONFIG)
        block_base = (VICTIM // 32) * 32
        pair = patterns.simra_pair_for(module, block_base, 4)
        victim = pair.sandwiched_victims()[0]
        fast = _compare(
            lambda m: patterns.simra_trr_pattern(
                m, pair, victim + 40, dummy_windows=2
            ),
            _hammer_setup(
                tuple(r - victim for r in pair.group) + (40,), (victim,), victim
            ),
            (victim,),
            _prac(variant),
            rounds=4,
        )
        assert fast["bank"]["simra_ops"] > 0
        assert _mid_chunk_backoffs(fast["passes"]) > 0

    def test_comra_loop(self, variant):
        """A PRAC-attached ``Loop`` streams through the same horizons."""
        fast = _compare(
            lambda m: patterns.double_sided_comra(m, VICTIM, 3000),
            _hammer_setup((-1, 1)),
            (VICTIM,),
            _prac(variant),
        )
        assert fast["trr"]["acts_seen"] > 0
        assert fast["trr"]["rfms"] > 0


def test_history_shift_between_prac_passes():
    """A row that closes a period and opens the next (gap ``tRP``, below
    the fault model's flat tAggOff region) must see the unrolled gap in
    the first exact period after a scaled pass, not the clock jump."""

    def program(module):
        a = module.to_logical(VICTIM + 1)
        b = module.to_logical(VICTIM + 40)
        body = ProgramBuilder().act(0, b, 13.5).pre(0, 36.0)
        for _ in range(4):
            body = body.act(0, a, 13.5).pre(0, 36.0)
        body = body.act(0, b, 13.5).pre(0, 36.0)
        return ProgramBuilder("b-a4-b").loop(2000, body).build()

    damage = {}
    for fast in (True, False):
        module = make_module(CONFIG)
        module.attach_trr(PracHook(module, PracConfig.po_weighted()))
        host = DramBenderHost(module, interpret=not fast)
        host.run(program(module))
        damage[fast] = sum(
            module.model.damage_fraction(0, VICTIM + 41).values()
        )
    assert damage[True] > 0
    assert damage[True] == pytest.approx(damage[False], rel=1e-12)
