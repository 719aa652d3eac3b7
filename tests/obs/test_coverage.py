"""Trace-replay probe coverage at default scale, as a pinned number.

The batched engine's value proposition is that almost every probe
re-applies a captured trace instead of driving the command pipeline;
before obs existed that coverage was a code-reading exercise.  Now it is
a counter, so CI pins it: a planner or guard regression that silently
demotes probes to the capture (or slow, or scalar) path moves these
numbers and fails here instead of shipping as an invisible slowdown.
"""

import pytest

from repro import ExperimentScale, make_module
from repro.core import CharacterizationSession
from repro.obs import Obs

#: measured on the default-scale hynix-a-8gb rowhammer sweep; update
#: deliberately (with a note in DESIGN.md §13) when the engine changes
EXPECTED_REPLAY = 317
EXPECTED_TOTAL = 346
EXPECTED_PATHS = {
    "replay": EXPECTED_REPLAY,
    "translate": 28,
    "capture": 1,
}


@pytest.fixture(scope="module")
def sweep_obs():
    obs = Obs()
    session = CharacterizationSession(
        make_module("hynix-a-8gb"), ExperimentScale.default(), obs=obs
    )
    session.batch_probes = True
    session.measure_many_rowhammer_ds(session.candidate_victims())
    return obs


class TestProbePathCoverage:
    def test_every_probe_is_accounted_for(self, sweep_obs):
        """The path labels partition the probes exactly."""
        by_path = sweep_obs.by_label("probe.probes", "path")
        assert sum(by_path.values()) == sweep_obs.total("probe.probes")
        assert sum(by_path.values()) == EXPECTED_TOTAL

    def test_replay_coverage_is_pinned(self, sweep_obs):
        by_path = sweep_obs.by_label("probe.probes", "path")
        assert by_path == EXPECTED_PATHS
        assert sweep_obs.total("probe.probes") == EXPECTED_TOTAL

    def test_no_unknown_fallback_reasons(self, sweep_obs):
        # every probe counter is labeled by a known path and nothing else:
        # the path alone says why a probe left the replay path
        keys = [key for (n, key) in sweep_obs.counters if n == "probe.probes"]
        assert keys
        assert all([k for k, _ in key] == ["path"] for key in keys)
        by_path = sweep_obs.by_label("probe.probes", "path")
        assert set(by_path) <= {"replay", "translate", "capture", "slow"}
        # the expected split off the replay path: donor-translated traces
        # plus the single probe that lands between a snapshot bump and
        # its re-capture
        fallbacks = {p: n for p, n in by_path.items() if p != "replay"}
        assert fallbacks == {"translate": 28, "capture": 1}

    def test_unit_dispositions_cover_every_plan(self, sweep_obs):
        dispositions = sweep_obs.by_label("probe.units", "disposition")
        assert sum(dispositions.values()) == 29
        assert dispositions == {"batched": 29}

    def test_no_scalar_searches_at_default_scale(self, sweep_obs):
        assert sweep_obs.total("probe.scalar_searches") == 0
