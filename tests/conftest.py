"""Shared fixtures.

Module-scoped fixtures cache expensive simulated chips; tests that mutate
chip state build their own modules instead.
"""

import pytest

from repro import ExperimentScale, make_module, run_experiment
from repro.core.session import CharacterizationSession


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Point the campaign artifact store away from the user's real cache.

    Tests still exercise real store reads/writes; they just never touch
    (or get polluted by) ``~/.cache/repro``.
    """
    import os

    cache_dir = tmp_path_factory.mktemp("repro-cache")
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    yield cache_dir
    if previous is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = previous


@pytest.fixture(scope="session")
def small_scale():
    return ExperimentScale.small()


@pytest.fixture(scope="session")
def small_result():
    """Small-scale experiment results, each computed at most once per run."""
    cache = {}

    def get(experiment_id):
        if experiment_id not in cache:
            cache[experiment_id] = run_experiment(
                experiment_id, ExperimentScale.small()
            )
        return cache[experiment_id]

    return get


@pytest.fixture()
def hynix_module():
    """A fresh SK Hynix 8Gb A-die module (SiMRA-capable, TRR-calibrated)."""
    return make_module("hynix-a-8gb")


@pytest.fixture()
def samsung_module():
    """A fresh Samsung module (no SiMRA)."""
    return make_module("samsung-b-16gb")


@pytest.fixture()
def hynix_session(hynix_module, small_scale):
    return CharacterizationSession(hynix_module, small_scale)
