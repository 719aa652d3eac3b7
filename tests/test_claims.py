"""The paper-claims table (``repro.claims``) and ``repro verify``."""

import pytest

from repro import claims
from repro.__main__ import main
from repro.claims import CLAIMS, Claim, evaluate
from repro.experiments import EXPERIMENTS, ExperimentResult


@pytest.mark.parametrize(
    "claim", [c for c in CLAIMS if c.small is not None], ids=lambda c: c.id
)
def test_claim_holds_at_small_scale(claim, small_result):
    results = {e: small_result(e) for e in claim.experiments}
    verdict = evaluate(claim, results, "small")
    assert verdict.status == "PASS", (verdict.measured, str(verdict.band))


class TestTable:
    def test_ids_unique(self):
        ids = [c.id for c in CLAIMS]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
    def test_claim_well_formed(self, claim):
        assert claim.id.startswith(claim.experiment + ".")
        assert set(claim.experiments) <= set(EXPERIMENTS)
        assert claim.paper
        assert claim.small is not None or claim.default is not None
        for band in (claim.small, claim.default):
            if band is not None:
                assert band.lo <= band.hi
        assert claim.reduce in (None, "min", "max", "sum")

    def test_paper_scale_reuses_default(self):
        for claim in CLAIMS:
            assert claim.band("paper") is claim.default


class TestEvaluate:
    def test_missing_key_fails(self):
        claim = Claim("fig99.x", "paper", "fig99", "x", small=claims.above(1.0))
        result = ExperimentResult("fig99", "synthetic", checks={"y": 2.0})
        verdict = evaluate(claim, {"fig99": result}, "small")
        assert verdict.status == "MISSING" and verdict.failed

    def test_glob_matching_nothing_is_missing(self):
        claim = Claim("fig99.x", "paper", "fig99", "x_*", reduce="min",
                      small=claims.above(1.0))
        result = ExperimentResult("fig99", "synthetic", checks={"y_1": 2.0})
        assert evaluate(claim, {"fig99": result}, "small").status == "MISSING"

    def test_missing_other_experiment_is_missing(self):
        claim = Claim("fig99.x", "paper", "fig99", "x", minus=("fig98", "x"),
                      small=claims.above(0.0))
        result = ExperimentResult("fig99", "synthetic", checks={"x": 2.0})
        assert evaluate(claim, {"fig99": result}, "small").status == "MISSING"

    def test_glob_reduce_and_difference(self):
        result = ExperimentResult(
            "fig99", "synthetic", checks={"a_1": 3.0, "a_2": 5.0, "b": 1.0}
        )
        results = {"fig99": result}
        for reduce, expected in (("min", 3.0), ("max", 5.0), ("sum", 8.0)):
            claim = Claim("fig99.a", "p", "fig99", "a_*", reduce=reduce,
                          small=claims.exactly(expected))
            assert evaluate(claim, results, "small").status == "PASS"
        claim = Claim("fig99.d", "p", "fig99", "a_1", minus=("fig99", "b"),
                      small=claims.exactly(2.0))
        assert evaluate(claim, results, "small").measured == 2.0

    def test_open_bounds_are_strict(self):
        assert not claims.above(1.0).contains(1.0)
        assert claims.at_least(1.0).contains(1.0)
        assert not claims.below(1.0).contains(1.0)
        assert claims.at_most(1.0).contains(1.0)
        band = claims.near(10.0, rel=0.1)
        assert band.lo == pytest.approx(9.0) and band.hi == pytest.approx(11.0)
        assert not (band.lo_open or band.hi_open)

    def test_no_band_at_scale_is_not_a_failure(self):
        claim = Claim("fig99.x", "paper", "fig99", "x", default=claims.above(1.0))
        verdict = evaluate(claim, {}, "small")
        assert verdict.status == "-" and not verdict.failed


def _verdicts(out):
    """Claim id -> verdict column of ``repro verify``'s table."""
    return {
        line.split()[0]: line.split()[-1]
        for line in out.splitlines()
        if line.startswith(("table1.", "fig"))
    }


class TestVerifyCommand:
    def test_passing_subset_exits_zero(self, tmp_path, capsys):
        store = ["--output", str(tmp_path / "store")]
        assert main(["verify", "table1", "--scale", "small", *store]) == 0
        assert _verdicts(capsys.readouterr().out) == {
            "table1.total_chips": "PASS", "table1.total_modules": "PASS",
        }

    def test_violated_band_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(claims, "CLAIMS", (
            Claim("table1.total_chips", "Table 1: 316 chips", "table1",
                  "total_chips", small=claims.exactly(317)),
        ))
        store = ["--output", str(tmp_path / "store")]
        assert main(["verify", "--scale", "small", *store]) == 1
        out = capsys.readouterr().out
        assert _verdicts(out) == {"table1.total_chips": "FAIL"}
        assert "316" in out and "== 317" in out

    def test_renamed_key_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(claims, "CLAIMS", (
            Claim("table1.chips", "Table 1: 316 chips", "table1",
                  "chips_total", small=claims.exactly(316)),
        ))
        store = ["--output", str(tmp_path / "store")]
        assert main(["verify", "--scale", "small", *store]) == 1
        assert _verdicts(capsys.readouterr().out) == {"table1.chips": "MISSING"}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "fig99"])
