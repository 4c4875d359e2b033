"""Tests for the invariant battery's sample loop and its aggregation."""

import math
import re

import numpy as np
import pytest

from phasegeo import verify
from phasegeo.cli import main
from phasegeo.observables import BracketPair
from phasegeo.sampling import make_rng

BRACKET_CHECKS = {
    "bracket_gauge_invariance",
    "bracket_pythagoras",
    "pure_state_kibble",
    "degenerate_verticality",
}


@pytest.fixture()
def nan_brackets(monkeypatch):
    monkeypatch.setattr(
        verify, "brackets_at_lift", lambda a, b, lift: BracketPair(math.nan, math.nan)
    )


def test_nan_residual_fails_its_check(nan_brackets):
    results = verify.run_battery(4, 8, 1)
    assert len(results) == 25
    failed = {r.name for r in results if not r.passed}
    assert failed == BRACKET_CHECKS
    for r in results:
        if r.name in BRACKET_CHECKS:
            assert math.isnan(r.worst_residual)


def test_nan_residual_fails_verify_command(nan_brackets, capsys):
    assert main(["verify", "--dim", "4", "--samples", "8", "--seed", "1"]) == 3
    out = capsys.readouterr().out
    assert re.search(r"^FAIL  bracket_pythagoras +worst_residual=nan  ", out, re.M)
    assert "21/25 invariants passed" in out


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_every_check_yields_finite_residuals(dim):
    # A check that yields nothing would pass without checking anything.
    for index, (name, _, check) in enumerate(verify.CHECKS):
        rng = make_rng(0, index)
        for _ in range(2):
            residuals = list(check(dim, rng, 1.0))
            assert residuals, name
            assert np.isfinite(residuals).all(), name


def test_negative_zero_residual_reports_as_zero():
    # At dim 2 a pure state makes the RS slack exactly 0, and np.max over
    # [0.0, -0.0, negatives] returns -0.0; the report must read +0.0.
    result = {r.name: r for r in verify.run_battery(2, 1, 12)}["uncertainty_slacks"]
    assert result.worst_residual == 0.0
    assert math.copysign(1.0, result.worst_residual) == 1.0


def test_covariance_identity_checks_production_rs_against_reference(monkeypatch):
    # A reference RS bound that disagrees with analyze_pair's must fail
    # covariance_identity and nothing else.
    reference = verify.rs_bound
    monkeypatch.setattr(verify, "rs_bound", lambda a, b, rho: 1.01 * reference(a, b, rho))
    failed = {r.name for r in verify.run_battery(4, 8, 1) if not r.passed}
    assert failed == {"covariance_identity"}


@pytest.mark.parametrize("hbar", [0.5, 2.3])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_battery_passes_away_from_unit_hbar(dim, hbar):
    results = verify.run_battery(dim, 4, dim, hbar)
    assert len(results) == 25
    assert [r.name for r in results if not r.passed] == []
