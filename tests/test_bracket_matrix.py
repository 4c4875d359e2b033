"""Tests for the bracket matrix against the connection-form reference route."""

import math

import numpy as np
import pytest

from phasegeo import bundle, uncertainty
from phasegeo.bundle import DensityOperator, split, standard_lift
from phasegeo.linalg import form_omega, metric_g
from phasegeo.observables import Observable, bracket_matrix, ham_field
from phasegeo.sampling import make_rng, sample_hermitian, sample_unitary
from phasegeo.uncertainty import (
    analyze_pair,
    analyze_pairs,
    cauchy_schwarz_check,
    rs_bound,
    variance,
)

# Spectra on the degeneracy strata, zeros padding up to the dimension.
STRATA = {
    "multiplicities_2_1": (0.4, 0.4, 0.2),
    "multiplicities_1_2_3_rank_cut": (0.28, 0.15, 0.15, 0.14, 0.14, 0.14, 0.0, 0.0),
    "maximally_mixed": (0.25, 0.25, 0.25, 0.25),
    "rank_1": (1.0, 0.0, 0.0),
}
HBARS = (0.5, 1.0, 2.3)
OBSERVABLES = 5


def _rotated_state(diag, rng):
    u = sample_unitary(len(diag), rng)
    m = (u * np.asarray(diag)) @ u.conj().T
    return DensityOperator(0.5 * (m + m.conj().T))


def _split_route(observables, lift):
    """{A_i,A_j}_g + i {A_i,A_j}_omega from the split horizontal parts."""
    hor = [split(lift, ham_field(obs, lift))[1] for obs in observables]
    return np.array(
        [[metric_g(x, y, lift.hbar) + 1j * form_omega(x, y, lift.hbar) for y in hor] for x in hor]
    )


def _case(name, hbar):
    rng = make_rng(60, list(STRATA).index(name), HBARS.index(hbar))
    diag = STRATA[name]
    rho = _rotated_state(diag, rng)
    return rho, [sample_hermitian(len(diag), rng) for _ in range(OBSERVABLES)]


def _reference_report(obs_a, obs_b, rho, hbar, bracket):
    """Report fields built from a split-route bracket, spreads and rs_bound."""
    da = math.sqrt(variance(obs_a, rho))
    db = math.sqrt(variance(obs_b, rho))
    product = da * db
    geo = 0.5 * hbar * abs(bracket)
    rs = rs_bound(obs_a, obs_b, rho)
    if abs(geo - rs) <= 1e-10 * max(product, geo, rs):
        winner = "tie"
    else:
        winner = "geometric" if geo > rs else "robertson_schrodinger"
    return {
        "delta_a": da,
        "delta_b": db,
        "product": product,
        "riemann": bracket.real,
        "poisson": bracket.imag,
        "geometric_bound": geo,
        "rs_bound": rs,
        "slack_geometric": product - geo,
        "slack_rs": product - rs,
        "bound_winner": winner,
    }


def _assert_same_report(rep, ref):
    scale = max(abs(v) for v in ref.values() if isinstance(v, float))
    for key, value in ref.items():
        if isinstance(value, str):
            assert getattr(rep, key) == value, key
        else:
            assert getattr(rep, key) == pytest.approx(value, rel=1e-12, abs=1e-12 * scale), key


@pytest.mark.parametrize("hbar", HBARS)
@pytest.mark.parametrize("name", sorted(STRATA))
class TestDegenerateStrata:
    def test_matches_split_route(self, name, hbar):
        rho, observables = _case(name, hbar)
        lift = standard_lift(rho, hbar)
        z = bracket_matrix(observables, rho, hbar)
        ref = _split_route(observables, lift)
        assert z.shape == (OBSERVABLES, OBSERVABLES)
        assert np.abs(z - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        assert np.abs(z - z.conj().T).max() <= 1e-12 * max(1.0, np.abs(z).max())

    def test_strata_have_expected_blocks(self, name, hbar):
        rho, _ = _case(name, hbar)
        spectrum = standard_lift(rho, hbar).spectrum
        expected = {
            "multiplicities_2_1": (2, 1),
            "multiplicities_1_2_3_rank_cut": (1, 2, 3),
            "maximally_mixed": (4,),
            "rank_1": (1,),
        }[name]
        assert spectrum.multiplicities == expected

    def test_analyze_pairs_match_split_route_reports(self, name, hbar):
        rho, observables = _case(name, hbar)
        reports = analyze_pairs(observables, rho, hbar)
        pairs = [(i, j) for i in range(OBSERVABLES) for j in range(i + 1, OBSERVABLES)]
        assert len(reports) == len(pairs)
        ref_z = _split_route(observables, standard_lift(rho, hbar))
        for rep, (i, j) in zip(reports, pairs):
            ref = _reference_report(observables[i], observables[j], rho, hbar, ref_z[i, j])
            _assert_same_report(rep, ref)

    def test_analyze_pair_is_the_matching_analyze_pairs_report(self, name, hbar):
        rho, observables = _case(name, hbar)
        reports = analyze_pairs(observables, rho, hbar)
        pairs = [(i, j) for i in range(OBSERVABLES) for j in range(i + 1, OBSERVABLES)]
        for rep, (i, j) in zip(reports, pairs):
            _assert_same_report(rep, vars(analyze_pair(observables[i], observables[j], rho, hbar)))


def test_maximally_mixed_brackets_vanish():
    rho, observables = _case("maximally_mixed", 1.0)
    assert np.abs(bracket_matrix(observables, rho)).max() <= 1e-12


def test_explicit_lift_matches_standard_lift():
    rho, observables = _case("multiplicities_2_1", 1.0)
    lift = standard_lift(rho)
    np.testing.assert_array_equal(bracket_matrix(observables, rho, lift=lift), bracket_matrix(observables, rho))


def test_dimension_mismatch_is_rejected():
    rho, observables = _case("multiplicities_2_1", 1.0)
    with pytest.raises(ValueError, match="dimension"):
        bracket_matrix(observables + [Observable(np.eye(4))], rho)


def test_fewer_than_two_observables():
    rho, observables = _case("multiplicities_2_1", 1.0)
    assert bracket_matrix([], rho).shape == (0, 0)
    assert analyze_pairs(observables[:1], rho) == []


class TestOneEigendecompositionPerCall:
    @pytest.fixture()
    def eig_calls(self, monkeypatch):
        calls = []
        real = bundle.hermitian_eig

        def counting(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(bundle, "hermitian_eig", counting)
        return calls

    def test_cauchy_schwarz_check(self, eig_calls):
        rho, (a, b, *_) = _case("multiplicities_2_1", 1.0)
        cauchy_schwarz_check(a, b, rho)
        assert len(eig_calls) == 1

    def test_analyze_pair(self, eig_calls):
        rho, (a, b, *_) = _case("multiplicities_2_1", 1.0)
        analyze_pair(a, b, rho)
        assert len(eig_calls) == 1

    def test_analyze_pairs(self, eig_calls):
        rho, observables = _case("multiplicities_1_2_3_rank_cut", 1.0)
        analyze_pairs(observables, rho)
        assert len(eig_calls) == 1


class TestOneCovarianceMatrixPerCall:
    @pytest.fixture()
    def trace_calls(self, monkeypatch):
        calls = {"rs_bound": 0, "expected_value": 0}
        for name in calls:
            real = getattr(uncertainty, name)

            def counting(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(uncertainty, name, counting)
        return calls

    def test_analyze_pairs(self, trace_calls):
        rho, observables = _case("multiplicities_1_2_3_rank_cut", 1.0)
        analyze_pairs(observables, rho)
        assert trace_calls["rs_bound"] == 0
        assert trace_calls["expected_value"] <= 2 * OBSERVABLES
