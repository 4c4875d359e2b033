"""Tests for variances, the two uncertainty bounds, and the pair reports."""

import math
import re

import numpy as np
import pytest

from phasegeo import uncertainty
from phasegeo.bundle import DensityOperator, inertia_inner, standard_lift
from phasegeo.observables import Observable, spin_half, xi_field, xi_perp
from phasegeo.sampling import make_rng, sample_density, sample_hermitian, sample_spectrum
from phasegeo.uncertainty import (
    RelationViolationError,
    analyze_pair,
    cauchy_schwarz_check,
    geometric_bound,
    rs_bound,
    variance,
    variance_bound_check,
)

SX, SY, SZ = spin_half(1.0)
RHO = DensityOperator(np.diag([0.75, 0.25]).astype(complex))
RHO_DEG = DensityOperator(np.diag([0.5, 0.5]).astype(complex))
IDENTITY2 = Observable(np.eye(2, dtype=complex))


def _random_case(dim, rng, rank=None):
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    spectrum, _ = sample_spectrum(rank, rng)
    rho = sample_density(spectrum, dim, rng)
    return rho, sample_hermitian(dim, rng), sample_hermitian(dim, rng)


class TestVariance:
    def test_spin_x_on_mixed_state(self):
        assert variance(SX, RHO) == pytest.approx(0.25)

    def test_eigenstate_has_zero_variance(self):
        up = DensityOperator(np.diag([1.0, 0.0]).astype(complex))
        assert variance(SZ, up) == 0.0

    def test_identity_observable(self):
        assert variance(IDENTITY2, RHO) == 0.0

    def test_matches_geometric_covariance(self):
        from phasegeo.observables import sym_covariance

        rng = make_rng(50)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            rho, a, _ = _random_case(dim, rng)
            assert variance(a, rho) == pytest.approx(
                sym_covariance(a, a, rho), rel=1e-9, abs=1e-9
            )


class TestVarianceBound:
    def test_equality_for_horizontal_field(self):
        check = variance_bound_check(SX, RHO)
        assert check.lhs == pytest.approx(0.25)
        assert check.rhs == pytest.approx(0.25, abs=1e-13)
        assert check.gap == pytest.approx(0.0, abs=1e-13)

    def test_vertical_field_gives_positive_gap(self):
        """For Sz the whole variance is gauge slack: gap = p1 p2."""
        check = variance_bound_check(SZ, RHO)
        assert check.lhs == pytest.approx(0.1875)
        assert check.rhs == pytest.approx(0.0, abs=1e-13)
        assert check.gap == pytest.approx(0.1875, abs=1e-13)

    def test_pure_state_gap_vanishes(self):
        rng = make_rng(51)
        rho, a, _ = _random_case(4, rng, rank=1)
        check = variance_bound_check(a, rho)
        assert check.gap == pytest.approx(0.0, abs=1e-10 * max(1.0, check.lhs))

    def test_gap_is_perpendicular_norm(self):
        """Slack of the variance bound equals (hbar/2)|xi_perp|^2."""
        rng = make_rng(52)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            rho, a, _ = _random_case(dim, rng)
            lift = standard_lift(rho)
            check = variance_bound_check(a, rho, lift=lift)
            perp = xi_perp(xi_field(a, lift), lift.spectrum, 1.0)
            expected = 0.5 * inertia_inner(perp, perp, lift.spectrum, 1.0)
            assert check.gap == pytest.approx(
                expected, rel=1e-9, abs=1e-9 * max(1.0, check.lhs)
            )


class TestCauchySchwarz:
    def test_spin_pair_values(self):
        check = cauchy_schwarz_check(SX, SY, RHO)
        assert check.lhs == pytest.approx(0.25, abs=1e-13)
        assert check.rhs == pytest.approx(0.0625, abs=1e-13)

    def test_equal_observables_saturate(self):
        check = cauchy_schwarz_check(SX, SX, RHO)
        assert check.lhs == pytest.approx(check.rhs, rel=1e-12, abs=1e-12)

    def test_identity_second_argument(self):
        check = cauchy_schwarz_check(SX, IDENTITY2, RHO)
        assert check.lhs == pytest.approx(0.0, abs=1e-13)
        assert check.rhs == pytest.approx(0.0, abs=1e-13)

    def test_holds_on_random_samples(self):
        rng = make_rng(53)
        for _ in range(40):
            dim = int(rng.integers(2, 6))
            rho, a, b = _random_case(dim, rng)
            check = cauchy_schwarz_check(a, b, rho)
            assert check.lhs >= check.rhs - 1e-9 * max(1.0, check.lhs)


class TestBounds:
    def test_geometric_bound_spin_pair(self):
        assert geometric_bound(SX, SY, RHO) == pytest.approx(0.125, abs=1e-13)

    def test_geometric_bound_degenerate(self):
        assert geometric_bound(SX, SY, RHO_DEG) == pytest.approx(0.0, abs=1e-13)

    def test_geometric_self_pair(self):
        from phasegeo.observables import brackets

        pair = brackets(SZ, SZ, RHO)
        assert geometric_bound(SZ, SZ, RHO) == pytest.approx(
            0.5 * abs(pair.riemann), abs=1e-13
        )

    def test_rs_bound_spin_pair(self):
        assert rs_bound(SX, SY, RHO) == pytest.approx(0.125, abs=1e-13)

    def test_rs_bound_self_pair_is_variance(self):
        rng = make_rng(54)
        rho, a, _ = _random_case(3, rng)
        assert rs_bound(a, a, rho) == pytest.approx(variance(a, rho), rel=1e-12)

    def test_rs_bound_degenerate_spin_pair(self):
        assert rs_bound(SX, SY, RHO_DEG) == pytest.approx(0.0, abs=1e-13)


class TestAnalyzePair:
    def test_spin_pair_report(self):
        rep = analyze_pair(SX, SY, RHO)
        assert rep.delta_a == pytest.approx(0.5)
        assert rep.delta_b == pytest.approx(0.5)
        assert rep.product == pytest.approx(0.25)
        assert rep.geometric_bound == pytest.approx(0.125, abs=1e-13)
        assert rep.rs_bound == pytest.approx(0.125, abs=1e-13)
        assert rep.bound_winner == "tie"

    def test_degenerate_report(self):
        rep = analyze_pair(SX, SY, RHO_DEG)
        assert rep.product == pytest.approx(0.25)
        assert rep.geometric_bound == pytest.approx(0.0, abs=1e-13)
        assert rep.rs_bound == pytest.approx(0.0, abs=1e-13)
        assert rep.bound_winner == "tie"

    def test_identity_pair_report(self):
        rep = analyze_pair(SZ, IDENTITY2, RHO)
        assert rep.product == 0.0
        assert rep.geometric_bound == pytest.approx(0.0, abs=1e-13)
        assert rep.rs_bound == pytest.approx(0.0, abs=1e-13)

    def test_report_internal_consistency(self):
        rng = make_rng(55)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            rho, a, b = _random_case(dim, rng)
            rep = analyze_pair(a, b, rho)
            assert rep.product == pytest.approx(rep.delta_a * rep.delta_b, abs=1e-12)
            assert rep.geometric_bound == pytest.approx(
                0.5 * math.hypot(rep.riemann, rep.poisson), abs=1e-12
            )
            assert rep.slack_geometric >= -1e-9
            assert rep.slack_rs >= -1e-9

    def test_scaling_is_linear(self):
        """c*A scales spread and both bounds by c."""
        rng = make_rng(56)
        rho, a, b = _random_case(4, rng)
        base = analyze_pair(a, b, rho)
        c = 3.7
        scaled = analyze_pair(Observable(c * a.matrix), b, rho)
        assert scaled.delta_a == pytest.approx(c * base.delta_a, rel=1e-10)
        assert scaled.geometric_bound == pytest.approx(c * base.geometric_bound, rel=1e-10)
        assert scaled.rs_bound == pytest.approx(c * base.rs_bound, rel=1e-10)

    def test_pure_state_bounds_coincide(self):
        rng = make_rng(57)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            rho, a, b = _random_case(dim, rng, rank=1)
            rep = analyze_pair(a, b, rho)
            assert rep.geometric_bound == pytest.approx(
                rep.rs_bound, rel=1e-9, abs=1e-9
            )


class TestTieRuleScale:
    def test_winners_do_not_depend_on_units(self):
        """Scaling both observables leaves every winner alone and makes no ties."""
        rng = make_rng(58)
        for _ in range(200):
            rho, a, b = _random_case(4, rng, rank=int(rng.integers(2, 5)))
            base = analyze_pair(a, b, rho)
            assert base.bound_winner != "tie"
            for c in (1e-5, 1e5):
                scaled = analyze_pair(Observable(c * a.matrix), Observable(c * b.matrix), rho)
                assert scaled.bound_winner == base.bound_winner


class TestTieOfTwoZeros:
    @pytest.mark.parametrize("scale", [1.0, 1e-5])
    def test_multiple_of_the_identity_always_ties(self, scale):
        """B = c 1 makes both bounds analytically 0: rounding noise picks no winner, at any units."""
        rng = make_rng(61)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            rho, a, _ = _random_case(dim, rng)
            b = Observable(scale * float(rng.standard_normal()) * np.eye(dim, dtype=complex))
            assert analyze_pair(Observable(scale * a.matrix), b, rho).bound_winner == "tie"


class TestNanGuards:
    """A NaN must fail the fault guards instead of slipping through them."""

    @pytest.fixture()
    def nan_brackets(self, monkeypatch):
        def bracket_matrix(observables, rho, hbar=1.0, *, lift=None):
            return np.full((len(observables), len(observables)), np.nan, dtype=complex)

        monkeypatch.setattr(uncertainty, "bracket_matrix", bracket_matrix)

    def test_analyze_pair_raises(self, nan_brackets):
        with pytest.raises(RelationViolationError):
            analyze_pair(SX, SY, RHO)

    def test_variance_bound_check_raises(self, nan_brackets):
        with pytest.raises(RelationViolationError):
            variance_bound_check(SX, RHO)

    def test_variance_raises(self, monkeypatch):
        monkeypatch.setattr(uncertainty, "expected_value", lambda obs, rho: math.nan)
        with pytest.raises(RelationViolationError):
            variance(SX, RHO)


def _analyze_wide_inputs():
    """The state and observables of the analyze-wide benchmark workload (seed 1)."""
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    # Read-only use of the benchmark module: no bytecode is written next to it.
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    inputs = module.make_analyze_inputs(1)
    return DensityOperator(inputs.rho), [Observable(m) for m in inputs.observables], inputs.hbar


class TestGuardsScaleWithUnits:
    """The fault guards are relative to the observables' scale, below 1 as above it."""

    SCALES = (1e-5, 1.0, 1e5, 1e8)

    @staticmethod
    def _scaled_triple(scale):
        rho, a, b = _random_case(4, make_rng(77), rank=3)
        return rho, Observable(scale * a.matrix), Observable(scale * b.matrix)

    @pytest.mark.parametrize("scale", SCALES)
    def test_planted_bound_violation_is_caught(self, monkeypatch, scale):
        rho, a, b = self._scaled_triple(scale)
        report = analyze_pair(a, b, rho)
        # Raise the geometric bound to 1e-6 (relative) above the spread product.
        factor = report.product / report.geometric_bound * (1.0 + 1e-6)
        real = uncertainty.bracket_matrix
        monkeypatch.setattr(uncertainty, "bracket_matrix", lambda *args, **kwargs: factor * real(*args, **kwargs))
        with pytest.raises(RelationViolationError, match="geometric bound"):
            analyze_pair(a, b, rho)

    @pytest.mark.parametrize("scale", SCALES)
    def test_planted_negative_variance_is_caught(self, monkeypatch, scale):
        rho, a, _ = self._scaled_triple(scale)
        second = float(np.trace(a.matrix @ a.matrix @ rho.matrix).real)
        # A mean whose square exceeds Tr(A^2 rho) by 1e-6 relative.
        mean = math.sqrt(second * (1.0 + 1e-6))
        monkeypatch.setattr(uncertainty, "expected_value", lambda obs, state: mean)
        with pytest.raises(RelationViolationError, match="variance came out negative"):
            variance(a, rho)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("dim, rank", [(2, 1), (4, 3), (6, 6), (16, 8)])
    def test_sweep_draws_raise_no_false_alarm(self, scale, dim, rank):
        spectrum, _ = sample_spectrum(rank, make_rng(3, 0))
        for index in range(30):
            rng = make_rng(3, 1, index)
            rho = sample_density(spectrum, dim, rng)
            a, b = (Observable(scale * sample_hermitian(dim, rng).matrix) for _ in range(2))
            analyze_pair(a, b, rho)
            variance_bound_check(a, rho)

    @pytest.mark.parametrize("scale", SCALES)
    def test_analyze_wide_inputs_raise_no_false_alarm(self, scale):
        rho, observables, hbar = _analyze_wide_inputs()
        reports = uncertainty.analyze_pairs([Observable(scale * obs.matrix) for obs in observables], rho, hbar)
        assert len(reports) == len(observables) * (len(observables) - 1) // 2


class TestNoFalseFaultAtLargeUnits:
    """B = c 1 makes the product and both bounds analytically 0, and their rounding grows like c ||A|| ||1||: the
    bound guards take it as rounding at any units, not as a fault."""

    @staticmethod
    def _draws():
        rng = make_rng(3)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            spectrum, _ = sample_spectrum(int(rng.integers(1, dim + 1)), rng)
            yield sample_density(spectrum, dim, rng), sample_hermitian(dim, rng)

    @pytest.mark.parametrize("c", [1e5, 1e8])
    def test_analyze_pair_raises_nothing(self, c):
        for rho, a in self._draws():
            report = analyze_pair(Observable(c * a.matrix), Observable(c * np.eye(rho.dim)), rho)
            assert report.bound_winner == "tie"

    def test_analyze_exits_0(self, tmp_path, capsys):
        import json

        from phasegeo.cli import main
        from phasegeo.io import state_to_dict

        rho, a = next(self._draws())
        mats = {"cA": 1e5 * a.matrix, "c1": 1e5 * np.eye(rho.dim)}
        observables = [{"name": k, "matrix": np.stack((m.real, m.imag), axis=-1).tolist()} for k, m in mats.items()]
        state, obs = tmp_path / "state.json", tmp_path / "obs.json"
        state.write_text(json.dumps(state_to_dict(rho)))
        obs.write_text(json.dumps({"observables": observables}))
        assert main(["analyze", "--state", str(state), "--observables", str(obs)]) == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["bound_winner"] == "tie"


class TestGuardsNameTheFirstFailingPair:
    """With four observables, a planted fault is reported with the values of the first pair it breaks."""

    HBAR = 0.7

    @pytest.fixture()
    def case(self):
        rng = make_rng(91)
        rho, _, _ = _random_case(4, rng, rank=3)
        observables = [sample_hermitian(4, rng) for _ in range(4)]
        # Pairs in row-major order: (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
        return rho, observables, uncertainty.analyze_pairs(observables, rho, self.HBAR)

    @staticmethod
    def _shrink_variance(monkeypatch, obs, factor):
        """Scale the variance of ``obs`` (told apart by its norm) and keep what the spreads are built from."""
        real = uncertainty._clamped_variance
        target = float(np.linalg.norm(obs.matrix))
        shrunk = []

        def clamped_variance(second, mean, norm):
            v = real(second, mean, norm)
            if math.isclose(norm, target, rel_tol=1e-12):
                shrunk.append(v * factor)
                return shrunk[-1]
            return v

        monkeypatch.setattr(uncertainty, "_clamped_variance", clamped_variance)
        return shrunk

    def test_inflated_bracket_names_its_pair(self, monkeypatch, case):
        rho, observables, reports = case
        pair = reports[4]
        factor = 2.0 * pair.product / pair.geometric_bound
        z = uncertainty.bracket_matrix(observables, rho, self.HBAR)[1, 3] * factor
        real = uncertainty.bracket_matrix

        def inflated(*args, **kwargs):
            z = real(*args, **kwargs).copy()
            z[1, 3] *= factor
            return z

        monkeypatch.setattr(uncertainty, "bracket_matrix", inflated)
        geo = 0.5 * self.HBAR * math.hypot(z.real, z.imag)
        message = f"geometric bound {geo!r} exceeds spread product {pair.product!r}"
        with pytest.raises(RelationViolationError, match="^" + re.escape(message) + "$"):
            uncertainty.analyze_pairs(observables, rho, self.HBAR)

    def test_pair_breaking_both_bounds_gets_the_geometric_message(self, monkeypatch, case):
        rho, observables, reports = case
        shrunk = self._shrink_variance(monkeypatch, observables[1], 1e-8)
        with pytest.raises(RelationViolationError) as err:
            uncertainty.analyze_pairs(observables, rho, self.HBAR)
        pair = reports[0]
        product = pair.delta_a * math.sqrt(shrunk[0])
        assert min(pair.geometric_bound, pair.rs_bound) > 2 * product
        assert str(err.value) == f"geometric bound {pair.geometric_bound!r} exceeds spread product {product!r}"

    def test_pair_breaking_only_rs_gets_the_rs_message(self, monkeypatch, case):
        rho, observables, reports = case
        j, pair = next((j, rep) for j, rep in zip((1, 2, 3), reports) if rep.rs_bound > 1.01 * rep.geometric_bound)
        # Put the spread product halfway between the two bounds.
        factor = (0.5 * (pair.geometric_bound + pair.rs_bound) / pair.product) ** 2
        shrunk = self._shrink_variance(monkeypatch, observables[j], factor)
        with pytest.raises(RelationViolationError) as err:
            uncertainty.analyze_pairs(observables, rho, self.HBAR)
        product = pair.delta_a * math.sqrt(shrunk[0])
        assert pair.geometric_bound < product < pair.rs_bound
        assert str(err.value) == f"Robertson-Schrodinger bound {pair.rs_bound!r} exceeds spread product {product!r}"


def _scalar_reports(mats, rho, z, hbar):
    """The pair-by-pair loop that uncertainty._report_columns replaced, kept as its reference."""
    from itertools import combinations

    from phasegeo.observables import _real_trace
    from phasegeo.uncertainty import _SLACK_TOL, _TIE_TOL, UncertaintyReport, _clamped_variance

    products = mats @ rho[:, None]
    traces = products.trace(axis1=-2, axis2=-1)
    seconds = (mats @ mats @ rho[:, None]).trace(axis1=-2, axis2=-1).real
    means = traces.real
    sigma = np.einsum("...ikl,...jlk->...ij", mats, products) - means[..., :, None] * means[..., None, :]
    norms = np.linalg.norm(mats, axis=(-2, -1))
    out = []
    for traces_s, seconds_s, norms_s, z_s, sigma_s in zip(*(x.tolist() for x in (traces, seconds, norms, z, sigma))):
        moments = zip(traces_s, seconds_s, norms_s)
        spreads = [math.sqrt(_clamped_variance(second, _real_trace(t), norm)) for t, second, norm in moments]
        out.append([])
        for i, j in combinations(range(len(spreads)), 2):
            product = spreads[i] * spreads[j]
            bracket = z_s[i][j]
            geo = 0.5 * hbar * math.hypot(bracket.real, bracket.imag)
            rs = math.hypot(sigma_s[i][j].real, sigma_s[i][j].imag)
            scale = max(product, geo, rs, min(1.0, norms_s[i] * norms_s[j]))
            assert product - geo >= -_SLACK_TOL * scale and product - rs >= -_SLACK_TOL * scale
            winner = "geometric" if geo > rs else "robertson_schrodinger"
            if abs(geo - rs) <= _TIE_TOL * max(product, geo, rs, norms_s[i] * norms_s[j]):
                winner = "tie"
            fields = (spreads[i], spreads[j], product, bracket.real, bracket.imag, geo, rs, product - geo, product - rs)
            out[-1].append(UncertaintyReport(*fields, winner))
    return out


@pytest.mark.parametrize(
    "states, count, dim, rank",
    [(1, 2, 4, 3), (1, 7, 3, 2), (5, 2, 4, 3), (3, 5, 5, 5), (4, 3, 3, 1), (2, 0, 2, 1), (1, 48, 4, 3), (40, 4, 3, 2)],
)
def test_columnar_reports_equal_the_scalar_loop_bit_for_bit(states, count, dim, rank):
    from dataclasses import astuple

    rng = make_rng(404, states, count)
    spectrum, _ = sample_spectrum(rank, rng)
    rhos = [sample_density(spectrum, dim, rng) for _ in range(states)]
    observables = [[sample_hermitian(dim, rng) for _ in range(count)] for _ in range(states)]
    mats = np.array([[a.matrix for a in row] for row in observables]).reshape(states, count, dim, dim)
    rho = np.array([r.matrix for r in rhos])
    z = np.array([uncertainty.bracket_matrix(row, r, 0.8) for row, r in zip(observables, rhos)])
    spreads, (a, b), columns = uncertainty._report_columns(mats, rho, z.reshape(states, count, count), 0.8)
    got = [*zip(map(spreads.__getitem__, a), map(spreads.__getitem__, b), *columns)]
    want = _scalar_reports(mats, rho, z.reshape(states, count, count), 0.8)
    assert [*map(repr, got)] == [repr(astuple(r)) for row in want for r in row]
