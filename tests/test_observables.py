"""Tests for expectation functions, Hamiltonian fields, brackets, and xi-fields."""

import numpy as np
import pytest

from phasegeo.bundle import (
    DensityOperator,
    GaugeAlgebraElement,
    gauge_transform,
    inertia_inner,
    standard_lift,
)
from phasegeo.linalg import form_omega, metric_g
from phasegeo.observables import (
    Observable,
    brackets,
    brackets_at_lift,
    chi_element,
    expected_value,
    ham_field,
    spin_half,
    sym_covariance,
    xi_field,
    xi_perp,
)
from phasegeo.sampling import (
    make_rng,
    sample_density,
    sample_gauge_unitary,
    sample_hermitian,
    sample_spectrum,
)

SX, SY, SZ = spin_half(1.0)
RHO = DensityOperator(np.diag([0.75, 0.25]).astype(complex))
RHO_DEG = DensityOperator(np.diag([0.5, 0.5]).astype(complex))
IDENTITY2 = Observable(np.eye(2, dtype=complex))


def _trace_covariance(a, b, rho):
    sym = 0.5 * np.trace(
        (a.matrix @ b.matrix + b.matrix @ a.matrix) @ rho.matrix
    ).real
    return sym - expected_value(a, rho) * expected_value(b, rho)


def _random_mixed(dim, rng, hbar=1.0):
    spectrum, _ = sample_spectrum(int(rng.integers(1, dim + 1)), rng)
    rho = sample_density(spectrum, dim, rng)
    return rho, standard_lift(rho, hbar)


class TestObservableType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            Observable(np.ones((2, 3)))

    def test_rejects_overflowing_norm(self):
        # The Frobenius norm overflows to inf, so the Hermiticity test alone
        # would read inf > inf and accept this non-Hermitian matrix.
        with pytest.raises(ValueError, match="norm overflows"):
            Observable(1e160 * np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestExpectedValue:
    def test_sz_on_diagonal_state(self):
        assert expected_value(SZ, RHO) == pytest.approx(0.25)

    def test_off_diagonal_observable(self):
        assert expected_value(SX, RHO) == 0.0

    def test_identity_has_unit_expectation(self):
        assert expected_value(IDENTITY2, RHO) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            expected_value(Observable(np.eye(3)), RHO)


class TestHamField:
    def test_spin_x_matches_closed_form(self):
        lift = standard_lift(RHO)
        expected = (1 / 2j) * np.array([[0, 0.5], [np.sqrt(0.75), 0]])
        np.testing.assert_allclose(ham_field(SX, lift), expected, atol=1e-15)

    def test_spin_y_matches_closed_form(self):
        lift = standard_lift(RHO)
        expected = 0.5 * np.array([[0, -0.5], [np.sqrt(0.75), 0]])
        np.testing.assert_allclose(ham_field(SY, lift), expected, atol=1e-15)

    def test_identity_gives_vertical_field(self):
        lift = standard_lift(RHO)
        field = ham_field(IDENTITY2, lift)
        np.testing.assert_allclose(field, lift.psi / 1j, atol=1e-15)
        xi = xi_field(IDENTITY2, lift)
        np.testing.assert_allclose(xi.xi, -1j * np.eye(2), atol=1e-14)


class TestBrackets:
    def test_spin_pair_at_mixed_state(self):
        pair = brackets(SX, SY, RHO)
        assert pair.riemann == pytest.approx(0.0, abs=1e-14)
        assert pair.poisson == pytest.approx(0.25, abs=1e-14)

    def test_self_bracket_riemann(self):
        pair = brackets(SX, SX, RHO)
        assert pair.riemann == pytest.approx(0.5, abs=1e-14)
        assert pair.poisson == pytest.approx(0.0, abs=1e-14)

    def test_degenerate_state_kills_both(self):
        pair = brackets(SX, SY, RHO_DEG)
        assert pair.riemann == pytest.approx(0.0, abs=1e-14)
        assert pair.poisson == pytest.approx(0.0, abs=1e-14)

    def test_gauge_invariance(self):
        """50 random gauge moves leave both brackets unchanged to 1e-9."""
        rng = make_rng(31)
        rho, lift = _random_mixed(4, rng)
        a, b = sample_hermitian(4, rng), sample_hermitian(4, rng)
        ref = brackets_at_lift(a, b, lift)
        scale = max(1.0, abs(ref.riemann), abs(ref.poisson))
        for _ in range(50):
            moved = gauge_transform(lift, sample_gauge_unitary(lift.spectrum, rng))
            pair = brackets_at_lift(a, b, moved)
            assert abs(pair.riemann - ref.riemann) < 1e-9 * scale
            assert abs(pair.poisson - ref.poisson) < 1e-9 * scale

    def test_explicit_lift_must_match_state(self):
        lift = standard_lift(RHO)
        with pytest.raises(ValueError, match="project"):
            brackets(SX, SY, RHO_DEG, lift=lift)

    def test_hbar_must_match_lift(self):
        lift = standard_lift(RHO, hbar=2.0)
        with pytest.raises(ValueError, match="hbar"):
            brackets(SX, SY, RHO, hbar=1.0, lift=lift)


class TestXiField:
    def test_horizontal_field_has_zero_xi(self):
        lift = standard_lift(RHO)
        assert np.abs(xi_field(SX, lift).xi).max() < 1e-14

    def test_spin_z_hand_value(self):
        lift = standard_lift(RHO)
        np.testing.assert_allclose(
            xi_field(SZ, lift).xi, (1 / 2j) * np.diag([1.0, -1.0]), atol=1e-14
        )

    def test_identity_observable_any_lift(self):
        rng = make_rng(33)
        for _ in range(5):
            _, lift = _random_mixed(int(rng.integers(2, 6)), rng)
            xi = xi_field(Observable(np.eye(lift.dim)), lift)
            np.testing.assert_allclose(xi.xi, -1j * np.eye(lift.rank), atol=1e-12)


class TestChiElement:
    def test_scalar_value(self):
        chi = chi_element(1, 1.0)
        np.testing.assert_allclose(chi.xi, [[-1j / np.sqrt(2)]])

    def test_shape_and_antihermiticity(self):
        chi = chi_element(3, 2.0)
        assert chi.xi.shape == (3, 3)
        np.testing.assert_allclose(chi.xi, -chi.xi.conj().T)

    def test_pairing_recovers_expectation(self):
        """sqrt(hbar/2) * (chi . xi_A) = Tr(A rho) for random observables."""
        rng = make_rng(34)
        for hbar in (1.0, 0.5):
            rho, lift = _random_mixed(3, rng, hbar)
            chi = chi_element(lift.rank, hbar)
            for _ in range(5):
                a = sample_hermitian(3, rng)
                lhs = np.sqrt(hbar / 2) * inertia_inner(
                    chi, xi_field(a, lift), lift.spectrum, hbar
                )
                assert lhs == pytest.approx(expected_value(a, rho), rel=1e-10, abs=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chi_element(0, 1.0)
        with pytest.raises(ValueError):
            chi_element(2, -1.0)


class TestXiPerp:
    def test_chi_projects_to_zero(self):
        spectrum = standard_lift(RHO).spectrum
        chi = chi_element(2, 1.0)
        assert np.abs(xi_perp(chi, spectrum, 1.0).xi).max() < 1e-14

    def test_orthogonal_element_unchanged(self):
        spectrum = standard_lift(RHO).spectrum
        # Traceless against P: hbar*2*Re Tr(chi† xi P) = 0 for this xi.
        xi = GaugeAlgebraElement(1j * np.diag([0.25, -0.75]), spectrum)
        chi = chi_element(2, 1.0)
        assert inertia_inner(chi, xi, spectrum, 1.0) == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(xi_perp(xi, spectrum, 1.0).xi, xi.xi, atol=1e-14)

    def test_spin_z_hand_value(self):
        """xi_Sz_perp = (1/i) diag(p2, -p1), squared inertia norm 2 p1 p2."""
        lift = standard_lift(RHO)
        perp = xi_perp(xi_field(SZ, lift), lift.spectrum, 1.0)
        np.testing.assert_allclose(perp.xi, -1j * np.diag([0.25, -0.75]), atol=1e-14)
        norm2 = inertia_inner(perp, perp, lift.spectrum, 1.0)
        assert norm2 == pytest.approx(2 * 0.75 * 0.25, abs=1e-13)

    def test_result_is_chi_orthogonal(self):
        rng = make_rng(35)
        for _ in range(10):
            _, lift = _random_mixed(int(rng.integers(2, 6)), rng)
            a = sample_hermitian(lift.dim, rng)
            perp = xi_perp(xi_field(a, lift), lift.spectrum, 1.0)
            chi = chi_element(lift.rank, 1.0)
            assert abs(inertia_inner(chi, perp, lift.spectrum, 1.0)) < 1e-12


class TestSymCovariance:
    def test_spin_x_variance(self):
        assert sym_covariance(SX, SX, RHO) == pytest.approx(0.25, abs=1e-13)

    def test_spin_x_spin_y_uncorrelated(self):
        assert sym_covariance(SX, SY, RHO) == pytest.approx(0.0, abs=1e-13)

    def test_constant_observable_gives_zero(self):
        assert sym_covariance(SZ, IDENTITY2, RHO) == pytest.approx(0.0, abs=1e-13)

    def test_matches_trace_oracle_on_random_states(self):
        rng = make_rng(36)
        for _ in range(30):
            dim = int(rng.integers(2, 6))
            rho, lift = _random_mixed(dim, rng, hbar=0.7)
            a, b = sample_hermitian(dim, rng), sample_hermitian(dim, rng)
            geo = sym_covariance(a, b, rho, 0.7, lift=lift)
            oracle = _trace_covariance(a, b, rho)
            assert geo == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_continuous_across_degeneracy(self):
        """(Sx,Sx) covariance stays 1/4 when the fields turn vertical."""
        assert sym_covariance(SX, SX, RHO_DEG) == pytest.approx(0.25, abs=1e-13)


class TestStructuralIdentities:
    def test_metric_pythagoras(self):
        """Total metric pairing = horizontal bracket + gauge-algebra pairing."""
        rng = make_rng(37)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            rho, lift = _random_mixed(dim, rng)
            a, b = sample_hermitian(dim, rng), sample_hermitian(dim, rng)
            total = metric_g(ham_field(a, lift), ham_field(b, lift), 1.0)
            pair = brackets_at_lift(a, b, lift)
            vert = inertia_inner(xi_field(a, lift), xi_field(b, lift), lift.spectrum, 1.0)
            assert total == pytest.approx(pair.riemann + vert, rel=1e-9, abs=1e-9)

    def test_symplectic_pythagoras(self):
        rng = make_rng(38)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            rho, lift = _random_mixed(dim, rng)
            a, b = sample_hermitian(dim, rng), sample_hermitian(dim, rng)
            total = form_omega(ham_field(a, lift), ham_field(b, lift), 1.0)
            pair = brackets_at_lift(a, b, lift)
            xa, xb = xi_field(a, lift), xi_field(b, lift)
            vert = form_omega(lift.psi @ xa.xi, lift.psi @ xb.xi, 1.0)
            assert total == pytest.approx(pair.poisson + vert, rel=1e-9, abs=1e-9)

    def test_total_forms_match_traces(self):
        """G and Omega of the full fields reduce to symmetrized/commutator traces."""
        rng = make_rng(39)
        hbar = 1.3
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            rho, lift = _random_mixed(dim, rng, hbar)
            a, b = sample_hermitian(dim, rng), sample_hermitian(dim, rng)
            xa, xb = ham_field(a, lift), ham_field(b, lift)
            sym = np.trace((a.matrix @ b.matrix + b.matrix @ a.matrix) @ rho.matrix).real
            assert metric_g(xa, xb, hbar) == pytest.approx(sym / hbar, rel=1e-10, abs=1e-10)
            comm = (-1j * np.trace((a.matrix @ b.matrix - b.matrix @ a.matrix) @ rho.matrix)).real
            assert form_omega(xa, xb, hbar) == pytest.approx(comm / hbar, rel=1e-10, abs=1e-10)

    def test_pure_state_has_no_perpendicular_part(self):
        """Rank-1 gauge algebra is spanned by chi, so xi_perp vanishes."""
        rng = make_rng(41)
        for _ in range(10):
            dim = int(rng.integers(2, 6))
            spectrum, _ = sample_spectrum(1, rng)
            rho = sample_density(spectrum, dim, rng)
            lift = standard_lift(rho)
            a = sample_hermitian(dim, rng)
            perp = xi_perp(xi_field(a, lift), lift.spectrum, 1.0)
            assert np.abs(perp.xi).max() < 1e-12
            pair = brackets_at_lift(a, a, lift)
            assert sym_covariance(a, a, rho, lift=lift) == pytest.approx(
                0.5 * pair.riemann, rel=1e-10, abs=1e-10
            )
