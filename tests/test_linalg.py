"""Tests for the dense complex core: pairings, forms, and the eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from phasegeo.bundle import DensityOperator, project, standard_lift
from phasegeo.linalg import (
    PHASE_FIX_TOL,
    _fix_column_phases,
    anticommutator,
    commutator,
    form_omega,
    hermitian_eig,
    hs_inner,
    metric_g,
)
from phasegeo.sampling import make_rng, sample_unitary

from helpers import eig_bisection, random_hermitian_matrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _complex_matrices(n):
    finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    reals = arrays(np.float64, (n, n), elements=finite)
    return st.tuples(reals, reals).map(lambda ab: ab[0] + 1j * ab[1])


class TestHsInner:
    def test_identity_trace(self):
        assert hs_inner(np.eye(2), np.eye(2)) == 2 + 0j

    def test_pauli_orthogonality(self):
        assert hs_inner(SX, SY) == 0j

    def test_hand_expanded_value(self):
        """Tr(sx† (i sx)) = i Tr(sx^2) = 2i."""
        assert hs_inner(SX, 1j * SX) == pytest.approx(2j)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            hs_inner(np.eye(2), np.eye(3))

    def test_nonfinite_rejected(self):
        bad = np.array([[np.nan, 0], [0, 1]])
        with pytest.raises(ValueError, match="NaN or Inf"):
            hs_inner(bad, np.eye(2))


class TestMetricAndForm:
    def test_zero_vector(self):
        assert metric_g(np.zeros((2, 2)), SY, 1.0) == 0.0

    def test_spin_x_field_norm(self):
        """2*hbar*Tr(X†X) = 2*(p1+p2)/4 for the spin-x field at the diagonal lift."""
        p1, p2 = 0.75, 0.25
        x = (1 / 2j) * np.array([[0, np.sqrt(p2)], [np.sqrt(p1), 0]])
        assert metric_g(x, x, 1.0) == pytest.approx(0.5, abs=1e-14)

    def test_pauli_orthogonality(self):
        assert metric_g(SX, SY, 1.0) == 0.0

    def test_omega_antisymmetric_on_self(self):
        x = SX + 2j * SZ
        assert form_omega(x, x, 1.0) == 0.0

    def test_omega_hand_value(self):
        assert form_omega(SX, 1j * SX, 1.0) == pytest.approx(4.0)

    def test_spin_fields_omega(self):
        """Poisson pairing of the two spin fields is (hbar/2)(p1 - p2)."""
        p1, p2 = 0.75, 0.25
        x = (1 / 2j) * np.array([[0, np.sqrt(p2)], [np.sqrt(p1), 0]])
        y = 0.5 * np.array([[0, -np.sqrt(p2)], [np.sqrt(p1), 0]])
        assert form_omega(x, y, 1.0) == pytest.approx(0.25, abs=1e-14)

    def test_hbar_must_be_positive(self):
        with pytest.raises(ValueError, match="hbar"):
            metric_g(SX, SX, 0.0)

    @given(x=_complex_matrices(3), y=_complex_matrices(3))
    @settings(max_examples=100, deadline=None)
    def test_polar_identity(self, x, y):
        """G^2 + Omega^2 recovers 4 hbar^2 |<X,Y>|^2 for any pair."""
        hbar = 0.5
        lhs = metric_g(x, y, hbar) ** 2 + form_omega(x, y, hbar) ** 2
        rhs = 4.0 * hbar**2 * abs(hs_inner(x, y)) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(x=_complex_matrices(2), y=_complex_matrices(2))
    @settings(max_examples=50, deadline=None)
    def test_metric_symmetric_form_antisymmetric(self, x, y):
        assert metric_g(x, y, 1.0) == pytest.approx(metric_g(y, x, 1.0), rel=1e-12, abs=1e-12)
        assert form_omega(x, y, 1.0) == pytest.approx(-form_omega(y, x, 1.0), rel=1e-12, abs=1e-12)

    def test_real_bilinearity(self):
        x, y, z = SX, SY + 1j * SZ, SZ
        a, b = 2.5, -1.75
        got = metric_g(a * x + b * z, y, 1.0)
        assert got == pytest.approx(a * metric_g(x, y, 1.0) + b * metric_g(z, y, 1.0), rel=1e-12)


class TestCommutators:
    def test_pauli_commutator(self):
        np.testing.assert_allclose(commutator(SX, SY), 2j * SZ)

    def test_pauli_anticommutator(self):
        np.testing.assert_allclose(anticommutator(SX, SY), np.zeros((2, 2)))

    def test_self_commutator_vanishes(self):
        a = random_hermitian_matrix(4, np.random.default_rng(3))
        np.testing.assert_allclose(commutator(a, a), np.zeros((4, 4)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            commutator(np.eye(2), np.eye(3))
        with pytest.raises(ValueError):
            anticommutator(np.ones((2, 3)), np.ones((2, 3)))


class TestHermitianEig:
    def test_diagonal_matrix(self):
        eig = hermitian_eig(SZ)
        np.testing.assert_allclose(eig.values, [1.0, -1.0])
        np.testing.assert_allclose(eig.vectors, np.eye(2))

    def test_pauli_x_eigenvectors(self):
        eig = hermitian_eig(SX)
        np.testing.assert_allclose(eig.values, [1.0, -1.0], atol=1e-15)
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(eig.vectors, expected, atol=1e-15)

    def test_matches_bisection_oracle(self):
        """Random 4x4 eigenvalues agree with the root-counting bisection."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            h = random_hermitian_matrix(4, rng)
            eig = hermitian_eig(h)
            oracle = eig_bisection(h)[::-1]
            np.testing.assert_allclose(eig.values, oracle, atol=1e-9)

    def test_trace_and_moment_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            h = random_hermitian_matrix(n, rng)
            eig = hermitian_eig(h)
            assert eig.values.sum() == pytest.approx(np.trace(h).real, rel=1e-10, abs=1e-10)
            assert (eig.values**2).sum() == pytest.approx(
                np.linalg.norm(h) ** 2, rel=1e-10
            )

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            h = random_hermitian_matrix(n, rng)
            eig = hermitian_eig(h)
            gram = eig.vectors.conj().T @ eig.vectors
            assert np.abs(gram - np.eye(n)).max() < 1e-12
            rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
            assert np.linalg.norm(h - rebuilt) <= 1e-10 * np.linalg.norm(h)

    def test_offdiagonal_residual_after_completion(self):
        rng = np.random.default_rng(13)
        h = random_hermitian_matrix(8, rng)
        eig = hermitian_eig(h)
        res = eig.vectors.conj().T @ h @ eig.vectors
        np.fill_diagonal(res, 0.0)
        assert np.linalg.norm(res) <= 1e-13 * np.linalg.norm(h)

    def test_phase_convention(self):
        """First significant component of every eigenvector is real positive."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            h = random_hermitian_matrix(5, rng)
            eig = hermitian_eig(h)
            for j in range(5):
                col = eig.vectors[:, j]
                lead = col[np.abs(col) > PHASE_FIX_TOL][0]
                assert lead.imag == pytest.approx(0.0, abs=1e-13)
                assert lead.real > 0

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(30)
        h = random_hermitian_matrix(6, rng)
        first = hermitian_eig(h)
        second = hermitian_eig(h.copy())
        assert (first.values == second.values).all()
        assert (first.vectors == second.vectors).all()

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_zero_matrix(self):
        eig = hermitian_eig(np.zeros((3, 3)))
        np.testing.assert_allclose(eig.values, np.zeros(3))
        np.testing.assert_allclose(eig.vectors, np.eye(3))


def _fix_column_phases_loop(vectors):
    """Column-by-column form of the phase fix, kept as the reference."""
    v = vectors.copy()
    for j in range(v.shape[1]):
        col = v[:, j]
        sig = np.nonzero(np.abs(col) > PHASE_FIX_TOL)[0]
        if sig.size:
            pivot = col[sig[0]]
            v[:, j] = col * (pivot.conjugate() / abs(pivot))
    return v


class TestHermitianEigAtScale:
    """The dimensions the sweep benchmarks reach, beyond the dim-8 cases above."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_frame_properties(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            h = random_hermitian_matrix(n, rng)
            eig = hermitian_eig(h)
            v = eig.vectors
            assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-12
            rebuilt = (v * eig.values) @ v.conj().T
            assert np.linalg.norm(h - rebuilt) <= 1e-12 * np.linalg.norm(h)
            assert (np.diff(eig.values) <= 0.0).all()
            for j in range(n):
                lead = v[np.abs(v[:, j]) > PHASE_FIX_TOL, j][0]
                assert lead.imag == pytest.approx(0.0, abs=1e-13)
                assert lead.real > 0

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_degenerate_state_lift_projects_back(self, n):
        """U diag(0.4, 0.4, 0.2, 0, ...) U† has a doubled eigenvalue and a rank cut."""
        u = sample_unitary(n, make_rng(200 + n))
        d = np.zeros(n)
        d[:3] = (0.4, 0.4, 0.2)
        m = (u * d) @ u.conj().T
        rho = DensityOperator(0.5 * (m + m.conj().T))
        lift = standard_lift(rho)
        assert lift.spectrum.multiplicities == (2, 1)
        np.testing.assert_allclose(lift.spectrum.eigenvalues, (0.4, 0.4, 0.2), atol=1e-12)
        assert np.abs(project(lift).matrix - rho.matrix).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 32])
    def test_phase_fix_matches_column_loop(self, n):
        """Equal to the per-column loop, bit for bit, including a zero first row."""
        rng = np.random.default_rng(300 + n)
        v = np.linalg.eigh(random_hermitian_matrix(n, rng))[1]
        v[0, :] = 0.0
        v[: n // 2, 1] = PHASE_FIX_TOL / 10
        v[:, -1] = 0.0
        got = _fix_column_phases(v)
        assert got.tobytes() == _fix_column_phases_loop(v).tobytes()
        assert (got[:, -1] == 0.0).all()
