"""Tests for the seeded samplers: Haar unitaries, orbit states, spectra."""

import numpy as np
import pytest

from phasegeo.bundle import Spectrum, spectrum_of
from phasegeo.sampling import (
    MIN_EIGENVALUE,
    _ginibre,
    make_rng,
    sample_density,
    sample_gauge_algebra,
    sample_gauge_unitary,
    sample_hermitian,
    sample_spectrum,
    sample_unitary,
)


def _gram_schmidt(g):
    """Modified Gram-Schmidt with one refinement pass, the Q of G = QR with R > 0 on the diagonal."""
    q = g.copy()
    n = q.shape[1]
    for _ in range(2):
        for j in range(n):
            col = q[:, j]
            for i in range(j):
                col -= np.vdot(q[:, i], col) * q[:, i]
            col /= np.linalg.norm(col)
        if np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-12:
            break
    return q


class TestSampleUnitary:
    def test_scalar_case_has_unit_modulus(self):
        u = sample_unitary(1, make_rng(1))
        assert abs(u[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_unitarity_across_dimensions(self):
        rng = make_rng(2)
        for n in range(2, 9):
            u = sample_unitary(n, rng)
            assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-10

    def test_haar_second_moment(self):
        """E|U_11|^2 = 1/n for Haar measure; 10^4 draws at n=4."""
        rng = make_rng(3)
        total = sum(abs(sample_unitary(4, rng)[0, 0]) ** 2 for _ in range(10_000))
        assert total / 10_000 == pytest.approx(0.25, abs=0.02)

    def test_seeded_reproducibility(self):
        u1 = sample_unitary(5, make_rng(77))
        u2 = sample_unitary(5, make_rng(77))
        assert (u1 == u2).all()

    def test_matches_gram_schmidt_reference(self):
        """Same Ginibre draw, same factor as modified Gram-Schmidt, for n = 2..64."""
        for n in range(2, 65):
            u = sample_unitary(n, make_rng(500, n))
            q = _gram_schmidt(_ginibre(n, n, make_rng(500, n)))
            assert np.abs(u - q).max() < 1e-12, n
            assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12, n


class TestSampleDensity:
    def test_rank_one_is_pure(self):
        spectrum = Spectrum((1.0,), (1,))
        rho = sample_density(spectrum, 2, make_rng(4))
        evals = np.linalg.eigvalsh(rho.matrix)
        assert evals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_isospectral_to_requested_spectrum(self):
        spectrum = Spectrum((0.75, 0.25), (1, 1))
        rho = sample_density(spectrum, 2, make_rng(5))
        got = spectrum_of(rho)
        assert got.eigenvalues == pytest.approx((0.75, 0.25), abs=1e-12)

    def test_rank_deficient_recovery(self):
        spectrum = Spectrum((0.5, 0.3, 0.2), (1, 1, 1))
        rho = sample_density(spectrum, 4, make_rng(6))
        got = spectrum_of(rho)
        assert got.rank == 3
        np.testing.assert_allclose(got.eigenvalues, (0.5, 0.3, 0.2), atol=1e-9)

    def test_rank_cannot_exceed_dimension(self):
        spectrum = Spectrum((0.5, 0.3, 0.2), (1, 1, 1))
        with pytest.raises(ValueError, match="exceeds dimension"):
            sample_density(spectrum, 2, make_rng(7))


class TestSampleHermitian:
    def test_exactly_hermitian(self):
        rng = make_rng(8)
        for _ in range(20):
            h = sample_hermitian(4, rng).matrix
            assert np.abs(h - h.conj().T).max() == 0.0

    def test_real_eigenvalues(self):
        rng = make_rng(9)
        for _ in range(100):
            evals = np.linalg.eigvals(sample_hermitian(3, rng).matrix)
            assert np.abs(evals.imag).max() < 1e-12

    def test_trace_statistics(self):
        """Trace is N(0, n/2); the mean of 10^4 draws stays within 10 sigma."""
        rng = make_rng(10)
        n = 3
        traces = [np.trace(sample_hermitian(n, rng).matrix).real for _ in range(10_000)]
        assert abs(np.mean(traces)) < 0.05 * np.sqrt(2 * n)


class TestSampleSpectrum:
    def test_simplex_normalization(self):
        rng = make_rng(11)
        for rank in range(1, 7):
            spectrum, _ = sample_spectrum(rank, rng)
            assert sum(spectrum.eigenvalues) == pytest.approx(1.0, abs=1e-12)
            assert spectrum.multiplicities == (1,) * rank

    def test_gap_and_floor_guarantees(self):
        rng = make_rng(12)
        for _ in range(200):
            spectrum, _ = sample_spectrum(4, rng)
            p = np.array(spectrum.eigenvalues)
            assert p[-1] >= MIN_EIGENVALUE
            assert np.min(p[:-1] - p[1:]) > 100 * spectrum.degeneracy_tolerance * p[0]

    def test_resampling_is_counted(self):
        rng = make_rng(13)
        total_resampled = 0
        for _ in range(50):
            _, resampled = sample_spectrum(5, rng, deg_tol=1e-4)
            total_resampled += resampled
        assert total_resampled > 0

    def test_deterministic_for_fixed_seed(self):
        s1, _ = sample_spectrum(3, make_rng(14))
        s2, _ = sample_spectrum(3, make_rng(14))
        assert s1.eigenvalues == s2.eigenvalues


class TestGaugeSamplers:
    def test_unitary_block_structure(self):
        spectrum = Spectrum((0.4, 0.4, 0.2), (2, 1))
        rng = make_rng(15)
        u = sample_gauge_unitary(spectrum, rng)
        p = spectrum.p_matrix()
        assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12
        assert np.abs(u @ p - p @ u).max() < 1e-12
        assert u[0, 2] == 0 and u[2, 0] == 0

    def test_algebra_block_structure(self):
        spectrum = Spectrum((0.4, 0.4, 0.2), (2, 1))
        xi = sample_gauge_algebra(spectrum, make_rng(16))
        p = spectrum.p_matrix()
        assert np.abs(xi + xi.conj().T).max() < 1e-15
        assert np.abs(xi @ p - p @ xi).max() < 1e-15

    def test_substreams_are_independent_and_stable(self):
        a = make_rng(21, 0, 3).standard_normal(4)
        b = make_rng(21, 0, 4).standard_normal(4)
        assert (a != b).any()
        assert (make_rng(21, 0, 3).standard_normal(4) == a).all()
