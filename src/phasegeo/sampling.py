"""Seeded random generators for states, observables, and gauge elements.

All sampling goes through numpy's Generator with the PCG64 bit generator:
a named, documented, seedable algorithm whose streams are reproducible for
a fixed numpy version.  Sub-streams are derived from (seed, spawn key)
pairs so independent samples stay deterministic even if evaluated out of
order or in parallel.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .bundle import DensityOperator, Spectrum, DEG_TOL_DEFAULT, _density_frame
from .linalg import _check_positive, _dagger, _eig, _hermitize, _readonly, _unchecked
from .observables import Observable

__all__ = [
    "make_rng",
    "sample_density",
    "sample_gauge_algebra",
    "sample_gauge_unitary",
    "sample_hermitian",
    "sample_spectrum",
    "sample_unitary",
]

# Spectra are resampled while any consecutive relative gap falls below
# this multiple of the degeneracy tolerance, or while the smallest
# eigenvalue falls below MIN_EIGENVALUE; both keep the orbit rank
# unambiguous under the default grouping.
GAP_SAFETY_FACTOR = 100.0
MIN_EIGENVALUE = 1e-6

# sample_spectrum raises RuntimeError when this many draws are all rejected.
MAX_SPECTRUM_DRAWS = 1000


def make_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """PCG64 generator for the given seed, optionally on a spawned sub-stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def _ginibre(n: int, m: int, rng: np.random.Generator, *count: int) -> np.ndarray:
    """n-by-m matrix of standard complex Gaussians, or ``count`` of them drawn as that many calls would."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    x = rng.standard_normal((*count, 2, n, m))
    return (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / np.sqrt(2.0)


def sample_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n-by-n unitary.

    A complex Gaussian matrix G is factored by Householder QR, G = QR, and
    each column of Q is multiplied by the phase d/|d| of the matching
    diagonal entry d of R.  The rephased factor is the unique unitary
    whose triangular partner has a real positive diagonal, which is the
    phase convention that makes it Haar distributed (Mezzadri, Notices AMS
    54 (2007), arXiv:math-ph/0609050).
    """
    return _haar(_ginibre(n, n, rng))


def _haar(g: np.ndarray) -> np.ndarray:
    """The rephased QR factor of each Ginibre matrix in a stack (..., n, n)."""
    q, r = np.linalg.qr(g)
    d = r.diagonal(axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _orbit_states(spectrum: Spectrum, u: np.ndarray) -> np.ndarray:
    """The matrices U P U† of the spectrum's orbit, for each unitary of a stack (..., n, n)."""
    d = np.zeros(u.shape[-1])
    d[: spectrum.rank] = spectrum.eigenvalues
    return _hermitize((u * d) @ _dagger(u))


def sample_density(spectrum: Spectrum, n: int, rng: np.random.Generator) -> DensityOperator:
    """Haar-random state on the orbit of the given spectrum, in dimension n."""
    k = spectrum.rank
    if k > n:
        raise ValueError(f"spectrum rank {k} exceeds dimension {n}")
    a = _orbit_states(spectrum, sample_unitary(n, rng))  # finite and exactly Hermitian, as in project
    return _unchecked(DensityOperator, _readonly(a), _density_frame(a, _eig(a)))


def sample_hermitian(n: int, rng: np.random.Generator) -> Observable:
    """Gaussian Hermitian observable (M + M†)/2 for complex Gaussian M."""
    return _unchecked(Observable, _readonly(_hermitize(_ginibre(n, n, rng))))  # finite and exactly Hermitian


def _orbit_draws(spectrum: Spectrum, n: int, rngs: Iterable[np.random.Generator]) -> tuple:
    """Stacked orbit states (S, n, n), their eigendecompositions and observable pairs (S, 2, n, n), one sample per
    generator: the values sample_density and then two sample_hermitian calls would draw, in order, under the same
    rules.  The values are finite and exactly Hermitian by construction, so only the trace and PSD rules run.
    """
    g = np.array([_ginibre(n, n, rng, 3) for rng in rngs])
    states = _orbit_states(spectrum, _haar(g[:, 0]))
    return states, _density_frame(states, _eig(states)), _hermitize(g[:, 1:])


def sample_spectrum(rank: int, rng: np.random.Generator, deg_tol: float = DEG_TOL_DEFAULT) -> tuple[Spectrum, int]:
    """Uniform simplex spectrum of the given rank, kept away from degeneracy.

    Normalized exponentials give the flat Dirichlet law on the simplex.
    Draws with a consecutive gap below GAP_SAFETY_FACTOR * deg_tol
    (relative to the top eigenvalue) or a smallest eigenvalue below
    MIN_EIGENVALUE are rejected; the second return value counts the
    rejected draws.  A deg_tol that no draw can meet raises ValueError
    before any draw.
    """
    if rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank}")
    _check_positive(deg_tol, "deg_tol")
    # The rank - 1 gaps sum to less than the top eigenvalue, so no draw meets a larger total.
    if rank > 1 and GAP_SAFETY_FACTOR * deg_tol * (rank - 1) >= 1:
        raise ValueError(f"deg_tol {deg_tol} is too large for rank {rank}: no draw has {rank - 1} such gaps")
    for resampled in range(MAX_SPECTRUM_DRAWS):
        e = np.sort(rng.standard_exponential(rank))[::-1]
        p = e / e.sum()
        if p[-1] >= MIN_EIGENVALUE and (rank == 1 or np.min(p[:-1] - p[1:]) > GAP_SAFETY_FACTOR * deg_tol * p[0]):
            return _unchecked(Spectrum, tuple(p.tolist()), (1,) * rank, deg_tol), resampled  # meets every rule
    raise RuntimeError(f"no acceptable spectrum after {MAX_SPECTRUM_DRAWS} draws")


def sample_gauge_unitary(spectrum: Spectrum, rng: np.random.Generator) -> np.ndarray:
    """Haar-random element of the gauge group: unitary blocks per multiplicity."""
    k = spectrum.rank
    u = np.zeros((k, k), dtype=np.complex128)
    for slc in spectrum.block_slices:
        u[slc, slc] = sample_unitary(slc.stop - slc.start, rng)
    return u


def sample_gauge_algebra(spectrum: Spectrum, rng: np.random.Generator) -> np.ndarray:
    """Gaussian element of the gauge algebra: anti-Hermitian blocks per multiplicity."""
    k = spectrum.rank
    xi = np.zeros((k, k), dtype=np.complex128)
    for slc in spectrum.block_slices:
        m = _ginibre(slc.stop - slc.start, slc.stop - slc.start, rng)
        xi[slc, slc] = 0.5 * (m - m.conj().T)
    return xi
