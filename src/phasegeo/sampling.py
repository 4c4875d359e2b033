"""Seeded random generators for states, observables, and gauge elements.

All sampling goes through numpy's Generator with the PCG64 bit generator:
a named, documented, seedable algorithm whose streams are reproducible for
a fixed numpy version.  Sub-streams are derived from (seed, spawn key)
pairs so independent samples stay deterministic even if evaluated out of
order or in parallel.
"""

from __future__ import annotations

import numpy as np

from .bundle import DensityOperator, Spectrum, DEG_TOL_DEFAULT
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


def make_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """PCG64 generator for the given seed, optionally on a spawned sub-stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def _ginibre(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """n-by-m matrix of independent standard complex Gaussians."""
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def sample_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random n-by-n unitary.

    A complex Gaussian matrix G is factored by Householder QR, G = QR, and
    each column of Q is multiplied by the phase d/|d| of the matching
    diagonal entry d of R.  The rephased factor is the unique unitary
    whose triangular partner has a real positive diagonal, which is the
    phase convention that makes it Haar distributed (Mezzadri, Notices AMS
    54 (2007), arXiv:math-ph/0609050).
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    q, r = np.linalg.qr(_ginibre(n, n, rng))
    d = r.diagonal()
    return q * (d / np.abs(d))


def sample_density(spectrum: Spectrum, n: int, rng: np.random.Generator) -> DensityOperator:
    """Haar-random state on the orbit of the given spectrum, in dimension n."""
    k = spectrum.rank
    if k > n:
        raise ValueError(f"spectrum rank {k} exceeds dimension {n}")
    u = sample_unitary(n, rng)
    d = np.zeros(n)
    d[:k] = spectrum.eigenvalues
    m = (u * d) @ u.conj().T
    return DensityOperator(0.5 * (m + m.conj().T))


def sample_hermitian(n: int, rng: np.random.Generator) -> Observable:
    """Gaussian Hermitian observable (M + M†)/2 for complex Gaussian M."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    m = _ginibre(n, n, rng)
    return Observable(0.5 * (m + m.conj().T))


def sample_spectrum(
    rank: int,
    rng: np.random.Generator,
    deg_tol: float = DEG_TOL_DEFAULT,
    max_tries: int = 1000,
) -> tuple[Spectrum, int]:
    """Uniform simplex spectrum of the given rank, kept away from degeneracy.

    Normalized exponentials give the flat Dirichlet law on the simplex.
    Draws with a consecutive gap below GAP_SAFETY_FACTOR * deg_tol
    (relative to the top eigenvalue) or a smallest eigenvalue below
    MIN_EIGENVALUE are rejected; the second return value counts the
    rejected draws.
    """
    if rank < 1:
        raise ValueError(f"rank must be a positive integer, got {rank}")
    resampled = 0
    for _ in range(max_tries):
        e = np.sort(rng.standard_exponential(rank))[::-1]
        p = e / e.sum()
        if p[-1] < MIN_EIGENVALUE:
            resampled += 1
            continue
        if rank > 1 and np.min(p[:-1] - p[1:]) <= GAP_SAFETY_FACTOR * deg_tol * p[0]:
            resampled += 1
            continue
        return Spectrum(tuple(float(v) for v in p), (1,) * rank, deg_tol), resampled
    raise RuntimeError(f"no acceptable spectrum after {max_tries} draws")


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
