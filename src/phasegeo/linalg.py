"""Dense complex linear algebra underpinning the bundle geometry.

All matrices are plain numpy arrays with complex128 entries, treated as
immutable values.  The module provides the Hilbert-Schmidt pairing, the
metric and symplectic forms built from its real and imaginary parts, and
a Hermitian eigendecomposition.  The eigendecomposition is LAPACK's
Hermitian solver (``np.linalg.eigh``) followed by a descending sort and an
explicit eigenvector phase convention, so the computed frames are
reproducible from run to run within one numpy/LAPACK build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "anticommutator",
    "as_complex_matrix",
    "commutator",
    "form_omega",
    "hermitian_eig",
    "hs_inner",
    "metric_g",
]

# Relative Hermiticity tolerance accepted by hermitian_eig.
HERMITICITY_TOL = 1e-12

# Smallest column modulus considered significant by the phase fix.
PHASE_FIX_TOL = 1e-12


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Return ``m`` as a 2-D complex128 array, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be 2-D with positive dimensions, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def _require_same_shape(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")


def _require_square_pair(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != a.shape[1] or a.shape != b.shape:
        raise ValueError(f"operands must be square and of equal dimension, got {a.shape} and {b.shape}")


def hs_inner(x, y) -> complex:
    """Hilbert-Schmidt Hermitian product Tr(X†Y) of two same-shape matrices."""
    xm = as_complex_matrix(x, "X")
    ym = as_complex_matrix(y, "Y")
    _require_same_shape(xm, ym)
    return complex(np.vdot(xm, ym))


def metric_g(x, y, hbar: float) -> float:
    """Riemannian pairing G(X,Y) = hbar*Tr(X†Y + Y†X) = 2*hbar*Re Tr(X†Y)."""
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    return 2.0 * hbar * hs_inner(x, y).real


def form_omega(x, y, hbar: float) -> float:
    """Symplectic pairing Omega(X,Y) = -i*hbar*Tr(X†Y - Y†X) = 2*hbar*Im Tr(X†Y)."""
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    return 2.0 * hbar * hs_inner(x, y).imag


def commutator(a, b) -> np.ndarray:
    """AB - BA for square matrices of equal dimension."""
    am = as_complex_matrix(a, "A")
    bm = as_complex_matrix(b, "B")
    _require_square_pair(am, bm)
    return am @ bm - bm @ am


def anticommutator(a, b) -> np.ndarray:
    """AB + BA for square matrices of equal dimension."""
    am = as_complex_matrix(a, "A")
    bm = as_complex_matrix(b, "B")
    _require_square_pair(am, bm)
    return am @ bm + bm @ am


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order with matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Rephase each column so its first component of modulus > PHASE_FIX_TOL is real positive."""
    mask = np.abs(vectors) > PHASE_FIX_TOL
    significant = mask.any(axis=0)
    pivots = vectors[mask.argmax(axis=0), np.arange(vectors.shape[1])][significant]
    factors = np.ones(vectors.shape[1], dtype=np.complex128)
    # hypot rounds like scalar abs(); np.abs on complex arrays may not.
    factors[significant] = pivots.conj() / np.hypot(pivots.real, pivots.imag)
    return vectors * factors


def hermitian_eig(h) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix with LAPACK's Hermitian solver.

    The input is symmetrized before it is handed to ``np.linalg.eigh``, so
    Hermiticity violations up to ``HERMITICITY_TOL`` (relative Frobenius)
    are tolerated; anything larger is rejected.  On return the values are
    sorted in descending order (stable, so exactly equal values keep the
    order in which LAPACK returned them) and every eigenvector column
    carries the deterministic phase fix from ``_fix_column_phases``.
    """
    hm = as_complex_matrix(h, "H")
    n = hm.shape[0]
    if hm.shape[1] != n:
        raise ValueError(f"eigendecomposition needs a square matrix, got shape {hm.shape}")

    norm = np.linalg.norm(hm)
    if np.linalg.norm(hm - hm.conj().T) > HERMITICITY_TOL * max(norm, 1.0):
        raise ValueError("matrix is not Hermitian within tolerance")

    values, vectors = np.linalg.eigh(0.5 * (hm + hm.conj().T))
    order = np.argsort(-values, kind="stable")
    return EigenDecomposition(values[order], _fix_column_phases(vectors[:, order]))
