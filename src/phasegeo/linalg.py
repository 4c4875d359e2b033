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
    "as_complex_matrix",
    "form_omega",
    "hermitian_eig",
    "hs_inner",
    "metric_g",
]

# Relative Frobenius tolerance of every Hermitian or anti-Hermitian input.
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


def _hermitian_matrix(m, name: str = "matrix", *, anti: bool = False) -> np.ndarray:
    """Return ``m`` as a square complex128 array, Hermitian (or anti-Hermitian) within tolerance."""
    a = as_complex_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a)
    # An overflowed norm would make the Hermiticity test read inf > inf.
    if not np.isfinite(norm):
        raise ValueError(f"{name} norm overflows; rescale its entries")
    sign = -1.0 if anti else 1.0
    if np.linalg.norm(a - sign * a.conj().T) > HERMITICITY_TOL * max(norm, 1.0):
        raise ValueError(f"{name} is not {'anti-' if anti else ''}Hermitian within tolerance")
    return a


def _check_hbar(hbar: float) -> None:
    """Reject an action scale outside 0 < hbar < inf, NaN included."""
    if not 0.0 < hbar < np.inf:
        raise ValueError(f"hbar must be positive and finite, got {hbar}")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out.setflags(write=False)
    return out


def _require_same_shape(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")


def hs_inner(x, y) -> complex:
    """Hilbert-Schmidt Hermitian product Tr(X†Y) of two same-shape matrices."""
    xm = as_complex_matrix(x, "X")
    ym = as_complex_matrix(y, "Y")
    _require_same_shape(xm, ym)
    return complex(np.vdot(xm, ym))


def metric_g(x, y, hbar: float) -> float:
    """Riemannian pairing G(X,Y) = hbar*Tr(X†Y + Y†X) = 2*hbar*Re Tr(X†Y)."""
    _check_hbar(hbar)
    return 2.0 * hbar * hs_inner(x, y).real


def form_omega(x, y, hbar: float) -> float:
    """Symplectic pairing Omega(X,Y) = -i*hbar*Tr(X†Y - Y†X) = 2*hbar*Im Tr(X†Y)."""
    _check_hbar(hbar)
    return 2.0 * hbar * hs_inner(x, y).imag


@dataclass(frozen=True)
class EigenDecomposition:
    """Descending eigenvalues with matching orthonormal eigenvector columns, both read-only."""

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

    The input must be square and Hermitian within ``HERMITICITY_TOL`` (relative
    Frobenius, finite norm); it is symmetrized for ``np.linalg.eigh``.  Values
    come back in stable descending order (exactly equal values keep LAPACK's
    order) and every eigenvector column carries the ``_fix_column_phases`` fix.
    """
    hm = _hermitian_matrix(h)
    values, vectors = np.linalg.eigh(0.5 * (hm + hm.conj().T))
    order = np.argsort(-values, kind="stable")
    return EigenDecomposition(_readonly(values[order]), _readonly(_fix_column_phases(vectors[:, order])))
