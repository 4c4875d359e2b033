"""Dense complex linear algebra underpinning the bundle geometry.

All matrices are plain numpy arrays with complex128 entries, treated as
immutable values.  The module provides the Hilbert-Schmidt pairing, the
metric and symplectic forms built from its real and imaginary parts, and
a Hermitian eigendecomposition.  The eigendecomposition is LAPACK's
Hermitian solver (``np.linalg.eigh``) followed by a descending sort and an
explicit eigenvector phase convention, so the frames are reproducible within
one numpy/LAPACK build and one BLAS thread count.
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
    return _complex_array(m, name)


def _complex_array(m, name: str, stacked: bool = False) -> np.ndarray:
    """``as_complex_matrix``, or with ``stacked`` the same rule on a stack (..., r, c) of matrices."""
    a = np.asarray(m, dtype=np.complex128)
    if (a.ndim < 2 if stacked else a.ndim != 2) or 0 in a.shape[-2:]:
        raise ValueError(f"{name} must be 2-D with positive dimensions, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def _hermitian_matrix(m, name: str = "matrix", *, anti: bool = False, stacked: bool = False) -> np.ndarray:
    """Return ``m`` as a square complex128 array (or stack), Hermitian or anti-Hermitian within tolerance."""
    a = _complex_array(m, name, stacked)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    axis = None if a.ndim == 2 else (-2, -1)  # per slice; the whole-array norm is cheaper on one matrix
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a, axis=axis)
    # An overflowed norm would make the Hermiticity test read inf > inf.
    if np.count_nonzero(norm == np.inf):
        raise ValueError(f"{name} norm overflows; rescale its entries")
    defect = np.linalg.norm(a + _dagger(a) if anti else a - _dagger(a), axis=axis)
    # np.count_nonzero is the cheapest any() on the small arrays of one state.
    if np.count_nonzero(defect > HERMITICITY_TOL * np.maximum(norm, 1.0)):
        raise ValueError(f"{name} is not {'anti-' if anti else ''}Hermitian within tolerance")
    return a


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack (..., r, c)."""
    return a.conj().swapaxes(-1, -2)


def _hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A†)/2 of each matrix in a stack."""
    return 0.5 * (a + _dagger(a))


def _check_positive(value: float, name: str, error: type[ValueError] = ValueError) -> None:
    """The one rule for a real scale (hbar, a tolerance): reject it outside 0 < value < inf, NaN included."""
    if not 0.0 < value < np.inf:
        raise error(f"{name} must be positive and finite, got {value}")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out.setflags(write=False)
    return out


def _unchecked(cls, *values):
    """Frozen dataclass ``cls`` of ``values`` (all fields, in order) with no rule run: for values built to meet them."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values, strict=True):
        object.__setattr__(obj, name, value)
    return obj


def hs_inner(x, y) -> complex:
    """Hilbert-Schmidt Hermitian product Tr(X†Y) of two same-shape matrices."""
    xm = as_complex_matrix(x, "X")
    ym = as_complex_matrix(y, "Y")
    if xm.shape != ym.shape:
        raise ValueError(f"shape mismatch: {xm.shape} vs {ym.shape}")
    return complex(np.vdot(xm, ym))


def metric_g(x, y, hbar: float) -> float:
    """Riemannian pairing G(X,Y) = hbar*Tr(X†Y + Y†X) = 2*hbar*Re Tr(X†Y)."""
    _check_positive(hbar, "hbar")
    return 2.0 * hbar * hs_inner(x, y).real


def form_omega(x, y, hbar: float) -> float:
    """Symplectic pairing Omega(X,Y) = -i*hbar*Tr(X†Y - Y†X) = 2*hbar*Im Tr(X†Y)."""
    _check_positive(hbar, "hbar")
    return 2.0 * hbar * hs_inner(x, y).imag


@dataclass(frozen=True)
class EigenDecomposition:
    """Descending eigenvalues with matching orthonormal eigenvector columns, both read-only."""

    values: np.ndarray
    vectors: np.ndarray


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Rephase each column (in a stack too) so its first component of modulus > PHASE_FIX_TOL is real positive."""
    cols = vectors.reshape(-1, *vectors.shape[-2:]).swapaxes(-1, -2)
    mask = np.abs(cols) > PHASE_FIX_TOL
    # One fancy index picks each column's pivot; np.take_along_axis costs more on a small stack.
    at = (np.arange(len(cols))[:, None], np.arange(cols.shape[1]), mask.argmax(axis=-1))
    pivots = np.where(mask[at], cols[at], 1.0)
    # hypot rounds like scalar abs(); np.abs on complex arrays may not.
    factors = pivots.conj() / np.hypot(pivots.real, pivots.imag)
    return vectors * factors.reshape(*vectors.shape[:-2], 1, -1)


def hermitian_eig(h) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix, or each matrix of a stack (..., n, n), with LAPACK.

    Every matrix must be square and Hermitian within ``HERMITICITY_TOL`` (relative Frobenius, finite
    norm); it is symmetrized for ``np.linalg.eigh``.  Values come back in stable descending order (equal
    values keep LAPACK's order) and every eigenvector column carries the ``_fix_column_phases`` fix.
    """
    return _eig(_hermitize(_hermitian_matrix(h, stacked=True)))


def _eig(h: np.ndarray) -> EigenDecomposition:
    """``hermitian_eig`` of an exactly Hermitian matrix or stack (a ``_hermitize`` output), without its input rules."""
    values, vectors = np.linalg.eigh(h)
    n = values.shape[-1]
    order = np.argsort(-values, axis=-1, kind="stable").reshape(-1, 1, n)
    at = np.arange(len(order))[:, None, None]
    values = values.reshape(-1, n)[at[..., 0], order[:, 0]].reshape(values.shape)
    vectors = vectors.reshape(-1, n, n)[at, np.arange(n)[:, None], order].reshape(vectors.shape)
    return EigenDecomposition(_readonly(values), _readonly(_fix_column_phases(vectors)))
