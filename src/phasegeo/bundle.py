"""Purification bundle over an orbit of isospectral density operators.

A density operator rho of rank k with spectrum sigma = (p1 >= ... >= pk > 0)
lives on the unitary orbit D(sigma).  Its lifts are the n-by-k matrices Psi
with Psi† Psi = P(sigma), where P(sigma) is the diagonal matrix of the
spectrum; the bundle map sends Psi to Psi Psi†.  The gauge group is the
subgroup of U(k) commuting with P(sigma) and acts on lifts from the right
without moving the projected state.

The tangent space at a lift splits into a vertical part (along the gauge
orbit, spanned by the generators Psi*xi for xi in the gauge algebra) and a
horizontal part (its orthogonal complement under the metric G).  The
splitting is computed through the mechanical connection form, which has the
closed form

    A_Psi(X) = sum_j E_j (Psi† X) E_j P(sigma)^{-1},

with E_j the diagonal 0/1 projector onto the j-th multiplicity block.  The
connection form is the quotient of the moment map by the moment of inertia,
so moment pairings and the gauge-algebra inner product live here too.

Everything is a pure function over immutable values; lifts and spectra may
be shared freely between threads.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EigenDecomposition,
    _check_positive,
    _complex_array,
    _dagger,
    _eig,
    _hermitian_matrix,
    _hermitize,
    _readonly,
    _unchecked,
    as_complex_matrix,
    hermitian_eig,
    metric_g,
)

__all__ = [
    "DEG_TOL_DEFAULT",
    "DensityOperator",
    "GaugeAlgebraElement",
    "Lift",
    "RANK_TOL_DEFAULT",
    "Spectrum",
    "block_projectors",
    "connection_form",
    "gauge_transform",
    "inertia_inner",
    "moment_pairing",
    "project",
    "spectrum_of",
    "split",
    "standard_lift",
]

# Eigenvalues below RANK_TOL_DEFAULT * trace are treated as zero.
RANK_TOL_DEFAULT = 1e-12

# Consecutive eigenvalue gaps below DEG_TOL_DEFAULT * p1 are merged into
# one multiplicity block.  Chosen so eigensolver noise (~1e-15) never
# splits a true degeneracy while gaps above 1e-7 never merge.
DEG_TOL_DEFAULT = 1e-8

# Tangency residual thresholds for the connection form: silently accepted
# below TANGENCY_SILENT, advisory warning up to TANGENCY_ERROR, rejected
# above.  Vector fields produced by this package are tangent analytically,
# so only gross caller errors ever trip the hard limit.
TANGENCY_SILENT = 1e-9
TANGENCY_ERROR = 1e-6

_TRACE_TOL = 1e-10
_PSD_TOL = 1e-10
_LIFT_TOL = 1e-10
_GAUGE_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Grouped spectrum of a density operator: the point fixing its orbit.

    ``eigenvalues`` holds all k positive values in non-increasing order,
    with the members of a multiplicity block repeated (each block carries
    its grouped representative).  ``multiplicities`` lists the block sizes
    of the distinct values, largest value first.  Distinct values must
    differ by more than ``degeneracy_tolerance`` relative to the largest
    eigenvalue, so the block structure is unambiguous.
    """

    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]
    degeneracy_tolerance: float = DEG_TOL_DEFAULT

    def __post_init__(self):
        _check_spectra(np.array([self.eigenvalues], dtype=float), self.multiplicities, self.degeneracy_tolerance)

    @property
    def rank(self) -> int:
        """Number of retained eigenvalues k (counted with multiplicity)."""
        return len(self.eigenvalues)

    @property
    def distinct_values(self) -> tuple[float, ...]:
        """The l grouped eigenvalues, one per multiplicity block."""
        return tuple(self.eigenvalues[slc.start] for slc in self.block_slices)

    @property
    def block_slices(self) -> tuple[slice, ...]:
        """Index ranges of the multiplicity blocks inside 0..k."""
        out = []
        start = 0
        for m in self.multiplicities:
            out.append(slice(start, start + m))
            start += m
        return tuple(out)

    def p_matrix(self) -> np.ndarray:
        """The diagonal k-by-k matrix P(sigma) carrying the spectrum."""
        return np.diag(np.asarray(self.eigenvalues, dtype=np.complex128))


def _check_spectra(p: np.ndarray, multiplicities: tuple[int, ...], deg_tol: float) -> None:
    """The Spectrum rules on every row of a stack (G, k) of eigenvalues sharing one block structure."""
    _check_positive(deg_tol, "degeneracy_tolerance")
    if p.shape[-1] == 0:
        raise ValueError("spectrum must contain at least one eigenvalue")
    # min/max propagate NaN, which then fails the comparison.
    if not (p.min() > 0 and p.max() < np.inf):
        raise ValueError("spectrum eigenvalues must be finite and strictly positive")
    gaps = p[:, :-1] - p[:, 1:]
    if np.count_nonzero(gaps < 0):
        raise ValueError("spectrum eigenvalues must be non-increasing")
    if np.count_nonzero(bad := np.abs(p.sum(axis=-1) - 1.0) > _TRACE_TOL):
        raise ValueError(f"spectrum eigenvalues must sum to 1, got {sum(p[bad.argmax()].tolist())!r}")
    if any(mi < 1 or mi != int(mi) for mi in multiplicities):
        raise ValueError("multiplicities must be positive integers")
    if sum(multiplicities) != p.shape[-1]:
        raise ValueError("multiplicities must sum to the number of eigenvalues")
    if len(multiplicities) < p.shape[-1]:
        counts = [int(mi) for mi in multiplicities]
        distinct = p[:, np.cumsum([0, *counts[:-1]])]
        if (p != np.repeat(distinct, counts, axis=-1)).any():
            raise ValueError("eigenvalues within a multiplicity block must be identical")
        gaps = distinct[:, :-1] - distinct[:, 1:]
    if np.count_nonzero(gaps <= deg_tol * p[:, :1]):
        raise ValueError("distinct eigenvalues lie within the degeneracy tolerance")


def block_projectors(spectrum: Spectrum) -> tuple[np.ndarray, ...]:
    """Diagonal projectors E_j onto the multiplicity blocks, E_1 + ... + E_l = 1."""
    k = spectrum.rank
    out = []
    for slc in spectrum.block_slices:
        e = np.zeros((k, k), dtype=np.complex128)
        e[slc, slc] = np.eye(slc.stop - slc.start)
        out.append(_readonly(e))
    return tuple(out)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace matrix: a mixed state.

    ``frame`` is the eigendecomposition made once by validation; its spectrum and lifts reuse it.
    """

    matrix: np.ndarray
    frame: EigenDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = _complex_array(self.matrix, "density matrix")
        object.__setattr__(self, "frame", _density_frame(a, hermitian_eig(a)))
        object.__setattr__(self, "matrix", _readonly(a))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _density_frame(a: np.ndarray, eig: EigenDecomposition) -> EigenDecomposition:
    """The trace and PSD rules of a density matrix or stack ``a`` with eigendecomposition ``eig``; returns ``eig``."""
    tr = a.trace(axis1=-2, axis2=-1)
    if np.count_nonzero(bad := np.abs(tr - 1.0) > _TRACE_TOL):
        raise ValueError(f"density matrix trace must be 1, got {np.ravel(tr)[bad.argmax()]!r}")
    if np.count_nonzero(bad := eig.values[..., -1] < -_PSD_TOL):
        raise ValueError(f"density matrix has negative eigenvalue {np.ravel(eig.values[..., -1])[bad.argmax()]!r}")
    return eig


@dataclass(frozen=True)
class Lift:
    """A point Psi of the bundle total space, with Psi† Psi = P(sigma)."""

    psi: np.ndarray
    spectrum: Spectrum
    hbar: float = 1.0

    def __post_init__(self):
        a = _lift_array(self.psi, np.asarray(self.spectrum.eigenvalues), self.hbar)
        object.__setattr__(self, "psi", _readonly(a))

    @property
    def dim(self) -> int:
        return self.psi.shape[0]

    @property
    def rank(self) -> int:
        return self.psi.shape[1]


def _lift_array(psi, eigenvalues: np.ndarray, hbar: float, stacked: bool = False) -> np.ndarray:
    """The Lift rules on one lift, or on every slice of a stack (..., n, k) with eigenvalues (..., k)."""
    a = _complex_array(psi, "lift", stacked)
    _check_positive(hbar, "hbar")
    k = eigenvalues.shape[-1]
    if a.shape[-1] != k:
        raise ValueError(f"lift has {a.shape[-1]} columns but the spectrum has rank {k}")
    gram = _dagger(a) @ a
    if np.abs(gram - eigenvalues[..., None] * np.eye(k)).max() > _LIFT_TOL:
        raise ValueError("lift does not satisfy psi† psi = P(sigma) within tolerance")
    return a


def _standard_psi(vectors: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Psi = V sqrt(P) from eigenvector frames (..., n, n) and retained eigenvalues (..., k)."""
    return vectors[..., : p.shape[-1]] * np.sqrt(p)[..., None, :]


@dataclass(frozen=True)
class GaugeAlgebraElement:
    """Anti-Hermitian k-by-k matrix commuting with P(sigma).

    When ``spectrum`` is attached the block structure is validated; a bare
    element (spectrum None) is only checked for anti-Hermiticity, which
    covers scalar elements that commute with every P.
    """

    xi: np.ndarray
    spectrum: Spectrum | None = field(default=None, compare=False)

    def __post_init__(self):
        a = _hermitian_matrix(self.xi, "gauge algebra element", anti=True)
        if self.spectrum is not None:
            _check_block_structure(a, self.spectrum)
        object.__setattr__(self, "xi", _readonly(a))

    @property
    def rank(self) -> int:
        return self.xi.shape[0]


def _check_block_structure(xi: np.ndarray, spectrum: Spectrum) -> None:
    k = spectrum.rank
    if xi.shape != (k, k):
        raise ValueError(f"element is {xi.shape} but the spectrum has rank {k}")
    p = spectrum.p_matrix()
    if np.linalg.norm(xi @ p - p @ xi) > _GAUGE_TOL * max(np.linalg.norm(xi), 1.0):
        raise ValueError("element does not commute with P(sigma): not in the gauge algebra")


def _spectral_groups(values: np.ndarray, rank_tol: float, deg_tol: float):
    """``spectrum_of`` on each row of a stack (S, n): rows, multiplicities, eigenvalues (G, k) per structure."""
    _check_positive(rank_tol, "rank_tol")
    _check_positive(deg_tol, "deg_tol")
    n = values.shape[-1]
    kept = (values >= rank_tol * values.sum(axis=-1, keepdims=True)) & (values > 0.0)
    merged = kept[:, 1:] & (values[:, :-1] - values[:, 1:] <= deg_tol * values[:, :1])
    groups: dict[bytes, list[int]] = {}
    for row, (kept_row, merged_row) in enumerate(zip(kept.tolist(), merged.tolist())):
        groups.setdefault(bytes(kept_row + merged_row), []).append(row)
    for key, rows in groups.items():
        k = sum(key[:n])
        if k == 0:
            raise ValueError("all eigenvalues fall below the rank cut (zero operator)")
        starts = [0] + [j + 1 for j in range(k - 1) if not key[n + j]]
        multiplicities = tuple(b - a for a, b in zip(starts, starts[1:] + [k]))
        p = values.take(rows, axis=0)[:, :k]
        for a, m in zip(starts, multiplicities):
            if m > 1:  # the cluster mean, summed left to right
                p[:, a : a + m] = (sum((p[:, j] for j in range(a + 1, a + m)), p[:, a]) / m)[:, None]
        yield rows, multiplicities, p


def spectrum_of(
    rho: DensityOperator,
    rank_tol: float = RANK_TOL_DEFAULT,
    deg_tol: float = DEG_TOL_DEFAULT,
) -> Spectrum:
    """Extract the grouped positive spectrum of a density operator.

    Eigenvalues below ``rank_tol`` times the trace are dropped; survivors
    whose consecutive gaps stay within ``deg_tol`` times the largest
    eigenvalue are merged into one multiplicity block represented by the
    cluster mean.
    """
    ((_, multiplicities, p),) = _spectral_groups(rho.frame.values[None], rank_tol, deg_tol)
    return Spectrum(tuple(p[0].tolist()), multiplicities, deg_tol)


def standard_lift(
    rho: DensityOperator,
    hbar: float = 1.0,
    rank_tol: float = RANK_TOL_DEFAULT,
    deg_tol: float = DEG_TOL_DEFAULT,
) -> Lift:
    """Canonical lift Psi = V sqrt(P) from the phase-fixed eigenvector frame.

    V holds the eigenvectors of the retained eigenvalues, so the result is
    reproducible across runs and projects back onto ``rho``.
    """
    spectrum = spectrum_of(rho, rank_tol, deg_tol)
    return Lift(_standard_psi(rho.frame.vectors, np.asarray(spectrum.eigenvalues)), spectrum, hbar)


def project(psi: Lift) -> DensityOperator:
    """Bundle map: send a lift Psi to the density operator Psi Psi†."""
    a = _hermitize(psi.psi @ _dagger(psi.psi))  # finite and exactly Hermitian: only the trace and PSD rules can fail
    return _unchecked(DensityOperator, _readonly(a), _density_frame(a, _eig(a)))


def gauge_transform(psi: Lift, u) -> Lift:
    """Right gauge action Psi -> Psi U for U unitary and commuting with P(sigma)."""
    um = as_complex_matrix(u, "gauge unitary")
    k = psi.rank
    if um.shape != (k, k):
        raise ValueError(f"gauge unitary must be {k}x{k}, got {um.shape}")
    if np.linalg.norm(um.conj().T @ um - np.eye(k)) > _GAUGE_TOL * np.sqrt(k):
        raise ValueError("gauge transform requires a unitary matrix")
    p = psi.spectrum.p_matrix()
    if np.linalg.norm(um @ p - p @ um) > _GAUGE_TOL * max(np.linalg.norm(p), 1.0):
        raise ValueError("unitary does not commute with P(sigma): not in the gauge group")
    return Lift(psi.psi @ um, psi.spectrum, psi.hbar)


def connection_form(psi: Lift, x) -> GaugeAlgebraElement:
    """Mechanical connection form A_Psi(X) evaluated via the block formula.

    X must be an n-by-k tangent vector at the lift.  Tangency is measured
    by the relative size of Psi†X + X†Psi: residuals up to 1e-9 are
    accepted silently, residuals up to 1e-6 raise an advisory warning, and
    anything larger is rejected.  The surviving skew defect of the same
    magnitude is projected out so the result lies exactly in the gauge
    algebra.
    """
    xm = as_complex_matrix(x, "tangent vector")
    if xm.shape != psi.psi.shape:
        raise ValueError(f"tangent vector must be {psi.psi.shape}, got {xm.shape}")
    m = psi.psi.conj().T @ xm
    norms = np.linalg.norm(psi.psi) * np.linalg.norm(xm)
    res = float(np.linalg.norm(m + m.conj().T) / norms) if norms else 0.0  # scale-free size of Psi†X + X†Psi
    if res > TANGENCY_ERROR:
        raise ValueError(f"vector is not tangent to the bundle at this lift (residual {res:.3e})")
    if res > TANGENCY_SILENT:
        warnings.warn(
            f"tangency residual {res:.3e} exceeds {TANGENCY_SILENT:.0e}; "
            "connection form may be inaccurate",
            stacklevel=2,
        )
    k = psi.rank
    xi = np.zeros((k, k), dtype=np.complex128)
    for slc, p in zip(psi.spectrum.block_slices, psi.spectrum.distinct_values):
        xi[slc, slc] = m[slc, slc] / p
    xi = 0.5 * (xi - xi.conj().T)
    with np.errstate(over="ignore"):  # exact by construction, but m / p can overflow: the full rules report that
        if not np.linalg.norm(xi) < np.inf:
            _hermitian_matrix(xi, "gauge algebra element", anti=True)
    return _unchecked(GaugeAlgebraElement, _readonly(xi), psi.spectrum)


def split(psi: Lift, x) -> tuple[np.ndarray, np.ndarray]:
    """Vertical and horizontal projections of a tangent vector.

    The vertical part is Psi A_Psi(X); the horizontal part is the exact
    remainder, so the two always add back to X.  They are orthogonal under
    the metric G (and under Omega, by the block structure).
    """
    xm = as_complex_matrix(x, "tangent vector")
    vertical = psi.psi @ connection_form(psi, xm).xi
    return vertical, xm - vertical


def inertia_inner(
    xi: GaugeAlgebraElement,
    eta: GaugeAlgebraElement,
    spectrum: Spectrum,
    hbar: float = 1.0,
) -> float:
    """Moment-of-inertia inner product hbar * Tr((xi†eta + eta†xi) P(sigma)).

    Matches G(Psi xi, Psi eta) for every lift with this spectrum.  The hbar
    factor keeps that identity exact; see the package notes on conventions.
    """
    _check_positive(hbar, "hbar")
    for el in (xi, eta):
        if el.spectrum != spectrum:  # an element built on an equal spectrum passed this check then
            _check_block_structure(el.xi, spectrum)
    p = np.asarray(spectrum.eigenvalues)
    cols = np.sum(xi.xi.conj() * eta.xi, axis=0)
    return float(2.0 * hbar * np.sum(p * cols).real)


def moment_pairing(psi: Lift, x, xi: GaugeAlgebraElement) -> float:
    """Moment map pairing J_Psi(X) . xi = G(X, Psi xi).

    For tangent X this equals inertia_inner(connection_form(psi, X), xi),
    which is exactly the statement that the connection form is the inertia
    inverse applied to the moment map.
    """
    xm = as_complex_matrix(x, "tangent vector")
    if xm.shape != psi.psi.shape:
        raise ValueError(f"tangent vector must be {psi.psi.shape}, got {xm.shape}")
    if xi.rank != psi.rank:
        raise ValueError(f"gauge element rank {xi.rank} does not match lift rank {psi.rank}")
    return metric_g(xm, psi.psi @ xi.xi, psi.hbar)
