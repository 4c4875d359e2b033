"""Expectation functions, Hamiltonian fields, and brackets on the orbit.

An observable A on the Hilbert space induces the expected-value function
A(rho) = Tr(A rho) on the orbit and the gauge-invariant vector field
X_A(Psi) = A Psi / (i hbar) on the bundle.  Pushing the horizontal parts of
two such fields through the metric and the symplectic form yields the
Riemannian and Poisson brackets of the expectation functions; the vertical
parts live in the gauge algebra as the xi-fields extracted by the
connection form.

Observables carry the units of the physical quantity; the brackets then
carry units of [A]*[B]/hbar (the report layer reinstates the hbar/2 where
the covariance identity needs it).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bundle import (
    DensityOperator,
    GaugeAlgebraElement,
    Lift,
    Spectrum,
    connection_form,
    inertia_inner,
    standard_lift,
)
from .linalg import _check_positive, _dagger, _hermitian_matrix, _readonly, _unchecked

__all__ = [
    "BracketPair",
    "Observable",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "bracket_matrix",
    "brackets",
    "brackets_at_lift",
    "chi_element",
    "expected_value",
    "ham_field",
    "spin_half",
    "sym_covariance",
    "xi_field",
    "xi_perp",
]

_IMAG_TOL = 1e-10

# Absolute: bounds the largest entry of Psi Psi† - rho for a supplied lift.
_LIFT_PROJECTION_TOL = 1e-8

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix representing a physical quantity."""

    matrix: np.ndarray

    def __post_init__(self):
        a = _hermitian_matrix(self.matrix, "observable")
        object.__setattr__(self, "matrix", _readonly(a))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def spin_half(hbar: float = 1.0) -> tuple[Observable, Observable, Observable]:
    """The spin-1/2 components (hbar/2 times the Pauli matrices)."""
    h = 0.5 * hbar
    return (
        Observable(h * PAULI_X),
        Observable(h * PAULI_Y),
        Observable(h * PAULI_Z),
    )


@dataclass(frozen=True)
class BracketPair:
    """Riemannian and Poisson brackets of two expectation functions at one state."""

    riemann: float
    poisson: float


def _require_dim(obs: Observable, dim: int) -> None:
    if obs.dim != dim:
        raise ValueError(f"observable dimension {obs.dim} does not match state dimension {dim}")


def _stack(observables: Sequence[Observable], dim: int) -> np.ndarray:
    """The observables' matrices as one (N, dim, dim) array, each checked against ``dim``."""
    for obs in observables:
        _require_dim(obs, dim)
    return np.array([obs.matrix for obs in observables]).reshape(-1, dim, dim)


def _real_trace(t: complex) -> float:
    """The real part of an expectation trace Tr(A rho); its imaginary residue must be negligible."""
    if abs(t.imag) > _IMAG_TOL * max(1.0, abs(t)):
        raise ArithmeticError(f"expectation has non-real residue {t.imag!r}")
    return t.real


def expected_value(obs: Observable, rho: DensityOperator) -> float:
    """Expectation Tr(A rho); the imaginary residue must be negligible."""
    _require_dim(obs, rho.dim)
    return _real_trace(complex(np.trace(obs.matrix @ rho.matrix)))


def ham_field(obs: Observable, psi: Lift) -> np.ndarray:
    """Gauge-invariant Hamiltonian field A Psi / (i hbar) at the given lift."""
    _require_dim(obs, psi.dim)
    return obs.matrix @ psi.psi / (1j * psi.hbar)


@functools.lru_cache
def _same_block(multiplicities: tuple[int, ...]) -> np.ndarray:
    """The (k, k) mask of index pairs in one multiplicity block."""
    block = np.repeat(np.arange(len(multiplicities)), multiplicities)
    return _readonly(block[:, None] == block)


def _bracket_kernel(mats: np.ndarray, psi: np.ndarray, eigenvalues, multiplicities, hbar: float) -> np.ndarray:
    """Z_ij = {A_i,A_j}_g + i {A_i,A_j}_omega at one lift, or at each lift of a stack.

    Observables ``mats`` (..., N, n, n), lifts ``psi`` (..., n, k), spectra ``eigenvalues`` (..., k).
    i hbar times the horizontal part of X_A is A Psi - Psi xi, with xi the
    block-diagonal part of Psi† A Psi over the block eigenvalue; Z is 2/hbar
    times the Gram matrix of these (see the README for the closed form).
    """
    n, k = psi.shape[-2:]
    psi = psi[..., None, :, :]
    b = mats @ psi
    c = _dagger(psi) @ b
    inv_p = _same_block(tuple(multiplicities)) / np.asarray(eigenvalues)[..., None, None, :]
    h = (b - psi @ (c * inv_p)).reshape(*b.shape[:-2], n * k)
    return (2.0 / hbar) * (h.conj() @ h.swapaxes(-1, -2))


def _brackets_at(mats: np.ndarray, psi: Lift) -> np.ndarray:
    return _bracket_kernel(mats, psi.psi, psi.spectrum.eigenvalues, psi.spectrum.multiplicities, psi.hbar)


def brackets_at_lift(obs_a: Observable, obs_b: Observable, psi: Lift) -> BracketPair:
    """Brackets evaluated through an explicit lift.

    The value is independent of which lift of the state is supplied (gauge
    invariance); ``brackets`` uses the standard lift unless one is passed.
    """
    z = complex(_brackets_at(_stack((obs_a, obs_b), psi.dim), psi)[0, 1])
    return BracketPair(riemann=z.real, poisson=z.imag)


def _resolve_lift(rho: DensityOperator, hbar: float, lift: Lift | None) -> Lift:
    if lift is None:
        return standard_lift(rho, hbar)
    if lift.hbar != hbar:
        raise ValueError(f"provided lift carries hbar={lift.hbar}, expected {hbar}")
    if lift.dim != rho.dim:
        raise ValueError(f"lift dimension {lift.dim} does not match state dimension {rho.dim}")
    m = lift.psi @ lift.psi.conj().T
    if np.abs(m - rho.matrix).max() > _LIFT_PROJECTION_TOL:
        raise ValueError("provided lift does not project onto the given state")
    return lift


def bracket_matrix(
    observables: Sequence[Observable],
    rho: DensityOperator,
    hbar: float = 1.0,
    *,
    lift: Lift | None = None,
) -> np.ndarray:
    """Complex N-by-N matrix of {A_i,A_j}_g + i {A_i,A_j}_omega at a state.

    The real part is symmetric and the imaginary part antisymmetric.  The
    lift of ``rho`` (standard unless one is passed in) is resolved once.
    """
    psi = _resolve_lift(rho, hbar, lift)
    return _brackets_at(_stack(observables, psi.dim), psi)


def brackets(
    obs_a: Observable,
    obs_b: Observable,
    rho: DensityOperator,
    hbar: float = 1.0,
    *,
    lift: Lift | None = None,
) -> BracketPair:
    """Riemannian and Poisson brackets of two observables at a state.

    Both are computed from the horizontal parts of the Hamiltonian fields
    at a lift of ``rho`` (the standard lift unless one is passed in).
    """
    return brackets_at_lift(obs_a, obs_b, _resolve_lift(rho, hbar, lift))


def xi_field(obs: Observable, psi: Lift) -> GaugeAlgebraElement:
    """Gauge-algebra component of the Hamiltonian field, A_Psi(X_A)."""
    return connection_form(psi, ham_field(obs, psi))


def chi_element(k: int, hbar: float = 1.0) -> GaugeAlgebraElement:
    """The distinguished unit element chi = 1_k / (i sqrt(2 hbar)).

    chi has unit norm under the inertia inner product for every unit-trace
    spectrum, and pairing against it recovers expectation values.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    _check_positive(hbar, "hbar")
    return _chi(k, hbar)


@functools.lru_cache(typed=True)  # typed: chi_element(2.0) fails in np.eye even after chi_element(2)
def _chi(k: int, hbar: float) -> GaugeAlgebraElement:
    return GaugeAlgebraElement(-1j / math.sqrt(2.0 * hbar) * np.eye(k, dtype=np.complex128))


def xi_perp(
    xi: GaugeAlgebraElement, spectrum: Spectrum, hbar: float = 1.0
) -> GaugeAlgebraElement:
    """Component of a gauge-algebra element orthogonal to chi.

    Since chi has unit norm, this is xi minus its chi-coefficient times
    chi; the result pairs to zero against chi.
    """
    chi = chi_element(spectrum.rank, hbar)
    coeff = inertia_inner(chi, xi, spectrum, hbar)
    return _unchecked(GaugeAlgebraElement, _readonly(xi.xi - coeff * chi.xi), spectrum)  # valid as xi is


def sym_covariance(
    obs_a: Observable,
    obs_b: Observable,
    rho: DensityOperator,
    hbar: float = 1.0,
    *,
    lift: Lift | None = None,
) -> float:
    """Symmetrized covariance assembled from the bundle geometry.

    Evaluates (hbar/2) * ({A,B}_g + xi_A_perp . xi_B_perp), which equals
    the trace expression Tr((AB+BA) rho)/2 - Tr(A rho) Tr(B rho); the
    agreement of the two routes is a tested identity, not an assumption.
    """
    psi = _resolve_lift(rho, hbar, lift)
    spectrum = psi.spectrum
    pair = brackets_at_lift(obs_a, obs_b, psi)
    pa = xi_perp(xi_field(obs_a, psi), spectrum, hbar)
    pb = xi_perp(xi_field(obs_b, psi), spectrum, hbar)
    return 0.5 * hbar * (pair.riemann + inertia_inner(pa, pb, spectrum, hbar))
