"""Uncertainty bounds on observable pairs at a mixed state.

The central result is the geometric lower bound

    dA * dB >= (hbar/2) * sqrt({A,B}_g^2 + {A,B}_omega^2),

obtained from the variance inequality together with the Cauchy-Schwarz
estimate on the horizontal lifts.  The standard Robertson-Schrodinger bound
(commutator plus symmetrized covariance) is computed alongside as the
comparison baseline and makes no geometric claim.  analyze_pairs reads it
as |Sigma_ab| from one covariance matrix per state,

    Sigma_ij = Tr(A_i A_j rho) - <A_i><A_j>,

whose real part is the symmetrized covariance and whose imaginary part is
half the commutator term.  rs_bound, variance and expected_value evaluate
the usual mixed-state trace formulas pair by pair; they are the reference
that the tests and the verify battery compare the matrix route against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, NamedTuple

import numpy as np

from .bundle import DEG_TOL_DEFAULT, RANK_TOL_DEFAULT, DensityOperator, Lift
from .bundle import _check_spectra, _lift_array, _spectral_groups, _standard_psi
from .linalg import EigenDecomposition, _readonly
from .observables import Observable, _bracket_kernel, _real_trace, _stack, bracket_matrix, expected_value

__all__ = [
    "RelationViolationError",
    "UncertaintyReport",
    "VarianceBound",
    "CauchySchwarz",
    "analyze_pair",
    "analyze_pairs",
    "cauchy_schwarz_check",
    "geometric_bound",
    "rs_bound",
    "variance",
    "variance_bound_check",
]

# The guards below are written "not x >= -tol" so that a NaN fails them.  Each is relative, floored at min(1, the
# observables' Frobenius scale): it scales with their units.  The bound guards add a rounding term, _ROUNDING_TOL.

# Negative variance beyond this is a fault, within it is floating noise.
_VARIANCE_CLAMP = 1e-12

# Slack this negative on either bound signals a numerical or
# implementation fault, never a physical violation.
_SLACK_TOL = 1e-9

# The brackets and Sigma round by about eps * ||A|| ||B||, which outgrows the floor min(1, ||A|| ||B||) at large
# units: the bound guards also accept a slack of -_ROUNDING_TOL * ||A|| ||B||, about 450 eps.
_ROUNDING_TOL = 1e-13

# Bounds within this distance relative to max(product, geo, rs, ||A|| ||B||) count as a tie: near-pure states, and
# an observable that is a multiple of the identity, make the two bounds analytically equal, and rounding must not
# pick a winner.  The Frobenius scale keeps a tie of two zeros a tie at any units.
_TIE_TOL = 1e-10


class RelationViolationError(RuntimeError):
    """An uncertainty relation failed beyond numerical tolerance."""


@dataclass(frozen=True)
class UncertaintyReport:
    """Per-pair summary: spreads, brackets, both bounds, and their slacks."""

    delta_a: float
    delta_b: float
    product: float
    riemann: float
    poisson: float
    geometric_bound: float
    rs_bound: float
    slack_geometric: float
    slack_rs: float
    bound_winner: Literal["geometric", "robertson_schrodinger", "tie"]


class VarianceBound(NamedTuple):
    lhs: float
    rhs: float
    gap: float


class CauchySchwarz(NamedTuple):
    lhs: float
    rhs: float


def _clamped_variance(second: float, mean: float, norm: float) -> float:
    """Tr(A^2 rho) - <A>^2 from its two terms, clamped at zero against noise; ``norm`` is ||A||."""
    v = second - mean**2
    if not v >= -_VARIANCE_CLAMP * max(second, min(1.0, norm * norm)):
        raise RelationViolationError(f"variance came out negative: {v!r}")
    return max(v, 0.0)


def variance(obs: Observable, rho: DensityOperator) -> float:
    """Variance Tr(A^2 rho) - Tr(A rho)^2, clamped at zero against noise."""
    a = obs.matrix
    second = float(np.trace(a @ a @ rho.matrix).real)
    return _clamped_variance(second, expected_value(obs, rho), float(np.linalg.norm(a)))


def variance_bound_check(
    obs: Observable,
    rho: DensityOperator,
    hbar: float = 1.0,
    *,
    lift: Lift | None = None,
) -> VarianceBound:
    """Variance against its bracket lower bound (hbar/2) {A,A}_g.

    The gap equals (hbar/2) times the squared inertia norm of the
    chi-orthogonal xi-field, which is how the inequality's slack shows up
    geometrically.
    """
    lhs = variance(obs, rho)
    rhs = 0.5 * hbar * float(bracket_matrix((obs,), rho, hbar, lift=lift)[0, 0].real)
    gap = lhs - rhs
    if not gap >= -_SLACK_TOL * max(abs(lhs), min(1.0, float(np.linalg.norm(obs.matrix)) ** 2)):
        raise RelationViolationError(f"variance bound violated by {gap!r}")
    return VarianceBound(lhs, rhs, max(gap, 0.0))


def cauchy_schwarz_check(
    obs_a: Observable,
    obs_b: Observable,
    rho: DensityOperator,
    hbar: float = 1.0,
    *,
    lift: Lift | None = None,
) -> CauchySchwarz:
    """Both sides of {A,A}_g {B,B}_g >= {A,B}_g^2 + {A,B}_omega^2."""
    z = bracket_matrix((obs_a, obs_b), rho, hbar, lift=lift)
    ab = complex(z[0, 1])
    return CauchySchwarz(float(z[0, 0].real * z[1, 1].real), ab.real**2 + ab.imag**2)


def geometric_bound(
    obs_a: Observable,
    obs_b: Observable,
    rho: DensityOperator,
    hbar: float = 1.0,
    *,
    lift: Lift | None = None,
) -> float:
    """Geometric lower bound (hbar/2) sqrt(riemann^2 + poisson^2)."""
    z = complex(bracket_matrix((obs_a, obs_b), rho, hbar, lift=lift)[0, 1])
    return 0.5 * hbar * math.hypot(z.real, z.imag)


def rs_bound(obs_a: Observable, obs_b: Observable, rho: DensityOperator) -> float:
    """Robertson-Schrodinger baseline from commutator and covariance traces."""
    a = obs_a.matrix
    b = obs_b.matrix
    comm = complex(np.trace((a @ b - b @ a) @ rho.matrix))
    half_comm = 0.5 * abs(comm.imag)
    cov = 0.5 * float(np.trace((a @ b + b @ a) @ rho.matrix).real) - expected_value(
        obs_a, rho
    ) * expected_value(obs_b, rho)
    return math.hypot(half_comm, cov)


def analyze_pairs(
    observables: Sequence[Observable],
    rho: DensityOperator,
    hbar: float = 1.0,
    *,
    lift: Lift | None = None,
) -> list[UncertaintyReport]:
    """Uncertainty reports for every pair i < j of observables, row-major.

    All brackets come from one bracket matrix, every RS bound from one
    covariance matrix Sigma (RS = |Sigma_ij|), and each spread is computed
    once per observable.  Raises RelationViolationError if either bound
    exceeds the spread product beyond tolerance; that can only mean a
    numerical or implementation fault.
    """
    z = bracket_matrix(observables, rho, hbar, lift=lift)
    spreads, (a, b), columns = _report_columns(_stack(observables, rho.dim)[None], rho.matrix[None], z[None], hbar)
    return [*map(UncertaintyReport, map(spreads.__getitem__, a), map(spreads.__getitem__, b), *columns)]


@lru_cache
def _pair_index(states: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray]:
    """Each state's pairs i < j of n observables, row-major, as flat indices into (states, n) and (states, n, n)."""
    a, b = (np.triu_indices(n, 1) + n * np.arange(states)[:, None, None]).swapaxes(0, 1).reshape(2, -1)
    return tuple(a.tolist()), tuple(b.tolist()), _readonly(n * a + b % n)


def _analyze_states(mats: np.ndarray, rho: np.ndarray, frames: EigenDecomposition, hbar: float) -> tuple:
    """The _report_columns of analyze_pairs at the standard lift of each state, for observables (S, N, n, n) and
    states (S, n, n) with their eigendecompositions, all of which passed their own rules: per block structure, the
    Spectrum and Lift rules and the brackets into one (S, N, N) array, then one report pass over all pairs."""
    z = np.empty(mats.shape[:2] + mats.shape[1:2], dtype=np.complex128)
    for rows, multiplicities, p in _spectral_groups(frames.values, RANK_TOL_DEFAULT, DEG_TOL_DEFAULT):
        _check_spectra(p, multiplicities, DEG_TOL_DEFAULT)
        psi = _lift_array(_standard_psi(frames.vectors[rows], p), p, hbar, stacked=True)
        z[rows] = _bracket_kernel(mats[rows], psi, p, multiplicities, hbar)
    return _report_columns(mats, rho, z, hbar)


def _report_columns(mats: np.ndarray, rho: np.ndarray, z: np.ndarray, hbar: float) -> tuple:
    """The S*N spreads, the pair indices (a, b) into them and the report columns after delta_a and delta_b, as
    Python floats: one pass over all spreads, whose faults come first, then one numpy pass over all S*P pairs."""
    products = mats @ rho[:, None]
    traces = products.trace(axis1=-2, axis2=-1)
    seconds = (mats @ mats @ rho[:, None]).trace(axis1=-2, axis2=-1).real
    sigma = np.einsum("...ikl,...jlk->...ij", mats, products) - traces.real[..., :, None] * traces.real[..., None, :]
    norms = np.linalg.norm(mats, axis=(-2, -1))
    moments = (seconds.ravel().tolist(), map(_real_trace, traces.ravel().tolist()), norms.ravel().tolist())
    spreads = [*map(math.sqrt, map(_clamped_variance, *moments))]
    a, b, ab = _pair_index(*mats.shape[:2])
    bracket, cov = z.take(ab), sigma.take(ab)
    product, scale = ((x[..., :, None] * x[..., None, :]).take(ab) for x in (np.reshape(spreads, norms.shape), norms))
    # math.hypot, not numpy's hypot or abs, which round differently in some last bits.
    geo = 0.5 * hbar * np.fromiter(map(math.hypot, bracket.real.tolist(), bracket.imag.tolist()), float, len(ab))
    rs = np.fromiter(map(math.hypot, cov.real.tolist(), cov.imag.tolist()), float, len(ab))
    slack_geo, slack_rs = product - geo, product - rs
    # fmax passes over a NaN after its first argument, as Python's max does: a NaN fails its own bound alone.
    top = np.fmax(np.fmax(product, geo), rs)
    tol = -_SLACK_TOL * np.fmax(top, np.minimum(1.0, scale)) - _ROUNDING_TOL * scale
    if not (held := (slack_geo >= tol) & (slack_rs >= tol)).all():
        k = held.argmin()  # the first pair that breaks a guard
        bound, value = ("geometric", geo[k]) if not slack_geo[k] >= tol[k] else ("Robertson-Schrodinger", rs[k])
        raise RelationViolationError(f"{bound} bound {float(value)!r} exceeds spread product {float(product[k])!r}")
    codes = np.where(abs(geo - rs) <= _TIE_TOL * np.maximum(top, scale), 2, geo > rs)  # RS wins, geometric wins, tie
    winners = np.array(["robertson_schrodinger", "geometric", "tie"], dtype=object)[codes]
    columns = (product, bracket.real, bracket.imag, geo, rs, slack_geo, slack_rs, winners)
    return spreads, (a, b), tuple(column.tolist() for column in columns)


def analyze_pair(
    obs_a: Observable,
    obs_b: Observable,
    rho: DensityOperator,
    hbar: float = 1.0,
    *,
    lift: Lift | None = None,
) -> UncertaintyReport:
    """Full uncertainty report for one observable pair at one state."""
    return analyze_pairs((obs_a, obs_b), rho, hbar, lift=lift)[0]
