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
from itertools import combinations
from typing import Literal, NamedTuple

import numpy as np

from .bundle import DensityOperator, Lift
from .observables import Observable, bracket_matrix, expected_value

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

# The guards below are written "not x >= -tol" so that a NaN fails them.

# Negative variance beyond this is a fault, within it is floating noise.
_VARIANCE_CLAMP = 1e-12

# Slack this negative on either bound signals a numerical or
# implementation fault, never a physical violation.
_SLACK_TOL = 1e-9

# Bounds within this distance relative to max(product, geo, rs) count as a
# tie; near-pure states make the two bounds analytically equal.
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


def variance(obs: Observable, rho: DensityOperator) -> float:
    """Variance Tr(A^2 rho) - Tr(A rho)^2, clamped at zero against noise."""
    a = obs.matrix
    second = float(np.trace(a @ a @ rho.matrix).real)
    v = second - expected_value(obs, rho) ** 2
    if not v >= -_VARIANCE_CLAMP * max(1.0, second):
        raise RelationViolationError(f"variance came out negative: {v!r}")
    return max(v, 0.0)


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
    if not gap >= -_SLACK_TOL * max(1.0, abs(lhs)):
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
    spreads = [math.sqrt(variance(obs, rho)) for obs in observables]
    means = np.array([expected_value(obs, rho) for obs in observables])
    mats = np.array([obs.matrix for obs in observables]).reshape(-1, rho.dim, rho.dim)
    sigma = np.einsum("ikl,jlk->ij", mats, mats @ rho.matrix) - np.outer(means, means)
    reports = []
    for i, j in combinations(range(len(observables)), 2):
        da, db = spreads[i], spreads[j]
        product = da * db
        bracket = complex(z[i, j])
        geo = 0.5 * hbar * math.hypot(bracket.real, bracket.imag)
        rs = math.hypot(sigma[i, j].real, sigma[i, j].imag)
        slack_geo = product - geo
        slack_rs = product - rs

        scale = max(1.0, product, geo, rs)
        if not slack_geo >= -_SLACK_TOL * scale:
            raise RelationViolationError(
                f"geometric bound {geo!r} exceeds spread product {product!r}"
            )
        if not slack_rs >= -_SLACK_TOL * scale:
            raise RelationViolationError(
                f"Robertson-Schrodinger bound {rs!r} exceeds spread product {product!r}"
            )

        if abs(geo - rs) <= _TIE_TOL * max(product, geo, rs):
            winner = "tie"
        elif geo > rs:
            winner = "geometric"
        else:
            winner = "robertson_schrodinger"

        reports.append(
            UncertaintyReport(
                delta_a=da,
                delta_b=db,
                product=product,
                riemann=bracket.real,
                poisson=bracket.imag,
                geometric_bound=geo,
                rs_bound=rs,
                slack_geometric=slack_geo,
                slack_rs=slack_rs,
                bound_winner=winner,
            )
        )
    return reports


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
