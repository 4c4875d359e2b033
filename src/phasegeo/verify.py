"""Randomized invariant battery covering every layer of the package.

Each check draws random instances at a requested dimension, measures the
worst residual of one documented identity or inequality, and compares it
with a fixed tolerance.  The PHASEGEO_TOLERANCE_SCALE environment variable
(default 1) multiplies every tolerance, as an escape hatch for platforms
with unusual floating-point behavior.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundle import (
    DensityOperator,
    GaugeAlgebraElement,
    Lift,
    connection_form,
    gauge_transform,
    inertia_inner,
    moment_pairing,
    project,
    split,
    spectrum_of,
    standard_lift,
)
from .linalg import form_omega, hermitian_eig, hs_inner, metric_g
from .observables import (
    Observable,
    brackets_at_lift,
    chi_element,
    expected_value,
    ham_field,
    sym_covariance,
    xi_field,
    xi_perp,
)
from .sampling import (
    make_rng,
    sample_density,
    sample_gauge_algebra,
    sample_gauge_unitary,
    sample_hermitian,
    sample_spectrum,
    sample_unitary,
)
from .uncertainty import analyze_pair, cauchy_schwarz_check, variance_bound_check

__all__ = ["CheckResult", "run_battery", "tolerance_scale"]

TOLERANCE_SCALE_ENV = "PHASEGEO_TOLERANCE_SCALE"


def tolerance_scale() -> float:
    """Multiplier applied to every verification tolerance."""
    raw = os.environ.get(TOLERANCE_SCALE_ENV, "1")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ValueError(f"{TOLERANCE_SCALE_ENV} must be a number, got {raw!r}") from exc
    if scale <= 0:
        raise ValueError(f"{TOLERANCE_SCALE_ENV} must be positive, got {scale}")
    return scale


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst_residual: float
    tolerance: float
    passed: bool


def _rel(delta: float, scale: float) -> float:
    return abs(delta) / max(1.0, abs(scale))


def _random_state(dim: int, rng, hbar: float, rank: int | None = None) -> tuple[DensityOperator, Lift]:
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    spectrum, _ = sample_spectrum(rank, rng)
    rho = sample_density(spectrum, dim, rng)
    return rho, standard_lift(rho, hbar)


def _check_polar_identity(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        x = sample_hermitian(dim, rng).matrix + 1j * sample_hermitian(dim, rng).matrix
        y = sample_hermitian(dim, rng).matrix + 1j * sample_hermitian(dim, rng).matrix
        lhs = metric_g(x, y, hbar) ** 2 + form_omega(x, y, hbar) ** 2
        rhs = 4.0 * hbar**2 * abs(hs_inner(x, y)) ** 2
        worst = max(worst, _rel(lhs - rhs, rhs))
    return worst


def _check_eig_moments(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        h = sample_hermitian(dim, rng).matrix
        eig = hermitian_eig(h)
        worst = max(worst, _rel(eig.values.sum() - np.trace(h).real, np.trace(h).real))
        worst = max(worst, _rel((eig.values**2).sum() - np.linalg.norm(h) ** 2, np.linalg.norm(h) ** 2))
    return worst


def _check_eig_offdiagonal(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        h = sample_hermitian(dim, rng).matrix
        eig = hermitian_eig(h)
        res = eig.vectors.conj().T @ h @ eig.vectors
        np.fill_diagonal(res, 0.0)
        worst = max(worst, float(np.linalg.norm(res) / max(np.linalg.norm(h), 1e-300)))
    return worst


def _check_connection_equivariance(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        _, lift = _random_state(dim, rng, hbar)
        x = ham_field(sample_hermitian(dim, rng), lift)
        u = sample_gauge_unitary(lift.spectrum, rng)
        a = connection_form(lift, x).xi
        au = connection_form(gauge_transform(lift, u), x @ u).xi
        worst = max(worst, float(np.abs(au - u.conj().T @ a @ u).max()))
    return worst


def _check_split_idempotent(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        _, lift = _random_state(dim, rng, hbar)
        x = ham_field(sample_hermitian(dim, rng), lift)
        vertical, horizontal = split(lift, x)
        worst = max(worst, float(np.abs(vertical + horizontal - x).max()))
        v2, h2 = split(lift, horizontal)
        scale = max(1.0, float(np.linalg.norm(x)))
        worst = max(worst, float(np.linalg.norm(v2)) / scale)
        worst = max(worst, float(np.abs(h2 - horizontal).max()) / scale)
    return worst


def _check_split_orthogonal(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        _, lift = _random_state(dim, rng, hbar)
        x = ham_field(sample_hermitian(dim, rng), lift)
        vertical, horizontal = split(lift, x)
        scale = max(1.0, metric_g(x, x, hbar))
        worst = max(worst, abs(metric_g(vertical, horizontal, hbar)) / scale)
        worst = max(worst, abs(form_omega(vertical, horizontal, hbar)) / scale)
    return worst


def _check_reproducing(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        _, lift = _random_state(dim, rng, hbar)
        xi = sample_gauge_algebra(lift.spectrum, rng)
        a = connection_form(lift, lift.psi @ xi)
        worst = max(worst, _rel(np.abs(a.xi - xi).max(), np.abs(xi).max()))
    return worst


def _check_project_gauge(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        rho, lift = _random_state(dim, rng, hbar)
        u = sample_gauge_unitary(lift.spectrum, rng)
        moved = project(gauge_transform(lift, u))
        worst = max(worst, float(np.abs(moved.matrix - project(lift).matrix).max()))
    return worst


def _check_inertia_realization(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        _, lift = _random_state(dim, rng, hbar)
        spectrum = lift.spectrum
        xi = GaugeAlgebraElement(sample_gauge_algebra(spectrum, rng), spectrum)
        eta = GaugeAlgebraElement(sample_gauge_algebra(spectrum, rng), spectrum)
        lhs = inertia_inner(xi, eta, spectrum, hbar)
        rhs = metric_g(lift.psi @ xi.xi, lift.psi @ eta.xi, hbar)
        worst = max(worst, _rel(lhs - rhs, rhs))
    return worst


def _check_moment_identity(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        _, lift = _random_state(dim, rng, hbar)
        spectrum = lift.spectrum
        x = ham_field(sample_hermitian(dim, rng), lift)
        xi = GaugeAlgebraElement(sample_gauge_algebra(spectrum, rng), spectrum)
        lhs = moment_pairing(lift, x, xi)
        rhs = inertia_inner(connection_form(lift, x), xi, spectrum, hbar)
        worst = max(worst, _rel(lhs - rhs, rhs))
    return worst


def _check_bracket_gauge_invariance(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        _, lift = _random_state(dim, rng, hbar)
        a = sample_hermitian(dim, rng)
        b = sample_hermitian(dim, rng)
        ref = brackets_at_lift(a, b, lift)
        scale = max(1.0, abs(ref.riemann), abs(ref.poisson))
        for _ in range(3):
            moved = gauge_transform(lift, sample_gauge_unitary(lift.spectrum, rng))
            pair = brackets_at_lift(a, b, moved)
            worst = max(worst, abs(pair.riemann - ref.riemann) / scale)
            worst = max(worst, abs(pair.poisson - ref.poisson) / scale)
    return worst


# Cross-check of the closed-form brackets against the connection-form route.
def _check_pythagoras(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        _, lift = _random_state(dim, rng, hbar)
        spectrum = lift.spectrum
        a = sample_hermitian(dim, rng)
        b = sample_hermitian(dim, rng)
        xa_tot, xb_tot = ham_field(a, lift), ham_field(b, lift)
        xa, xb = xi_field(a, lift), xi_field(b, lift)
        pair = brackets_at_lift(a, b, lift)
        g_tot = metric_g(xa_tot, xb_tot, hbar)
        worst = max(worst, _rel(g_tot - pair.riemann - inertia_inner(xa, xb, spectrum, hbar), g_tot))
        o_tot = form_omega(xa_tot, xb_tot, hbar)
        o_vert = form_omega(lift.psi @ xa.xi, lift.psi @ xb.xi, hbar)
        worst = max(worst, _rel(o_tot - pair.poisson - o_vert, o_tot))
    return worst


def _check_trace_identities(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        rho, lift = _random_state(dim, rng, hbar)
        a = sample_hermitian(dim, rng)
        b = sample_hermitian(dim, rng)
        xa_tot, xb_tot = ham_field(a, lift), ham_field(b, lift)
        sym = np.trace((a.matrix @ b.matrix + b.matrix @ a.matrix) @ rho.matrix).real / hbar
        worst = max(worst, _rel(metric_g(xa_tot, xb_tot, hbar) - sym, sym))
        comm = (-1j * np.trace((a.matrix @ b.matrix - b.matrix @ a.matrix) @ rho.matrix)).real / hbar
        worst = max(worst, _rel(form_omega(xa_tot, xb_tot, hbar) - comm, comm))
    return worst


def _check_expectation_identity(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        rho, lift = _random_state(dim, rng, hbar)
        a = sample_hermitian(dim, rng)
        chi = chi_element(lift.rank, hbar)
        lhs = math.sqrt(0.5 * hbar) * inertia_inner(chi, xi_field(a, lift), lift.spectrum, hbar)
        worst = max(worst, _rel(lhs - expected_value(a, rho), expected_value(a, rho)))
    return worst


def _check_covariance_identity(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        rho, lift = _random_state(dim, rng, hbar)
        a = sample_hermitian(dim, rng)
        b = sample_hermitian(dim, rng)
        geo = sym_covariance(a, b, rho, hbar, lift=lift)
        oracle = 0.5 * np.trace(
            (a.matrix @ b.matrix + b.matrix @ a.matrix) @ rho.matrix
        ).real - expected_value(a, rho) * expected_value(b, rho)
        worst = max(worst, _rel(geo - oracle, oracle))
    return worst


def _check_pure_state_kibble(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        rho, lift = _random_state(dim, rng, hbar, rank=1)
        a = sample_hermitian(dim, rng)
        perp = xi_perp(xi_field(a, lift), lift.spectrum, hbar)
        worst = max(worst, float(np.abs(perp.xi).max()))
        pair = brackets_at_lift(a, a, lift)
        cov = sym_covariance(a, a, rho, hbar, lift=lift)
        worst = max(worst, _rel(cov - 0.5 * hbar * pair.riemann, cov))
    return worst


def _check_bound_slacks(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        rho, lift = _random_state(dim, rng, hbar)
        rep = analyze_pair(sample_hermitian(dim, rng), sample_hermitian(dim, rng), rho, hbar, lift=lift)
        worst = max(worst, max(0.0, -rep.slack_geometric), max(0.0, -rep.slack_rs))
    return worst


def _check_variance_slack(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        rho, lift = _random_state(dim, rng, hbar)
        a = sample_hermitian(dim, rng)
        check = variance_bound_check(a, rho, hbar, lift=lift)
        perp = xi_perp(xi_field(a, lift), lift.spectrum, hbar)
        expected = 0.5 * hbar * inertia_inner(perp, perp, lift.spectrum, hbar)
        worst = max(worst, _rel(check.gap - expected, check.lhs))
    return worst


def _check_cauchy_schwarz(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        rho, lift = _random_state(dim, rng, hbar)
        cs = cauchy_schwarz_check(
            sample_hermitian(dim, rng), sample_hermitian(dim, rng), rho, hbar, lift=lift
        )
        worst = max(worst, max(0.0, cs.rhs - cs.lhs) / max(1.0, cs.lhs))
    return worst


def _check_pure_bound_match(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        rho, lift = _random_state(dim, rng, hbar, rank=1)
        a = sample_hermitian(dim, rng)
        b = sample_hermitian(dim, rng)
        rep = analyze_pair(a, b, rho, hbar, lift=lift)
        worst = max(worst, _rel(rep.geometric_bound - rep.rs_bound, rep.rs_bound))
    return worst


def _check_scaling_linearity(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        rho, lift = _random_state(dim, rng, hbar)
        a = sample_hermitian(dim, rng)
        b = sample_hermitian(dim, rng)
        c = float(rng.uniform(0.5, 4.0))
        base = analyze_pair(a, b, rho, hbar, lift=lift)
        scaled = analyze_pair(Observable(c * a.matrix), b, rho, hbar, lift=lift)
        worst = max(worst, _rel(scaled.delta_a - c * base.delta_a, c * base.delta_a))
        worst = max(worst, _rel(scaled.geometric_bound - c * base.geometric_bound, c * base.geometric_bound))
        worst = max(worst, _rel(scaled.rs_bound - c * base.rs_bound, c * base.rs_bound))
    return worst


def _check_unitary_sampler(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        u = sample_unitary(dim, rng)
        worst = max(worst, float(np.abs(u.conj().T @ u - np.eye(dim)).max()))
    return worst


def _check_density_sampler(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        rank = int(rng.integers(1, dim + 1))
        spectrum, _ = sample_spectrum(rank, rng)
        rho = sample_density(spectrum, dim, rng)
        recovered = spectrum_of(rho)
        if recovered.multiplicities != spectrum.multiplicities:
            return float("inf")
        worst = max(
            worst,
            float(np.abs(np.array(recovered.eigenvalues) - np.array(spectrum.eigenvalues)).max()),
        )
    return worst


def _check_hermitian_sampler(dim, samples, rng, hbar):
    worst = 0.0
    for _ in range(samples):
        h = sample_hermitian(dim, rng).matrix
        worst = max(worst, float(np.abs(h - h.conj().T).max()))
    return worst


def _check_degenerate_verticality(dim, samples, rng, hbar):
    # At the maximally mixed state the whole gauge group acts, so every
    # Hamiltonian field is vertical and both brackets vanish.
    rho = DensityOperator(np.eye(dim, dtype=np.complex128) / dim)
    lift = standard_lift(rho, hbar)
    worst = 0.0
    for _ in range(samples):
        a = sample_hermitian(dim, rng)
        b = sample_hermitian(dim, rng)
        x = ham_field(a, lift)
        _, horizontal = split(lift, x)
        worst = max(worst, float(np.linalg.norm(horizontal)) / max(1.0, float(np.linalg.norm(x))))
        pair = brackets_at_lift(a, b, lift)
        worst = max(worst, abs(pair.riemann), abs(pair.poisson))
    return worst


Check = Callable[[int, int, np.random.Generator, float], float]

# (name, base tolerance, check) in reporting order.
CHECKS: tuple[tuple[str, float, Check], ...] = (
    ("polar_identity", 1e-12, _check_polar_identity),
    ("eig_trace_moments", 1e-10, _check_eig_moments),
    ("eig_offdiagonal", 1e-13, _check_eig_offdiagonal),
    ("connection_equivariance", 1e-10, _check_connection_equivariance),
    ("split_idempotent", 1e-12, _check_split_idempotent),
    ("split_orthogonality", 1e-9, _check_split_orthogonal),
    ("connection_reproducing", 1e-10, _check_reproducing),
    ("project_gauge_invariance", 1e-12, _check_project_gauge),
    ("inertia_realization", 1e-10, _check_inertia_realization),
    ("moment_map_identity", 1e-10, _check_moment_identity),
    ("bracket_gauge_invariance", 1e-9, _check_bracket_gauge_invariance),
    ("bracket_pythagoras", 1e-9, _check_pythagoras),
    ("bracket_trace_identities", 1e-10, _check_trace_identities),
    ("expectation_identity", 1e-10, _check_expectation_identity),
    ("covariance_identity", 1e-9, _check_covariance_identity),
    ("pure_state_kibble", 1e-10, _check_pure_state_kibble),
    ("uncertainty_slacks", 1e-9, _check_bound_slacks),
    ("variance_slack_identity", 1e-9, _check_variance_slack),
    ("cauchy_schwarz", 1e-9, _check_cauchy_schwarz),
    ("pure_state_bound_match", 1e-9, _check_pure_bound_match),
    ("scaling_linearity", 1e-10, _check_scaling_linearity),
    ("unitary_sampler", 1e-10, _check_unitary_sampler),
    ("density_sampler_roundtrip", 1e-9, _check_density_sampler),
    ("hermitian_sampler", 1e-15, _check_hermitian_sampler),
    ("degenerate_verticality", 1e-9, _check_degenerate_verticality),
)


def run_battery(dim: int, samples: int, seed: int, hbar: float = 1.0) -> list[CheckResult]:
    """Run every invariant check at the given dimension and sample count."""
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    scale = tolerance_scale()
    results = []
    for index, (name, base_tol, check) in enumerate(CHECKS):
        rng = make_rng(seed, index)
        worst = float(check(dim, samples, rng, hbar))
        tol = base_tol * scale
        results.append(CheckResult(name, worst, tol, worst <= tol))
    return results
