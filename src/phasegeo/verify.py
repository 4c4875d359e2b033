"""Randomized invariant battery covering every layer of the package.

Each check draws one random instance at a requested dimension and yields
the residuals of one documented identity or inequality for it.
run_battery draws the samples, reports the worst residual over all of
them (a negative residual counts as 0) and compares it with a fixed
tolerance; a NaN residual makes the worst residual NaN, and the check
fails.  The PHASEGEO_TOLERANCE_SCALE environment variable (default 1)
multiplies every tolerance, as an escape hatch for platforms with unusual
floating-point behavior; like every scale it must be positive and finite.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass

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
from .linalg import _check_positive, form_omega, hermitian_eig, hs_inner, metric_g
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
from .uncertainty import analyze_pair, cauchy_schwarz_check, rs_bound, variance_bound_check

__all__ = ["CheckResult", "ToleranceScaleError", "run_battery", "tolerance_scale"]

TOLERANCE_SCALE_ENV = "PHASEGEO_TOLERANCE_SCALE"


class ToleranceScaleError(ValueError):
    """PHASEGEO_TOLERANCE_SCALE does not hold a positive finite number."""


def tolerance_scale() -> float:
    """Multiplier applied to every verification tolerance."""
    raw = os.environ.get(TOLERANCE_SCALE_ENV, "1")
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ToleranceScaleError(f"{TOLERANCE_SCALE_ENV} must be a number, got {raw!r}") from exc
    _check_positive(scale, TOLERANCE_SCALE_ENV, ToleranceScaleError)
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


def _check_polar_identity(dim, rng, hbar):
    x = sample_hermitian(dim, rng).matrix + 1j * sample_hermitian(dim, rng).matrix
    y = sample_hermitian(dim, rng).matrix + 1j * sample_hermitian(dim, rng).matrix
    lhs = metric_g(x, y, hbar) ** 2 + form_omega(x, y, hbar) ** 2
    rhs = 4.0 * hbar**2 * abs(hs_inner(x, y)) ** 2
    yield _rel(lhs - rhs, rhs)


def _check_eig_moments(dim, rng, hbar):
    h = sample_hermitian(dim, rng).matrix
    eig = hermitian_eig(h)
    yield _rel(eig.values.sum() - np.trace(h).real, np.trace(h).real)
    yield _rel((eig.values**2).sum() - np.linalg.norm(h) ** 2, np.linalg.norm(h) ** 2)


def _check_eig_offdiagonal(dim, rng, hbar):
    h = sample_hermitian(dim, rng).matrix
    eig = hermitian_eig(h)
    res = eig.vectors.conj().T @ h @ eig.vectors
    np.fill_diagonal(res, 0.0)
    yield float(np.linalg.norm(res) / max(np.linalg.norm(h), 1e-300))


def _check_connection_equivariance(dim, rng, hbar):
    _, lift = _random_state(dim, rng, hbar)
    x = ham_field(sample_hermitian(dim, rng), lift)
    u = sample_gauge_unitary(lift.spectrum, rng)
    a = connection_form(lift, x).xi
    au = connection_form(gauge_transform(lift, u), x @ u).xi
    yield float(np.abs(au - u.conj().T @ a @ u).max())


def _check_split_idempotent(dim, rng, hbar):
    _, lift = _random_state(dim, rng, hbar)
    x = ham_field(sample_hermitian(dim, rng), lift)
    vertical, horizontal = split(lift, x)
    yield float(np.abs(vertical + horizontal - x).max())
    v2, h2 = split(lift, horizontal)
    scale = max(1.0, float(np.linalg.norm(x)))
    yield float(np.linalg.norm(v2)) / scale
    yield float(np.abs(h2 - horizontal).max()) / scale


def _check_split_orthogonal(dim, rng, hbar):
    _, lift = _random_state(dim, rng, hbar)
    x = ham_field(sample_hermitian(dim, rng), lift)
    vertical, horizontal = split(lift, x)
    scale = max(1.0, metric_g(x, x, hbar))
    yield abs(metric_g(vertical, horizontal, hbar)) / scale
    yield abs(form_omega(vertical, horizontal, hbar)) / scale


def _check_reproducing(dim, rng, hbar):
    _, lift = _random_state(dim, rng, hbar)
    xi = sample_gauge_algebra(lift.spectrum, rng)
    a = connection_form(lift, lift.psi @ xi)
    yield _rel(np.abs(a.xi - xi).max(), np.abs(xi).max())


def _check_project_gauge(dim, rng, hbar):
    rho, lift = _random_state(dim, rng, hbar)
    u = sample_gauge_unitary(lift.spectrum, rng)
    moved = project(gauge_transform(lift, u))
    yield float(np.abs(moved.matrix - project(lift).matrix).max())


def _check_inertia_realization(dim, rng, hbar):
    _, lift = _random_state(dim, rng, hbar)
    spectrum = lift.spectrum
    xi = GaugeAlgebraElement(sample_gauge_algebra(spectrum, rng), spectrum)
    eta = GaugeAlgebraElement(sample_gauge_algebra(spectrum, rng), spectrum)
    lhs = inertia_inner(xi, eta, spectrum, hbar)
    rhs = metric_g(lift.psi @ xi.xi, lift.psi @ eta.xi, hbar)
    yield _rel(lhs - rhs, rhs)


def _check_moment_identity(dim, rng, hbar):
    _, lift = _random_state(dim, rng, hbar)
    spectrum = lift.spectrum
    x = ham_field(sample_hermitian(dim, rng), lift)
    xi = GaugeAlgebraElement(sample_gauge_algebra(spectrum, rng), spectrum)
    lhs = moment_pairing(lift, x, xi)
    rhs = inertia_inner(connection_form(lift, x), xi, spectrum, hbar)
    yield _rel(lhs - rhs, rhs)


def _check_bracket_gauge_invariance(dim, rng, hbar):
    _, lift = _random_state(dim, rng, hbar)
    a = sample_hermitian(dim, rng)
    b = sample_hermitian(dim, rng)
    ref = brackets_at_lift(a, b, lift)
    scale = max(1.0, abs(ref.riemann), abs(ref.poisson))
    for _ in range(3):
        moved = gauge_transform(lift, sample_gauge_unitary(lift.spectrum, rng))
        pair = brackets_at_lift(a, b, moved)
        yield abs(pair.riemann - ref.riemann) / scale
        yield abs(pair.poisson - ref.poisson) / scale


# Cross-check of the closed-form brackets against the connection-form route.
def _check_pythagoras(dim, rng, hbar):
    _, lift = _random_state(dim, rng, hbar)
    spectrum = lift.spectrum
    a = sample_hermitian(dim, rng)
    b = sample_hermitian(dim, rng)
    xa_tot, xb_tot = ham_field(a, lift), ham_field(b, lift)
    xa, xb = xi_field(a, lift), xi_field(b, lift)
    pair = brackets_at_lift(a, b, lift)
    g_tot = metric_g(xa_tot, xb_tot, hbar)
    yield _rel(g_tot - pair.riemann - inertia_inner(xa, xb, spectrum, hbar), g_tot)
    o_tot = form_omega(xa_tot, xb_tot, hbar)
    o_vert = form_omega(lift.psi @ xa.xi, lift.psi @ xb.xi, hbar)
    yield _rel(o_tot - pair.poisson - o_vert, o_tot)


def _check_trace_identities(dim, rng, hbar):
    rho, lift = _random_state(dim, rng, hbar)
    a = sample_hermitian(dim, rng)
    b = sample_hermitian(dim, rng)
    xa_tot, xb_tot = ham_field(a, lift), ham_field(b, lift)
    sym = np.trace((a.matrix @ b.matrix + b.matrix @ a.matrix) @ rho.matrix).real / hbar
    yield _rel(metric_g(xa_tot, xb_tot, hbar) - sym, sym)
    comm = (-1j * np.trace((a.matrix @ b.matrix - b.matrix @ a.matrix) @ rho.matrix)).real / hbar
    yield _rel(form_omega(xa_tot, xb_tot, hbar) - comm, comm)


def _check_expectation_identity(dim, rng, hbar):
    rho, lift = _random_state(dim, rng, hbar)
    a = sample_hermitian(dim, rng)
    chi = chi_element(lift.rank, hbar)
    lhs = math.sqrt(0.5 * hbar) * inertia_inner(chi, xi_field(a, lift), lift.spectrum, hbar)
    yield _rel(lhs - expected_value(a, rho), expected_value(a, rho))


def _check_covariance_identity(dim, rng, hbar):
    rho, lift = _random_state(dim, rng, hbar)
    a = sample_hermitian(dim, rng)
    b = sample_hermitian(dim, rng)
    geo = sym_covariance(a, b, rho, hbar, lift=lift)
    oracle = 0.5 * np.trace(
        (a.matrix @ b.matrix + b.matrix @ a.matrix) @ rho.matrix
    ).real - expected_value(a, rho) * expected_value(b, rho)
    yield _rel(geo - oracle, oracle)
    # The production RS bound (read from one covariance matrix) against
    # the trace-formula reference.
    ref = rs_bound(a, b, rho)
    yield _rel(analyze_pair(a, b, rho, hbar, lift=lift).rs_bound - ref, ref)


def _check_pure_state_kibble(dim, rng, hbar):
    rho, lift = _random_state(dim, rng, hbar, rank=1)
    a = sample_hermitian(dim, rng)
    perp = xi_perp(xi_field(a, lift), lift.spectrum, hbar)
    yield float(np.abs(perp.xi).max())
    pair = brackets_at_lift(a, a, lift)
    cov = sym_covariance(a, a, rho, hbar, lift=lift)
    yield _rel(cov - 0.5 * hbar * pair.riemann, cov)


def _check_bound_slacks(dim, rng, hbar):
    rho, lift = _random_state(dim, rng, hbar)
    rep = analyze_pair(sample_hermitian(dim, rng), sample_hermitian(dim, rng), rho, hbar, lift=lift)
    yield from (-rep.slack_geometric, -rep.slack_rs)


def _check_variance_slack(dim, rng, hbar):
    rho, lift = _random_state(dim, rng, hbar)
    a = sample_hermitian(dim, rng)
    check = variance_bound_check(a, rho, hbar, lift=lift)
    perp = xi_perp(xi_field(a, lift), lift.spectrum, hbar)
    expected = 0.5 * hbar * inertia_inner(perp, perp, lift.spectrum, hbar)
    yield _rel(check.gap - expected, check.lhs)


def _check_cauchy_schwarz(dim, rng, hbar):
    rho, lift = _random_state(dim, rng, hbar)
    cs = cauchy_schwarz_check(
        sample_hermitian(dim, rng), sample_hermitian(dim, rng), rho, hbar, lift=lift
    )
    yield (cs.rhs - cs.lhs) / max(1.0, cs.lhs)


def _check_pure_bound_match(dim, rng, hbar):
    rho, lift = _random_state(dim, rng, hbar, rank=1)
    a = sample_hermitian(dim, rng)
    b = sample_hermitian(dim, rng)
    rep = analyze_pair(a, b, rho, hbar, lift=lift)
    yield _rel(rep.geometric_bound - rep.rs_bound, rep.rs_bound)


def _check_scaling_linearity(dim, rng, hbar):
    rho, lift = _random_state(dim, rng, hbar)
    a = sample_hermitian(dim, rng)
    b = sample_hermitian(dim, rng)
    c = float(rng.uniform(0.5, 4.0))
    base = analyze_pair(a, b, rho, hbar, lift=lift)
    scaled = analyze_pair(Observable(c * a.matrix), b, rho, hbar, lift=lift)
    yield _rel(scaled.delta_a - c * base.delta_a, c * base.delta_a)
    yield _rel(scaled.geometric_bound - c * base.geometric_bound, c * base.geometric_bound)
    yield _rel(scaled.rs_bound - c * base.rs_bound, c * base.rs_bound)


def _check_unitary_sampler(dim, rng, hbar):
    u = sample_unitary(dim, rng)
    yield float(np.abs(u.conj().T @ u - np.eye(dim)).max())


def _check_density_sampler(dim, rng, hbar):
    rank = int(rng.integers(1, dim + 1))
    spectrum, _ = sample_spectrum(rank, rng)
    rho = sample_density(spectrum, dim, rng)
    recovered = spectrum_of(rho)
    if recovered.multiplicities != spectrum.multiplicities:
        yield float("inf")
        return
    yield float(np.abs(np.array(recovered.eigenvalues) - np.array(spectrum.eigenvalues)).max())


def _check_hermitian_sampler(dim, rng, hbar):
    h = sample_hermitian(dim, rng).matrix
    yield float(np.abs(h - h.conj().T).max())


def _check_degenerate_verticality(dim, rng, hbar):
    # At the maximally mixed state the whole gauge group acts, so every
    # Hamiltonian field is vertical and both brackets vanish.
    rho = DensityOperator(np.eye(dim, dtype=np.complex128) / dim)
    lift = standard_lift(rho, hbar)
    a = sample_hermitian(dim, rng)
    b = sample_hermitian(dim, rng)
    x = ham_field(a, lift)
    _, horizontal = split(lift, x)
    yield float(np.linalg.norm(horizontal)) / max(1.0, float(np.linalg.norm(x)))
    pair = brackets_at_lift(a, b, lift)
    yield from (abs(pair.riemann), abs(pair.poisson))


Check = Callable[[int, np.random.Generator, float], Iterator[float]]

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
        residuals = [r for _ in range(samples) for r in check(dim, rng, hbar)]
        # np.max keeps a NaN where Python's max would drop it; abs turns a
        # -0.0 maximum into 0.0.
        worst = abs(float(np.max([0.0, *residuals])))
        tol = base_tol * scale
        results.append(CheckResult(name, worst, tol, worst <= tol))
    return results
