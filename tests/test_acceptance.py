"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 3 to 6 and 9 share one randomized sample set (20 dimension/rank
combinations, 1000 triples each); the module-scoped fixture walks it once
and records per-criterion worst cases, timing only the work belonging to
the main-relation sweep.
"""

import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from phasegeo.bundle import (
    Spectrum,
    gauge_transform,
    inertia_inner,
    connection_form,
    standard_lift,
)
from phasegeo.linalg import hermitian_eig
from phasegeo.observables import (
    brackets_at_lift,
    chi_element,
    expected_value,
    ham_field,
    sym_covariance,
    xi_field,
    xi_perp,
)
from phasegeo.sampling import (
    make_rng,
    sample_density,
    sample_gauge_unitary,
    sample_hermitian,
    sample_spectrum,
)
from phasegeo.uncertainty import (
    analyze_pair,
    cauchy_schwarz_check,
    geometric_bound,
    variance_bound_check,
)

from helpers import eig_bisection, random_hermitian_matrix

SEED = 20260809
SAMPLES_PER_COMBO = 1000
DIMS = (2, 3, 4, 5, 6)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    print(f"PASS criterion {num}: {description}")


def _run_cli(*args):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "phasegeo.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc, time.perf_counter() - start


def _stdout_value(stdout, label):
    for line in stdout.splitlines():
        if line.startswith(label):
            return float(line.split("=")[-1])
    raise AssertionError(f"label {label!r} missing from demo output")


def new_stats():
    """Empty per-criterion worst cases for ``record_triple``."""
    return {
        "count": 0,
        "timed_seconds": 0.0,
        "min_slack_geometric": math.inf,
        "min_slack_rs": math.inf,
        "worst_covariance": 0.0,
        "worst_variance_slack": 0.0,
        "min_variance_gap": math.inf,
        "worst_cauchy_schwarz": 0.0,
        "worst_expectation": 0.0,
    }


def record_triple(stats, dim, rank, index):
    """Draw triple ``index`` of one (dim, rank) combination and fold its worst cases into ``stats``."""
    rng = make_rng(SEED, dim, rank, index)

    start = time.perf_counter()
    spectrum, _ = sample_spectrum(rank, rng)
    rho = sample_density(spectrum, dim, rng)
    obs_a = sample_hermitian(dim, rng)
    obs_b = sample_hermitian(dim, rng)
    lift = standard_lift(rho)
    report = analyze_pair(obs_a, obs_b, rho, lift=lift)
    stats["timed_seconds"] += time.perf_counter() - start

    stats["count"] += 1
    stats["min_slack_geometric"] = min(stats["min_slack_geometric"], report.slack_geometric)
    stats["min_slack_rs"] = min(stats["min_slack_rs"], report.slack_rs)

    # Criterion 4: geometric covariance versus the trace oracle.
    geo = sym_covariance(obs_a, obs_b, rho, lift=lift)
    oracle = 0.5 * np.trace(
        (obs_a.matrix @ obs_b.matrix + obs_b.matrix @ obs_a.matrix) @ rho.matrix
    ).real - expected_value(obs_a, rho) * expected_value(obs_b, rho)
    stats["worst_covariance"] = max(stats["worst_covariance"], abs(geo - oracle) / max(1.0, abs(oracle)))

    # Criterion 5: variance slack equals the perpendicular norm.
    check = variance_bound_check(obs_a, rho, lift=lift)
    perp = xi_perp(xi_field(obs_a, lift), lift.spectrum, 1.0)
    expected_gap = 0.5 * inertia_inner(perp, perp, lift.spectrum, 1.0)
    stats["worst_variance_slack"] = max(
        stats["worst_variance_slack"],
        abs(check.gap - expected_gap) / max(1.0, abs(check.lhs)),
    )
    stats["min_variance_gap"] = min(stats["min_variance_gap"], check.lhs - check.rhs)

    # Criterion 6: Cauchy-Schwarz on the horizontal brackets.
    cs = cauchy_schwarz_check(obs_a, obs_b, rho, lift=lift)
    stats["worst_cauchy_schwarz"] = max(stats["worst_cauchy_schwarz"], (cs.rhs - cs.lhs) / max(1.0, abs(cs.lhs)))

    # Criterion 9: expectation through the chi pairing.
    chi = chi_element(lift.rank, 1.0)
    for obs in (obs_a, obs_b):
        lhs = math.sqrt(0.5) * inertia_inner(chi, xi_field(obs, lift), lift.spectrum, 1.0)
        rhs = expected_value(obs, rho)
        stats["worst_expectation"] = max(stats["worst_expectation"], abs(lhs - rhs) / max(1.0, abs(rhs)))


@pytest.fixture(scope="module")
def bound_sweep():
    """Shared random triples for criteria 3 to 6 and 9."""
    stats = new_stats()
    for dim in DIMS:
        for rank in range(1, dim + 1):
            for index in range(SAMPLES_PER_COMBO):
                record_triple(stats, dim, rank, index)
    return stats


def test_criterion_01_spin_demo_reference_point():
    desc = "demo spin --p1 0.75 reproduces the spin-1/2 reference values in under 1 s"
    with criterion(1, desc):
        proc, elapsed = _run_cli("demo", "spin", "--p1", "0.75", "--hbar", "1")
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 1.0, f"demo took {elapsed:.2f}s"
        out = proc.stdout
        assert abs(_stdout_value(out, "riemann bracket")) <= 1e-10
        assert abs(_stdout_value(out, "poisson bracket") - 0.25) <= 1e-10
        assert abs(_stdout_value(out, "geometric_bound") - 0.125) <= 1e-10
        assert abs(_stdout_value(out, "product") - 0.25) <= 1e-10
        assert abs(_stdout_value(out, "rs_bound") - 0.125) <= 1e-10


def test_criterion_02_degenerate_spectrum_is_vertical():
    desc = "demo spin --p1 0.5 classifies the spin fields vertical with zero bounds"
    with criterion(2, desc):
        proc, _ = _run_cli("demo", "spin", "--p1", "0.5")
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        assert "X_Sx vertical, X_Sy vertical" in out
        assert abs(_stdout_value(out, "riemann bracket")) <= 1e-10
        assert abs(_stdout_value(out, "poisson bracket")) <= 1e-10
        assert abs(_stdout_value(out, "geometric_bound")) <= 1e-10


def test_criterion_03_main_relation_holds(bound_sweep):
    desc = "main relation: slack_geometric >= -1e-9 over 20000 random triples in < 60 s"
    with criterion(3, desc):
        assert bound_sweep["count"] == sum(DIMS) * SAMPLES_PER_COMBO
        assert bound_sweep["min_slack_geometric"] >= -1e-9
        assert bound_sweep["min_slack_rs"] >= -1e-9
        assert bound_sweep["timed_seconds"] < 60.0, (
            f"sweep took {bound_sweep['timed_seconds']:.1f}s"
        )
        print(
            f"criterion 3 sweep: {bound_sweep['count']} triples "
            f"in {bound_sweep['timed_seconds']:.1f}s; "
            f"min slack {bound_sweep['min_slack_geometric']:.3e}",
            end=" ... ",
        )


def test_criterion_04_covariance_identity(bound_sweep):
    desc = "covariance identity matches the trace oracle within 1e-9 on all samples"
    with criterion(4, desc):
        assert bound_sweep["worst_covariance"] <= 1e-9


def test_criterion_05_variance_bound_slack(bound_sweep):
    desc = "variance bound slack equals (hbar/2)|xi_perp|^2 within 1e-9, never below -1e-9"
    with criterion(5, desc):
        assert bound_sweep["worst_variance_slack"] <= 1e-9
        assert bound_sweep["min_variance_gap"] >= -1e-9


def test_criterion_06_cauchy_schwarz(bound_sweep):
    desc = "Cauchy-Schwarz estimate holds within 1e-9 on all samples"
    with criterion(6, desc):
        assert bound_sweep["worst_cauchy_schwarz"] <= 1e-9


def test_criterion_07_gauge_invariance():
    desc = "brackets/bounds at 50 gauge-moved lifts match the standard lift; connection equivariant"
    with criterion(7, desc):
        cases = [
            (2, Spectrum((1.0,), (1,))),
            (2, Spectrum((0.75, 0.25), (1, 1))),
            (2, Spectrum((0.5, 0.5), (2,))),
            (3, Spectrum((0.5, 0.3, 0.2), (1, 1, 1))),
            (4, Spectrum((0.4, 0.4, 0.2), (2, 1))),
            (5, Spectrum((0.6, 0.25, 0.15), (1, 1, 1))),
            (6, Spectrum((0.25, 0.25, 0.25, 0.25), (4,))),
        ]
        rng = make_rng(SEED, 7)
        for dim, spectrum in cases:
            rho = sample_density(spectrum, dim, rng)
            lift = standard_lift(rho)
            obs_a = sample_hermitian(dim, rng)
            obs_b = sample_hermitian(dim, rng)
            ref_pair = brackets_at_lift(obs_a, obs_b, lift)
            ref_bound = geometric_bound(obs_a, obs_b, rho, lift=lift)
            scale = max(1.0, abs(ref_pair.riemann), abs(ref_pair.poisson))
            ref_xi = connection_form(lift, ham_field(obs_a, lift)).xi
            for _ in range(50):
                u = sample_gauge_unitary(spectrum, rng)
                moved = gauge_transform(lift, u)
                pair = brackets_at_lift(obs_a, obs_b, moved)
                assert abs(pair.riemann - ref_pair.riemann) <= 1e-9 * scale
                assert abs(pair.poisson - ref_pair.poisson) <= 1e-9 * scale
                bound = geometric_bound(obs_a, obs_b, rho, lift=moved)
                assert abs(bound - ref_bound) <= 1e-9 * max(1.0, ref_bound)
                lhs = connection_form(moved, ham_field(obs_a, moved)).xi
                assert np.abs(lhs - u.conj().T @ ref_xi @ u).max() <= 1e-10


def test_criterion_08_pure_state_reduction():
    desc = "rank-1 orbits: geometric bound equals the RS bound within 1e-9 on 500 samples"
    with criterion(8, desc):
        rng = make_rng(SEED, 8)
        for index in range(500):
            dim = DIMS[index % len(DIMS)]
            spectrum, _ = sample_spectrum(1, rng)
            rho = sample_density(spectrum, dim, rng)
            report = analyze_pair(sample_hermitian(dim, rng), sample_hermitian(dim, rng), rho)
            assert abs(report.geometric_bound - report.rs_bound) <= 1e-9 * max(
                1.0, report.rs_bound
            )


def test_criterion_09_expectation_identity(bound_sweep):
    desc = "sqrt(hbar/2) chi pairing recovers Tr(A rho) within 1e-10 on all samples"
    with criterion(9, desc):
        assert bound_sweep["worst_expectation"] <= 1e-10


def test_criterion_10_eigensolver_oracle():
    desc = "hermitian_eig eigenvalues match the bisection oracle to 1e-9 on 100 matrices"
    with criterion(10, desc):
        rng = np.random.default_rng(SEED)
        for index in range(100):
            n = 2 + index % 5
            h = random_hermitian_matrix(n, rng)
            mine = hermitian_eig(h).values
            oracle = eig_bisection(h)[::-1]
            np.testing.assert_allclose(mine, oracle, atol=1e-9)


def test_criterion_11_sweep_determinism(tmp_path):
    desc = "sweep --dim 4 --rank 3 --samples 100 --seed 42 is byte-identical across runs"
    with criterion(11, desc):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        args = ["sweep", "--dim", "4", "--rank", "3", "--samples", "100", "--seed", "42"]
        proc_a, _ = _run_cli(*args, "--output", str(out_a))
        proc_b, _ = _run_cli(*args, "--output", str(out_b))
        assert proc_a.returncode == 0 and proc_b.returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert proc_a.stdout == proc_b.stdout
        doc = json.loads(out_a.read_text())
        assert len(doc["records"]) == 100
