"""The paper's spin-1/2 example over the whole Bloch ball, against a closed form.

For rho = (1 + r.sigma)/2, A = a0 + a.sigma and B = b0 + b.sigma, with
n = r/|r| and a_perp = a - (a.n)n, the brackets, the RS bound and the
spreads have closed forms in r, a and b alone:

    (hbar/2)(riemann + i poisson) = a_perp.b_perp + i r.(a x b)
    rs_bound                      = |a.b - (a.r)(b.r) + i r.(a x b)|
    delta_a^2                     = |a|^2 - (a.r)^2

The oracle below uses no lift and no eigensolver.  At r = 0 the spectrum
is one block of multiplicity 2, so both brackets vanish while the RS bound
stays |a.b|.
"""

import numpy as np
import pytest

from phasegeo.bundle import DEG_TOL_DEFAULT, DensityOperator
from phasegeo.observables import PAULI_X, PAULI_Y, PAULI_Z, Observable
from phasegeo.sampling import make_rng
from phasegeo.uncertainty import analyze_pairs

PAULIS = np.array([PAULI_X, PAULI_Y, PAULI_Z])
IDENTITY = np.eye(2, dtype=complex)
HBARS = (0.5, 1.0, 2.3)
DRAWS = 20


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _qubit(c0, c):
    return c0 * IDENTITY + np.tensordot(c, PAULIS, axes=1)


def _oracle(r, a, b):
    """(hbar/2)(riemann + i poisson), rs_bound, delta_a, delta_b from the closed form."""
    norm_r = np.linalg.norm(r)
    cross = float(r @ np.cross(a, b))
    if norm_r == 0.0:
        half_bracket = 0.0
    else:
        n = r / norm_r
        a_perp = a - (a @ n) * n
        b_perp = b - (b @ n) * n
        half_bracket = complex(a_perp @ b_perp, cross)
    rs = abs(complex(a @ b - (a @ r) * (b @ r), cross))
    return half_bracket, rs, np.sqrt(a @ a - (a @ r) ** 2), np.sqrt(b @ b - (b @ r) ** 2)


def _draw(rng, norm_r):
    r = norm_r * _unit(rng)
    a0, b0 = rng.standard_normal(2)
    a = rng.uniform(0.1, 3.0) * _unit(rng)
    b = rng.uniform(0.1, 3.0) * _unit(rng)
    return r, a0, a, b0, b


def _report(r, a0, a, b0, b, hbar):
    rho = DensityOperator(0.5 * _qubit(1.0, r))
    (report,) = analyze_pairs([Observable(_qubit(a0, a)), Observable(_qubit(b0, b))], rho, hbar)
    return report


@pytest.mark.parametrize("hbar", HBARS)
@pytest.mark.parametrize("norm_r", [1e-3, 0.3, 0.5, 0.9, 1 - 1e-6, 1.0])
def test_reports_match_the_closed_form_inside_and_on_the_bloch_sphere(norm_r, hbar):
    rng = make_rng(41, HBARS.index(hbar), int(norm_r * 1e6))
    for _ in range(DRAWS):
        r, a0, a, b0, b = _draw(rng, norm_r)
        report = _report(r, a0, a, b0, b, hbar)
        half_bracket, rs, delta_a, delta_b = _oracle(r, a, b)
        tol = 1e-12 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
        assert abs(0.5 * hbar * complex(report.riemann, report.poisson) - half_bracket) <= tol
        assert abs(report.rs_bound - rs) <= tol
        assert abs(report.delta_a - delta_a) <= tol
        assert abs(report.delta_b - delta_b) <= tol
        assert abs(report.geometric_bound - abs(half_bracket)) <= tol


@pytest.mark.parametrize("hbar", HBARS)
@pytest.mark.parametrize("norm_r", [0.0, 1e-9])
def test_merged_spectrum_has_zero_brackets_and_the_closed_form_rs_bound(norm_r, hbar):
    assert norm_r < DEG_TOL_DEFAULT
    rng = make_rng(43, HBARS.index(hbar), int(norm_r > 0))
    for _ in range(DRAWS):
        r, a0, a, b0, b = _draw(rng, norm_r)
        report = _report(r, a0, a, b0, b, hbar)
        _, rs, delta_a, delta_b = _oracle(r, a, b)
        tol = 1e-12 * max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
        assert abs(0.5 * hbar * complex(report.riemann, report.poisson)) <= tol
        assert report.geometric_bound <= tol
        assert abs(report.rs_bound - rs) <= tol
        assert abs(report.delta_a - delta_a) <= tol
        assert abs(report.delta_b - delta_b) <= tol
        if norm_r == 0.0:
            assert rs == abs(a @ b)
