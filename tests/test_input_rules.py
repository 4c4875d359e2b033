"""Input rules shared by every layer: positive finite scales, Hermiticity, one eigendecomposition per state."""

import json
import math
import sys

import numpy as np
import pytest

from phasegeo.bundle import (
    DensityOperator,
    GaugeAlgebraElement,
    Lift,
    Spectrum,
    connection_form,
    inertia_inner,
    spectrum_of,
    standard_lift,
)
from phasegeo.cli import main
from phasegeo.io import StateFileError, parse_state
from phasegeo.linalg import form_omega, hermitian_eig, metric_g
from phasegeo.observables import Observable, chi_element
from phasegeo.sampling import make_rng, sample_spectrum
from phasegeo.verify import tolerance_scale

STATE_TEXT = (
    '{"dimension": 2, "hbar": %s, '
    '"matrix": [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]}'
)
SPIN_OBSERVABLES_JSON = json.dumps(
    {
        "observables": [
            {"name": "Sx", "matrix": [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]]},
            {"name": "Sy", "matrix": [[[0, 0], [0, -0.5]], [[0, 0.5], [0, 0]]]},
        ]
    }
)
NON_FINITE = ("NaN", "Infinity")
OVERFLOWING = 1e160 * np.array([[0.0, 1.0], [0.0, 0.0]])


def _rank3_state():
    return DensityOperator(np.diag([0.5, 0.3, 0.2, 0.0]).astype(np.complex128))


class TestHbarMustBeFinite:
    @pytest.mark.parametrize("token", NON_FINITE)
    def test_state_document_rejects_non_finite_hbar(self, token):
        # Python's json accepts the NaN and Infinity tokens.
        with pytest.raises(StateFileError, match="hbar"):
            parse_state(json.loads(STATE_TEXT % token))

    @pytest.mark.parametrize("token", NON_FINITE)
    def test_analyze_exits_2_on_non_finite_hbar(self, token, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(STATE_TEXT % token)
        obs = tmp_path / "obs.json"
        obs.write_text(SPIN_OBSERVABLES_JSON)
        assert main(["analyze", "--state", str(state), "--observables", str(obs)]) == 2
        assert "hbar" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_demo_rejects_non_finite_hbar_as_usage_error(self, value):
        with pytest.raises(SystemExit) as err:
            main(["demo", "spin", "--p1", "0.75", "--hbar", value])
        assert err.value.code == 2

    @pytest.mark.parametrize("hbar", [float("nan"), float("inf"), 0.0, -1.0])
    def test_lift_rejects_hbar(self, hbar):
        lift = standard_lift(_rank3_state())
        with pytest.raises(ValueError, match="hbar"):
            Lift(lift.psi, lift.spectrum, hbar)

    @pytest.mark.parametrize("hbar", [float("nan"), float("inf")])
    def test_forms_and_gauge_algebra_reject_hbar(self, hbar):
        x = np.eye(2, dtype=np.complex128)
        spectrum = Spectrum((0.75, 0.25), (1, 1))
        xi = GaugeAlgebraElement(np.diag([1j, -1j]), spectrum)
        calls = (
            lambda: metric_g(x, x, hbar),
            lambda: form_omega(x, x, hbar),
            lambda: inertia_inner(xi, xi, spectrum, hbar),
            lambda: chi_element(2, hbar),
        )
        for call in calls:
            with pytest.raises(ValueError, match="hbar"):
                call()


def _sample_spectrum_untouched(deg_tol):
    """sample_spectrum with a bad deg_tol, asserting the generator made no draw first."""
    rng = make_rng(0)
    state = rng.bit_generator.state
    try:
        sample_spectrum(2, rng, deg_tol=deg_tol)
    finally:
        assert rng.bit_generator.state == state


def _env_tolerance_scale(value, monkeypatch):
    monkeypatch.setenv("PHASEGEO_TOLERANCE_SCALE", repr(value))
    tolerance_scale()


# (parameter named in the error, call taking the bad value and the monkeypatch fixture)
SCALE_ENTRIES = {
    "Spectrum": ("degeneracy_tolerance", lambda v, mp: Spectrum((0.75, 0.25), (1, 1), degeneracy_tolerance=v)),
    "spectrum_of-rank_tol": ("rank_tol", lambda v, mp: spectrum_of(_rank3_state(), rank_tol=v)),
    "spectrum_of-deg_tol": ("deg_tol", lambda v, mp: spectrum_of(_rank3_state(), deg_tol=v)),
    "standard_lift-rank_tol": ("rank_tol", lambda v, mp: standard_lift(_rank3_state(), rank_tol=v)),
    "standard_lift-deg_tol": ("deg_tol", lambda v, mp: standard_lift(_rank3_state(), deg_tol=v)),
    "sample_spectrum": ("deg_tol", lambda v, mp: _sample_spectrum_untouched(v)),
    "tolerance_scale": ("PHASEGEO_TOLERANCE_SCALE", _env_tolerance_scale),
}


class TestScalesMustBePositiveAndFinite:
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    @pytest.mark.parametrize("entry", SCALE_ENTRIES)
    def test_every_scale_entry_rejects(self, entry, value, monkeypatch):
        name, call = SCALE_ENTRIES[entry]
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value}$"):
            call(value, monkeypatch)


class TestOverflowingNorm:
    def test_gauge_algebra_element_rejects_overflowing_norm(self):
        with pytest.raises(ValueError, match="norm overflows"):
            GaugeAlgebraElement(OVERFLOWING)

    def test_hermitian_eig_rejects_overflowing_norm(self):
        with pytest.raises(ValueError, match="norm overflows"):
            hermitian_eig(OVERFLOWING)


class SolverCalls(list):
    """Names of numpy eigensolver calls, in order; ``matrices`` holds how many each one decomposed."""

    def __init__(self):
        super().__init__()
        self.matrices = []


@pytest.fixture()
def solver_calls(monkeypatch):
    """Count every call to numpy's Hermitian eigensolvers, and the matrices of each stack."""
    calls = SolverCalls()
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            calls.matrices.append(math.prod(np.shape(a)[:-2]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestOneEigendecompositionPerState:
    def test_state_and_lift_share_one_solver_call(self, solver_calls):
        rho = _rank3_state()
        lift = standard_lift(rho, 0.5)
        spectrum_of(rho)
        assert solver_calls == ["eigh"]
        np.testing.assert_allclose(lift.psi @ lift.psi.conj().T, rho.matrix, atol=1e-14)

    def test_sweep_makes_one_solver_call_per_sample(self, solver_calls, capsys):
        argv = ["sweep", "--dim", "4", "--rank", "3", "--samples", "5", "--seed", "1", "--format", "csv"]
        assert main(argv) == 0
        assert set(solver_calls) == {"eigh"}
        assert sum(solver_calls.matrices) == 5

    def test_frame_is_read_only(self):
        rho = _rank3_state()
        with pytest.raises(ValueError):
            rho.frame.values[0] = 0.0
        with pytest.raises(ValueError):
            rho.frame.vectors[0, 0] = 0.0

    def test_frame_is_not_an_argument_nor_shown(self):
        rho = _rank3_state()
        assert "frame" not in repr(rho)
        with pytest.raises(TypeError):
            DensityOperator(rho.matrix, rho.frame)

    def test_frame_matches_a_fresh_decomposition(self):
        rho = _rank3_state()
        eig = hermitian_eig(rho.matrix)
        assert (rho.frame.values == eig.values).all()
        assert (rho.frame.vectors == eig.vectors).all()


class TestSeedsAndSpectrumRoom:
    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--dim", "2", "--rank", "1", "--samples", "1"], ["verify", "--dim", "2", "--samples", "1"]],
        ids=["sweep", "verify"],
    )
    def test_negative_seed_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--seed", "-1"])
        assert err.value.code == 2
        assert "--seed must be non-negative, got -1" in capsys.readouterr().err

    def test_sample_spectrum_rejects_a_deg_tol_no_draw_can_meet(self):
        """Three eigenvalues need two gaps above 100 * deg_tol * p1 each, which sum to less than p1."""
        rng = make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^deg_tol 0.005 is too large for rank 3"):
            sample_spectrum(3, rng, deg_tol=0.005)
        assert rng.bit_generator.state == state

    def test_sample_spectrum_draws_just_below_the_bound(self):
        spectrum, _ = sample_spectrum(2, make_rng(0), deg_tol=0.009)
        assert spectrum.eigenvalues[0] - spectrum.eigenvalues[1] > 0.9 * spectrum.eigenvalues[0]


class TestOversizedIntegers:
    """A JSON integer beyond the float range is an input error that names its field or entry."""

    BIG = "1" + "0" * 400
    STATE = '{"dimension": 2, "hbar": %s, "matrix": [[[0.75, 0], [0, 0]], [[0, 0], [%s, 0]]]}'
    OBSERVABLES = (
        '{"observables": [{"name": "Sx", "matrix": [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]]},'
        ' {"name": "Sy", "matrix": [[[0, 0], [0, %s]], [[0, 0.5], [0, 0]]]}]}'
    )

    @pytest.mark.parametrize(
        "hbar, state_entry, obs_entry, where",
        [
            ("1.0", BIG, "-0.5", "matrix[1][1]: complex entry is out of the float range"),
            (BIG, "0.25", "-0.5", "hbar: must be a positive finite number"),
            ("1.0", "0.25", "-" + BIG, "observables[1].matrix[0][1]: complex entry is out of the float range"),
        ],
        ids=["state_matrix", "hbar", "observable_matrix"],
    )
    def test_analyze_exits_2_naming_the_field(self, hbar, state_entry, obs_entry, where, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(self.STATE % (hbar, state_entry))
        obs = tmp_path / "obs.json"
        obs.write_text(self.OBSERVABLES % obs_entry)
        assert main(["analyze", "--state", str(state), "--observables", str(obs)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
    def test_integer_past_the_digit_limit_is_invalid_json(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(self.STATE % ("1" * (sys.get_int_max_str_digits() + 1), "0.25"))
        obs = tmp_path / "obs.json"
        obs.write_text(self.OBSERVABLES % "-0.5")
        assert main(["analyze", "--state", str(state), "--observables", str(obs)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {state}: invalid JSON (Exceeds the limit")
        assert err.count("\n") == 1


# A rank-2 spectrum whose blocks an off-diagonal element mixes, and a full 2x2 anti-Hermitian element.
SPLIT = Spectrum((0.75, 0.25), (1, 1))
MIXING = np.array([[1j, 1.0], [-1.0, -1j]])


class TestOutsideInputKeepsEveryRule:
    """Values built outside the package pass every rule, however the package builds its own."""

    def test_inertia_inner_rejects_an_element_of_another_spectrum_of_equal_rank(self):
        foreign = GaugeAlgebraElement(MIXING, Spectrum((0.5, 0.5), (2,)))
        with pytest.raises(ValueError, match="does not commute with P"):
            inertia_inner(foreign, foreign, SPLIT)

    def test_chi_element_rejects_a_float_rank_after_the_int_one(self):
        chi_element(2)
        with pytest.raises(TypeError):
            chi_element(2.0)

    def test_inertia_inner_rejects_a_bare_element_that_does_not_commute(self):
        bare = GaugeAlgebraElement(MIXING)
        ok = GaugeAlgebraElement(np.diag([1j, -1j]), SPLIT)
        for xi, eta in ((bare, ok), (ok, bare)):
            with pytest.raises(ValueError, match="does not commute with P"):
                inertia_inner(xi, eta, SPLIT)

    @pytest.mark.parametrize(
        "entry, message",
        [(1e160j, "contains NaN or Inf entries"), (1e10j, "norm overflows")],
        ids=["m_over_p_overflows", "norm_overflows"],
    )
    def test_connection_form_raises_when_m_over_p_overflows(self, entry, message):
        """p2 = 1e-300 sends m / p past the float range (NaN, Inf) or its norm past it; X is exactly tangent."""
        lift = Lift(np.diag([1.0, 1e-150]).astype(np.complex128), Spectrum((1.0, 1e-300), (1, 1)))
        x = np.diag([0.0, entry])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match=message):
            connection_form(lift, x)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Observable(np.array([[0.0, 1.0], [0.0, 0.0]])), "not Hermitian"),
            (lambda: Observable(np.array([[np.nan, 0.0], [0.0, 1.0]])), "NaN or Inf"),
            (lambda: Observable(np.zeros((2, 3))), "must be square"),
            (lambda: Observable(np.ones(2)), "must be 2-D"),
            (lambda: Observable(OVERFLOWING + OVERFLOWING.T), "norm overflows"),
            (lambda: DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]])), "not Hermitian"),
            (lambda: DensityOperator(np.diag([0.75, 0.5])), "trace must be 1"),
            (lambda: DensityOperator(np.diag([1.5, -0.5])), "negative eigenvalue"),
            (lambda: DensityOperator(np.diag([np.inf, 0.0])), "NaN or Inf"),
            (lambda: Spectrum((0.25, 0.75), (1, 1)), "non-increasing"),
            (lambda: Spectrum((0.5, 0.4), (1, 1)), "sum to 1"),
            (lambda: Spectrum((1.0, 0.0), (1, 1)), "strictly positive"),
            (lambda: Spectrum((0.5 + 1e-10, 0.5 - 1e-10), (1, 1)), "degeneracy tolerance"),
            (lambda: Spectrum((0.75, 0.25), (2,)), "within a multiplicity block"),
            (lambda: Spectrum((0.75, 0.25), (1,)), "sum to the number"),
            (lambda: GaugeAlgebraElement(np.eye(2)), "not anti-Hermitian"),
            (lambda: GaugeAlgebraElement(np.diag([1j, np.nan])), "NaN or Inf"),
            (lambda: GaugeAlgebraElement(MIXING, SPLIT), "does not commute with P"),
            (lambda: GaugeAlgebraElement(1j * np.eye(3), SPLIT), "spectrum has rank 2"),
        ],
        ids=[
            "observable-not-hermitian",
            "observable-nan",
            "observable-not-square",
            "observable-1d",
            "observable-norm-overflows",
            "density-not-hermitian",
            "density-trace",
            "density-negative",
            "density-inf",
            "spectrum-increasing",
            "spectrum-sum",
            "spectrum-zero",
            "spectrum-degenerate",
            "spectrum-block-values",
            "spectrum-multiplicities",
            "element-hermitian",
            "element-nan",
            "element-mixes-blocks",
            "element-rank",
        ],
    )
    def test_public_constructor_rejects(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()
