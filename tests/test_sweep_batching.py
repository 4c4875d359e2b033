"""The batched sweep: chunk-independent bytes, the per-state API as oracle, mixed block structures."""

import io

import numpy as np
import pytest

from phasegeo import cli, uncertainty
from phasegeo.bundle import DensityOperator, _density_frame, _spectral_groups
from phasegeo.io import report_to_dict, write_reports_csv
from phasegeo.linalg import _hermitian_matrix, hermitian_eig
from phasegeo.observables import Observable
from phasegeo.sampling import make_rng, sample_density, sample_hermitian, sample_spectrum, sample_unitary
from phasegeo.uncertainty import RelationViolationError, UncertaintyReport, _analyze_states, analyze_pair, analyze_pairs


def _sweep(capsys, dim, rank, samples, seed, fmt):
    argv = ["sweep", "--dim", str(dim), "--rank", str(rank), "--samples", str(samples)]
    assert cli.main(argv + ["--seed", str(seed), "--format", fmt]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("dim, rank, samples, fmt", [(4, 3, 50, "csv"), (6, 6, 20, "json"), (2, 1, 30, "json")])
def test_output_does_not_depend_on_the_chunk_size(monkeypatch, capsys, dim, rank, samples, fmt):
    reference = _sweep(capsys, dim, rank, samples, 9, fmt)
    real = cli._analyze_states
    for chunk in (1, 7, samples):
        sizes = []
        monkeypatch.setattr(cli, "_CHUNK_ENTRIES", chunk * dim * dim)
        monkeypatch.setattr(cli, "_analyze_states", lambda obs, *args: sizes.append(len(obs)) or real(obs, *args))
        assert _sweep(capsys, dim, rank, samples, 9, fmt) == reference
        assert sizes == [chunk] * (samples // chunk) + [samples % chunk] * (samples % chunk > 0)


@pytest.mark.parametrize("dim, rank, seed", [(4, 3, 3), (2, 1, 5), (5, 2, 11)])
def test_sweep_matches_the_per_state_api(capsys, dim, rank, seed):
    """Records rebuilt one state at a time from the public API equal the sweep's, byte for byte."""
    samples = 25
    spectrum, _ = sample_spectrum(rank, make_rng(seed, 0))
    records = []
    for index in range(samples):
        rng = make_rng(seed, 1, index)
        rho = sample_density(spectrum, dim, rng)
        obs_a = sample_hermitian(dim, rng)
        obs_b = sample_hermitian(dim, rng)
        record = {"sample_index": index, "seed": seed, "dimension": dim, "rank": rank}
        record.update(report_to_dict(analyze_pair(obs_a, obs_b, rho)))
        records.append(record)
    expected = io.StringIO()
    write_reports_csv(expected, records, extra_fields=("sample_index", "seed", "dimension", "rank"))
    assert _sweep(capsys, dim, rank, samples, seed, "csv") == expected.getvalue()


def _mixed_stack():
    """States of four block structures, rotated, with three observables each."""
    rng = make_rng(21)
    spectra = ((0.5, 0.5, 0.0), (0.6, 0.3, 0.1), (1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.4, 0.4, 0.2))
    states = []
    for p in spectra:
        u = sample_unitary(3, rng)
        m = (u * np.asarray(p)) @ u.conj().T
        states.append(0.5 * (m + m.conj().T))
    states.insert(1, np.diag([0.5, 0.5, 0.0]).astype(complex))
    observables = np.array([[sample_hermitian(3, rng).matrix for _ in range(3)] for _ in states])
    return np.array(states), observables


def test_stack_mixing_block_structures_matches_per_state_reports():
    states, observables = _mixed_stack()
    frames = hermitian_eig(states)
    groups = _spectral_groups(frames.values, 1e-12, 1e-8)
    assert sorted(m for _, m, _ in groups) == [(1,), (1, 1, 1), (2,), (2, 1)]
    for hbar in (1.0, 0.7):
        spreads, (a, b), columns = _analyze_states(observables, states, frames, hbar)
        stacked = [*map(UncertaintyReport, map(spreads.__getitem__, a), map(spreads.__getitem__, b), *columns)]
        assert len(stacked) == 3 * len(states)
        for s, state in enumerate(states):
            reports = analyze_pairs([Observable(m) for m in observables[s]], DensityOperator(state), hbar)
            assert stacked[3 * s : 3 * s + 3] == reports


@pytest.mark.parametrize(
    "state, observable",
    [
        (np.diag([0.7, 0.7, 0.0]), None),
        (np.diag([0.9, 0.3, -0.2]), None),
        (np.diag([0.5, 0.5, 0.0]) + 1e-3 * np.triu(np.ones((3, 3)), 1), None),
        (None, np.triu(np.ones((3, 3)))),
    ],
    ids=["trace", "negative_eigenvalue", "state_not_hermitian", "observable_not_hermitian"],
)
def test_a_failing_slice_raises_what_the_single_state_raises(state, observable):
    """The stacked rules the routes run before _analyze_states: on the states, and as parse_observables does."""
    states, observables = _mixed_stack()
    if state is not None:
        states[2] = state
        single = lambda: DensityOperator(state)  # noqa: E731
    else:
        observables[2, 1] = observable
        single = lambda: Observable(observable)  # noqa: E731
    with pytest.raises(ValueError) as expected:
        single()
    with pytest.raises(ValueError) as got:
        _density_frame(states, hermitian_eig(states))
        _hermitian_matrix(observables, "observable", stacked=True)
    assert str(got.value) == str(expected.value)


def test_every_structure_passes_its_rules_before_the_report_pass(monkeypatch):
    """A bound fault of the first structure does not hide a spectrum fault of a later one."""
    states, observables = _mixed_stack()
    frames = hermitian_eig(states)
    kernel, check = uncertainty._bracket_kernel, uncertainty._check_spectra

    def nan_kernel(mats, psi, p, multiplicities, hbar):
        z = kernel(mats, psi, p, multiplicities, hbar)
        return np.full_like(z, np.nan) if multiplicities == (2,) else z

    def failing_check(p, multiplicities, deg_tol):
        if multiplicities == (1, 1, 1):
            raise ValueError("spectrum fault")
        check(p, multiplicities, deg_tol)

    monkeypatch.setattr(uncertainty, "_bracket_kernel", nan_kernel)
    with pytest.raises(RelationViolationError, match="geometric bound nan"):
        _analyze_states(observables, states, frames, 1.0)
    monkeypatch.setattr(uncertainty, "_check_spectra", failing_check)
    with pytest.raises(ValueError, match="spectrum fault"):
        _analyze_states(observables, states, frames, 1.0)


def test_stacked_eigendecomposition_matches_each_matrix():
    """Ties and pivots off the first row take the general sort and phase fix; one matrix takes the short ones."""
    rng = make_rng(8)
    stack = [sample_hermitian(4, rng).matrix for _ in range(4)]
    stack += [np.diag([0.25] * 4), np.diag([0.1, 0.4, 0.2, 0.3]), np.diag([0.0, 0.5, 0.5, 0.0])]
    stacked = hermitian_eig(np.array(stack))
    for i, m in enumerate(stack):
        one = hermitian_eig(m)
        assert stacked.values[i].tobytes() == one.values.tobytes()
        assert stacked.vectors[i].tobytes() == one.vectors.tobytes()
