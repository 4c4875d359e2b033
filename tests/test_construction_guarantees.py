"""Values the package builds through ``linalg._unchecked`` meet every rule their public constructor runs.

The fixture below replaces the helper, in every phasegeo namespace that holds it, by one that also
builds each value through its public constructor and requires the stored fields to agree.  A value
whose construction did not guarantee its rules then raises where the helper was called.
"""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from phasegeo import linalg
from phasegeo.bundle import DensityOperator
from phasegeo.observables import Observable
from phasegeo.sampling import _orbit_draws, make_rng, sample_spectrum
from phasegeo.verify import run_battery

from test_acceptance import DIMS, new_stats, record_triple

ROUTED = {"Observable", "DensityOperator", "Spectrum", "GaugeAlgebraElement"}


def _same(x, y) -> bool:
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and all(_same(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    return x == y


@pytest.fixture()
def checked_helper(monkeypatch):
    """Route ``_unchecked`` through the public constructors too; count the values built per class."""
    original = linalg._unchecked
    built = Counter()

    def checked(cls, *values):
        value = original(cls, *values)
        public = cls(*(v for f, v in zip(dataclasses.fields(cls), values) if f.init))
        assert _same(value, public), f"{cls.__name__} differs from its public construction"
        built[cls.__name__] += 1
        return value

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "phasegeo" and vars(module).get("_unchecked") is original:
            monkeypatch.setattr(module, "_unchecked", checked)
    return built


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_battery_values_meet_their_rules(checked_helper, dim):
    assert all(result.passed for result in run_battery(dim, 4, seed=dim))
    assert set(checked_helper) == ROUTED


def test_acceptance_triples_meet_their_rules(checked_helper):
    stats = new_stats()
    for dim in DIMS:
        for rank in range(1, dim + 1):
            for index in range(15):
                record_triple(stats, dim, rank, index)
    assert stats["count"] == 15 * sum(DIMS)
    assert set(checked_helper) == ROUTED


def test_parsed_observables_meet_their_rules(checked_helper):
    """parse_observables builds each observable of a stack that passed the stacked rules: the per-matrix rules hold."""
    from phasegeo.io import parse_observables

    rng = np.random.default_rng(5)
    g = rng.standard_normal((40, 4, 4)) + 1j * rng.standard_normal((40, 4, 4))
    scales = np.geomspace(1e-150, 1e150, len(g))[:, None, None]
    mats = scales * (g + g.conj().swapaxes(-1, -2)) + 1e-13 * np.abs(scales) * g  # slightly off-Hermitian, in tolerance
    doc = {"observables": [{"matrix": np.stack((m.real, m.imag), axis=-1).tolist()} for m in mats]}
    assert len(parse_observables(doc, 4)) == len(mats)
    assert checked_helper == {"Observable": len(mats)}


@pytest.mark.parametrize("dim, rank, count", [(1, 1, 3), (2, 1, 5), (3, 2, 1), (4, 3, 7), (5, 2, 10), (6, 6, 4)])
def test_sweep_draws_meet_their_rules(dim, rank, count):
    """The sweep's stacked draws skip the rules they meet by construction: each slice is what the public
    constructors build from it, and the frames are the input-checked eigendecomposition, byte for byte."""
    spectrum, _ = sample_spectrum(rank, make_rng(dim, 0))
    states, frames, observables = _orbit_draws(spectrum, dim, (make_rng(dim, 1, i) for i in range(count)))
    assert states.shape == (count, dim, dim) and observables.shape == (count, 2, dim, dim)
    checked = linalg.hermitian_eig(states)
    assert frames.values.tobytes() == checked.values.tobytes()
    assert frames.vectors.tobytes() == checked.vectors.tobytes()
    for state, values, vectors, pair in zip(states, frames.values, frames.vectors, observables):
        rho = DensityOperator(state)
        assert rho.matrix.tobytes() == state.tobytes()
        assert rho.frame.values.tobytes() == values.tobytes() and rho.frame.vectors.tobytes() == vectors.tobytes()
        for m in pair:
            assert Observable(m).matrix.tobytes() == m.tobytes()
