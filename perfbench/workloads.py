"""The four benchmark workloads: CLI invocations, item counts and generated inputs.

Every input is derived from the workload seed.  Sweeps and verify pass a
per-invocation CLI seed; analyze-wide reads a state and observables that
are generated here with numpy's own Generator (independent of phasegeo's
samplers) and written to JSON files.

numpy is imported inside the functions that need it: the worker imports
this module before phasegeo, and set-up time must include numpy's import.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Per-invocation sizes: each invocation takes roughly 0.2-0.9 s on a
# 2-vCPU x86 VM at the seed commit, so a 22 s run holds 25-100 timed
# invocations while one invocation still averages over many items.
SWEEP_SMALL_SAMPLES = 200
SWEEP_LARGE_SAMPLES = 4
VERIFY_SAMPLES = 8

# analyze-wide: dim 8 with multiplicities (1, 2, 3) plus two zero
# eigenvalues (rank cut to 6), 64 observables and hbar = 0.5.
ANALYZE_DIM = 8
ANALYZE_MULTIPLICITIES = (1, 2, 3)
ANALYZE_OBSERVABLES = 64
ANALYZE_HBAR = 0.5

# Distinct eigenvalues of the generated state differ by at least this
# fraction of the largest, far above phasegeo's degeneracy tolerance.
_MIN_RELATIVE_GAP = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str
    command: str
    fixed_args: tuple[str, ...]
    samples: int | None = None

    @property
    def flags(self) -> dict[str, str]:
        """The fixed ``--flag value`` arguments, e.g. ``{"--dim": "4"}``."""
        return dict(zip(self.fixed_args[::2], self.fixed_args[1::2]))

    def argv(self, seed: int, index: int, files: AnalyzeFiles | None = None) -> list[str]:
        """CLI arguments of invocation ``index``; equal indices give equal arguments."""
        args = [self.command, *self.fixed_args]
        if self.command == "analyze":
            if files is None:
                raise ValueError("analyze-wide needs its generated input files")
            return args + ["--state", files.state, "--observables", files.observables]
        return args + ["--samples", str(self.samples), "--seed", str(cli_seed(seed, index))]

    def input_sizes(self) -> dict:
        if self.command == "analyze":
            n = ANALYZE_OBSERVABLES
            return {
                "dim": ANALYZE_DIM,
                "multiplicities": list(ANALYZE_MULTIPLICITIES),
                "rank": sum(ANALYZE_MULTIPLICITIES),
                "observables": n,
                "pairs": n * (n - 1) // 2,
                "hbar": ANALYZE_HBAR,
            }
        sizes = {k.lstrip("-"): v for k, v in self.flags.items()}
        sizes["samples_per_invocation"] = self.samples
        return sizes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-small",
            "many tiny states, one pair each: per-sample fixed costs (RNG spawn, "
            "validation, MGS sampling, CSV output) and the dim-4 eigensolver",
            "one sampled triple (state plus pair); 200 per invocation",
            "sweep",
            ("--dim", "4", "--rank", "3", "--format", "csv"),
            SWEEP_SMALL_SAMPLES,
        ),
        Workload(
            "sweep-large",
            "few dim-32 states: the pure-Python eigensolver and Haar sampler dominate, "
            "brackets and output are negligible",
            "one sampled triple (state plus pair); 4 per invocation",
            "sweep",
            ("--dim", "32", "--rank", "16", "--format", "json"),
            SWEEP_LARGE_SAMPLES,
        ),
        Workload(
            "analyze-wide",
            "one dim-8 state with blocks (1,2,3), rank cut and hbar 0.5 against 64 "
            "observables: 2016 pairs over a single eigendecomposition",
            "one observable pair; 64 observables give 2016 pairs per invocation",
            "analyze",
            ("--format", "json"),
        ),
        Workload(
            "verify",
            "the 25-check invariant battery at dim 4: the reference connection-form route "
            "and many eigendecompositions per pair",
            "one check-sample: checks reported times --samples (25 x 8 per invocation)",
            "verify",
            ("--dim", "4"),
            VERIFY_SAMPLES,
        ),
    )
}


def cli_seed(seed: int, index: int) -> int:
    """CLI --seed of invocation ``index`` under workload seed ``seed``."""
    return seed * 1_000_000 + index


@dataclass(frozen=True)
class AnalyzeInputs:
    """The generated analyze-wide state and observables, as numpy arrays."""

    rho: np.ndarray
    observables: np.ndarray
    names: tuple[str, ...]
    multiplicities: tuple[int, ...]
    hbar: float


@dataclass(frozen=True)
class AnalyzeFiles:
    state: str
    observables: str


def _haar_unitary(n, rng):
    import numpy as np

    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def make_analyze_inputs(
    seed: int,
    dim: int = ANALYZE_DIM,
    multiplicities: tuple[int, ...] = ANALYZE_MULTIPLICITIES,
    count: int = ANALYZE_OBSERVABLES,
    hbar: float = ANALYZE_HBAR,
) -> AnalyzeInputs:
    """State with the given block structure (zeros fill up to ``dim``) and Gaussian observables."""
    import numpy as np

    rank = sum(multiplicities)
    if rank > dim:
        raise ValueError(f"multiplicities {multiplicities} exceed dimension {dim}")
    rng = np.random.Generator(np.random.PCG64(seed))
    mults = np.asarray(multiplicities, dtype=float)
    while True:
        e = np.sort(rng.standard_exponential(len(multiplicities)))[::-1]
        p = e / np.dot(e, mults)
        if len(p) == 1 or np.min(p[:-1] - p[1:]) > _MIN_RELATIVE_GAP * p[0]:
            break
    diag = np.zeros(dim)
    diag[:rank] = np.repeat(p, multiplicities)
    u = _haar_unitary(dim, rng)
    m = (u * diag) @ u.conj().T
    rho = 0.5 * (m + m.conj().T)
    obs = []
    for _ in range(count):
        g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
        obs.append(0.5 * (g + g.conj().T))
    names = tuple(f"A{i:02d}" for i in range(count))
    return AnalyzeInputs(rho, np.array(obs), names, tuple(multiplicities), float(hbar))


def _pairs(matrix) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]


def write_analyze_files(inputs: AnalyzeInputs, directory: str) -> AnalyzeFiles:
    """Write the state and observables documents phasegeo analyze reads."""
    os.makedirs(directory, exist_ok=True)
    state = os.path.join(directory, "state.json")
    observables = os.path.join(directory, "observables.json")
    with open(state, "w", encoding="utf-8") as fh:
        json.dump(
            {"dimension": inputs.rho.shape[0], "hbar": inputs.hbar, "matrix": _pairs(inputs.rho)}, fh
        )
    with open(observables, "w", encoding="utf-8") as fh:
        doc = [{"name": n, "matrix": _pairs(a)} for n, a in zip(inputs.names, inputs.observables)]
        json.dump({"observables": doc}, fh)
    return AnalyzeFiles(state, observables)
