"""Spans around the public functions of each phasegeo module.

The tracer replaces each listed function, in every ``phasegeo.*`` namespace
that holds the same object, by a wrapper that records a span (name, start,
end, parent).  Modules that import a function by name (``cli``, ``verify``,
``uncertainty``) hold their own reference, which is why every namespace is
patched.  ``installed()`` restores the originals on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("linalg", "bundle", "observables", "uncertainty", "sampling", "io", "verify", "cli")

TRACED = {
    "linalg": ("hermitian_eig", "metric_g", "form_omega"),
    "bundle": (
        "spectrum_of",
        "standard_lift",
        "split",
        "connection_form",
        "gauge_transform",
        "project",
        "inertia_inner",
        "moment_pairing",
    ),
    "observables": (
        "ham_field",
        "brackets",
        "brackets_at_lift",
        "xi_field",
        "xi_perp",
        "sym_covariance",
        "expected_value",
    ),
    "uncertainty": ("analyze_pair", "variance", "rs_bound", "variance_bound_check", "cauchy_schwarz_check"),
    "sampling": (
        "make_rng",
        "sample_spectrum",
        "sample_density",
        "sample_unitary",
        "sample_hermitian",
        "sample_gauge_unitary",
        "sample_gauge_algebra",
    ),
    "io": ("load_state", "load_observables", "report_to_dict", "write_reports_json", "write_reports_csv"),
    "verify": ("run_battery",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod in MODULES for fn in TRACED[mod])


def self_times(spans) -> dict[str, tuple[int, int]]:
    """Calls and self time (ns) per span name.

    ``spans`` is a sequence of (name, start_ns, end_ns, parent) where parent
    is the index of the enclosing span or -1.  Self time is a span's duration
    minus the durations of its direct children.
    """
    covered = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for (name, start, end, _), child in zip(spans, covered):
        out[name][0] += 1
        out[name][1] += end - start - child
    return {name: (calls, ns) for name, (calls, ns) in out.items()}


class Tracer:
    """Span recorder; spans accumulate until ``take_spans`` hands them over."""

    def __init__(self):
        self.spans: list = []
        self.spectrum_resampled = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if name == "sampling.sample_spectrum":
                self.spectrum_resampled += result[1]
            return result

        return traced

    def take_spans(self) -> list:
        if self._stack:
            raise RuntimeError("spans taken while a traced call is open")
        out = list(self.spans)
        self.spans.clear()
        return out

    @contextmanager
    def installed(self):
        """Patch every phasegeo namespace holding a traced function; restore on exit."""
        namespaces = [
            mod for key, mod in list(sys.modules.items()) if key == "phasegeo" or key.startswith("phasegeo.")
        ]
        patched = []
        try:
            for mod_name in MODULES:
                home = sys.modules[f"phasegeo.{mod_name}"]
                for fn_name in TRACED[mod_name]:
                    original = getattr(home, fn_name)
                    wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                setattr(ns, attr, wrapper)
                                patched.append((ns, attr, original))
            yield self
        finally:
            for ns, attr, original in reversed(patched):
                setattr(ns, attr, original)


def callables_snapshot() -> dict[str, object]:
    """Every callable attribute of every phasegeo namespace, keyed by dotted name."""
    return {
        f"{key}.{attr}": value
        for key, mod in list(sys.modules.items())
        if key == "phasegeo" or key.startswith("phasegeo.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def changed_since(before: dict[str, object]) -> list[str]:
    """Names whose object is no longer the one in ``before`` (empty after a clean restore)."""
    after = callables_snapshot()
    return sorted(name for name, value in before.items() if after.get(name) is not value)
