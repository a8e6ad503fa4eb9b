"""Outside-in tracer for the switchsim package.

The tracer changes no file of the package. While installed it replaces
each traced public function with a wrapper that records a span (name,
start, end, parent), and rebinds the wrapper in every switchsim module
namespace that imported the function by name: `entanglement` binds
`partial_trace`, `lift` and `apply_channel` through `from ... import`, so a
wrapper on the home module alone would miss those calls. Classes are
traced through their `__post_init__`, which is where they validate. A few
numpy functions are counted without spans. Spans stay in flat in-memory
arrays until the run ends; self time is a span's duration minus that of
its direct children.

A traced name that the package no longer defines is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "switchsim"

#: module -> traced public names; a class is traced through its __post_init__.
#: Every public ``*_closed`` function of the package is traced as well.
TRACED = {
    "cli": ("main",),
    "sweep": ("run_sweep", "diff_sweep", "verify", "emit"),
    "switch": ("switch_unitary", "evolve", "switched_pair", "switch_fidelity"),
    "channels": ("make_channel", "lift", "apply_channel", "average_fidelity_numeric",
                 "KrausChannel"),
    "entanglement": ("schmidt_coefficients", "ppt_spectrum", "concurrence", "iconcurrence",
                     "von_neumann_entropy", "noisy_pair_density"),
    "states": ("PureState", "DensityMatrix", "tensor", "to_density", "partial_trace",
               "partial_transpose", "project_control"),
    "linalg": ("hermitian_eigensystem", "psd_sqrt"),
}

#: numpy functions whose calls are counted, as (module, name)
COUNTED = (("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"), ("numpy", "kron"))

#: the span whose arguments give channels.lift.useful_ratio
LIFT = "channels.lift"


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _closed_forms() -> list:
    """(module, name) of every public ``*_closed`` function in the package."""
    found = []
    for module in _package_modules():
        for name, obj in vars(module).items():
            if (name.endswith("_closed") and not name.startswith("_")
                    and inspect.isfunction(obj) and obj.__module__ == module.__name__):
                found.append((module.__name__.rsplit(".", 1)[-1], name))
    return sorted(found)


class Tracer:
    """Spans and counts of one traced pass. Use as a context manager: the
    wrappers are in place only inside the ``with`` block."""

    def __init__(self):
        self.names: list = []
        self.absent: list = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.lift_keys: set = set()
        self.lift_probe_failed = False
        self._stack = [-1]
        self._undo: list = []

    # --- installing -------------------------------------------------------

    def __enter__(self):
        importlib.import_module(PACKAGE)
        targets = [(m, n) for m, names in TRACED.items() for n in names] + _closed_forms()
        for module_name, name in dict.fromkeys(targets):
            self._trace(module_name, name)
        for module_name, name in COUNTED:
            module = importlib.import_module(module_name)
            self._set(module, name, self._counter(getattr(module, name), f"{module_name}.{name}"))
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
        return False

    def _set(self, target, attr, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _trace(self, module_name: str, name: str) -> None:
        label = f"{module_name}.{name}"
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            module = None
        obj = getattr(module, name, None)
        if inspect.isclass(obj) and "__post_init__" in vars(obj):
            self._set(obj, "__post_init__", self._span(obj.__post_init__, label))
        elif inspect.isfunction(obj):
            wrapper = self._span(obj, label)
            if label == LIFT:
                wrapper = self._lift_probe(wrapper)
            for mod in _package_modules():
                for attr in [a for a, v in vars(mod).items() if v is obj]:
                    self._set(mod, attr, wrapper)
        else:
            self.absent.append(label)

    # --- wrappers -----------------------------------------------------------

    def _span(self, fn, label: str):
        name_id = len(self.names)
        self.names.append(label)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _counter(self, fn, label: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return counted

    def _lift_probe(self, traced):
        """Record the distinct (kind, p, qubit, n_qubits) that `lift` builds."""
        signature = inspect.signature(traced)
        keys = self.lift_keys

        @functools.wraps(traced)
        def probed(*args, **kwargs):
            try:
                bound = signature.bind(*args, **kwargs).arguments
                channel = bound["channel"]
                keys.add((channel.kind, channel.p, bound["qubit"], bound["n_qubits"]))
            except (TypeError, KeyError, AttributeError):
                self.lift_probe_failed = True
            return traced(*args, **kwargs)

        return probed

    # --- results ------------------------------------------------------------

    def summary(self) -> dict:
        """{label: (calls, self_s, inclusive_s)} for every traced label."""
        n_names = len(self.names)
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=dur - child, minlength=n_names)
        incl_s = np.bincount(name, weights=dur, minlength=n_names)
        return {label: (int(calls[i]), float(self_s[i]), float(incl_s[i]))
                for i, label in enumerate(self.names)}

    def spans(self) -> dict:
        """The recorded spans as arrays, for writing to disk."""
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }
