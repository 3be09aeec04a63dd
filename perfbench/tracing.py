"""Wrappers installed from outside supercoh: spans for the traced run and the
always-on call counter behind the cold-isolation guard.

A wrapper replaces a function in the module or class that defines it and in
every loaded ``supercoh`` module that bound it by name (``simplicial`` binds
``solve_mod`` and ``smith_decomposition`` at import, for example), and
``Patch.remove`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# label -> (module, attribute path).  A class is timed through the method that
# does its work: SimplicialComplex.__init__ closes and indexes the complex,
# CohomologyClass.__post_init__ validates the cocycle.  index_of and value_on
# are left out on purpose: criterion 4 alone makes millions of calls to them.
TRACED = {
    "corpus.product": ("corpus", "product"),
    "simplicial.SimplicialComplex": ("simplicial", "SimplicialComplex.__init__"),
    "simplicial.coboundary_matrix": ("simplicial", "coboundary_matrix"),
    "simplicial.cohomology": ("simplicial", "cohomology"),
    "simplicial.is_cohomologous": ("simplicial", "is_cohomologous"),
    "simplicial.class_coordinates": ("simplicial", "class_coordinates"),
    "simplicial.Cochain.coboundary": ("simplicial", "Cochain.coboundary"),
    "simplicial.Cochain.is_cocycle": ("simplicial", "Cochain.is_cocycle"),
    "simplicial.CohomologyClass": ("simplicial", "CohomologyClass.__post_init__"),
    "exact_linalg.solve_mod": ("exact_linalg", "solve_mod"),
    "exact_linalg.smith_decomposition": ("exact_linalg", "smith_decomposition"),
    "exact_linalg.cokernel": ("exact_linalg", "cokernel"),
    "exact_linalg.kernel_mod_p": ("exact_linalg", "kernel_mod_p"),
    "exact_linalg.f2_kernel": ("exact_linalg", "f2_kernel"),
    "exact_linalg.IntMatrix.hstack": ("exact_linalg", "IntMatrix.hstack"),
    "operations.cup": ("operations", "cup"),
    "operations.cup_i": ("operations", "cup_i"),
    "operations.sq": ("operations", "sq"),
    "operations.bockstein": ("operations", "bockstein"),
    "brauer.abstract_group": ("brauer", "abstract_group"),
    "brauer.twist_subgroup": ("brauer", "twist_subgroup"),
    "brauer.add": ("brauer", "add"),
    "brauer.negate": ("brauer", "negate"),
    "brauer.equals": ("brauer", "equals"),
    "brauer.random_element": ("brauer", "random_element"),
    "dsv.is_quasi_iso": ("dsv", "is_quasi_iso"),
    "dsv.homotopy_inverse": ("dsv", "homotopy_inverse"),
    "dsv.tensor": ("dsv", "tensor"),
    "dsv.epsilon": ("dsv", "epsilon"),
    "stable2type.enumerate_symmetric_structures": ("stable2type", "enumerate_symmetric_structures"),
    "stable2type.equivalent": ("stable2type", "equivalent"),
}

# Calls that warm a cache which a forked child would inherit.
COLD_GUARDED = {
    "simplicial.cohomology": TRACED["simplicial.cohomology"],
    "exact_linalg.solve_mod": TRACED["exact_linalg.solve_mod"],
    "exact_linalg.smith_decomposition": TRACED["exact_linalg.smith_decomposition"],
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"supercoh.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Patch:
    """Replace each target with make_wrapper(label, original) until remove()."""

    def __init__(self, targets: dict, make_wrapper):
        self._undo = []
        for label, (module, path) in targets.items():
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            wrapper = make_wrapper(label, original)
            self._set(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not (mod_name == "supercoh" or mod_name.startswith("supercoh.")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class CallCounter:
    """Counts calls to the cache-warming functions; cheap enough to stay on."""

    def __init__(self):
        self.counts = Counter()
        self._patch = Patch(COLD_GUARDED, self._wrap)

    def _wrap(self, label, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return counted

    def total(self) -> int:
        return sum(self.counts.values())

    def remove(self):
        self._patch.remove()


class Tracer:
    """Spans (id, name, start, end, parent id, operation id), kept in memory.

    solve_mod calls are also keyed by their coefficient matrix, compared by
    value, to give the reuse ratio and the warm-up guard: a matrix first seen
    outside set-up is one that set-up did not factor.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = "setup"
        self.solve_calls = 0
        self.matrices: dict = {}
        self.distinct_elsewhere = 0
        self.timed_new_elsewhere = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patch = None

    def install(self):
        self._patch = Patch(TRACED, self._wrap)

    def remove(self):
        if self._patch is not None:
            self._patch.remove()
            self._patch = None

    def _wrap(self, label, fn):
        tracer = self
        stack = self._stack
        spans = self.spans
        is_solve = label == "exact_linalg.solve_mod"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_solve:
                tracer._note_solve(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, label, start, end, parent, tracer.op))

        return traced

    def _note_solve(self, a, b, n):
        self.solve_calls += 1
        if n == 1:
            return  # answered without a factorization
        key = (n == 2, a)  # the F2 and the integer solvers cache separately
        self.matrices.setdefault(key, self.op)

    # -- forked children ---------------------------------------------------

    def start_child(self):
        """Forget the parent's records; the child reports only its own."""
        self.spans.clear()
        self._stack.clear()
        self._next_id = 0
        self.solve_calls = 0
        self.matrices = {}
        self.distinct_elsewhere = 0
        self.timed_new_elsewhere = 0

    def child_report(self) -> dict:
        return {
            "spans": list(self.spans),
            "solve_calls": self.solve_calls,
            "distinct": self.distinct_matrices(),
            "timed_new": self.timed_new_matrices(),
        }

    def absorb(self, report: dict):
        """Add a child's report, renumbering its span ids after ours."""
        base = self._next_id
        top = -1
        for sid, label, start, end, parent, op in report["spans"]:
            self.spans.append((sid + base, label, start, end, None if parent is None else parent + base, op))
            top = max(top, sid)
        self._next_id = base + top + 1
        self.solve_calls += report["solve_calls"]
        self.distinct_elsewhere += report["distinct"]
        self.timed_new_elsewhere += report["timed_new"]

    # -- summaries ---------------------------------------------------------

    def distinct_matrices(self) -> int:
        return len(self.matrices) + self.distinct_elsewhere

    def timed_new_matrices(self) -> int:
        own = sum(1 for phase in self.matrices.values() if phase != "setup")
        return own + self.timed_new_elsewhere

    def layer_metrics(self) -> dict:
        """<label>.calls and <label>.self_s for every traced label."""
        covered = defaultdict(float)
        for sid, label, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for sid, label, start, end, parent, op in self.spans:
            calls[label] += 1
            self_s[label] += (end - start) - covered[sid]
        out = {}
        for label in TRACED:
            out[f"{label}.calls"] = (calls[label], "count")
            out[f"{label}.self_s"] = (self_s[label], "s")
        distinct = self.distinct_matrices()
        out["exact_linalg.solve_mod.reuse"] = (self.solve_calls / distinct if distinct else 0.0, "ratio")
        out["exact_linalg.solve_mod.timed_new_matrices"] = (self.timed_new_matrices(), "count")
        return out
