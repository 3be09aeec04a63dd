#!/usr/bin/env python3
"""List the functions in src/supercoh that no user path calls.

The user paths run in this process under sys.setprofile:
- every verb of the CLI on the corpus, by name: cohomology in each degree
  0..dim+1 mod 0, 2, 3 and 4, operations, group and twist, superline,
  classify, dsv on F5 and Q files and their tensor products, and
  verify --suite all;
- brauer --op order, add and equals with element files on every corpus
  complex and variant;
- scripts/brauer_survey.py and scripts/corpus_report.py;
- every operation of the benchmark's cold workloads, and three decks of
  its warm ones (perfbench/workloads.py).

A function is a def in a module of src/supercoh, named module.qualname;
lambdas and comprehensions are not counted.  Each unreached function is
printed, with its reason when KEPT names it.

    python scripts/reach.py           # print the unreached functions
    python scripts/reach.py --check   # exit 1 unless KEPT accounts for them

--check fails when an unreached function is not in KEPT, when a KEPT name
is no function of src/supercoh, or when a user path reaches a KEPT name.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import random
import runpy
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "supercoh"

_REPR = "contract: the printed form of a value, for a reader at the REPL or in a traceback"
_HASH = "contract: a value that defines == is hashable, so it can be a dict key or a set member"
_FROZEN = "contract: assignment to a field of a frozen record raises"
_PICKLE = "contract: pickling keeps the defining data (and a complex's closed levels and a product's factors) and drops the caches"
_JSON = "contract: the complex JSON form, which --complex FILE reads; the audit names complexes with @"
_DENSE = "dense path: leaves with IntMatrix (ROADMAP direction 10) once perfbench/tracing.py stops naming it"
_TEST = "test helper: tests read results through it, and moving it into tests/ would not shorten the code"

# unreached functions that stay, with the reason each
KEPT = {
    "exact_linalg.Record.__hash__": _HASH,
    "exact_linalg.Record.__repr__": _REPR,
    "exact_linalg.Record.__setattr__": _FROZEN,
    "simplicial.SimplicialComplex.__hash__": _HASH,
    "simplicial.SimplicialComplex.__getstate__": _PICKLE,
    "simplicial.SimplicialComplex.__setstate__": _PICKLE,
    "simplicial.SimplicialComplex.__repr__": _REPR,
    "simplicial.SimplicialMap.__reduce__": _PICKLE,
    "simplicial.SimplicialComplex.from_json_dict": _JSON,
    "simplicial.SimplicialComplex.to_json_dict": _JSON,
    "exact_linalg.f2_kernel": _DENSE,
    "exact_linalg.IntMatrix.hstack": _DENSE,
    "exact_linalg.AbelianGroupPresentation.order": _TEST,
    "simplicial.SimplicialComplex.index_of": _TEST,
    "simplicial.Cochain.value_on": _TEST,
    "dsv.identity": _TEST,
    "dsv.DSVMap.identity_map": _TEST,
}


def functions() -> dict[tuple[str, int, str], str]:
    """{(file, first line, name): module.qualname} for every def in
    src/supercoh, found by walking the code objects of each module."""
    found = {}

    def walk(code, module, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            if not const.co_flags & inspect.CO_OPTIMIZED:  # a class body
                walk(const, module, f"{prefix}{const.co_name}.")
            else:
                found[(const.co_filename, const.co_firstlineno, const.co_name)] = f"{module}.{prefix}{const.co_name}"
                walk(const, module, f"{prefix}{const.co_name}.<locals>.")

    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        walk(code, path.stem, "")
    return found


def _inputs(tmp: Path) -> list[list[str]]:
    """The CLI runs, with the DSV and element files they read written to tmp."""
    from supercoh import brauer, corpus, dsv, stable2type
    from supercoh.verify import _random_dsv

    rng = random.Random(26)
    for field in (dsv.Field(5), dsv.QQ):
        for i in range(4):
            (tmp / f"{field}-{i}.json").write_text(json.dumps(_random_dsv(field, rng).to_json_dict()))
    runs = []
    for name in corpus.CORPUS_NAMES:
        x, at = corpus.complex_by_name(name), "@" + name
        for q in range(x.dim + 2):
            for n in (0, 2, 3, 4):
                runs.append(["cohomology", "--complex", at, "--deg", str(q), "--mod", str(n), "--json"])
        runs.append(["operations", "--complex", at, "--json"])
        for variant in ("ku", "ko"):
            for verb in ("group", "twist"):
                runs.append([verb, "--complex", at, "--variant", variant])
            files = []
            for k in range(2):
                el = brauer.random_element(x, variant, rng)
                path = tmp / f"{name}-{variant}-{k}.json"
                path.write_text(json.dumps(el.to_json_dict()))
                files.append(str(path))
            common = ["brauer", "--complex", at, "--variant", variant, "--element", files[0]]
            runs.append([*common, "--op", "order"])
            for op in ("add", "equals"):
                runs.append([*common, "--op", op, "--other", files[1]])
        for flavor in ("real", "complex"):
            for op in ("group", "classify"):
                runs.append(["superline", "--complex", at, "--flavor", flavor, "--op", op])
    for entry in sorted(stable2type.catalog()):
        runs.append(["classify", "--name", entry, "--json"])
    runs.append(["classify", "--enumerate", "Z/8;Z/2", "--json"])
    for field in ("F5", "Q"):
        for i in range(4):
            one, other = str(tmp / f"{field}-{i}.json"), str(tmp / f"{field}-{(i + 1) % 4}.json")
            runs.append(["dsv", "--input", one, "--json"])
            runs.append(["dsv", "--input", one, "--tensor", other, "--json"])
    runs.append(["verify", "--suite", "all", "--json"])
    return runs


def _workloads(seed: int = 1, decks: int = 3):
    """(workload, its operations), each set up, for the benchmark's workloads."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]()
        if not workload.setup(seed):
            raise SystemExit(f"benchmark workload {name} failed its set-up")
        ops = workload.ops if workload.cold else [op for k in range(decks) for op in workload.deck(k)]
        yield workload, ops


def reached() -> set[tuple[str, int, str]]:
    """(file, first line, name) of every function that a user path calls,
    from the import of supercoh on; the set-up of the input files and of
    the workloads is part of the paths."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from supercoh import cli

        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            for argv in _inputs(Path(tmp)):
                if cli.main(argv) != 0:
                    raise SystemExit(f"supercoh {' '.join(argv)} failed")
            for script in ("brauer_survey.py", "corpus_report.py"):
                runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
        for workload, ops in _workloads():
            for op in ops:
                if not workload.check(op, workload.run(op)):
                    raise SystemExit(f"benchmark workload {workload.name} answered {op!r} wrongly")
    finally:
        sys.setprofile(None)
    return {(c.co_filename, c.co_firstlineno, c.co_name) for c in called}


def audit(every: dict, hit: set, kept: dict) -> tuple[list[str], list[str]]:
    """(the unreached names, what --check fails on) for the functions
    {key: name} of functions(), the keys hit of reached() and the names kept
    with a reason: an unreached name not kept, a kept name that is no
    function, and a kept name that a user path reaches."""
    unreached = sorted(name for key, name in every.items() if key not in hit)
    names = set(every.values())
    faults = [f"{name} is reached by no user path and not in KEPT" for name in unreached if name not in kept]
    faults += [f"KEPT names {name}, which is no function of src/supercoh" for name in sorted(set(kept) - names)]
    faults += [f"KEPT names {name}, which a user path reaches" for name in sorted(set(kept) & names - set(unreached))]
    return unreached, faults


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check", action="store_true", help="exit 1 unless KEPT accounts for every unreached function")
    args = p.parse_args(argv)
    sys.path.insert(0, str(PACKAGE.parent))
    every = functions()
    unreached, faults = audit(every, reached(), KEPT)
    print(f"{len(unreached)} of {len(every)} functions in src/supercoh are reached by no user path")
    for name in unreached:
        print(f"  {name}" + (f"  ({KEPT[name]})" if name in KEPT else "  (NOT KEPT)"))
    for fault in faults:
        print(fault)
    return 1 if args.check and faults else 0


if __name__ == "__main__":
    sys.exit(main())
