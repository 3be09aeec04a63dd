import ast
import importlib
import importlib.util
import itertools
import re
import subprocess
import sys
from pathlib import Path

import pytest

from supercoh import corpus, verify
from supercoh.exact_linalg import AbelianGroupPresentation as G
from supercoh.exact_linalg import normalize_factors

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _group(text):
    """A README cell ("Z/8 + (Z/2)^3", "0") or a survey cell ("Z/8 ⊕ Z/4")
    as an invariant-factor presentation."""
    free, factors = 0, []
    for term in re.split(r"[+⊕]", text):
        term = term.strip()
        if term == "0":
            continue
        m = re.fullmatch(r"\(Z/(\d+)\)\^(\d+)|Z/(\d+)|Z(?:\^(\d+))?", term)
        assert m, f"unreadable group term {term!r} in {text!r}"
        power_order, power, order, rank = m.groups()
        if power_order:
            factors += [int(power_order)] * int(power)
        elif order:
            factors.append(int(order))
        else:
            free += int(rank or 1)
    return G(free, normalize_factors(factors))


def _readme_landmarks():
    """{complex: (ku group, ku twist, ko group, ko twist)} from the README table."""
    lines = (SCRIPTS.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| complex | ku group | ku twist | ko group | ko twist |") + 2
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        name, *cells = [cell.strip() for cell in line.strip("|").split("|")]
        table[name] = tuple(map(_group, cells))
    return table


def test_brauer_survey_runs():
    out = run_script("brauer_survey.py")
    assert out.returncode == 0, out.stderr
    survey = {}
    for line in out.stdout.splitlines()[1:]:
        # name, four groups, time; the columns are padded by at least two spaces
        name, *cells, _ = re.split(r"\s{2,}", line.strip())
        survey[name] = tuple(map(_group, cells))
    readme = _readme_landmarks()
    assert set(readme) == set(corpus.CORPUS_NAMES)
    assert all(len(cells) == 4 for cells in readme.values())
    assert survey == readme
    assert {name: tuple(map(_group, row)) for name, row in verify.LANDMARKS.items()} == readme


def test_corpus_report_runs():
    out = run_script("corpus_report.py")
    assert out.returncode == 0, out.stderr
    assert "rp2xrp2" in out.stdout
    # the mixed degree-2 generator of the product carries a nonzero square
    assert "Sq2!=0" in out.stdout


def test_benchmark_traced_names_resolve():
    """Every function the benchmark's traced run wraps (perfbench/tracing.py,
    read only) is defined where TRACED says, so removing or renaming one
    fails here and not only in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for label, (module, path) in tracing.TRACED.items():
        owner = importlib.import_module(f"supercoh.{module}")
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        assert callable(owner.__dict__.get(attr)), label


def test_reach_kept_names_resolve():
    """Every function that scripts/reach.py keeps although no user path
    calls it is defined in src/supercoh, with a reason; the full audit runs
    the user paths and is a CI step, not a tier-1 test."""
    spec = importlib.util.spec_from_file_location("reach", SCRIPTS / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    assert reach.KEPT
    for name, reason in reach.KEPT.items():
        module, *outer, attr = name.split(".")
        owner = importlib.import_module(f"supercoh.{module}")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__ and callable(getattr(owner, attr)), name
        assert reason.strip(), name


@pytest.mark.parametrize(
    "args, message",
    [
        ([], "required"),
        (["--parent", "nowhere"], "no checkout"),
        (["--workload", "nonsense"], "unknown workload 'nonsense'"),
        (["--pairs", "0"], "0 is not positive"),
        (["--pairs", "two"], "invalid positive int value: 'two'"),
        (["--seconds", "-1"], "-1 is not positive"),
    ],
    ids=["nothing", "no_checkout", "workload", "no_pairs", "pairs_not_int", "seconds"],
)
def test_pairs_refuses_bad_arguments(args, message):
    """scripts/pairs.py exits 2 with a message and runs no benchmark when an
    argument is bad; here args override a valid A/A command line."""
    root = str(SCRIPTS.parent)
    valid = {"--parent": root, "--change": root, "--workload": "algebra_small", "--pairs": "1", "--seconds": "1"}
    given = dict(zip(args[::2], args[1::2]))
    argv = [] if not args else [t for k, v in {**valid, **given}.items() for t in (k, v)]
    out = run_script("pairs.py", *argv)
    assert out.returncode == 2 and not out.stdout
    assert message in out.stderr


def test_pairs_summary_flags_worse_and_unresolved():
    """scripts/pairs.py on fixed numbers: a median worse by more than the
    bound is `worse`; a parent spread (q3 - q1) / median wider than the
    bound is `unresolved`, unless every change run beats every parent run."""
    spec = importlib.util.spec_from_file_location("pairs", SCRIPTS / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    spread = [10, 20, 30, 40, 50]
    parent = {"ops": [100, 101, 102, 103, 104], "setup": [0.05] * 5, "p50": spread, "rss": spread}
    change = {"ops": [105, 106, 107, 108, 109], "setup": [0.07] * 5, "p50": [30] * 5, "rss": [5] * 5}
    results = [(k, {n: v[k] for n, v in parent.items()}, {n: v[k] for n, v in change.items()}) for k in range(5)]
    better = {"ops": "higher", "setup": "lower", "p50": "lower", "rss": "lower"}
    lines = pairs.summary(results, better, dict.fromkeys(better, 0.25))
    assert lines == [
        "  ops: 102 -> 107 (+4.9%), won 5/5, parent [100.5, 103.5]",
        "  setup: 0.05 -> 0.07 (+40.0%), won 0/5, parent [0.05, 0.05]: worse",
        "  p50: 30 -> 30 (+0.0%), won 2/5, parent [15, 45]: unresolved",
        "  rss: 30 -> 5 (-83.3%), won 5/5, parent [15, 45]",
    ]


def test_every_oracle_is_reached():
    """Every top-level def of tests/oracles.py is reached from a test module
    or a script: imported from oracles or read as oracles.name there, or
    named in the body of an oracle so reached."""
    tests = Path(__file__).resolve().parent
    tree = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defs
    todo = []
    for path in [*tests.glob("test_*.py"), *SCRIPTS.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "oracles":
                todo += [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "oracles":
                todo.append(node.attr)
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo += [node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name)]
    assert sorted(set(defs) - reached) == []
