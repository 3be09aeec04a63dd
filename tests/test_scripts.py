import ast
import hashlib
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


def _module(name, path):
    """The module of a script, loaded from its path."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


# SHA-256 of the stdout of scripts/corpus_report.py, which prints no timing:
# a change to any group, f-vector or Sq/beta tag of the report shows here
CORPUS_REPORT_SHA256 = "a4b9a2f4643cd6d48dc15ff0670890d7817a08607d15b839376822e8f98dad6f"


def test_corpus_report_runs():
    out = run_script("corpus_report.py")
    assert out.returncode == 0, out.stderr
    assert "rp2xrp2" in out.stdout
    # the mixed degree-2 generator of the product carries a nonzero square
    assert "Sq2!=0" in out.stdout
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == CORPUS_REPORT_SHA256


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
    reach = _module("reach", SCRIPTS / "reach.py")
    assert reach.KEPT
    for name, reason in reach.KEPT.items():
        module, *outer, attr = name.split(".")
        owner = importlib.import_module(f"supercoh.{module}")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__ and callable(getattr(owner, attr)), name
        assert reason.strip(), name


def test_reach_check_fails_on_each_fault():
    """The verdict of scripts/reach.py --check on a fixed set: a kept name
    that a user path reaches is stale, as are an unreached name that is not
    kept and a kept name that is no function."""
    reach = _module("reach", SCRIPTS / "reach.py")
    every = {("m.py", line, name): f"m.{name}" for line, name in enumerate(["kept", "stale", "used", "loose"])}
    hit = {key for key in every if key[2] in ("stale", "used")}
    kept = {"m.kept": "a reason", "m.stale": "a reason", "m.gone": "a reason"}
    assert reach.audit(every, hit, kept) == (
        ["m.kept", "m.loose"],
        [
            "m.loose is reached by no user path and not in KEPT",
            "KEPT names m.gone, which is no function of src/supercoh",
            "KEPT names m.stale, which a user path reaches",
        ],
    )
    assert reach.audit(every, hit, {"m.kept": "a reason", "m.loose": "a reason"}) == (["m.kept", "m.loose"], [])


def test_find_small_klein_regenerates_klein8():
    """scripts/find_small_klein.py prints the facet list of corpus.klein8."""
    pytest.importorskip("sympy")
    result = run_script("find_small_klein.py")
    assert result.returncode == 0, result.stderr
    # the lines after "facets:" are "(a, b, c)," each: a tuple literal once wrapped
    facets = ast.literal_eval("(" + result.stdout.split("facets:", 1)[1] + ")")
    assert facets == corpus.klein8().maximal_simplices


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


def _summary(pairs, parent: dict, change: dict, better: dict) -> list[str]:
    """pairs.summary of the runs parent[name][k] and change[name][k], every
    bound 0.25."""
    count = len(next(iter(parent.values())))
    results = [(k, {n: v[k] for n, v in parent.items()}, {n: v[k] for n, v in change.items()}) for k in range(count)]
    return pairs.summary(results, better, dict.fromkeys(better, 0.25))


def test_pairs_summary_flags_worse_and_unresolved():
    """scripts/pairs.py on fixed numbers: a median worse by more than the
    bound is `worse`; a parent spread (q3 - q1) / median wider than the
    bound is `unresolved`, unless every change run beats every parent run;
    a `gain` needs ten pairs or more, 9/10 of them won and medians further
    apart than the parent's spread."""
    pairs = _module("pairs", SCRIPTS / "pairs.py")
    spread = [10, 20, 30, 40, 50]
    parent = {"ops": [100, 101, 102, 103, 104], "setup": [0.05] * 5, "p50": spread, "rss": spread}
    change = {"ops": [105, 106, 107, 108, 109], "setup": [0.07] * 5, "p50": [30] * 5, "rss": [5] * 5}
    better = {"ops": "higher", "setup": "lower", "p50": "lower", "rss": "lower"}
    assert _summary(pairs, parent, change, better) == [
        "  ops: 102 -> 107 (+4.9%), won 5/5, parent [100.5, 103.5]",
        "  setup: 0.05 -> 0.07 (+40.0%), won 0/5, parent [0.05, 0.05]: worse",
        "  p50: 30 -> 30 (+0.0%), won 2/5, parent [15, 45]: unresolved",
        "  rss: 30 -> 5 (-83.3%), won 5/5, parent [15, 45]",
    ]
    ten = list(range(100, 120, 2))
    parent = {"ten": ten, "eight": ten, "inside": ten, "tied": ten}
    change = {
        "ten": [v + 20 for v in ten],
        # 8 wins of 10, a tie and a loss
        "eight": [v + 20 for v in ten[:8]] + [ten[8], ten[9] - 1],
        # every pair won, by less than the parent's spread of 11
        "inside": [v + 1 for v in ten],
        # 9 wins and a tie, which counts for neither side
        "tied": [v + 20 for v in ten[:9]] + [ten[9]],
    }
    assert _summary(pairs, parent, change, dict.fromkeys(parent, "higher")) == [
        "  ten: 109 -> 129 (+18.3%), won 10/10, parent [103.5, 114.5]: gain",
        "  eight: 109 -> 125 (+14.7%), won 8/10, parent [103.5, 114.5]",
        "  inside: 109 -> 110 (+0.9%), won 10/10, parent [103.5, 114.5]",
        "  tied: 109 -> 127 (+16.5%), won 9/10, parent [103.5, 114.5]: gain",
    ]
    # nine pairs, all won by far
    assert _summary(pairs, {"nine": ten[:9]}, {"nine": [v + 20 for v in ten[:9]]}, {"nine": "higher"}) == [
        "  nine: 108 -> 128 (+18.5%), won 9/9, parent [103, 113]",
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
