import importlib
import importlib.util
import itertools
import re
import subprocess
import sys
from pathlib import Path

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
