"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/selftest.py -q

They run every workload once untraced and once traced with --seconds 1
(a cold workload still runs its whole operation set), so they take a few
minutes.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import expected  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 1


def _run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(*BENCH["command"][1:])), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


@pytest.fixture(scope="module", params=[(w, t) for w in WORKLOADS for t in (0, 1)], ids=lambda p: f"{p[0]}-trace{p[1]}")
def result(request):
    workload, trace = request.param
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return workload, trace, json.loads(lines[-2]), json.loads(lines[-1])


def test_every_metric_present_with_unit(result):
    _, trace, _, line = result
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in line["metrics"].items()}
    for v in line["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_no_failures_at_the_seed(result):
    _, _, record, line = result
    assert line["attempted"] >= 1
    assert line["failed"] == 0, record["errors"]
    assert line["correct"], record


def test_spans_nest_inside_their_parents(result):
    workload, trace, record, _ = result
    if not trace:
        pytest.skip("spans come from the traced run")
    spans = {}
    with open(HERE / "results" / f"{workload}-seed{SEED}-spans.jsonl") as f:
        for row in f:
            span = json.loads(row)
            spans[span["id"]] = span
    assert spans
    for span in spans.values():
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["op"] == span["op"]


def test_warm_up_guard_holds_on_axioms_warm(result):
    workload, trace, record, line = result
    if (workload, trace) != ("axioms_warm", 1):
        pytest.skip("the guard is checked in the traced axioms_warm run")
    assert record["warm_up_guard"]["new_matrices_in_timed_phase"] == 0
    assert line["metrics"]["exact_linalg.solve_mod.timed_new_matrices"]["value"] == 0


def _bindings():
    """Every function reachable from a supercoh module or a traced class."""
    out = {}
    for module, path in tracing.TRACED.values():
        owner, attr = tracing._resolve(module, path)
        out[(id(owner), attr)] = owner.__dict__[attr]
    for name, mod in list(sys.modules.items()):
        if name == "supercoh" or name.startswith("supercoh."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(id(mod), attr)] = value
    return out


def test_wrappers_are_removed_after_a_traced_run():
    sys.path.insert(0, str(ROOT / "src"))
    from supercoh import brauer, corpus, simplicial

    before = _bindings()
    counter = tracing.CallCounter()
    tracer = tracing.Tracer()
    tracer.install()
    assert simplicial.solve_mod is not before[(id(simplicial), "solve_mod")]
    try:
        tracer.op = 0
        group = brauer.abstract_group(corpus.complex_by_name("rp2"), "ko")
    finally:
        tracer.remove()
        counter.remove()
    assert (group.free_rank, tuple(group.invariant_factors)) == (0, (4, 8))
    assert counter.counts["simplicial.cohomology"] > 0
    metrics = tracer.layer_metrics()
    assert metrics["brauer.abstract_group.calls"][0] == 1
    assert metrics["exact_linalg.solve_mod.calls"][0] == tracer.solve_calls > 0
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_sampling_leaves_the_reference_loop_out():
    speed = hostspeed.HostSpeed()
    with speed.sampling():
        start, t0 = time.perf_counter(), speed.clock()
        while time.perf_counter() < start + 0.3:
            pass
        wall, seconds = time.perf_counter() - start, speed.clock() - t0
    inside = [t for s, t in speed.samples if start <= s <= start + wall]
    assert len(inside) >= 5
    assert seconds == pytest.approx(wall - sum(inside), abs=1e-3)
    w = hostspeed.WINDOW_S
    near = [t for s, t in speed.samples if start - w <= s <= start + seconds + w]
    assert speed.normalize(start, seconds) == pytest.approx(seconds * hostspeed.REF_NOMINAL_S / statistics.fmean(near))


def test_expected_tables_are_consistent():
    table = expected.stable2type_table()
    expected.check_equivalence_relation(table)
    # the formulas used for the S^1 products reproduce the README table
    landmark = expected.landmark_table()
    for name, (a, b) in {**{n: (n, None) for n in expected.BASE_COHOMOLOGY}, "s1xs1": ("s1", "s1"), "rp2xrp2": ("rp2", "rp2")}.items():
        h = expected.BASE_COHOMOLOGY[a] if b is None else expected.kunneth(expected.BASE_COHOMOLOGY[a], expected.BASE_COHOMOLOGY[b])
        for (variant, query), group in expected.brauer_groups(h, expected.SQ1_RANK_ON_H1[name]).items():
            assert landmark[(name, variant, query)] == group, (name, variant, query)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
