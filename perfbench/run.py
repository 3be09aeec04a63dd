"""supercoh benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload brauer_cold --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; supercoh is imported from ./src.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, measured untraced; with --trace 1 they
are the per-layer ones, from a separate run with wrappers around every
listed function.  End-to-end times are at reference speed (see
hostspeed.py).  The preceding line is the full record of the run (the
environment, the wall-clock figures, the latency percentile and its sample
count, the guards), also written to perfbench/results/.

Only one child process runs at a time and the benchmark starts no threads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Rounds run twice in a traced run of a warm workload: once traced, then
# again untraced on the same inputs to give the tracing overhead.
TRACED_DECKS = {"axioms_warm": 8, "algebra_small": 1}

# Cold cost of the composite-modulus path on rp2xrp2, which keeps rp2xrp2
# out of cohomology_cold: H^q(rp2xrp2; Z/4) in a fresh process, in seconds,
# on a 2-core Intel Xeon under CPython 3.11.7 (peak RSS 84, 163, 199 MB).
KNOWN_DEFECTS = {"cohomology(rp2xrp2, q, 4) cold seconds": {"q=1": 14.3, "q=2": 95.0, "q=3": 79.6}}

MiB = 1024  # ru_maxrss is in KiB on Linux
M_MMAP_THRESHOLD = -3  # glibc mallopt parameter

sys.path.insert(0, str(HERE))
from hostspeed import REF_NOMINAL_S, HostSpeed  # noqa: E402


def _parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_supercoh():
    if not (SRC / "supercoh" / "__init__.py").is_file():
        raise SystemExit(f"supercoh sources not found under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import supercoh
    from supercoh import brauer, corpus, dsv, operations, simplicial, stable2type  # noqa: F401

    if Path(supercoh.__file__).resolve().parent != SRC / "supercoh":
        raise SystemExit(f"imported supercoh from {supercoh.__file__}, not from {SRC}")


def _fix_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold at its initial 128 KiB.

    glibc raises the threshold whenever a large block is freed, and a forked
    child inherits the raised value, so which of a child's large blocks come
    from the heap depended on the parent's history: the peak RSS of the same
    rp2xrp2 query read 104 or 117 MB from run to run.  A fixed threshold
    also turns the adjustment off.  False where mallopt is not available.
    """
    try:
        return ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1
    except (OSError, AttributeError):
        return False


# ---------------------------------------------------------------------------
# Forked children


def _fork(fn):
    """Run fn() in a forked child; return its pickled result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(read_fd)
            try:
                payload = ("ok", fn())
            except Exception:
                payload = ("error", traceback.format_exc())
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(payload, out)
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"benchmark child exited with status {status}")
    kind, value = pickle.loads(data)
    if kind == "error":
        raise RuntimeError(f"benchmark child failed:\n{value}")
    return value


def _setup(workload_cls, seed: int, counter: bool, tracer=None, speed=None):
    """Import supercoh and build the workload; (workload, ok, start, seconds,
    counter), where seconds leaves out the time speed spent sampling."""
    speed = speed or HostSpeed()
    start, t0 = time.perf_counter(), speed.clock()
    _import_supercoh()
    from tracing import CallCounter

    calls = CallCounter() if counter else None
    if tracer is not None:
        tracer.install()
    workload = workload_cls()
    ok = workload.setup(seed)
    return workload, ok, start, speed.clock() - t0, calls


def _timed_setup(workload_cls, seed: int, counter: bool, speed):
    with speed.sampling():
        return _setup(workload_cls, seed, counter, speed=speed)


def _setup_sample(workload_cls, seed: int):
    """(start, seconds, reference samples) of one set-up in a fresh fork."""

    def child():
        speed = HostSpeed()
        _, _, start, seconds, _ = _timed_setup(workload_cls, seed, False, speed)
        return start, seconds, speed.samples

    return _fork(child)


# ---------------------------------------------------------------------------
# Phases


class Results:
    def __init__(self):
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.ops: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_kib = 0
        self.isolation_violation = None  # calls the set-up process made before a fork
        self.round_starts: list[int] = []

    def start_round(self):
        self.round_starts.append(len(self.latencies))

    def by_round(self, latencies) -> list[list[float]]:
        ends = self.round_starts[1:] + [len(latencies)]
        return [latencies[a:b] for a, b in zip(self.round_starts, ends)]

    def record(self, workload, op, outcome, start, seconds):
        self.attempted += 1
        self.starts.append(start)
        self.latencies.append(seconds)
        self.ops.append(op)
        kind, value = outcome
        if kind == "error":
            self.failed += 1
            self.errors.append(f"{op!r}: {value.strip().splitlines()[-1]}")
        elif not workload.check(op, value):
            self.failed += 1
            self.errors.append(f"{op!r}: wrong answer {value!r}")


def _attempt(workload, op):
    try:
        return "ok", workload.run(op)
    except Exception:
        return "error", traceback.format_exc()


def _cold_child(workload, op, tracer, timed):
    """One operation; with timed, while sampling the reference loop."""
    if tracer is not None:
        tracer.start_child()
        tracer.op = op
    speed = HostSpeed()
    with speed.sampling() if timed else contextlib.nullcontext():
        start, t0 = time.perf_counter(), speed.clock()
        outcome = _attempt(workload, op)
        seconds = speed.clock() - t0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outcome, start, seconds, rss, speed.samples, tracer.child_report() if tracer is not None else None


def cold_pass(workload, results, calls, tracer=None, speed=None) -> float:
    """Every operation once, each in a fresh fork of the set-up process.
    With speed, each child samples the reference loop while it runs (the
    parent, which only waits, does not) and speed collects the samples."""
    start = time.perf_counter()
    for op in workload.ops:
        if calls.total() and results.isolation_violation is None:
            results.isolation_violation = dict(calls.counts)
        outcome, t0, seconds, rss, samples, report = _fork(lambda: _cold_child(workload, op, tracer, speed is not None))
        results.record(workload, op, outcome, t0, seconds)
        results.peak_rss_kib = max(results.peak_rss_kib, rss)
        if speed is not None:
            speed.extend(samples)
        if report is not None:
            tracer.absorb(report)
    return time.perf_counter() - start


def warm_ops(workload, results, ops, speed, tracer=None) -> float:
    """Run ops in order in this process; an operation's seconds leave out
    the time speed spent sampling."""
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = results.attempted
        t0_wall, t0 = time.perf_counter(), speed.clock()
        outcome = _attempt(workload, op)
        results.record(workload, op, outcome, t0_wall, speed.clock() - t0)
    return time.perf_counter() - start


def timed_rounds(workload, results, seconds, calls, speed) -> list[float]:
    """Whole rounds while the next one, as long as the last, still fits in
    `seconds` of wall time; at least one.  A cold round is the fixed
    operation set.  The reference loop is sampled throughout."""
    rounds = []
    if workload.cold:
        while not rounds or sum(rounds) + rounds[-1] <= seconds:
            results.start_round()
            rounds.append(cold_pass(workload, results, calls, speed=speed))
        return rounds
    with speed.sampling():
        while not rounds or sum(rounds) + rounds[-1] <= seconds:
            results.start_round()
            rounds.append(warm_ops(workload, results, workload.deck(len(rounds)), speed))
    return rounds


# ---------------------------------------------------------------------------


def _tail(xs):
    """(value, percentile) of the highest nearest-rank percentile of sorted
    xs that has at least ten samples above it; the maximum below 11 samples."""
    rank = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs)


def latency_summary(groups):
    """Median of all samples, and the tail.

    When every round has more than ten samples, the tail is taken in each
    round and the median over rounds reported, so that one round slowed by
    the machine does not set it.
    """
    pooled = sorted(x for g in groups for x in g)
    if all(len(g) > 10 for g in groups):
        tails = [_tail(sorted(g)) for g in groups]
        tail = statistics.median(t for t, _ in tails)
        percentile = statistics.median(p for _, p in tails)
        over = "median of rounds"
    else:
        tail, percentile = _tail(pooled)
        over = "all samples"
    return {"p50_s": statistics.median(pooled), "tail_s": tail, "tail_percentile": percentile, "n": len(pooled), "tail_over": over}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args, load_start, mmap_threshold_fixed):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mmap_threshold_fixed": mmap_threshold_fixed,
        "known_defects": KNOWN_DEFECTS,
    }


def time_metrics(cls, results, latencies, setups):
    """ops_per_s, latency_p50_ms, latency_tail_ms and setup_s from per-operation
    and per-set-up seconds."""
    rounds = results.by_round(latencies)
    # A cold workload is a few dozen queries of very different sizes, whose
    # percentiles jump between neighbouring queries; its request for the
    # latency metrics is the whole operation set, one per round.
    lat = latency_summary([[sum(r)] for r in rounds] if cls.cold else rounds)
    completed = results.attempted - results.failed
    metrics = {
        "ops_per_s": (completed / sum(latencies), "1/s"),
        "latency_p50_ms": (lat["p50_s"] * 1e3, "ms"),
        "latency_tail_ms": (lat["tail_s"] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, lat


def run_untraced(cls, args):
    setups = [_setup_sample(cls, args.seed) for _ in range(cls.setup_samples - 1)]
    speed = HostSpeed()
    workload, setup_ok, start, seconds, calls = _timed_setup(cls, args.seed, cls.cold, speed)
    setups.append((start, seconds, speed.samples[:]))
    setup_speeds = []
    for start, seconds, samples in setups:
        s = HostSpeed()
        s.extend(samples)
        setup_speeds.append(s.normalize(start, seconds))
    results = Results()
    rounds = timed_rounds(workload, results, args.seconds, calls, speed)
    if not cls.cold:
        results.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    normalized = [speed.normalize(t0, t) for t0, t in zip(results.starts, results.latencies)]
    metrics, lat = time_metrics(cls, results, normalized, setup_speeds)
    metrics["peak_rss_mb"] = (results.peak_rss_kib / MiB, "MB")
    wall, _ = time_metrics(cls, results, results.latencies, [seconds for _, seconds, _ in setups])
    refs = [t for _, t in speed.samples]
    record = {
        "setup_ok": setup_ok,
        "setup_samples_s": [seconds for _, seconds, _ in setups],
        "round_s": rounds,
        "ops_per_round": results.attempted / len(rounds),
        "wall_clock": {name: value for name, (value, _) in wall.items()},
        "reference_loop": {"samples": len(refs), "median_s": statistics.median(refs), "nominal_s": REF_NOMINAL_S},
        "latency": {k: lat[k] for k in ("tail_percentile", "n", "tail_over")},
        "failed_ratio": results.failed / results.attempted,
        "timed_phase_s": sum(rounds),
    }
    return metrics, results, setup_ok, record, speed


def run_traced(cls, args):
    from tracing import Tracer

    tracer = Tracer()
    workload, setup_ok, _, _, calls = _setup(cls, args.seed, counter=cls.cold, tracer=tracer)
    results = Results()
    record = {"setup_ok": setup_ok}
    valid = setup_ok
    if cls.cold:
        ops = workload.ops
        traced_s = cold_pass(workload, results, calls, tracer)
        tracer.remove()
        untraced_s = cold_pass(workload, results, calls)
    else:
        ops = [op for k in range(TRACED_DECKS[cls.name]) for op in workload.deck(k)]
        traced_s = warm_ops(workload, results, ops, HostSpeed(), tracer=tracer)
        tracer.remove()
        untraced_s = warm_ops(workload, results, ops, HostSpeed())
    metrics = tracer.layer_metrics()
    n = len(ops)
    metrics["trace.overhead_ops_per_s"] = (n / untraced_s - n / traced_s, "1/s")
    if not cls.cold:
        # warm-up guard: the timed phase must factor no matrix set-up did not
        new = tracer.timed_new_matrices()
        record["warm_up_guard"] = {"new_matrices_in_timed_phase": new}
        if cls.name == "axioms_warm" and new:
            valid = False
    record.update(traced_ops=n, traced_s=traced_s, untraced_s=untraced_s)
    _write_spans(args, tracer.spans)
    return metrics, results, valid, record, None


def _write_spans(args, spans):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with open(path, "w") as out:
        for sid, label, start, end, parent, op in spans:
            out.write(json.dumps({"id": sid, "name": label, "start": start, "end": end, "parent": parent, "op": repr(op)}) + "\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    load_start = list(os.getloadavg())
    mmap_threshold_fixed = _fix_mmap_threshold()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    metrics, results, valid, record, speed = runner(cls, args)
    if results.isolation_violation is not None:
        record["cold_isolation_violation"] = results.isolation_violation
        valid = False
    record = {
        "environment": environment(args, load_start, mmap_threshold_fixed),
        "attempted": results.attempted,
        "failed": results.failed,
        "errors": results.errors[:20],
        "valid": valid,
        **record,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as out:
        detail = {"op_latencies_s": list(zip(map(repr, results.ops), results.starts, results.latencies))}
        if speed is not None:
            detail["reference_samples_s"] = speed.samples
        json.dump({**record, **detail}, out, default=str)
    print(json.dumps(record, default=str))
    line = {
        "correct": valid and results.failed == 0,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
