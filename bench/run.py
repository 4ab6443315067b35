"""Layered exact-arithmetic benchmark for starbundle.

    python3 bench/run.py --workload t2-pipeline --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1          # every workload, untraced then traced

One process, one thread, closed loop: each op starts after the previous one
has returned and been checked.  Every op is checked outside the timed region
against an independent oracle and against the committed reference digest of
its input in ``digests.json``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced ops of the same input and prints
the per-layer metrics (see ``spans.py``).  The last line of standard output is
one JSON object; the exit code is 1 when any op failed, 2 when the benchmark
could not set up.  ``--smoke`` shortens the input list to two entries and
sets up once, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import copy
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import canon
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = (
    "scalar", "chartfn", "manifold", "forms", "cover", "cech", "bundle",
    "gluing", "index", "poisson", "series", "star",
)
SETUP_REPEATS = 5  # setup_s is their median; all but the first are spread over the run
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many samples beyond it


class SetupError(Exception):
    pass


def import_starbundle() -> types.SimpleNamespace:
    """Import starbundle afresh from the ``src`` directory beside ``bench``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "starbundle"]:
        del sys.modules[name]
    if not (SRC / "starbundle" / "__init__.py").is_file():
        raise SetupError(f"no starbundle sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sb = types.SimpleNamespace(
        **{m: importlib.import_module(f"starbundle.{m}") for m in MODULES}
    )
    origin = Path(sys.modules["starbundle"].__file__).resolve().parent
    if origin != (SRC / "starbundle").resolve():
        raise SetupError(f"starbundle was imported from {origin}, not from {SRC}")
    return sb


def load_reference(workload: str) -> dict[str, str]:
    with open(HERE / "digests.json") as fh:
        return json.load(fh)[workload]


def set_up(workload, seed: int, smoke: bool) -> tuple[float, types.SimpleNamespace, list]:
    """Import, seeded input generation and one warm-up op; returns seconds."""
    t0 = time.perf_counter()
    sb = import_starbundle()
    pool = workload.pool()
    order = workload.pick(random.Random(seed), pool)
    if smoke:
        order = order[:2]
    inputs = [(i, pool[i], workload.prepare(sb, pool[i])) for i in order]
    # the warm-up op runs on the first pool entry whatever the seed, so that
    # set-up does the same work on every seed
    workload.op(sb, workload.prepare(sb, pool[0]))
    return time.perf_counter() - t0, sb, inputs


class Checker:
    """Checks each op's output against the oracle and the reference digest."""

    def __init__(self, workload, reference: dict[str, str]):
        self.workload = workload
        self.reference = reference
        self.seen: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, index: int, entry, output, error: str | None) -> bool:
        self.attempted += 1
        if error is None:
            error = self.workload.oracle(entry, output)
        if error is None:
            digest = canon.digest(self.workload.canon(entry, output))
            if index not in self.seen:
                self.seen[index] = digest
                print(f"digest {self.workload.name} {index} {digest}", flush=True)
            if digest != self.reference.get(str(index)):
                error = f"digest {digest} differs from the reference"
            elif digest != self.seen[index]:
                error = f"digest {digest} differs from an earlier op on the same input"
        if error is not None:
            self.failed += 1
            print(f"FAILED {self.workload.name} input {index}: {error}", file=sys.stderr)
        return error is None


def call_op(workload, sb, args) -> tuple[object, str | None]:
    try:
        return workload.op(sb, args), None
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def timed_op(workload, sb, args) -> tuple[float, object, str | None]:
    gc.collect()
    t0 = time.perf_counter()
    output, error = call_op(workload, sb, args)
    return time.perf_counter() - t0, output, error


def run_untraced(workload, sb, inputs, seconds, min_ops, check, set_up_again, setups) -> dict:
    """``set_up_again`` is called between ops at ``setups - 1`` evenly spaced
    times of the run, so that the set-ups whose median is ``setup_s`` sample
    the machine's speed across the whole run."""
    times, verified = [], 0
    start = time.perf_counter()
    deadline = start + seconds
    setup_times = [start + seconds * k / setups for k in range(1, setups)]
    while len(times) < min_ops or time.perf_counter() < deadline:
        if setup_times and time.perf_counter() >= setup_times[0]:
            setup_times.pop(0)
            set_up_again()
        index, entry, args = inputs[len(times) % len(inputs)]
        dt, output, error = timed_op(workload, sb, args)
        times.append(dt)
        verified += check(index, entry, output, error)
    times.sort()
    n = len(times)
    if n > TAIL_BEYOND:
        tail_rank = n - TAIL_BEYOND - 1
        print(f"op_tail_ms is p{100 * (tail_rank + 1) / n:.1f} of n={n} ops")
    else:  # only in smoke runs: no percentile has enough ops beyond it
        tail_rank = n - 1
        print(f"op_tail_ms is the maximum of n={n} ops")
    return {
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (times[tail_rank] * 1e3, "ms"),
        "ops_per_s": (verified / sum(times), "1/s"),
    }


def run_traced(workload, sb, inputs, seconds, check, spans_path: Path) -> dict:
    """Alternate an untraced and a traced op on each input.  Call counts and
    size ratios come from the first pass over the input list, so they repeat
    exactly; times are means over every traced op."""
    tracer = spans.Tracer()
    untraced, traced, first_pass, times = [], [], [], []
    sizes = None
    deadline = time.perf_counter() + seconds
    while len(traced) < len(inputs) or time.perf_counter() < deadline:
        index, entry, args = inputs[len(traced) % len(inputs)]
        dt, output, error = timed_op(workload, sb, args)
        untraced.append(dt)
        check(index, entry, output, error)

        gc.collect()
        tracer.install()
        tracer.begin_op()
        try:
            output, error = call_op(workload, sb, args)
        finally:
            summary = tracer.end_op()
            tracer.uninstall()
        traced.append(summary.wall)
        check(index, entry, output, error)
        times.append(summary.times())
        if len(traced) <= len(inputs):
            first_pass.append(summary.counts())
        if len(traced) == len(inputs):
            sizes = copy.copy(tracer.sizes)
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)

    metrics = {}
    for name in spans.COUNTS:
        metrics[name] = (sum(c[name] for c in first_pass) / len(first_pass), "count")
    for name in times[0]:
        metrics[name] = (statistics.fmean(t[name] for t in times), "s")
    for name, value in sizes.metrics().items():
        metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced),
        "ratio",
    )
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    workload = WORKLOADS[name]
    reference = load_reference(name)
    setups = []
    elapsed, sb, inputs = set_up(workload, seed, smoke)
    setups.append(elapsed)
    modules = {m: sys.modules[m] for m in sys.modules if m.split(".")[0] == "starbundle"}

    def set_up_again() -> None:
        setups.append(set_up(workload, seed, smoke)[0])
        # the ops go on with the modules of the first set-up
        sys.modules.update(modules)

    print(
        f"workload {name} seed {seed}: inputs {[i for i, _, _ in inputs]} "
        f"(pool indices), trace {int(trace)}"
    )
    check = Checker(workload, reference)
    if trace:
        path = OUT / f"spans-{name}-seed{seed}.npz"
        metrics = run_traced(workload, sb, inputs, seconds, check, path)
    else:
        min_ops = len(inputs) if smoke else max(len(inputs), TAIL_BEYOND + 1)
        repeats = 1 if smoke else SETUP_REPEATS
        metrics = run_untraced(
            workload, sb, inputs, seconds, min_ops, check, set_up_again, repeats
        )
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MB",
        )
    print(f"error_rate {check.failed / check.attempted} ratio")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value} {unit}")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if check.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a child process so that
    peak memory is per workload.  The children run one after another."""
    combined, status = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode == 2 or not lines:
                return 2
            status = max(status, proc.returncode)
            combined.setdefault(name, {})[f"trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    os.environ.pop("STARBUNDLE_PARALLEL", None)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
