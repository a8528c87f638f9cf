"""Benchmark of epmgames: three closed-loop workloads through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload {solve,verify,couple} --seed N --seconds S --trace {0,1}

One process, one client: each op starts when the previous one returned.  A
run sets up (import of ``epmgames`` from ``src/`` plus input generation) in
its own process and, to time it again, in further new interpreters, and
reports the median as ``setup_s``; every sample pays the full cold import of
the package and its dependencies.  Then it repeats passes over the
workload's ops, at least three and more while they fit in ``--seconds``.
``pass_s`` is the median wall time of a pass and ``peak_rss_mb`` the peak
resident memory of the process.  With ``--trace 1`` one more pass runs with
spans around the package's public functions (see ``spans.py``), and the
per-layer metrics are printed instead: span self times and counters, the
per-kind op times (``solve_s``, ``check_s``, ... from the untraced passes),
``ops_failed_ratio`` and ``tracing.overhead_s``.

Every output is checked outside the timed region; a failed or wrong op is
counted, never fatal.  On seed 0 the values must also equal those recorded
in ``expected_seed0.json``.  The last stdout line is the JSON result; the
exit status is 1 if an output was wrong.  Spans and a full record of the run
go to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"
WORK = OUT / f"work-{os.getpid()}"
SETUPS = 9  # set-up samples: this process's own, then each in a new interpreter
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS")


class BenchError(Exception):
    pass


def cold_setup(workload: str, seed: int, workdir: Path):
    """Import epmgames from this checkout and generate the workload's inputs, timed.

    Cold only in a process that has imported neither the package nor numpy.
    Config files go to a fresh directory: rewriting an existing file can cost
    a synchronous flush on some file systems, which is not set-up work.
    """
    started = perf_counter()
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    package = importlib.import_module("epmgames")
    importlib.import_module("epmgames.cli")
    if ROOT / "src" not in Path(package.__file__).resolve().parents:
        raise BenchError(f"epmgames imported from {package.__file__}, not from this checkout")
    from workloads import WORKLOADS

    op_sets = WORKLOADS[workload](package, seed, workdir)
    return package, op_sets, perf_counter() - started


def setup(workload: str, seed: int):
    package, op_sets, seconds = cold_setup(workload, seed, WORK / "setup0")
    times = [seconds]
    probe = ("import sys, run; "
             "print(run.cold_setup(sys.argv[1], int(sys.argv[2]), run.Path(sys.argv[3]))[2])")
    for i in range(1, SETUPS):
        child = subprocess.run(
            [sys.executable, "-c", probe, workload, str(seed), str(WORK / f"setup{i}")],
            cwd=HERE, capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise BenchError(f"set-up in a new interpreter failed: {child.stderr.strip()}")
        times.append(float(child.stdout))
    return package, op_sets, times


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(results) -> dict:
    import numpy

    backends = sorted({r.values["kernel_backend"] for r in results
                       if "kernel_backend" in r.values})
    return {
        "commit": commit_id(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "sampler_backend": backends or None,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def kind_seconds(results, kind: str) -> float:
    """Median over passes of the summed wall time of one op kind."""
    return statistics.median(sum(r.seconds for r in res if r.kind == kind) for res in results)


def compare_expected(workload: str, results) -> list[str]:
    """Differences from the values recorded on seed 0 (from a run record's ops)."""
    expected = json.loads((HERE / "expected_seed0.json").read_text()).get(workload)
    if expected is None:
        return ["no values recorded"]
    if len(expected) != len(results):
        return [f"{len(results)} ops, {len(expected)} recorded"]
    return [f"op {r.op} ({r.label}): expected {want}, got {r.values}"
            for want, r in zip(expected, results)
            if {key: r.values.get(key) for key in want} != want]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")

    # numpy is imported only now, after the thread counts are pinned
    package, op_sets, setup_times = setup(args.workload, args.seed)
    from spans import Tracer
    from workloads import OP_KINDS, check_pass, measure, run_pass

    passes, results = measure(op_sets, args.seconds)
    all_results = [r for res in results for r in res]

    if args.trace:
        tracer = Tracer()
        tracer.install(package)
        begun = perf_counter()
        try:
            raw = run_pass(op_sets[0], tracer)
        finally:
            traced_wall = perf_counter() - begun
            tracer.remove()
        traced_results = check_pass(op_sets[0], raw)
        all_results += traced_results
        values = tracer.layer_metrics()
        for kind in OP_KINDS:
            values[f"{kind}_s"] = kind_seconds(results, kind)
        values["ops_failed_ratio"] = (sum(r.error is not None for r in all_results)
                                      / len(all_results))
        values["tracing.overhead_s"] = traced_wall - statistics.median(
            passes[::len(op_sets)])  # the untraced passes over the same ops
        aux = values["reduction.aux_value.nodes"] + values["reduction.aux_value.memo_hits"]
        values["reduction.aux_value.memo_hit_ratio"] = (
            values["reduction.aux_value.memo_hits"] / aux if aux else 0)
        busy = values["strategy.coupled_sample_batch.self_s"]
        values["strategy.coupled_sample_batch.samples_per_s"] = (
            values["strategy.coupled_sample_batch.samples"] / busy if busy else 0)
        declared = spec["per_layer"]
    else:
        tracer = None
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = spec["end_to_end"]

    unknown = [m["name"] for m in declared if m["name"] not in values]
    if unknown:
        raise BenchError(f"BENCHMARK.json names metrics this run cannot measure: {unknown}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    problems = [f"op {r.op} ({r.label}): {r.error}" for r in all_results if r.wrong]
    if args.seed == 0:
        problems += [f"seed 0: {p}" for p in compare_expected(args.workload, results[0])]
    failed = [r for r in all_results if r.error is not None]

    env = environment(all_results)
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "setup_s": setup_times, "passes_s": passes,
        "metrics": metrics, "problems": problems,
        "ops": [{"op": r.op, "kind": r.kind, "label": r.label, "seconds": r.seconds,
                 "code": r.code, "error": r.error, "values": r.values}
                for r in results[0]],
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        Path(f"{stem}.spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    for r in failed:
        print(f"# failed: op {r.op} ({r.kind} {r.label}): {r.error}")
    for p in problems:
        print(f"# wrong: {p}")
    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:48s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": len(all_results),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, ImportError, OSError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
