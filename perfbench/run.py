#!/usr/bin/env python3
"""End-to-end benchmark of hydrostate, with a traced mode for per-layer
metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload state_800 --seed 1 --seconds 35 --trace 0

Workloads are `state_800`, `diagnose` and `containment` (see workloads.py
and README.md); `--workload all` runs each in a process of its own. The
program is imported from `src/` of the checkout, in the measuring process,
with BLAS threads capped at the number of usable cores.

`--trace 0` measures the end-to-end metrics. `--trace 1` measures the same
cycles untraced and then traced, reports the per-layer metrics and the
tracing overhead, and writes the spans to `.bench_out/`. The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the line
before it holds every metric of the workload, the failure causes and the
environment. The exit status is 1 when a correctness check or cross-check
fails, and 2 when the program cannot be found.
"""

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
END_TO_END = {"setup_s": "s", "pipeline_ref": "ref", "peak_rss_mb": "MB"}
WORKLOAD_NAMES = ("state_800", "diagnose", "containment")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cores)
    return cores


def import_program():
    """Import hydrostate from this checkout's src/, or None if it is not there."""
    if not (SRC / "hydrostate" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import hydrostate
    import hydrostate.report_io  # the CLI's codecs; the package does not import them

    if not Path(hydrostate.__file__).resolve().is_relative_to(SRC):
        return None
    return hydrostate


def probe(workload: str) -> int:
    """Child process of one set-up measurement: import, decode, warm up."""
    texts = json.loads(sys.stdin.read())
    start = time.perf_counter()
    hs = import_program()
    if hs is None:
        return 2
    from workloads import WORKLOADS

    WORKLOADS[workload].warm_up(hs, texts)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def measure_setup(workload) -> list[float]:
    """Set-up times of fresh processes; each is waited for (or killed on
    timeout by subprocess.run) before the next starts."""
    import subprocess

    texts = json.dumps(workload.probe_texts())
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload",
             workload.name], input=texts, stdout=subprocess.PIPE, text=True,
            timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def summary(values, unit):
    """Median with the sample count, plus the highest percentile that has at
    least ten samples above it when there are enough samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"value": statistics.median(ordered) if n else None, "unit": unit, "n": n}
    if n > 20:
        rank = n - 10  # nearest-rank index of the percentile, 1-based
        out[f"p{100 * rank // n}"] = ordered[rank - 1]
    return out


def environment(hs, seed: int, threads: int) -> dict:
    import importlib.util
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    try:
        backend = hs._kernels.backend()
    except AttributeError:
        backend = "absent"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "kernels_backend": backend,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def run_cycles(workload, log, problems, indices=None, seconds=None, reference=None):
    """Run cycles: the given indices, or as many as fit in `seconds` of timed
    work (at least one; the next cycle is skipped when a typical one would
    overrun). With a `reference`, it is sampled before the first cycle and
    after each one, and its time counts against `seconds`. Returns each
    cycle's pipeline time, None where an operation failed; a failure ends the
    loop. Input generation and checks run paused and untimed."""
    times = []
    spent = reference.sample() if reference else 0.0
    while len(times) < (len(indices) if indices is not None else sys.maxsize):
        if indices is None and times:
            if spent + statistics.median(t for t in times if t) > seconds:
                break
        index = indices[len(times)] if indices is not None else len(times)
        with log.pause():
            workload.case(index)
            gc.collect()  # start each cycle from the same heap, for a steady peak RSS
        out, pipeline_s = workload.cycle(log, index)
        spent += (pipeline_s or 0.0) + (reference.sample() if reference else 0.0)
        with log.pause():
            problems.extend(f"cycle {index}: {p}" for p in workload.check(out, index))
        del out
        times.append(pipeline_s)
        if pipeline_s is None:
            break
    return times


def run_all(args) -> int:
    """Run every workload, each in a process of its own, one after another;
    returns the worst exit status."""
    import subprocess

    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = max(status, done.returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    threads = cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    if args.probe:
        return probe(args.workload)
    hs = import_program()
    if hs is None:
        print(f"hydrostate not found under {SRC}", file=sys.stderr)
        return 2
    import resource

    import tracing
    from reference import Reference
    from workloads import WORKLOADS, Log

    workload = WORKLOADS[args.workload](hs, ROOT, args.seed)
    log, problems = Log(), []
    detail = {"workload": workload.name, "environment": environment(hs, args.seed, threads)}

    if not args.trace:
        setup = measure_setup(workload)
        reference = Reference(workload.reference)
        times = run_cycles(workload, log, problems, seconds=args.seconds, reference=reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": summary(setup, "s"),
            "pipeline_ref": summary(reference.ratios(times), "ref"),
            "pipeline_s": summary([t for t in times if t], "s"),
            "reference_s": {"value": reference.seconds, "unit": "s",
                            "work": list(workload.reference)},
            "cycles_s": times,
            "reference_gaps_s": reference.gaps,
            **{name: summary(log.values.get(name, []), unit)
               for name, unit in workload.headline.items()},
            "failed_share": {"value": log.failed_share, "unit": "ratio",
                             "attempted_units": log.units, "by_cause": log.failed_units},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        detail["metrics"] = metrics
        result = {name: {"value": metrics[name]["value"], "unit": unit}
                  for name, unit in END_TO_END.items()}
        attempted, failed = log.ops, log.failed_ops
    else:
        untraced = run_cycles(workload, log, problems, seconds=args.seconds / 2)
        tlog = Log()
        tracer = tracing.Tracer(hs, tlog)
        tlog.pause = tracer.paused
        tracer.install()
        try:
            traced = run_cycles(workload, tlog, problems, indices=range(len(untraced)))
        finally:
            tracer.uninstall()
        pairs = [(a, b) for a, b in zip(untraced, traced) if a and b]
        base, with_trace = sum(a for a, _ in pairs), sum(b for _, b in pairs)
        layers, cross_problems = tracer.analyse(len(traced))
        problems.extend(cross_problems)
        spans_file = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.npz"
        tracer.write(spans_file)
        detail.update(
            layers=layers, absent=tracer.absent, spans=len(tracer.spans),
            spans_file=str(spans_file.relative_to(ROOT)),
            tracing_overhead={"untraced_s": base, "traced_s": with_trace,
                              "overhead_s": with_trace - base,
                              "share": (with_trace - base) / base if base else None})
        result = {name: {"value": layers[name] if layers[name] is not None else 0.0,
                         "unit": unit} for name, unit in tracing.COMMON.items()}
        attempted, failed = log.ops + tlog.ops, log.failed_ops + tlog.failed_ops

    detail["problems"] = problems[:20]
    detail["problem_count"] = len(problems)
    shown = detail.get("metrics") or {**detail["layers"],
                                      "tracing_overhead": detail["tracing_overhead"]}
    for name, value in shown.items():
        print(f"{workload.name:12s} {name:40s} {json.dumps(value)}")
    print(json.dumps(detail, sort_keys=True))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
