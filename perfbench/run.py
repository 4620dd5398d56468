"""Benchmark runner for promptmt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a checkout; the program is imported from its src/.
Set-up runs SETUP_REPEATS times (setup_s is the median), then passes run
until S seconds have gone, at least MIN_PASSES of them, and every pass's
outputs are checked. With --trace 0 no pass is traced and the last line of
standard output holds the end-to-end metrics; with --trace 1 traced and
untraced passes alternate, the last line holds the per-layer metrics, and
the spans are written to .bench_out/ when the run ends. --out appends the
full record (machine, details, result) to FILE as one JSON line, the input
of perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_PASSES = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "throughput_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def _import_program():
    src = ROOT / "src"
    if not (src / "promptmt" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'promptmt'} not found; run from a promptmt checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import promptmt

    if Path(promptmt.__file__).resolve().parent != (src / "promptmt").resolve():
        sys.exit(f"error: promptmt imported from {promptmt.__file__}, not from {src}")


def blas_info() -> dict:
    """BLAS library, version and thread count, from numpy's build record
    and the OpenBLAS library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None, "config": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        pass
    site = Path(np.__file__).resolve().parent
    for lib_path in sorted(glob.glob(str(site.parent / "numpy.libs" / "*openblas*"))
                           + glob.glob(str(site / ".libs" / "*openblas*"))):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None and info["threads"] is None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
        for name in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                     "openblas_get_config"):
            fn = getattr(lib, name, None)
            if fn is not None and info["config"] is None:
                fn.restype = ctypes.c_char_p
                info["config"] = fn().decode("ascii", "replace")
    return info


def machine_info(seed: int) -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                        else os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "platform": platform.platform(),
        "seed": seed,
    }


def run(args) -> dict:
    from perfbench import checks as chk
    from perfbench.layers import per_layer_metrics, probes_for
    from perfbench.spans import Tracer
    from perfbench.stats import median
    from perfbench.workloads import WORKLOADS, end_to_end

    workload = WORKLOADS[args.workload]
    machine = machine_info(args.seed)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(args.seed, out_dir)
        setup_times.append(time.perf_counter() - start)

    tracer = Tracer()
    passes, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        is_traced = bool(args.trace) and len(passes) % 2 == 1
        tracer.run = len(passes)
        with tracer.probing(probes_for(workload.needs, is_traced)):
            passes.append(workload.run_pass(state, tracer))
        traced.append(is_traced)
        if len(passes) >= MIN_PASSES and time.perf_counter() >= deadline:
            break

    checks = chk.Checks()
    threads = machine["blas"]["threads"]
    if threads is not None:
        checks.expect(threads <= machine["cpus_usable"],
                      f"BLAS uses {threads} threads on {machine['cpus_usable']} CPUs")
    workload.check(state, passes, tracer, checks)

    plain = [p for p, t in zip(passes, traced) if not t]
    if args.trace:
        traced_runs = {i for i, t in enumerate(traced) if t}
        spans = [s for s in tracer.spans if s.run in traced_runs]
        overhead = (median([p.seconds for p, t in zip(passes, traced) if t])
                    - median([p.seconds for p in plain]))
        metrics = per_layer_metrics(spans, len(traced_runs), overhead)
        tracer.spans = spans
        tracer.write_jsonl(out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")
    else:
        values = end_to_end(plain)
        values["setup_s"] = median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "traced_passes": sum(traced),
        "ops_per_pass": len(passes[0].latencies_ms),
        "setup_s": setup_times,
        "pass_s": [p.seconds for p in passes],
        "machine": machine,
        "details": workload.details(state, passes),
        "failures": checks.failures[:20],
        "result": result,
    }


def report(record) -> None:
    from perfbench.layers import PER_LAYER
    from perfbench.stats import tail_percentile

    m = record["machine"]
    blas = m["blas"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"passes {record['passes']} ({record['traced_passes']} traced), "
          f"{record['ops_per_pass']} operations per pass")
    print(f"machine: {m['cpus_usable']}/{m['cpu_count']} CPUs, Python {m['python']}, "
          f"numpy {m['numpy']}, BLAS {blas['name']} {blas['version']} "
          f"with {blas['threads']} threads")
    for key, value in record["details"].items():
        print(f"  {key}: {value}")
    result = record["result"]
    rate = result["failed"] / result["attempted"]
    print(f"  pass_s: {record['pass_s']}  setup_s: {record['setup_s']}")
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed "
          f"(error_rate {rate:.4f})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if record["trace"] == 0:
        n = record["ops_per_pass"]
        print(f"  op_ms_tail is p{tail_percentile(n):.4g} of {n} operations a pass, "
              f"median over {record['passes']} passes")
    targets = {name: (what, target) for name, _, _, what, target in PER_LAYER}
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        if name in targets:
            print("      {}; should move {}".format(*targets[name]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")
    record = run(args)
    report(record)
    if args.out is not None:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
