#!/usr/bin/env python3
"""Benchmark of floquet-engine over its frame, oracle and CLI routes.

Run from the repository root (the package need not be installed; ``src``
is put on the path):

    python3 bench/run.py --workload carnot-ladder --seed 1 --seconds 17 --trace 0
    python3 bench/run.py --report            # every workload once, by name

Workloads (see ``workloads.py``): ``carnot-ladder``, ``resonance-scan``,
``oracle-route`` and ``cli``.  A run first times the set-up in fresh
processes, then repeats passes over the workload's operations until
``--seconds`` have gone by, checks every output against the
pinned values in ``pins.json`` or an independent route, and prints as its
last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
the same four names on every workload:

* ``setup_s``: median of three fresh-process set-ups (interpreter start,
  package import, building the workload's protocols);
* ``pass_s``: median wall time of one pass over the workload's operations;
* ``op_s.p50``: median over the inputs of each input's median operation
  time (the T=1000 cycle on ``carnot-ladder``);
* ``op_s.tail``: over the same per-input medians, the highest of p90, p95,
  p99 and p99.9 with at least ten inputs beyond it, or the slowest input
  when there are fewer than a hundred inputs (p95 of 200 drives on
  ``resonance-scan``, the T=2000 cycle on ``carnot-ladder``, the sweep on
  ``cli``).

The workload's own figures (``ladder_s``, ``cycle_s.T2000``, ``reach_T``,
``scan_solve_s.p90``, ``oracle_s``, ``sweep_cli_s``, ``failed_ratio``,
...) are printed above the JSON line as ``figure<TAB>name<TAB>value<TAB>unit``.

With ``--trace 1`` one untraced pass of the workload is followed by one
traced pass of every workload, with spans around each public call; the
metrics are the per-layer ones of BENCHMARK.json, plus the tracing
overhead (traced minus untraced pass of the named workload).

Each run also writes ``bench/results/<workload>-seed<n>-trace<t>.json``
with the run metadata, figures, problems and (traced) spans.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import failed_ratio, percentile, tail_percentile
from tracer import NullTracer, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
SUITE_ORDER = ("carnot-ladder", "resonance-scan", "oracle-route", "cli")


def run_passes(wl, tr, seconds):
    """Passes over ``wl.ops()`` until ``seconds`` have gone by; at least
    one.  Returns (samples, pass wall times)."""
    samples, passes = [], []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for key, fn in wl.ops():
            t0 = time.perf_counter()
            try:
                problems, info = fn(tr)
            except Exception as err:  # an operation that raises has failed
                problems, info = [f"{key}: {type(err).__name__}: {err}"], {}
            samples.append({"key": key, "seconds": time.perf_counter() - t0,
                            "problems": problems, "info": info})
        passes.append(time.perf_counter() - t_pass)
        if time.perf_counter() - start >= seconds:
            return samples, passes


def tail_value(values):
    p = tail_percentile(len(values))
    return max(values) if p is None or p < 90.0 else percentile(values, p)


def end_to_end(samples, passes):
    """Operation times are summarised per input first, so that the metrics
    mean the same whatever the number of passes."""
    by_key = {}
    for s in samples:
        by_key.setdefault(s["key"], []).append(s["seconds"])
    per_input = [statistics.median(v) for v in by_key.values()]
    return {"pass_s": statistics.median(passes),
            "op_s.p50": statistics.median(per_input),
            "op_s.tail": tail_value(per_input)}


def time_setup(workload, seed):
    """Median wall time of fresh processes that import and build inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-300:]}")
    return statistics.median(times)


def metadata(seed):
    import numpy
    import scipy
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads_env": {k: os.environ.get(k) for k in blas_vars},
            "scan_seed": seed}


def traced_suite(name, seed):
    """One untraced pass of ``name``, then one traced pass of every
    workload.  Returns (samples, per-layer metrics, tracer)."""
    from workloads import WORKLOADS
    wls = {n: WORKLOADS[n]() for n in SUITE_ORDER}
    try:
        for wl in wls.values():
            wl.build(seed)
        plain, plain_passes = run_passes(wls[name], NullTracer(), 0.0)
        wls[name].verify(plain)
        tr, ctx, layer = Tracer(), {}, {}
        samples = list(plain)
        for n in SUITE_ORDER:
            traced, passes = run_passes(wls[n], tr, 0.0)
            layer.update(wls[n].layer_metrics(tr, traced, ctx))
            samples += traced
            if n == name:
                layer["trace.overhead_s"] = passes[0] - plain_passes[0]
    finally:
        for wl in wls.values():
            wl.close()
    ledgers = [s["info"]["ledger"] for s in samples if "ledger" in s["info"]]
    layer["thermo.first_law_defect.max"] = max(
        led.first_law_defect for led in ledgers)
    layer["thermo.quadrature_defect.max"] = max(
        led.quadrature_defect for led in ledgers)
    return samples, layer, tr


def measured_run(name, seed, seconds):
    """Untraced run: returns (samples, end-to-end metrics, figures)."""
    from workloads import WORKLOADS
    setup_s = time_setup(name, seed)
    wl = WORKLOADS[name]()
    wl.build(seed)
    try:
        samples, passes = run_passes(wl, NullTracer(), seconds)
        wl.verify(samples)
        figures = wl.figures(samples, passes)
    finally:
        wl.close()
    metrics = {"setup_s": setup_s, **end_to_end(samples, passes)}
    figures.update({"setup_s": (setup_s, "s"),
                    "failed_ratio": (failed_ratio(samples), "1"),
                    "attempted": (len(samples), "count"),
                    "passes": (len(passes), "count")})
    return samples, metrics, figures, passes


def report(seed, seconds):
    """Run every workload once and print its figures by name and unit."""
    for name in SUITE_ORDER:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}: "
                  f"{proc.stderr.strip()[-300:]}")
            continue
        lines = proc.stdout.splitlines()
        for line in lines:
            if line.startswith("figure\t"):
                _, fig, value, unit = line.split("\t")
                print(f"{name:15s} {fig:28s} {value:>22s} {unit}")
        result = json.loads(lines[-1])
        for metric, v in result["metrics"].items():
            print(f"{name:15s} {metric:28s} {v['value']:22.6g} {v['unit']}"
                  f"  (end-to-end)")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=SUITE_ORDER)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=17.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="run every workload once and print its figures")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "floquet_engine" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'floquet_engine'} not found; run "
              f"from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        from workloads import WORKLOADS
        wl = WORKLOADS[args.workload]()
        wl.build(args.seed)
        wl.close()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = metadata(args.seed)
    if args.trace:
        samples, values, tr = traced_suite(args.workload, args.seed)
        extra = {"self_times": tr.self_times(), "spans": tr.spans}
        declared = spec["per_layer"]
        figures = {}
    else:
        samples, values, figures, passes = measured_run(
            args.workload, args.seed, args.seconds)
        extra = {"pass_times": passes}
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing "
                           f"{sorted(set(names) - set(values))}, extra "
                           f"{sorted(set(values) - set(names))}")
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in declared}
    problems = [p for s in samples for p in s["problems"]]
    failed = sum(1 for s in samples if s["problems"])

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "meta": meta,
              "metrics": metrics,
              "figures": {k: {"value": v, "unit": u}
                          for k, (v, u) in figures.items()},
              "problems": problems, **extra}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("meta\t" + json.dumps(meta, sort_keys=True))
    for p in problems[:20]:
        print("problem\t" + p)
    for k, (v, u) in figures.items():
        print(f"figure\t{k}\t{v}\t{u}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
