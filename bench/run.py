"""dppdml benchmark: end-to-end and per-layer timings of three workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload pipeline-700 --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``pipeline-700``: ``synth`` (700 samples, density 2), ``analyze-kappa``,
  ``train`` and ``evaluate`` through ``dppdml.cli.main`` in-process;
* ``sweep-grid``: the acceptance-8 grid through ``dppdml.cli.main(["sweep"])``;
* ``exact-small``: ``compute_kappa(method="auto")`` over a fixed family of
  small generated graphs.

``all`` runs each workload in its own process, one after another. A run
sets its workload up, then repeats full passes until ``--seconds`` is
spent (at least one pass), checks every output against
``references.json`` and prints a report followed, as its last line, by one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``: ``setup_s`` is the median over several fresh processes
of the time from process start to the first timed call (imports, input
generation, reference loading); ``pass_s`` the median wall time of one
pass; ``peak_rss_mb`` the peak resident set of the measuring process. Both
times are multiplied by the run's ``host_speed`` (``calibration.py``), so
that they read as seconds on the quiet reference host.

With ``--trace 1`` passes alternate between untraced and traced; traced
passes wrap every public dppdml function (``tracing.py``) and the metrics
are the ``per_layer`` ones: span time, calls and work counts of the set-up
plus the median traced pass, and the tracing overhead (median traced
``pass_s`` minus median untraced ``pass_s``, unscaled). Spans are written
to ``.bench_work/results/`` when the run ends.

``DPP_THREADS`` is removed from the environment, so the sweep runs serially;
the value found is recorded with the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("pipeline-700", "sweep-grid", "exact-small")

REFERENCES = BENCH_DIR / "references.json"

#: Fresh processes whose set-up time gives the ``setup_s`` median.
SETUP_SAMPLES = 5

#: Calibration loops after each pass (``calibration.py``).
CALIBRATION_SAMPLES = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long run for the benchmark's tests")
    p.add_argument("--setup-probe", type=float, metavar="SPAWN_TIME",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_benchmark_spec()["run_seconds"])
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import dppdml from this checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "dppdml" / "__init__.py").is_file():
        sys.exit(f"error: no dppdml sources under {src}")
    sys.path.insert(0, str(src))
    import dppdml

    if Path(dppdml.__file__).resolve().parent != (src / "dppdml").resolve():
        sys.exit(f"error: dppdml imported from {dppdml.__file__}, not {src}")
    return dppdml


def load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment(dpp_threads: str | None) -> dict:
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        },
        "DPP_THREADS": dpp_threads,
        "git_commit": commit,
    }


def probe_setup(args) -> list[float]:
    """Set-up time of ``SETUP_SAMPLES`` fresh benchmark processes.

    Each child is told when it was spawned and reports the wall time from
    then until its inputs and references are ready.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", args.workload, "--seed", str(args.seed),
                "--scale", args.scale, "--setup-probe", repr(time.time())]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def layer_metrics(spec: dict, setup_log, logs, plain_s, traced_s,
                  exact_ratio: float) -> dict:
    """Per-layer figures named in BENCHMARK.json, from the recorded spans
    and, for ``kappa.exact_success_ratio``, from the results."""
    setup_sum = setup_log.summary()
    pass_sums = [log.summary() for log in logs]

    def value(prefix: str, field: str) -> float:
        base = setup_sum.get(prefix, {}).get(field, 0)
        return base + statistics.median(
            s.get(prefix, {}).get(field, 0) for s in pass_sums
        )

    def count(key: str) -> float:
        base = setup_log.counts.get(key, 0)
        return base + statistics.median(log.counts.get(key, 0) for log in logs)

    special = {
        "trace.overhead_s": statistics.median(traced_s)
        - statistics.median(plain_s),
        "kappa.exact_success_ratio": exact_ratio,
    }
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        prefix, _, field = name.rpartition(".")
        if name in special:
            v = special[name]
        elif field in ("s", "calls", "self_s"):
            v = value(prefix, field)
        else:
            v = count(name)
        out[name] = {"value": v, "unit": m["unit"]}
    return out


def measure(args, wl, instr) -> dict:
    """Repeat passes until ``--seconds`` is spent; in a traced run every
    second pass records spans. Each pass is followed by a few calibration
    loops, outside its timed region."""
    from calibration import calibration_loop

    runs = {"results": [], "plain_s": [], "traced_s": [], "cpu_s": [],
            "logs": [], "calibration_s": []}
    loop_start = time.perf_counter()
    index = 0
    while True:
        log = None
        if args.trace and index % 2 == 1:
            log = instr.new_log()
            instr.install(log)
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            res = wl.run_pass(index)
        finally:
            elapsed = time.perf_counter() - start
            if log is not None:
                instr.uninstall()
        runs["cpu_s"].append(time.process_time() - cpu_start)
        if log is not None:
            runs["logs"].append(log)
            runs["traced_s"].append(elapsed)
        else:
            runs["plain_s"].append(elapsed)
        wl.check(res)
        runs["calibration_s"].extend(
            calibration_loop() for _ in range(CALIBRATION_SAMPLES)
        )
        runs["results"].append(res)
        index += 1
        spent = time.perf_counter() - loop_start
        typical = statistics.median(runs["plain_s"] + runs["traced_s"])
        if index >= (2 if args.trace else 1) and (
            spent + typical > args.seconds
        ):
            return runs


def run_workload(args) -> int:
    import_library()
    from calibration import host_speed
    from workloads import WORKLOADS, exact_success_ratio

    with open(REFERENCES) as fh:
        refs = json.load(fh)
    found_threads = os.environ.pop("DPP_THREADS", None)
    work = ROOT / ".bench_work"
    workdir = work / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.scale, args.seed, refs, workdir)
        instr = setup_log = None
        if args.trace:
            from tracing import Instrumentation

            instr = Instrumentation()
            setup_log = instr.new_log()
            instr.install(setup_log)
        try:
            wl.setup()
        finally:
            if instr is not None:
                instr.uninstall()
        if args.setup_probe is not None:
            print(time.time() - args.setup_probe)
            return 0
        setup_samples = [] if args.trace else probe_setup(args)
        runs = measure(args, wl, instr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(found_threads)
    spec = load_benchmark_spec()
    plain_s, traced_s = runs["plain_s"], runs["traced_s"]
    calls = [c for r in runs["results"] for c in r.calls]
    failed = [c for c in calls if not c.ok]
    speed = host_speed(runs["calibration_s"])
    e2e = {
        "pass_s": {"value": statistics.median(plain_s) * speed, "unit": "s",
                   "n": len(plain_s)},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB", "n": 1},
    }
    if setup_samples:
        e2e["setup_s"] = {"value": statistics.median(setup_samples) * speed,
                          "unit": "s", "n": len(setup_samples)}
    extra = wl.extra_metrics(runs["results"])
    extra["host_speed"] = {"value": speed, "unit": "1",
                           "n": len(runs["calibration_s"])}
    extra["pass_median_s"] = {"value": statistics.median(plain_s), "unit": "s",
                              "n": len(plain_s)}
    extra["failed_frac"] = {"value": len(failed) / len(calls), "unit": "1",
                            "n": len(calls)}
    if args.trace:
        metrics = layer_metrics(spec, setup_log, runs["logs"], plain_s,
                                traced_s, exact_success_ratio(runs["results"]))
        extra["traced_pass_s"] = {"value": statistics.median(traced_s),
                                  "unit": "s", "n": len(traced_s)}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    results_dir = work / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "metrics": metrics, "end_to_end": e2e, "workload_metrics": extra,
        "pass_s": plain_s, "traced_pass_s": traced_s,
        "pass_cpu_s": runs["cpu_s"],
        "failures": [f"{c.name}: {c.detail}" for c in failed],
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = {"setup": setup_log.to_dict(),
                 "passes": [log.to_dict() for log in runs["logs"]]}
        (results_dir / f"{stem}.spans.json").write_text(json.dumps(spans))

    print(f"dppdml benchmark: workload={args.workload} seed={args.seed} "
          f"scale={args.scale} trace={args.trace} seconds={args.seconds:g}")
    print("environment: " + json.dumps(env, sort_keys=True))
    shown = {**e2e, **extra, **(metrics if args.trace else {})}
    for name, m in shown.items():
        n = f"  n={m['n']}" if "n" in m else ""
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}{n}")
    for c in failed[:10]:
        print(f"  FAILED {c.name}: {c.detail}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            status = 1
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, value in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    if status:
        return status
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
