"""Regenerate ``references.json``, the expected outputs the benchmark checks.

    python3 bench/make_references.py [--scale full|tiny ...]

* ``pipeline-700``: the privacy distance ``analyze-kappa`` reports for each
  of the ``PIPELINE_DATA_SEEDS`` synthetic datasets. It is the upper bound
  (700 nodes is far above the exact limit), a deterministic function of
  the graph. Also the ceiling for the lowest objective in ``train``'s
  trace (see below).
* ``exact-small``: exact ``kappa`` of every graph in the family, from
  ``kappa_exact``. Exact ``kappa`` is unique, so any correct engine must
  reproduce it; the benchmark's tests cross-check the graphs of ten nodes
  or fewer against the brute-force oracle in ``tests/oracles.py``.
* ``sweep-grid``: each cell's mean accuracy averaged over the sweeps of
  ``REFERENCE_SEEDS`` benchmark seeds, with a tolerance of four
  standard deviations of that mean across seeds, and never below
  ``MIN_TOLERANCE``. A change of noise streams behaves like a change of
  seed, so a correct trainer stays inside it. Also a ceiling for the final
  objective of each training in ``TRAINING_CHECKS``.

An objective ceiling is ``CEILING_SHARE`` of the median objective of the
random initial ``W`` over ``REFERENCE_SEEDS`` training seeds: a
trainer that stops learning stays near the initial objective and fails,
while the noisiest reference run stays well under it. The median objective
the reference runs reached is recorded next to it.

The values were recorded from the code as it stood when the benchmark was
added. Only regenerate them when the correct output of the program
changes, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys
from pathlib import Path

from run import REFERENCES, ROOT, import_library

REFERENCE_SEEDS = 10
MIN_TOLERANCE = 0.05
CEILING_SHARE = 0.5


def objective_ref(reached: list[float], initial: list[float]) -> dict:
    return {"median": statistics.median(reached),
            "ceiling": CEILING_SHARE * statistics.median(initial)}


def pipeline_refs(params: dict, data_seeds: int) -> dict:
    """``kappa`` of every dataset; the lowest objective in the trace of the
    ``train`` command (CLI defaults) for benchmark seeds
    ``0 .. REFERENCE_SEEDS - 1``."""
    from dppdml import dataio
    from dppdml.dml import TrainConfig, train
    from dppdml.kappa import compute_kappa
    from dppdml.pairgraph import build_graph

    kappas, inputs = {}, {}
    for seed in range(data_seeds):
        samples = dataio.normalize(
            dataio.synth_two_gaussians(params["n_per_class"], seed=seed)
        )
        pairs = dataio.sample_pairs(samples, params["density"], seed=seed)
        graph = build_graph(pairs)
        report = compute_kappa(graph)
        kappas[str(seed)] = report.kappa
        inputs[seed] = (pairs, graph, report)
    reached, initial = [], []
    for seed in range(REFERENCE_SEEDS):
        pairs, graph, report = inputs[seed % data_seeds]
        _, trace = train(pairs, graph, TrainConfig(d_prime=2, seed=seed),
                         kappa_report=report)
        reached.append(min(trace.objectives))
        initial.append(trace.initial_objective)
    return {"kappa": kappas, "objective": objective_ref(reached, initial)}


def exact_refs(params: dict) -> dict:
    from dppdml.kappa import kappa_exact
    from dppdml.pairgraph import build_graph
    from workloads import exact_family, exact_pairs

    graphs = {}
    for label, n, dens, seed in exact_family(params):
        g = build_graph(exact_pairs(n, dens, seed))
        graphs[label] = {"nodes": g.num_nodes, "edges": g.num_edges,
                         "kappa": kappa_exact(g).kappa}
    return {"graphs": graphs}


def sweep_refs(scale: str, workdir: Path) -> dict:
    from workloads import SweepGrid, sweep_cells

    per_seed: dict[str, list[float]] = {}
    finals: dict[str, list[float]] = {}
    initials: dict[str, list[float]] = {}
    for seed in range(REFERENCE_SEEDS):
        wl = SweepGrid(scale, seed, {}, workdir / f"seed{seed}")
        wl.workdir.mkdir(parents=True)
        wl.setup()
        res = wl.run_pass(0)
        if not res.calls[0].ok:
            raise RuntimeError(f"sweep failed: {res.calls[0].detail}")
        for key, (mean, _) in sweep_cells(res.outputs["dir"] / "sweep.csv").items():
            per_seed.setdefault(key, []).append(mean)
        for label, final, initial in wl.training_runs(wl.sweep_seed):
            finals.setdefault(label, []).append(final)
            initials.setdefault(label, []).append(initial)
    cells = {}
    for key, means in sorted(per_seed.items()):
        spread = 4.0 * statistics.pstdev(means)
        cells[key] = {
            "mean": statistics.fmean(means),
            "tolerance": max(MIN_TOLERANCE, math.ceil(spread * 100) / 100),
        }
    training = {label: objective_ref(finals[label], initials[label])
                for label in finals}
    return {"seeds": list(range(REFERENCE_SEEDS)), "cells": cells,
            "training": training}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Regenerate references.json")
    p.add_argument("--scale", action="append", choices=("full", "tiny"))
    args = p.parse_args(argv)
    import_library()
    from workloads import PARAMS, PIPELINE_DATA_SEEDS

    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    workdir = ROOT / ".bench_work" / "references"
    try:
        for scale in args.scale or ("tiny", "full"):
            params = PARAMS[scale]
            print(f"{scale}: pipeline-700", flush=True)
            refs.setdefault("pipeline-700", {})[scale] = pipeline_refs(
                params["pipeline-700"], PIPELINE_DATA_SEEDS)
            print(f"{scale}: exact-small", flush=True)
            refs.setdefault("exact-small", {})[scale] = exact_refs(
                params["exact-small"])
            print(f"{scale}: sweep-grid", flush=True)
            refs.setdefault("sweep-grid", {})[scale] = sweep_refs(
                scale, workdir / scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
