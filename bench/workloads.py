"""The three benchmark workloads.

Each workload is closed loop: one client in one process, the next call made
only after the previous one returns. ``setup`` generates the inputs; each
``run_pass`` makes one full pass of calls into dppdml and returns the
wall time of every call; ``check`` then compares the pass's outputs with
the recorded references, outside the timed region.

Sizes come in two scales: ``full`` is what the benchmark measures, ``tiny``
is a seconds-long version of the same code path for the benchmark's own
tests.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# Calls go through module attributes, so that traced runs see them.
from dppdml import cli, dataio, dml, kappa, pairgraph

#: Pipeline data come from ``synth --seed (seed % PIPELINE_DATA_SEEDS)``, so
#: every benchmark seed maps onto a dataset with a recorded ``kappa``.
PIPELINE_DATA_SEEDS = 8

#: ``full`` sizes keep a pass near a second, so that a run holds tens of
#: passes and its median pass time is steady.
PARAMS = {
    "full": {
        "pipeline-700": {"n_per_class": 350, "density": 2.0},
        "sweep-grid": {
            "n_per_class": 100, "data_seed": 11, "density": 2.0,
            "methods": "nonpriv,dpp,dpp_s,node_dp,input_per",
            "epsilons": "1,2,4", "repeats": 20, "t_max": 3, "batch_size": 50,
            "k": 5,
        },
        "exact-small": {
            "n_per_class": (3, 4, 5, 6, 7, 8),
            "densities": (1.5, 2.0, 2.5),
            "replicates": 2,
        },
    },
    "tiny": {
        "pipeline-700": {"n_per_class": 40, "density": 2.0},
        "sweep-grid": {
            "n_per_class": 60, "data_seed": 11, "density": 2.0,
            "methods": "nonpriv,dpp,dpp_s,node_dp,input_per",
            "epsilons": "1,2,4", "repeats": 3, "t_max": 1, "batch_size": 50,
            "k": 5,
        },
        "exact-small": {
            "n_per_class": (3, 4),
            "densities": (1.5, 2.0),
            "replicates": 1,
        },
    },
}


#: Trainings that ``sweep-grid`` checks besides the sweep's accuracies: the
#: settings of the ``nonpriv`` cell, and of ``dpp_s`` at the largest budget.
TRAINING_CHECKS = {
    "nonpriv": {"mechanism": "none"},
    "dpp_s@4": {"mechanism": "laplace", "sensitivity_mode": "reduced",
                "epsilon": 4.0},
}


@dataclass
class Call:
    """One timed call into the program and whether its output was right."""

    name: str
    seconds: float
    ok: bool = True
    detail: str = ""


@dataclass
class PassResult:
    calls: list[Call] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    #: ``method`` of each ``compute_kappa(method="auto")`` result of the pass
    kappa_methods: list[str] = field(default_factory=list)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``dppdml.cli.main`` in-process, capturing what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def timed_cli(name: str, argv: list[str]) -> tuple[Call, str]:
    """Run one CLI command; return its timed call and what it printed."""
    start = time.perf_counter()
    rc, text = run_cli(argv)
    call = Call(name, time.perf_counter() - start)
    if rc != 0:
        call.ok = False
        call.detail = f"exit {rc}: {text.strip()[-200:]}"
    return call, text


def fail(call: Call, detail: str) -> None:
    if call.ok:
        call.ok = False
        call.detail = detail


def check_objective(call: Call, what: str, value: float, ref: dict) -> None:
    """Training must bring the objective under the reference ceiling.

    The ceiling is half the objective of the random initial ``W``, so a
    trainer that stops learning fails; it is not bit-exact, so a trainer
    with other noise streams passes.
    """
    if not value <= ref["ceiling"]:
        fail(call, f"{what} {value:.6g} above the reference ceiling "
                   f"{ref['ceiling']:.6g} (reference median {ref['median']:.6g})")


class Workload:
    name = ""

    def __init__(self, scale: str, seed: int, refs: dict, workdir: Path):
        self.seed = seed
        self.params = PARAMS[scale][self.name]
        self.refs = refs.get(self.name, {}).get(scale, {})
        self.workdir = workdir

    def setup(self) -> None:
        """Generate the inputs; timed as part of ``setup_s``."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> None:
        """Mark each call whose output disagrees with the references."""

    def extra_metrics(self, results: list[PassResult]) -> dict:
        """Workload-specific end-to-end figures for the report."""
        return {}


def exact_success_ratio(results: list[PassResult]) -> float:
    """Exact results over ``compute_kappa(method="auto")`` results.

    Every ``upper_bound`` result counts as a fallback, whether ``auto``
    gave up on the exact search or never tried it; 0 when a workload makes
    no such call.
    """
    methods = [m for r in results for m in r.kappa_methods]
    return methods.count("exact") / len(methods) if methods else 0.0


def _median_call(results: list[PassResult], name: str) -> dict:
    values = [c.seconds for r in results for c in r.calls if c.name == name]
    return {"value": statistics.median(values), "unit": "s", "n": len(values)}


class Pipeline(Workload):
    """The user's CLI path: synth, analyze-kappa, train, evaluate."""

    name = "pipeline-700"

    @property
    def data_seed(self) -> int:
        return self.seed % PIPELINE_DATA_SEEDS

    def run_pass(self, index: int) -> PassResult:
        d = self.workdir / f"pass{index}"
        p = self.params
        steps = [
            ("synth", ["synth", "--mode", "density", "--density",
                       str(p["density"]), "--n-per-class", str(p["n_per_class"]),
                       "--seed", str(self.data_seed), "--out-dir", str(d)]),
            ("analyze_kappa", ["analyze-kappa", "--pairs", str(d / "pairs.csv"),
                               "--out-dir", str(d / "kappa")]),
            ("train", ["train", "--pairs", str(d / "pairs.csv"),
                       "--out-dir", str(d / "model"), "--seed", str(self.seed)]),
            ("evaluate", ["evaluate", "--model", str(d / "model" / "model.json"),
                          "--data", str(d / "samples.csv"),
                          "--out-dir", str(d / "eval")]),
        ]
        result = PassResult(outputs={"dir": d})
        result.calls = [timed_cli(name, argv)[0] for name, argv in steps]
        return result

    def check(self, result: PassResult) -> None:
        d = result.outputs["dir"]
        want = self.refs["kappa"][str(self.data_seed)]
        synth, analyze, train, evaluate = result.calls
        try:
            report = json.loads((d / "kappa" / "kappa.json").read_text())
            result.kappa_methods.append(report["method"])
            if report["kappa"] != want:
                fail(analyze, f"kappa {report['kappa']} != reference {want}")
        except (OSError, ValueError, KeyError) as exc:
            fail(analyze, f"no kappa output: {exc}")
        try:
            model = json.loads((d / "model" / "model.json").read_text())
            result.kappa_methods.append(model["kappa_method"])
            if model["kappa"] != want:
                fail(train, f"model kappa {model['kappa']} != reference {want}")
            # the noise at kappa ~12 and eps 2 makes the final objective
            # wander, but every correct run reaches a low one on the way
            with open(d / "model" / "trace.csv", newline="") as fh:
                lowest = min(float(row["objective"]) for row in csv.DictReader(fh))
            check_objective(train, "lowest objective", lowest,
                            self.refs["objective"])
        except (OSError, ValueError, KeyError) as exc:
            fail(train, f"no model output: {exc}")
        try:
            acc = json.loads((d / "eval" / "accuracy.json").read_text())
            if not (0.0 <= acc["accuracy"] <= 1.0 and acc["test_size"] > 0):
                fail(evaluate, f"implausible evaluation {acc}")
        except (OSError, ValueError, KeyError) as exc:
            fail(evaluate, f"no accuracy output: {exc}")
        shutil.rmtree(d, ignore_errors=True)

    def extra_metrics(self, results):
        return {
            "cmd.analyze_kappa_s": _median_call(results, "analyze_kappa"),
            "cmd.train_s": _median_call(results, "train"),
        }


def sweep_cells(path: Path) -> dict[str, tuple[float, float]]:
    """``method@epsilon`` -> (mean, std) accuracy from a sweep CSV."""
    runs: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = f"{row['method']}@{float(row['epsilon']):g}"
            runs.setdefault(key, []).append(float(row["accuracy"]))
    return {k: (float(np.mean(v)), float(np.std(v))) for k, v in runs.items()}


def ordering_violations(cells: dict, epsilons: list[float]) -> list[str]:
    """The utility orderings of acceptance criterion 8."""
    out = []
    mean = lambda m, e: cells[f"{m}@{e:g}"][0]
    std = lambda m, e: cells[f"{m}@{e:g}"][1]
    top = max(epsilons)
    if abs(mean("dpp_s", top) - mean("nonpriv", top)) > 0.05:
        out.append(f"dpp_s not within 0.05 of nonpriv at eps={top:g}")
    methods = sorted({k.split("@")[0] for k in cells})
    for m in methods:
        for lo, hi in zip(epsilons, epsilons[1:]):
            if mean(m, hi) < mean(m, lo) - max(std(m, lo), std(m, hi)):
                out.append(f"{m} accuracy falls from eps={lo:g} to {hi:g}")
    if 2.0 in epsilons and not (
        mean("dpp_s", 2.0) >= mean("dpp", 2.0) >= mean("node_dp", 2.0)
    ):
        out.append("dpp_s >= dpp >= node_dp fails at eps=2")
    return out


class SweepGrid(Workload):
    """The acceptance-8 accuracy-versus-budget grid through ``sweep``."""

    name = "sweep-grid"

    def setup(self) -> None:
        p = self.params
        samples = dataio.normalize(
            dataio.synth_two_gaussians(p["n_per_class"], seed=p["data_seed"])
        )
        pairs = dataio.sample_pairs(
            samples, p["density"], balance=True, seed=p["data_seed"]
        )
        self.data = self.workdir / "samples.csv"
        self.pairs = self.workdir / "pairs.csv"
        dataio.save_samples_csv(self.data, samples)
        pairgraph.write_pairs_file(self.pairs, pairs)
        self.pair_list = pairs
        self.train_inputs = None  # graph and kappa, made by the first check

    @property
    def sweep_seed(self) -> int:
        # each benchmark seed gets its own block of repeat seeds
        return self.seed * self.params["repeats"]

    def run_pass(self, index: int) -> PassResult:
        p = self.params
        d = self.workdir / f"pass{index}"
        argv = [
            "sweep", "--data", str(self.data), "--pairs", str(self.pairs),
            "--out-dir", str(d), "--methods", p["methods"],
            "--epsilons", p["epsilons"], "--repeats", str(p["repeats"]),
            "--t-max", str(p["t_max"]), "--batch-size", str(p["batch_size"]),
            "--k", str(p["k"]), "--seed", str(self.sweep_seed),
        ]
        call, text = timed_cli("sweep", argv)
        result = PassResult(calls=[call], outputs={"dir": d})
        match = re.search(r"privacy distance kappa=\d+ \((\w+)\)", text)
        if match:
            result.kappa_methods.append(match.group(1))
        return result

    def check(self, result: PassResult) -> None:
        d = result.outputs["dir"]
        sweep = result.calls[0]
        refs = self.refs["cells"]
        cells = {}
        if sweep.ok:
            try:
                cells = sweep_cells(d / "sweep.csv")
            except (OSError, ValueError, KeyError) as exc:
                fail(sweep, f"unreadable sweep output: {exc}")
        # one check per grid cell; the orderings are checked on the sweep call
        for key, ref in sorted(refs.items()):
            call = Call(f"cell {key}", 0.0, ok=sweep.ok)
            if key not in cells:
                fail(call, "cell missing from sweep output")
            elif abs(cells[key][0] - ref["mean"]) > ref["tolerance"]:
                fail(call, f"mean accuracy {cells[key][0]:.4f} not within "
                           f"{ref['tolerance']} of {ref['mean']:.4f}")
            result.calls.append(call)
        if sweep.ok and set(cells) == set(refs):
            epsilons = [float(e) for e in self.params["epsilons"].split(",")]
            for problem in ordering_violations(cells, epsilons):
                fail(sweep, problem)
        result.calls.extend(self.check_training())
        shutil.rmtree(d, ignore_errors=True)

    def training_runs(self, seed: int):
        """(label, final objective, initial objective) of one training per
        entry of ``TRAINING_CHECKS``, with the sweep's settings."""
        p = self.params
        if self.train_inputs is None:
            graph = pairgraph.build_graph(self.pair_list)
            self.train_inputs = (graph, kappa.compute_kappa(graph))
        graph, report = self.train_inputs
        base = dml.TrainConfig(d_prime=2, t_max=p["t_max"],
                               batch_size=p["batch_size"])
        out = []
        for label, overrides in TRAINING_CHECKS.items():
            config = replace(base, seed=seed, **overrides)
            _, trace = dml.train(self.pair_list, graph, config,
                                 kappa_report=report)
            out.append((label, trace.objectives[-1], trace.initial_objective))
        return out

    def check_training(self) -> list[Call]:
        """The sweep writes accuracies only, and on this data kNN scores 1.0
        in almost any projection, even the random initial one. So training
        is checked directly: ``dml.train`` with the sweep's settings must
        lower the objective and bring it under its reference ceiling."""
        calls = []
        for label, final, initial in self.training_runs(self.sweep_seed):
            call = Call(f"train {label}", 0.0)
            if not final < initial:
                fail(call, f"objective rose from {initial:.6g} to {final:.6g}")
            check_objective(call, "final objective", final,
                            self.refs["training"][label])
            calls.append(call)
        return calls


def exact_family(params: dict) -> list[tuple[str, int, float, int]]:
    """(label, samples per class, density, seed) of every graph in the family."""
    return [
        (f"npc{n}-d{dens:g}-r{r}", n, dens, 1000 * n + 100 * r + round(10 * dens))
        for n in params["n_per_class"]
        for dens in params["densities"]
        for r in range(params["replicates"])
    ]


def exact_pairs(n_per_class: int, density: float, seed: int):
    samples = dataio.normalize(dataio.synth_two_gaussians(n_per_class, seed=seed))
    return dataio.sample_pairs(samples, density, seed=seed)


class ExactSmall(Workload):
    """``compute_kappa(method="auto")`` over a fixed family of small graphs.

    The family is the same for every seed; the seed sets the order in which
    each pass visits it.
    """

    name = "exact-small"

    def setup(self) -> None:
        self.graphs = [
            (label, pairgraph.build_graph(exact_pairs(n, dens, seed)))
            for label, n, dens, seed in exact_family(self.params)
        ]

    def run_pass(self, index: int) -> PassResult:
        order = np.random.default_rng([self.seed, index]).permutation(
            len(self.graphs)
        )
        result = PassResult(outputs={"kappa": {}})
        for k in order:
            label, graph = self.graphs[k]
            start = time.perf_counter()
            try:
                report = kappa.compute_kappa(graph, method="auto")
            except Exception as exc:  # counted as a failed call, not fatal
                result.calls.append(
                    Call(label, time.perf_counter() - start, False, repr(exc))
                )
                continue
            result.calls.append(Call(label, time.perf_counter() - start))
            result.outputs["kappa"][label] = report
            result.kappa_methods.append(report.method)
        return result

    def check(self, result: PassResult) -> None:
        graphs = self.refs["graphs"]
        for call in result.calls:
            if not call.ok:
                continue
            got = result.outputs["kappa"][call.name].kappa
            want = graphs[call.name]["kappa"]
            if got != want:
                fail(call, f"kappa {got} != reference {want}")

    def extra_metrics(self, results):
        lat = [c.seconds for r in results for c in r.calls]
        out = {
            "exact.graph_s.p50": {
                "value": statistics.median(lat), "unit": "s", "n": len(lat)},
        }
        if len(lat) >= 2:
            out["exact.graph_s.p90"] = {
                "value": statistics.quantiles(lat, n=10)[-1], "unit": "s",
                "n": len(lat)}
        return out


WORKLOADS = {w.name: w for w in (Pipeline, SweepGrid, ExactSmall)}
