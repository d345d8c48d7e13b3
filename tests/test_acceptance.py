"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with plain pytest; the lines bypass capture so they
always reach the terminal."""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager

import numpy as np

from dppdml import dataio, evaluation
from dppdml.cli import main as cli_main
from dppdml.dml import (
    MetricModel,
    TrainConfig,
    clip_gradient,
    contrastive_loss,
    gradient_row,
    sensitivity_reduced,
    train,
)
from dppdml.errors import DegenerateDistance
from dppdml.kappa import (
    kappa_exact,
    kappa_node_dp,
    kappa_upper,
    max_edge_disjoint_paths,
)
from dppdml.mechanisms import duchi_randomize, laplace_sample
from dppdml.pairgraph import PairwiseDatum, build_graph

from . import oracles
from .conftest import ACCEPTANCE_LINES, graph_from_edges


def _emit(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        _emit(f"criterion {num:2d} [FAIL] {text}")
        raise
    _emit(f"criterion {num:2d} [PASS] {text}")


def witness_paths_for(g):
    """Library witness path sets keyed by integer node-id pairs."""
    ids = sorted(g.nodes())
    out = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            _, paths = max_edge_disjoint_paths(g, a, b)
            out[(a, b)] = paths
    return out


def toy_problem(data_seed=0):
    samples = dataio.normalize(dataio.synth_two_gaussians(100, seed=data_seed))
    pairs = dataio.toy_pairs(samples, 50, 50, seed=data_seed)
    graph = build_graph(pairs)
    return samples, pairs, graph


def vii_a_config(**overrides):
    base = dict(
        d_prime=2, margin=1.0, lipschitz=0.5, batch_size=30, t_max=10,
        epsilon=2.0, mechanism="laplace", sensitivity_mode="reduced", seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def normalized_vector(rng, d, mode):
    v = rng.uniform(-1.0, 1.0, d)
    norm = np.abs(v).sum() if mode == "l1" else np.linalg.norm(v)
    if norm > 1.0:
        v = v / (norm * (1.0 + 1e-12))
    return v


def test_criterion_01_exact_privacy_distance_matches_oracle():
    with criterion(1, "exact privacy distance equals the exhaustive oracle "
                      "on 200 random graphs (|V|<=8, |E|<=12)"):
        rng = np.random.default_rng(20240818)
        start = time.time()
        gap_pairs = 0
        for _ in range(200):
            n, edges = oracles.random_graph(rng, max_nodes=8, max_edges=12)
            g = graph_from_edges(edges, n_nodes=n)
            got = kappa_exact(g).kappa
            oracle = oracles.kappa_oracle(n, edges, witness_paths_for(g))
            assert got == oracle["kappa"], (n, edges, got, oracle)
            assert oracle["kappa_min_over_path_sets"] <= got
            assert got <= oracle["kappa_max_over_path_sets"]
            gap_pairs += oracle["pairs_with_choice_gap"]
        elapsed = time.time() - start
        assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
        _emit(f"    (path-set choice gaps observed on {gap_pairs} pairs; "
              f"{elapsed:.1f}s)")


def _big_random_graph(rng, pure_tree: bool):
    n = int(rng.integers(20, 201))
    edges = {(int(rng.integers(k)), k) for k in range(1, n)}
    if not pure_tree:
        for e in sorted(edges)[: int(rng.integers(0, 3))]:
            edges.discard(e)  # allow forests
        target = len(edges) + int(rng.integers(1, 13))
        while len(edges) < min(target, n * (n - 1) // 2):
            a, b = int(rng.integers(n)), int(rng.integers(n))
            if a != b:
                edges.add((min(a, b), max(a, b)))
    return n, sorted(edges)


def test_criterion_02_upper_bound_dominance_chain():
    with criterion(2, "exact <= efficient bound <= node baseline on 250 "
                      "graphs; trees give (1, <=max degree, max degree)"):
        rng = np.random.default_rng(20240819)
        for _ in range(200):
            n, edges = oracles.random_graph(rng, max_nodes=8, max_edges=12)
            g = graph_from_edges(edges, n_nodes=n)
            ke = kappa_exact(g).kappa
            ku = kappa_upper(g).kappa
            kn = kappa_node_dp(g).kappa
            assert ke <= ku <= kn, (edges, ke, ku, kn)
        for k in range(50):
            pure_tree = k < 10
            n, edges = _big_random_graph(rng, pure_tree)
            g = graph_from_edges(edges, n_nodes=n)
            ke = kappa_exact(g, exact_limit=200).kappa
            ku = kappa_upper(g).kappa
            kn = kappa_node_dp(g).kappa
            assert ke <= ku <= kn, (n, len(edges), ke, ku, kn)
            if pure_tree:
                max_degree = max(g.degree(v) for v in g.nodes())
                assert ke == 1
                assert ku <= max_degree
                assert kn == max_degree


def test_criterion_03_gradient_matches_finite_differences():
    with criterion(3, "per-row gradients match central finite differences "
                      "on 1000 random configurations (rel err <= 1e-5)"):
        rng = np.random.default_rng(20240820)
        start = time.time()
        checked = 0
        while checked < 1000:
            d = int(rng.integers(2, 7))
            d_prime = int(rng.integers(1, d + 1))
            w = rng.normal(0.0, 1.0, (d_prime, d))
            y = int(rng.integers(0, 2))
            pair = PairwiseDatum(0, 1, rng.normal(0.0, 1.0, d), y)
            margin = float(rng.uniform(0.5, 2.0))
            d_w = float(np.linalg.norm(w @ pair.delta_x))
            if y == 1 and abs(d_w - margin) < 1e-3:
                continue
            row = int(rng.integers(0, d_prime))
            model = MetricModel(w)
            fd = oracles.finite_difference_gradient(
                lambda m: contrastive_loss(MetricModel(m), pair, margin), w, row
            )
            got = gradient_row(model, pair, margin, row)
            denom = max(np.linalg.norm(fd), np.linalg.norm(got), 1e-12)
            assert np.linalg.norm(got - fd) / denom <= 1e-5
            checked += 1
        assert time.time() - start < 60.0


def test_criterion_04_hinge_gradient_norm_caps():
    with criterion(4, "active-hinge gradients of normalised pairs stay "
                      "within the l1 and l2 caps (1e4 pairs each, zero "
                      "violations)"):
        rng = np.random.default_rng(20240821)
        for mode in ("l1", "l2"):
            checked = 0
            while checked < 10_000:
                d = int(rng.integers(2, 7))
                d_prime = int(rng.integers(1, d + 1))
                x_i = normalized_vector(rng, d, mode)
                x_j = normalized_vector(rng, d, mode)
                pair = PairwiseDatum(0, 1, x_i - x_j, 1)
                w = rng.normal(0.0, 1.0, (d_prime, d))
                d_w = float(np.linalg.norm(w @ pair.delta_x))
                if d_w == 0.0:
                    continue
                margin = d_w * float(rng.uniform(1.05, 3.0))
                model = MetricModel(w)
                for row in range(d_prime):
                    g = gradient_row(model, pair, margin, row)
                    if mode == "l1":
                        assert np.abs(g).sum() <= 2 * margin * math.sqrt(d_prime) + 1e-9
                    else:
                        assert np.linalg.norm(g) <= 2 * margin + 1e-9
                checked += 1


def test_criterion_05_sensitivity_reduction_during_toy_training():
    with criterion(5, "reduced sensitivity <= fixed bound at every toy "
                      "iteration and strictly below at >= 50% of them"):
        _, pairs, graph = toy_problem()
        _, trace = train(pairs, graph, vii_a_config())
        basic = np.array(trace.sens_basic)
        reduced = np.stack(trace.sens_reduced)
        assert np.all(reduced <= basic[:, None] + 1e-15)
        strict = np.all(reduced < basic[:, None] - 1e-15, axis=1)
        assert strict.mean() >= 0.5, f"strict fraction {strict.mean():.2f}"


def test_criterion_06_neighbouring_batch_sensitivity_bound():
    with criterion(6, "exhaustive single-pair substitutions never exceed "
                      "the reduced bound (batches <= 6 from a 20-pair pool)"):
        rng = np.random.default_rng(20240822)
        d, h, margin = 3, 0.5, 1.0
        pool = []
        for k in range(20):
            x_i = normalized_vector(rng, d, "l1")
            x_j = normalized_vector(rng, d, "l1")
            pool.append(PairwiseDatum(2 * k, 2 * k + 1, x_i - x_j, int(k % 2)))
        for w_draw in range(3):
            w = rng.normal(0.0, 0.4 + 0.3 * w_draw, (2, d))
            model = MetricModel(w)

            def clipped(p, row):
                try:
                    g = gradient_row(model, p, margin, row)
                except DegenerateDistance:
                    g = np.zeros(d)
                return clip_gradient(g, h, "l1")

            for batch_size in (2, 3, 4, 5, 6):
                batch = pool[:batch_size]
                for row in range(2):
                    grads = np.stack([clipped(p, row) for p in batch])
                    bound = sensitivity_reduced(
                        [grads], w[row:row + 1], h, margin, 1, batch_size
                    )[0]
                    mean = grads.mean(axis=0)
                    for pos in range(batch_size):
                        for repl in pool:
                            swapped = grads.copy()
                            swapped[pos] = clipped(repl, row)
                            shift = np.abs(swapped.mean(axis=0) - mean).sum()
                            assert shift <= bound + 1e-12


def test_criterion_07_mechanism_statistics():
    with criterion(7, "noise variances match theory within 5% at 1e6 draws "
                      "and the one-bit/Laplace variance ratio is ~1.17e4"):
        rng = np.random.default_rng(20240823)
        scale = 1.0
        draws = laplace_sample(scale, rng, size=1_000_000)
        assert draws.var() <= 2.0 * scale * scale * 1.05
        assert draws.var() >= 2.0 * scale * scale * 0.95

        c = (math.e + 1.0) / (math.e - 1.0)
        one_bit = np.array(
            [duchi_randomize(0.0, 1.0, rng) for _ in range(1_000_000)]
        )
        assert one_bit.var() <= c * c * 1.05
        assert one_bit.var() >= c * c * 0.95

        h, batch, eps = 0.5, 50, 1.0
        lap_var = 4.0 * h * h / (batch * batch * eps * eps)
        ratio = c * c / lap_var
        assert abs(ratio / 1.17e4 - 1.0) < 0.01


def test_criterion_08_utility_trend_on_synthetic_benchmark():
    with criterion(8, "1000-sample benchmark, 20 repeats: near-baseline "
                      "accuracy at budget 4, trend within one std, method "
                      "ordering at budget 2"):
        start = time.time()
        samples = dataio.normalize(dataio.synth_two_gaussians(500, seed=11))
        pairs = dataio.sample_pairs(samples, 2.0, balance=True, seed=11)
        graph = build_graph(pairs)
        config = TrainConfig(
            d_prime=2, margin=None, margin_ratio=1.0, lipschitz=0.5,
            batch_size=50, t_max=3, epsilon=2.0, mechanism="laplace", seed=0,
        )
        methods = ["nonpriv", "dpp", "dpp_s", "node_dp", "input_per"]
        epsilons = [1.0, 2.0, 4.0]
        reports = evaluation.run_experiment(
            samples, pairs, graph, methods, epsilons, 20, config, seed=0
        )
        cells = {(r.method, r.epsilon): r for r in reports}

        nonpriv = cells[("nonpriv", 4.0)].mean_accuracy
        dpps4 = cells[("dpp_s", 4.0)].mean_accuracy
        assert abs(dpps4 - nonpriv) <= 0.05, (dpps4, nonpriv)

        for method in methods:
            for lo, hi in zip(epsilons, epsilons[1:]):
                a, b = cells[(method, lo)], cells[(method, hi)]
                slack = max(a.std_accuracy, b.std_accuracy)
                assert b.mean_accuracy >= a.mean_accuracy - slack, (
                    method, lo, hi, a.mean_accuracy, b.mean_accuracy, slack
                )

        assert cells[("dpp_s", 2.0)].mean_accuracy >= cells[
            ("dpp", 2.0)].mean_accuracy
        assert cells[("dpp", 2.0)].mean_accuracy >= cells[
            ("node_dp", 2.0)].mean_accuracy

        # expectation, not a hard gate: input perturbation trails the
        # gradient-noise methods at matched budgets
        trailing = sum(
            cells[("input_per", e)].mean_accuracy
            <= cells[("dpp", e)].mean_accuracy
            for e in epsilons
        )
        _emit(f"    (input perturbation at/below gradient noise on "
              f"{trailing}/{len(epsilons)} budgets)")
        elapsed = time.time() - start
        assert elapsed < 600.0, f"benchmark took {elapsed:.0f}s"


def test_criterion_09_resolved_config_reruns_byte_identical(tmp_path):
    with criterion(9, "every command re-run from its resolved config "
                      "reproduces outputs byte-identically"):
        import json

        def rerun(config_path, out_dir, command):
            config = json.loads(config_path.read_text())
            config["out_dir"] = str(out_dir)
            patched = out_dir.parent / f"{out_dir.name}_config.json"
            patched.write_text(json.dumps(config))
            assert cli_main([command, "--config", str(patched)]) == 0

        synth_a = tmp_path / "synth_a"
        assert cli_main(["synth", "--out-dir", str(synth_a), "--seed", "5"]) == 0
        synth_b = tmp_path / "synth_b"
        rerun(synth_a / "resolved_config.json", synth_b, "synth")
        for name in ("samples.csv", "pairs.csv"):
            assert (synth_a / name).read_bytes() == (synth_b / name).read_bytes()

        train_a = tmp_path / "train_a"
        assert cli_main([
            "train", "--pairs", str(synth_a / "pairs.csv"),
            "--out-dir", str(train_a), "--t-max", "3", "--batch-size", "30",
            "--margin", "1.0", "--seed", "2",
        ]) == 0
        train_b = tmp_path / "train_b"
        rerun(train_a / "resolved_config.json", train_b, "train")
        for name in ("model.json", "trace.csv"):
            assert (train_a / name).read_bytes() == (train_b / name).read_bytes()

        sweep_a = tmp_path / "sweep_a"
        assert cli_main([
            "sweep", "--data", str(synth_a / "samples.csv"),
            "--pairs", str(synth_a / "pairs.csv"), "--out-dir", str(sweep_a),
            "--methods", "nonpriv,dpp_s", "--epsilons", "2",
            "--repeats", "2", "--t-max", "1", "--batch-size", "30",
            "--margin", "1.0",
        ]) == 0
        sweep_b = tmp_path / "sweep_b"
        rerun(sweep_a / "resolved_config.json", sweep_b, "sweep")
        assert (sweep_a / "sweep.csv").read_bytes() == (
            sweep_b / "sweep.csv").read_bytes()


def test_criterion_10_toy_reproduction():
    with criterion(10, "clean and reduced-noise projections keep kNN at or "
                       "above raw space; noisy training still converges"):
        samples, pairs, graph = toy_problem()
        train_idx, _ = evaluation.split_by_participation(samples, pairs)
        x_tr = samples.x[train_idx]
        y_tr = samples.labels[train_idx]
        raw_acc = evaluation.knn_accuracy(
            MetricModel(np.eye(2)), x_tr, y_tr, samples.x, samples.labels, 5
        )

        clean_model, clean_trace = train(
            pairs, graph, vii_a_config(mechanism="none")
        )
        assert clean_trace.objectives[-1] < clean_trace.initial_objective
        clean_acc = evaluation.knn_accuracy(
            clean_model, x_tr, y_tr, samples.x, samples.labels, 5
        )
        assert clean_acc >= raw_acc, (clean_acc, raw_acc)

        reduced_model, _ = train(pairs, graph, vii_a_config(seed=0))
        reduced_acc = evaluation.knn_accuracy(
            reduced_model, x_tr, y_tr, samples.x, samples.labels, 5
        )
        assert reduced_acc >= raw_acc, (reduced_acc, raw_acc)

        _, noisy_trace = train(
            pairs, graph, vii_a_config(sensitivity_mode="basic", seed=0)
        )
        assert noisy_trace.objectives[-1] < noisy_trace.initial_objective
