from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from dppdml import dataio, evaluation
from dppdml.dml import MetricModel, TrainConfig, train
from dppdml.errors import DimensionMismatch, DppError, EmptyTestSet, EmptyTrainSet
from dppdml.evaluation import (
    METHODS,
    ExperimentReport,
    knn_accuracy,
    project,
    run_experiment,
    split_by_participation,
)
from dppdml.kappa import compute_kappa
from dppdml.mechanisms import input_perturb
from dppdml.pairgraph import build_graph

from . import oracles


def benchmark(n_per_class=60, seed=0, density=1.5):
    samples = dataio.normalize(dataio.synth_two_gaussians(n_per_class, seed=seed))
    pairs = dataio.sample_pairs(samples, density, seed=seed)
    graph = build_graph(pairs)
    return samples, pairs, graph


class TestProject:
    def test_identity_transform(self, rng):
        x = rng.normal(0, 1, (5, 3))
        assert np.array_equal(project(MetricModel(np.eye(3)), x), x)

    def test_zero_transform(self, rng):
        x = rng.normal(0, 1, (5, 3))
        assert np.array_equal(project(MetricModel(np.zeros((2, 3))), x),
                              np.zeros((5, 2)))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            project(MetricModel(np.eye(3)), rng.normal(0, 1, (5, 2)))

    def test_projected_distances_equal_metric_distances(self, rng):
        w = rng.normal(0, 1, (2, 4))
        model = MetricModel(w)
        x = rng.normal(0, 1, (8, 4))
        projected = project(model, x)
        metric = model.metric()
        for a in range(8):
            for b in range(8):
                delta = x[a] - x[b]
                expected = math.sqrt(delta @ metric @ delta)
                got = np.linalg.norm(projected[a] - projected[b])
                assert got == pytest.approx(expected, abs=1e-9)


class TestKnn:
    def test_self_match(self, rng):
        x = rng.normal(0, 1, (20, 2))
        labels = rng.integers(0, 2, 20)
        model = MetricModel(np.eye(2))
        assert knn_accuracy(model, x, labels, x, labels, k=1) == 1.0

    def test_random_labels_near_chance(self, rng):
        x = rng.normal(0, 1, (2000, 2))
        labels = rng.integers(0, 2, 2000)
        model = MetricModel(np.eye(2))
        acc = knn_accuracy(model, x[:1000], labels[:1000], x[1000:], labels[1000:], 5)
        assert acc == pytest.approx(0.5, abs=0.05)

    def test_invariant_under_rotation_of_projected_space(self, rng):
        samples = dataio.normalize(dataio.synth_two_gaussians(50, seed=2))
        w = rng.normal(0, 1, (2, 2))
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)],
             [math.sin(theta), math.cos(theta)]]
        )
        x_tr, y_tr = samples.x[:60], samples.labels[:60]
        x_te, y_te = samples.x[60:], samples.labels[60:]
        base = knn_accuracy(MetricModel(w), x_tr, y_tr, x_te, y_te, 5)
        rotated = knn_accuracy(MetricModel(rot @ w), x_tr, y_tr, x_te, y_te, 5)
        assert base == rotated

    def test_empty_train_set_rejected(self, rng):
        model = MetricModel(np.eye(2))
        with pytest.raises(EmptyTrainSet):
            knn_accuracy(model, np.zeros((0, 2)), [], rng.normal(0, 1, (3, 2)),
                         [0, 1, 0], 1)

    def test_empty_test_set_rejected(self, rng):
        model = MetricModel(np.eye(2))
        x = rng.normal(0, 1, (3, 2))
        with pytest.raises(EmptyTestSet) as info:
            knn_accuracy(model, x, [0, 1, 0], np.zeros((0, 2)), [], 1)
        assert isinstance(info.value, DppError)

    @pytest.mark.parametrize("train_labels, test_labels", [
        ([0, 1], [0, 1]),         # 2 train labels for 3 train points
        ([0, 1, 0, 1], [0, 1]),
        ([0, 1, 0], [1]),         # 1 test label for 2 test points
    ])
    def test_label_count_must_match_points(self, rng, train_labels, test_labels):
        model = MetricModel(np.eye(2))
        with pytest.raises(DimensionMismatch) as info:
            knn_accuracy(model, rng.normal(0, 1, (3, 2)), train_labels,
                         rng.normal(0, 1, (2, 2)), test_labels, 1)
        assert isinstance(info.value, DppError)

    def test_k_validated(self, rng):
        model = MetricModel(np.eye(2))
        x = rng.normal(0, 1, (4, 2))
        with pytest.raises(ValueError):
            knn_accuracy(model, x, [0, 1, 0, 1], x, [0, 1, 0, 1], 5)

    def test_string_labels_supported(self):
        model = MetricModel(np.eye(1))
        x_tr = np.array([[0.0], [1.0]])
        x_te = np.array([[0.1]])
        acc = knn_accuracy(model, x_tr, ["cat", "dog"], x_te, ["cat"], 1)
        assert acc == 1.0

    def test_distance_tie_prefers_lower_index(self):
        model = MetricModel(np.eye(1))
        x_tr = np.array([[1.0], [-1.0]])
        acc = knn_accuracy(model, x_tr, [1, 0], np.array([[0.0]]), [1], 1)
        assert acc == 1.0  # equidistant: index 0 (label 1) wins


class TestKnnMatchesRowReference:
    """``knn_accuracy`` votes for every test row at once and agrees with the
    row-at-a-time ``oracles.reference_knn_accuracy``. Points on a small
    integer grid, drawn with repeats, give exact distance ties under the
    identity map; even ``k`` and three classes give tied votes."""

    @pytest.mark.parametrize("transform", ["identity", "random"])
    @pytest.mark.parametrize("k", [1, 2, 4, 5, 6])
    @pytest.mark.parametrize("seed", range(3))
    def test_ties_duplicates_and_three_string_classes(self, transform, k, seed):
        gen = np.random.default_rng(seed)
        grid = gen.integers(-2, 3, (12, 2)).astype(float)
        train_x = grid[gen.integers(0, 12, 40)]
        test_x = np.vstack([grid[gen.integers(0, 12, 15)],
                            gen.normal(0, 1.5, (15, 2))])
        names = np.array(["ant", "bee", "cat"])
        train_labels = names[gen.integers(0, 3, 40)]
        test_labels = names[gen.integers(0, 3, 30)]
        w = np.eye(2) if transform == "identity" else gen.normal(0, 1, (2, 2))
        model = MetricModel(w)
        args = (model, train_x, train_labels, test_x, test_labels, k)
        assert knn_accuracy(*args) == oracles.reference_knn_accuracy(*args)

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_random_data_integer_labels(self, rng, k):
        x = rng.normal(0, 1, (300, 3))
        labels = rng.integers(0, 3, 300)
        model = MetricModel(rng.normal(0, 1, (2, 3)))
        args = (model, x[:200], labels[:200], x[200:], labels[200:], k)
        assert knn_accuracy(*args) == oracles.reference_knn_accuracy(*args)


class TestStackedKnnMatchesPerModelLoop:
    """``knn_accuracy`` on a sequence of models scores them in one pass and
    returns what one call per model returns, and what the row-at-a-time
    reference returns, for each model."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_ties_three_string_classes(self, k, seed):
        gen = np.random.default_rng(seed)
        grid = gen.integers(-2, 3, (12, 2)).astype(float)
        train_x = grid[gen.integers(0, 12, 40)]
        test_x = np.vstack([grid[gen.integers(0, 12, 15)],
                            gen.normal(0, 1.5, (15, 2))])
        names = np.array(["ant", "bee", "cat"])
        train_labels = names[gen.integers(0, 3, 40)]
        test_labels = names[gen.integers(0, 3, 30)]
        # the identity map keeps the grid's exact distance ties
        models = [MetricModel(np.eye(2))] + [
            MetricModel(gen.normal(0, 1, (2, 2))) for _ in range(4)
        ]
        data = (train_x, train_labels, test_x, test_labels, k)
        stacked = knn_accuracy(models, *data)
        assert isinstance(stacked, tuple)
        assert stacked == tuple(knn_accuracy(m, *data) for m in models)
        assert stacked == tuple(oracles.reference_knn_accuracy(m, *data)
                                for m in models)

    def test_one_model_in_a_sequence(self, rng):
        x = rng.normal(0, 1, (60, 3))
        labels = rng.integers(0, 2, 60)
        model = MetricModel(rng.normal(0, 1, (2, 3)))
        data = (x[:40], labels[:40], x[40:], labels[40:], 3)
        assert knn_accuracy([model], *data) == (knn_accuracy(model, *data),)

    def test_models_scored_in_bounded_chunks(self, rng, monkeypatch):
        x = rng.normal(0, 1, (70, 3))
        labels = rng.integers(0, 3, 70)
        models = [MetricModel(rng.normal(0, 1, (2, 3))) for _ in range(7)]
        data = (x[:40], labels[:40], x[40:], labels[40:], 4)
        per_model = tuple(knn_accuracy(m, *data) for m in models)
        # 30 test x 40 train distances: two models' matrices fit 2,500 elements
        monkeypatch.setattr(evaluation, "OBJECTIVE_BLOCK", 2500)
        sorted_shapes = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            sorted_shapes.append(a.shape)
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(evaluation.np, "argsort", spy)
        assert knn_accuracy(models, *data) == per_model
        assert sorted_shapes == [(2, 30, 40)] * 3 + [(1, 30, 40)]

    def test_dimension_checked(self, rng):
        models = [MetricModel(np.eye(2)), MetricModel(np.eye(2))]
        with pytest.raises(DimensionMismatch):
            knn_accuracy(models, rng.normal(0, 1, (5, 3)), [0] * 5,
                         rng.normal(0, 1, (2, 3)), [0, 1], 1)


class TestSplit:
    def test_non_participants_form_test_set(self):
        samples, pairs, _ = benchmark(n_per_class=40)
        train_idx, test_idx = split_by_participation(samples, pairs)
        participants = {p.i for p in pairs} | {p.j for p in pairs}
        assert set(samples.ids[train_idx].tolist()) == participants
        assert len(train_idx) + len(test_idx) == len(samples)
        assert not set(test_idx) & set(train_idx)


class TestExperimentReport:
    def test_from_runs(self):
        rep = ExperimentReport("dpp", 2.0, (0.8, 1.0))
        assert rep.mean_accuracy == pytest.approx(0.9)
        assert rep.std_accuracy == pytest.approx(0.1)
        assert len(rep.per_run) == 2


class TestRunExperiment:
    def test_infinite_budget_matches_clean_baseline(self):
        samples, pairs, graph = benchmark()
        cfg = TrainConfig(d_prime=2, margin=1.0, batch_size=30, t_max=2,
                          mechanism="laplace", seed=0)
        reports = run_experiment(samples, pairs, graph, ["nonpriv", "dpp"],
                                 [math.inf], 3, cfg, seed=0)
        by_method = {r.method: r for r in reports}
        assert by_method["dpp"].per_run == by_method["nonpriv"].per_run

    def test_report_grid_shape_and_determinism(self):
        samples, pairs, graph = benchmark()
        cfg = TrainConfig(d_prime=2, margin=1.0, batch_size=30, t_max=2,
                          mechanism="laplace", seed=0)
        first = run_experiment(samples, pairs, graph, ["nonpriv", "dpp_s"],
                               [1.0, 2.0], 2, cfg, seed=0)
        second = run_experiment(samples, pairs, graph, ["nonpriv", "dpp_s"],
                                [1.0, 2.0], 2, cfg, seed=0)
        assert len(first) == 4
        assert [r.per_run for r in first] == [r.per_run for r in second]
        nonpriv = [r for r in first if r.method == "nonpriv"]
        assert nonpriv[0].per_run == nonpriv[1].per_run  # budget ignored

    def test_all_methods_run(self):
        samples, pairs, graph = benchmark()
        cfg = TrainConfig(d_prime=2, margin=1.0, batch_size=30, t_max=2,
                          mechanism="laplace", seed=0)
        reports = run_experiment(
            samples, pairs, graph,
            ["nonpriv", "dpp", "dpp_s", "node_dp", "input_per"],
            [2.0], 2, cfg, seed=0,
        )
        assert {r.method for r in reports} == {
            "nonpriv", "dpp", "dpp_s", "node_dp", "input_per"
        }
        for r in reports:
            assert 0.0 <= r.mean_accuracy <= 1.0

    def test_unknown_method_rejected(self):
        samples, pairs, graph = benchmark()
        cfg = TrainConfig(d_prime=2, margin=1.0, seed=0)
        with pytest.raises(ValueError):
            run_experiment(samples, pairs, graph, ["magic"], [1.0], 1, cfg)

    @pytest.mark.parametrize("k", [0, 10_000])
    def test_k_checked_before_training(self, k, monkeypatch):
        samples, pairs, graph = benchmark()
        cfg = TrainConfig(d_prime=2, batch_size=30, t_max=1, seed=0)

        def no_training(*args, **kwargs):
            raise AssertionError("trained before k was checked")

        monkeypatch.setattr(evaluation, "train", no_training)
        with pytest.raises(DppError, match="k must lie in"):
            run_experiment(samples, pairs, graph, METHODS, [1.0], 2, cfg, k=k)

    def test_blocks_split_cells(self, monkeypatch):
        samples, pairs, graph = benchmark()
        # a nominal batch of 1,640 pairs (every pair, in one batch) at
        # d_prime 2: a block holds 16384 // 3280 = 4 runs, at most 3 of them
        # input_per runs
        cfg = TrainConfig(d_prime=2, batch_size=1640, t_max=2, seed=0)
        calls = []

        def counting(pairs, graph, cells):
            calls.append([list(cell.runs) for cell in cells])
            return train(pairs, graph, cells)

        monkeypatch.setattr(evaluation, "train", counting)
        reports = run_experiment(samples, pairs, graph, ["input_per", "dpp_s"],
                                 [1.0, 4.0], 3, cfg, seed=7)
        assert calls == [
            [[0, 1, 2], [0]], [[0, 1, 2], [1]], [[2], [0, 1, 2]],
        ]

        # each cell equals its own batched training and scoring
        train_idx, test_idx = split_by_participation(samples, pairs)
        data = (samples.x[train_idx], samples.labels[train_idx],
                samples.x[test_idx], samples.labels[test_idx])
        report = compute_kappa(graph)
        for rep in reports:
            config, run_pairs = replace(cfg, epsilon=rep.epsilon), None
            if rep.method == "input_per":
                config = replace(cfg, mechanism="none")
                noisy = [input_perturb(pairs, rep.epsilon,
                                       np.random.default_rng([1347, 7 + r]))
                         for r in range(3)]
                run_pairs = (np.stack([p.dx for p in noisy]),
                             np.stack([p.y for p in noisy]))
            models, _ = train(pairs, graph, replace(config, seed=7),
                              kappa_report=report, repeats=3, run_pairs=run_pairs)
            assert rep.per_run == knn_accuracy(models, *data)

    def test_one_batched_train_per_cell(self, monkeypatch):
        samples, pairs, graph = benchmark()
        cfg = TrainConfig(d_prime=2, batch_size=30, t_max=2, seed=0)
        calls = []

        def counting(pairs, graph, cells):
            calls.append([len(cell.runs) for cell in cells])
            return train(pairs, graph, cells)

        monkeypatch.setattr(evaluation, "train", counting)
        reports = run_experiment(samples, pairs, graph, METHODS, [1.0, 4.0], 3,
                                 cfg, seed=7)
        # nonpriv ignores the budget, so it trains once; the rest once a
        # cell. One train call per block, and a block takes the runs of at
        # most one input_per cell: 24 runs, then the last input_per cell
        assert calls == [[3] * (1 + 3 * 2 + 1), [3]]

        # every run equals one training at its own seed, perturbed for input_per
        train_idx, test_idx = split_by_participation(samples, pairs)
        report = compute_kappa(graph)
        per_run = {(r.method, r.epsilon): r.per_run for r in reports}
        for r in range(3):
            noisy = input_perturb(pairs, 4.0, np.random.default_rng([1347, 7 + r]))
            for method, given, config in (
                ("input_per", noisy, replace(cfg, mechanism="none")),
                ("dpp_s", pairs, replace(cfg, epsilon=4.0)),
            ):
                model, _ = train(given, graph, replace(config, seed=7 + r),
                                 kappa_report=report)
                assert per_run[(method, 4.0)][r] == knn_accuracy(
                    model, samples.x[train_idx], samples.labels[train_idx],
                    samples.x[test_idx], samples.labels[test_idx],
                )
