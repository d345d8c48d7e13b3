from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from dppdml import dataio, evaluation
from dppdml.dml import Cell, MetricModel, TrainConfig, train
from dppdml.errors import (
    ConfigInvalid,
    DimensionMismatch,
    DppError,
    EmptyTestSet,
    EmptyTrainSet,
    NonFiniteValue,
)
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
from dppdml.pairgraph import PairSet, PairwiseDatum, build_graph

from . import oracles


def benchmark(n_per_class=60, seed=0, density=1.5):
    samples = dataio.normalize(dataio.synth_two_gaussians(n_per_class, seed=seed))
    pairs = dataio.sample_pairs(samples, density, seed=seed)
    graph = build_graph(pairs)
    return samples, pairs, graph


def grid_data(seed):
    """Train and test points on a small integer grid, drawn with repeats (so
    the identity map gives exact distance ties), half the test points off
    the grid, and three string classes (so even ``k`` gives tied votes)."""
    gen = np.random.default_rng(seed)
    grid = gen.integers(-2, 3, (12, 2)).astype(float)
    train_x = grid[gen.integers(0, 12, 40)]
    test_x = np.vstack([grid[gen.integers(0, 12, 15)],
                        gen.normal(0, 1.5, (15, 2))])
    names = np.array(["ant", "bee", "cat"])
    train_labels = names[gen.integers(0, 3, 40)]
    test_labels = names[gen.integers(0, 3, 30)]
    return gen, (train_x, train_labels, test_x, test_labels)


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
    @pytest.mark.parametrize("k", [1, 2, 4, 5, 6, 40])  # 40: every training point
    @pytest.mark.parametrize("seed", range(3))
    def test_ties_duplicates_and_three_string_classes(self, transform, k, seed):
        gen, data = grid_data(seed)
        w = np.eye(2) if transform == "identity" else gen.normal(0, 1, (2, 2))
        args = (MetricModel(w), *data, k)
        assert knn_accuracy(*args) == oracles.reference_knn_accuracy(*args)

    def test_ties_at_the_kth_distance_keep_the_lowest_indices(self):
        # five points tie at the 3rd distance; the stable order keeps indices
        # 1 and 2 (label 1), so label 1 wins 2 votes to 1
        model = MetricModel(np.eye(1))
        x_tr = np.array([[0.0], [1.0], [-1.0], [1.0], [-1.0], [1.0]])
        args = (model, x_tr, [0, 1, 1, 0, 0, 0], np.array([[0.0]]), [1], 3)
        assert knn_accuracy(*args) == 1.0 == oracles.reference_knn_accuracy(*args)

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

    @pytest.mark.parametrize("k", [1, 2, 5, 40])  # 40: every training point
    @pytest.mark.parametrize("seed", range(3))
    def test_ties_three_string_classes(self, k, seed):
        gen, data = grid_data(seed)
        # the identity map keeps the grid's exact distance ties
        models = [MetricModel(np.eye(2))] + [
            MetricModel(gen.normal(0, 1, (2, 2))) for _ in range(4)
        ]
        data = (*data, k)
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
        selected_shapes = []
        partition = np.partition

        def spy(a, *args, **kwargs):
            selected_shapes.append(a.shape)
            return partition(a, *args, **kwargs)

        monkeypatch.setattr(evaluation.np, "partition", spy)
        assert knn_accuracy(models, *data) == per_model
        assert selected_shapes == [(2, 30, 40)] * 3 + [(1, 30, 40)]

    @pytest.mark.parametrize("case", ["overflowing features", "overflowing model",
                                      "NaN train feature", "infinite test feature"])
    def test_non_finite_distances_raise(self, case, rng):
        train_x, test_x = rng.normal(0, 1, (8, 2)), rng.normal(0, 1, (3, 2))
        models = [MetricModel(np.eye(2))] * 3
        if case == "overflowing features":
            train_x[5] = 1e200
        elif case == "overflowing model":
            models[2] = MetricModel(np.eye(2) * 1e200)
        elif case == "NaN train feature":
            train_x[0, 1] = np.nan
        else:
            test_x[2, 0] = -np.inf
        data = (train_x, [0, 1] * 4, test_x, [0, 1, 0], 3)
        with pytest.raises(NonFiniteValue, match="kNN distances are not finite"):
            knn_accuracy(models, *data)
        with pytest.raises(NonFiniteValue):
            knn_accuracy(models[2], *data)

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

    def test_negative_seed_rejected_before_drawing(self, monkeypatch):
        samples, pairs, graph = benchmark()
        cfg = TrainConfig(d_prime=2, batch_size=30, t_max=1, seed=0)

        def no_work(*args, **kwargs):
            raise AssertionError("perturbed or trained before the seed was checked")

        monkeypatch.setattr(evaluation, "input_perturb", no_work)
        monkeypatch.setattr(evaluation, "train", no_work)
        with pytest.raises(ConfigInvalid, match="seed must be >= 0, got -1"):
            run_experiment(samples, pairs, graph, ["input_per", "dpp"], [1.0], 2,
                           cfg, seed=-1)

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
        cfg = TrainConfig(d_prime=2, batch_size=1640, t_max=2, seed=0)
        # a run holds its row of pair indices, and an input_per run also its
        # own features and labels, three rows more at d = 2: a block holds
        # nine rows
        row = np.dtype(np.intp).itemsize * len(pairs)
        assert pairs.dx.nbytes + pairs.y.nbytes == 3 * row
        monkeypatch.setattr(evaluation, "STACK_BYTES", 9 * row)
        calls = []

        def counting(pairs, graph, cells):
            calls.append([list(cell.runs) for cell in cells])
            return train(pairs, graph, cells)

        monkeypatch.setattr(evaluation, "train", counting)
        reports = run_experiment(samples, pairs, graph, ["input_per", "dpp_s"],
                                 [1.0, 4.0], 3, cfg, seed=7)
        assert calls == [
            [[0, 1]], [[2], [0]], [[1, 2], [0]], [[1, 2], [0, 1, 2]],
        ]

        # each cell equals its own one-cell stack's training and scoring
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
            (models,), _ = train(pairs, graph, [
                Cell(replace(config, seed=7), report, range(3), run_pairs)
            ])
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
        # cell. Every run fits in one block, so there is one train call
        assert calls == [[3] * (1 + 3 * 2 + 2)]

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


class TestPerturbedRuns:
    """``_perturbed`` stacks the noisy sets ``input_perturb`` derives from
    the checked input set, one per run, bit for bit."""

    @pytest.mark.parametrize("epsilon", [0.5, 4.0, math.inf])
    def test_stack_equals_the_runs_of_input_perturb(self, epsilon):
        _, pairs, _ = benchmark()
        runs = [0, 2, 5]
        dx, y = evaluation._perturbed(pairs, epsilon, 9, runs)
        noisy = [input_perturb(pairs, epsilon, np.random.default_rng([1347, 9 + r]))
                 for r in runs]
        assert dx.tobytes() == np.stack([p.dx for p in noisy]).tobytes()
        assert y.tobytes() == np.stack([p.y for p in noisy]).tobytes()
        assert (dx.shape, y.shape, y.dtype) == ((3, *pairs.dx.shape), (3, len(pairs)),
                                                pairs.y.dtype)
        for p, r in zip(noisy, runs):
            ref = oracles.reference_input_perturb(
                pairs, epsilon, np.random.default_rng([1347, 9 + r]))
            assert p.dx.tobytes() == np.stack([q.delta_x for q in ref]).tobytes()
            assert p.y.tolist() == [q.y for q in ref]
            assert p.i is pairs.i and p.j is pairs.j

    def test_several_budgets_equal_the_runs_of_input_perturb(self):
        # one pair of stacks per budget, each run perturbed once for all
        _, pairs, _ = benchmark()
        runs, budgets = [0, 2, 5], [0.5, 4.0, math.inf]
        stacks = evaluation._perturbed(pairs, budgets, 9, runs)
        assert len(stacks) == len(budgets)
        for epsilon, (dx, y) in zip(budgets, stacks):
            noisy = [input_perturb(pairs, epsilon, np.random.default_rng([1347, 9 + r]))
                     for r in runs]
            assert dx.tobytes() == np.stack([p.dx for p in noisy]).tobytes()
            assert y.tobytes() == np.stack([p.y for p in noisy]).tobytes()
            assert (dx.shape, y.shape) == ((3, *pairs.dx.shape), (3, len(pairs)))

    def test_faulty_derived_set_raises_the_datum_error(self):
        # features at the largest float overflow under the noise of a tiny
        # budget, and the derived set rejects them as ``PairwiseDatum`` does
        big = np.finfo(float).max
        pairs = PairSet([0, 2, 4, 6], [1, 3, 5, 7], np.full((4, 2), big), [0, 1, 0, 1])
        with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
            evaluation._perturbed(pairs, 1e-300, 0, [0])
        named = re.fullmatch(r"pair \((\d), (\d)\) .*", str(err.value))
        i, j = map(int, named.groups())
        assert j == i + 1
        with pytest.raises(ValueError) as want:
            PairwiseDatum(i, j, np.array([np.inf, big]), 0)
        assert (type(err.value), str(err.value)) == (type(want.value), str(want.value))
