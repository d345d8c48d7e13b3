from __future__ import annotations

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dppdml import dataio, dml
from dppdml.dml import (
    NORM_MODES,
    OBJECTIVE_BLOCK,
    Cell,
    MetricModel,
    TrainConfig,
    clip_gradient,
    contrastive_loss,
    dataset_objective,
    default_margin,
    gradient_row,
    sensitivity_reduced,
    step_size,
    train,
)
from dppdml.errors import (
    ConfigInvalid,
    DegenerateDistance,
    DimensionMismatch,
    EmptyBatch,
    NonFiniteValue,
    NonPositiveScale,
)
from dppdml.kappa import KappaReport, compute_kappa
from dppdml.mechanisms import input_perturb
from dppdml.pairgraph import PairSet, PairwiseDatum, build_graph

from . import oracles
from .oracles import sensitivity_basic


def pair(dx, y, i=0, j=1):
    return PairwiseDatum(i, j, np.asarray(dx, dtype=float), y)


def toy_setup(seed=0):
    samples = dataio.normalize(dataio.synth_two_gaussians(100, seed=seed))
    pairs = dataio.toy_pairs(samples, 50, 50, seed=seed)
    graph = build_graph(pairs)
    return samples, pairs, graph


def vii_a_config(**overrides):
    """Hyperparameters of the small-scale experiment: unit margin, 0.5
    Lipschitz cap, 30-pair batches, ten epochs, budget 2."""
    base = dict(
        d_prime=2, margin=1.0, lipschitz=0.5, batch_size=30, t_max=10,
        epsilon=2.0, mechanism="laplace", sensitivity_mode="reduced", seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestMetricModelFile:
    def test_round_trip(self):
        w = np.array([[0.5, -1.25, 3.0], [0.0, 2.0, 1e-300]])
        model = MetricModel.from_dict(MetricModel(w).to_dict())
        assert model.w.tobytes() == w.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected_naming_it(self, bad):
        payload = MetricModel(np.eye(2)).to_dict()
        payload["w"][2] = bad
        with pytest.raises(NonFiniteValue, match=rf"^model weight w\[2\] is {bad}, not finite$"):
            MetricModel.from_dict(payload)


class TestContrastiveLoss:
    def test_zero_model_similar_pair(self):
        model = MetricModel(np.zeros((2, 3)))
        assert contrastive_loss(model, pair([1, 2, 3], 0), 1.0) == 0.0

    def test_zero_model_dissimilar_pair_pays_full_margin(self):
        model = MetricModel(np.zeros((2, 3)))
        assert contrastive_loss(model, pair([1, 2, 3], 1), 2.0) == 2.0

    def test_hinge_inactive_beyond_margin(self):
        model = MetricModel(np.eye(2))
        assert contrastive_loss(model, pair([3.0, 4.0], 1), 1.0) == 0.0

    def test_dimension_mismatch(self):
        model = MetricModel(np.eye(2))
        with pytest.raises(DimensionMismatch):
            contrastive_loss(model, pair([1.0, 2.0, 3.0], 0), 1.0)


class TestGradientRow:
    def test_inactive_hinge_gives_zero(self):
        model = MetricModel(np.eye(2))
        g = gradient_row(model, pair([3.0, 4.0], 1), 1.0, 0)
        assert np.array_equal(g, np.zeros(2))

    def test_zero_row_similar_pair_gives_zero(self):
        model = MetricModel(np.array([[0.0, 0.0], [1.0, 0.0]]))
        g = gradient_row(model, pair([1.0, 2.0], 0), 1.0, 0)
        assert np.array_equal(g, np.zeros(2))

    def test_degenerate_distance_raises(self):
        model = MetricModel(np.zeros((1, 2)))
        with pytest.raises(DegenerateDistance):
            gradient_row(model, pair([1.0, 0.0], 1), 1.0, 0)

    def test_row_index_validated(self):
        model = MetricModel(np.eye(2))
        with pytest.raises(IndexError):
            gradient_row(model, pair([1.0, 0.0], 0), 1.0, 2)

    def test_matches_finite_differences(self, rng):
        """Analytic gradient agrees with central differences away from the
        hinge kink."""
        checked = 0
        while checked < 200:
            d = int(rng.integers(2, 6))
            d_prime = int(rng.integers(1, d + 1))
            w = rng.normal(0, 1, (d_prime, d))
            p = pair(rng.normal(0, 1, d), int(rng.integers(0, 2)))
            margin = float(rng.uniform(0.5, 2.0))
            d_w = float(np.linalg.norm(w @ p.delta_x))
            if p.y == 1 and abs(d_w - margin) < 1e-3:
                continue
            model = MetricModel(w)
            row = int(rng.integers(0, d_prime))
            fd = oracles.finite_difference_gradient(
                lambda m: contrastive_loss(MetricModel(m), p, margin), w, row
            )
            got = gradient_row(model, p, margin, row)
            denom = max(np.linalg.norm(fd), np.linalg.norm(got), 1e-12)
            assert np.linalg.norm(got - fd) / denom <= 1e-5
            checked += 1


class TestCoefficientsMatchMaskedDivide:
    """The hinge coefficients equal the masked divide's, values and
    warnings alike, on a stack of three ``W`` with a margin each."""

    @staticmethod
    def record(fn, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            amat, degenerate = fn(*args)
        return amat, degenerate, [(w.category, str(w.message)) for w in caught]

    @pytest.mark.parametrize("case", [
        "every distance positive", "zero distance, dissimilar pair",
        "zero distance, similar pair", "infinite distance", "NaN distance",
        "overflowing kept quotient", "overflowing dropped quotient",
        "infinite margin",
    ])
    def test_same_values_and_warnings(self, case, rng):
        w = rng.uniform(0.1, 1.0, (3, 2, 3))
        dx = rng.normal(0, 1, (3, 8, 3))
        dissimilar = np.tile([True, False], (3, 4))
        margin = np.array([[0.5], [1.0], [2.0]])
        if case.startswith("zero distance"):
            dx[1, 2 if case.endswith("dissimilar pair") else 3] = 0.0
        elif case == "infinite distance":
            dx[2, 4] = [1e200, 0.0, 0.0]      # its projection overflows
        elif case == "NaN distance":
            dx[0, 5, 1] = np.nan
        elif case.startswith("overflowing"):
            # a huge margin over a tiny distance, on a dissimilar pair (kept)
            # or a similar one (dropped)
            margin[1] = 1e300
            dx[1, 0 if "kept" in case else 1] = [1e-150, 0.0, 0.0]
        elif case == "infinite margin":
            margin[1] = np.inf
        got = self.record(dml._coefficients, w, dx, dissimilar, margin)
        want = self.record(oracles.masked_divide_coefficients, w, dx, dissimilar, margin)
        assert got[0].tobytes() == want[0].tobytes()
        assert (got[1] is None) == (want[1] is None)
        assert got[1] is None or got[1].tolist() == want[1].tolist()
        assert got[2] == want[2]


class TestClipGradient:
    def test_within_threshold_untouched(self):
        g = np.array([0.1, -0.1])
        assert np.array_equal(clip_gradient(g, 1.0), g)

    def test_oversized_vector_lands_exactly_on_threshold(self):
        g = np.array([2.0, -2.0])
        clipped = clip_gradient(g, 2.0, "l1")
        assert np.abs(clipped).sum() == pytest.approx(2.0)
        clipped2 = clip_gradient(g, 2.0, "l2")
        assert np.linalg.norm(clipped2) == pytest.approx(2.0)

    def test_direction_preserved(self):
        g = np.array([3.0, 4.0])
        clipped = clip_gradient(g, 1.0, "l2")
        assert np.allclose(clipped / np.linalg.norm(clipped), g / 5.0)

    def test_zero_vector_stays_zero(self):
        assert np.array_equal(clip_gradient(np.zeros(3), 0.5), np.zeros(3))


class TestStepSize:
    @pytest.mark.parametrize("tau,expected", [(1, 1.0), (4, 0.5), (100, 0.1)])
    def test_inverse_square_root(self, tau, expected):
        assert step_size(tau) == pytest.approx(expected)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            step_size(0)


class TestSensitivities:
    def test_basic_toy_constants(self):
        bound = sensitivity_basic(1, 0.5, 30, d_prime=2)
        assert isinstance(bound, np.ndarray) and bound.shape == (2,)
        assert bound == pytest.approx(np.full(2, 1.0 / 30.0))

    def test_basic_linear_in_kappa(self):
        one = sensitivity_basic(1, 0.5, 30)[0]
        two = sensitivity_basic(2, 0.5, 30)[0]
        assert two == pytest.approx(2 * one)

    def test_basic_vanishes_with_batch_size(self):
        assert sensitivity_basic(1, 0.5, 10**9)[0] <= 1e-9

    def test_reduced_with_zero_gradients_and_zero_rows(self):
        d_prime, d, batch = 2, 3, 4
        w = np.zeros((d_prime, d))
        grads = [np.zeros((batch, d))] * d_prime
        bound = sensitivity_reduced(grads, w, h=0.5, margin=1.0, kappa=1,
                                    batch_size=batch)
        expected = min(0.5, 2.0 * 1.0 * math.sqrt(d_prime)) / batch
        assert isinstance(bound, np.ndarray) and bound.shape == (d_prime,)
        assert bound == pytest.approx(np.full(d_prime, expected))

    def test_reduced_saturates_to_basic(self):
        # peak at the cap and 4||W_r|| >= h: no reduction possible
        d_prime, d, batch = 1, 2, 3
        w = np.array([[1.0, 1.0]])
        g = np.array([[0.5, 0.0]])  # l1 norm exactly h
        bound = sensitivity_reduced([np.tile(g, (batch, 1))], w, h=0.5,
                                    margin=1.0, kappa=1, batch_size=batch)
        basic = sensitivity_basic(1, 0.5, batch)[0]
        assert bound[0] == pytest.approx(basic)

    def test_reduced_never_exceeds_basic(self, rng):
        for _ in range(100):
            d_prime, d = int(rng.integers(1, 4)), int(rng.integers(2, 5))
            batch = int(rng.integers(1, 8))
            h = float(rng.uniform(0.1, 1.0))
            margin = float(rng.uniform(0.2, 2.0))
            kappa = int(rng.integers(1, 4))
            w = rng.normal(0, 1, (d_prime, d))
            grads = [
                np.stack([
                    clip_gradient(rng.normal(0, 1, d), h, "l1")
                    for _ in range(batch)
                ])
                for _ in range(d_prime)
            ]
            bound = sensitivity_reduced(grads, w, h, margin, kappa, batch)
            basic = sensitivity_basic(kappa, h, batch)[0]
            assert bound.shape == (d_prime,)
            assert np.all(bound <= basic + 1e-12)

    def test_reduced_rejects_empty_batch(self):
        with pytest.raises(EmptyBatch):
            sensitivity_reduced(
                [np.zeros((0, 2))], np.zeros((1, 2)), 0.5, 1.0, 1, 1
            )

    def test_hinge_norm_caps(self, rng):
        """Dissimilar-pair gradients of normalised individuals respect the
        l1 and l2 caps."""
        for _ in range(300):
            d = int(rng.integers(2, 6))
            d_prime = int(rng.integers(1, d + 1))
            x_i = rng.uniform(-1, 1, d)
            x_j = rng.uniform(-1, 1, d)
            for arr in (x_i, x_j):
                l1 = np.abs(arr).sum()
                if l1 > 1:
                    arr /= l1 * (1 + 1e-9)
            p = pair(x_i - x_j, 1)
            w = rng.normal(0, 1, (d_prime, d))
            margin = float(np.linalg.norm(w @ p.delta_x)) * 1.5 + 1e-6
            model = MetricModel(w)
            for row in range(d_prime):
                g = gradient_row(model, p, margin, row)
                assert np.abs(g).sum() <= 2 * margin * math.sqrt(d_prime) + 1e-9
                assert np.linalg.norm(g) <= 2 * margin + 1e-9


class TestDefaultMargin:
    def test_scales_with_ratio(self):
        pairs = [pair([0.5, 0.0], 1), pair([0.0, 0.3], 1, i=2, j=3)]
        m1 = default_margin(pairs, 1.0, "l1")
        m2 = default_margin(pairs, 2.0, "l1")
        assert m1 == pytest.approx(0.4)
        assert m2 == pytest.approx(0.8)

    def test_requires_dissimilar_pairs(self):
        with pytest.raises(ConfigInvalid):
            default_margin([pair([1.0, 0.0], 0)], 1.0, "l1")


class TestTrain:
    def test_seed_determinism_bit_identical(self):
        _, pairs, graph = toy_setup()
        cfg = vii_a_config()
        m1, t1 = train(pairs, graph, cfg)
        m2, t2 = train(pairs, graph, cfg)
        assert np.array_equal(m1.w, m2.w)
        assert t1.objectives == t2.objectives

    def test_seed_changes_trajectory(self):
        _, pairs, graph = toy_setup()
        m1, _ = train(pairs, graph, vii_a_config(seed=0))
        m2, _ = train(pairs, graph, vii_a_config(seed=1))
        assert not np.array_equal(m1.w, m2.w)

    def test_infinite_budget_laplace_matches_clean_run(self):
        _, pairs, graph = toy_setup()
        noisy, t_noisy = train(pairs, graph, vii_a_config(epsilon=math.inf))
        clean, t_clean = train(pairs, graph, vii_a_config(mechanism="none"))
        assert np.array_equal(noisy.w, clean.w)
        assert t_noisy.objectives == t_clean.objectives

    def test_metric_is_psd(self):
        _, pairs, graph = toy_setup()
        model, _ = train(pairs, graph, vii_a_config())
        eigenvalues = np.linalg.eigvalsh(model.metric())
        assert eigenvalues.min() >= -1e-9

    def test_trace_shape_and_columns(self):
        _, pairs, graph = toy_setup()
        _, trace = train(pairs, graph, vii_a_config())
        # 150 pairs in batches of 30 over 10 epochs
        assert len(trace.iterations) == 5 * 10
        assert trace.iterations == list(range(1, 51))
        assert trace.epochs[0] == 1 and trace.epochs[-1] == 10
        rows = trace.rows()
        assert set(rows[0]) == {
            "iter", "epoch", "objective", "eta", "sens_basic",
            "sens_reduced_min", "sens_reduced_max",
        }
        assert rows[0]["eta"] == pytest.approx(1.0)

    def test_kappa_report_reused(self):
        _, pairs, graph = toy_setup()
        report = compute_kappa(graph)
        _, trace = train(pairs, graph, vii_a_config(), kappa_report=report)
        assert trace.kappa == report.kappa
        assert trace.kappa_method == report.method

    def test_undersized_tail_batch_dropped(self):
        _, pairs, graph = toy_setup()
        cfg = vii_a_config(batch_size=40)  # 150 = 3*40 + 30: tail 30 >= 20 kept
        _, trace = train(pairs, graph, cfg)
        assert len(trace.iterations) == 4 * 10
        cfg = vii_a_config(batch_size=49)  # 150 = 3*49 + 3: tail 3 < 24.5 dropped
        _, trace = train(pairs, graph, cfg)
        assert len(trace.iterations) == 3 * 10

    def test_component_batching_runs(self):
        _, pairs, graph = toy_setup()
        model, trace = train(pairs, graph, vii_a_config(batch_mode="component"))
        assert len(trace.iterations) == 50

    def test_single_undersized_batch_still_trains(self):
        _, pairs, graph = toy_setup()
        _, trace = train(pairs, graph, vii_a_config(batch_size=500, t_max=2))
        assert len(trace.iterations) == 2  # one full-dataset batch per epoch

    def test_gaussian_mode_requires_l2_and_delta(self):
        _, pairs, graph = toy_setup()
        with pytest.raises(ConfigInvalid):
            train(pairs, graph, vii_a_config(mechanism="gaussian"))
        cfg = vii_a_config(mechanism="gaussian", delta=1e-4, norm_mode="l2")
        model, trace = train(pairs, graph, cfg)
        assert np.isfinite(model.w).all()

    def test_gaussian_mode_preserves_toy_utility(self):
        from dppdml import evaluation

        samples = dataio.normalize(dataio.synth_two_gaussians(100, seed=0), "l2")
        pairs = dataio.toy_pairs(samples, 50, 50, seed=0)
        graph = build_graph(pairs)
        cfg = vii_a_config(mechanism="gaussian", delta=1e-4, norm_mode="l2",
                           epsilon=4.0, seed=0)
        model, _ = train(pairs, graph, cfg)
        train_idx, _ = evaluation.split_by_participation(samples, pairs)
        acc = evaluation.knn_accuracy(
            model, samples.x[train_idx], samples.labels[train_idx],
            samples.x, samples.labels, 5,
        )
        assert acc >= 0.95

    def test_staircase_and_duchi_modes_run(self):
        _, pairs, graph = toy_setup()
        for mech in ("staircase", "duchi"):
            model, trace = train(pairs, graph, vii_a_config(mechanism=mech))
            assert np.isfinite(model.w).all()

    def test_extreme_configurations_stay_finite(self):
        """Tiny budgets, one-row transforms, and oversized margins must
        degrade gracefully, never produce non-finite parameters."""
        _, pairs, graph = toy_setup()
        configs = [
            vii_a_config(epsilon=0.1),
            vii_a_config(epsilon=0.1, sensitivity_mode="basic"),
            vii_a_config(d_prime=1),
            vii_a_config(margin=10.0),
            vii_a_config(mechanism="staircase", epsilon=0.5),
            vii_a_config(mechanism="duchi", epsilon=0.5, t_max=2),
            vii_a_config(batch_size=1, t_max=1),
        ]
        for cfg in configs:
            model, trace = train(pairs, graph, cfg)
            assert np.isfinite(model.w).all(), cfg
            assert np.isfinite(trace.objectives).all(), cfg
            assert np.linalg.eigvalsh(model.metric()).min() >= -1e-9

    def test_config_validation(self):
        _, pairs, graph = toy_setup()
        with pytest.raises(ConfigInvalid):
            train(pairs, graph, vii_a_config(d_prime=0))
        with pytest.raises(ConfigInvalid):
            train(pairs, graph, vii_a_config(margin=-1.0))
        with pytest.raises(ConfigInvalid):
            train(pairs, graph, vii_a_config(d_prime=5))  # exceeds d=2
        with pytest.raises(ConfigInvalid):
            train([], graph, vii_a_config())
        with pytest.raises(ConfigInvalid):
            train(pairs, graph, vii_a_config(mechanism="laplace", delta=0.5))
        with pytest.raises(ConfigInvalid):
            train(pairs, graph, vii_a_config(mechanism="gaussian",
                                             norm_mode="l2", delta=1.5))
        with pytest.raises(ConfigInvalid):
            train(pairs, graph, vii_a_config(mechanism="laplace", epsilon=0.0))
        with pytest.raises(ConfigInvalid):
            train(pairs, graph, vii_a_config(t_max=0))
        with pytest.raises(ConfigInvalid, match="seed"):
            train(pairs, graph, vii_a_config(seed=-1))

    def test_neighbouring_batch_deviation_bounded(self, rng):
        """Replacing one pair never moves the mean clipped row gradient by
        more than the data-dependent bound (single-edge distance)."""
        d, d_prime, h, margin = 3, 2, 0.5, 1.0
        pool = []
        for k in range(20):
            x_i = rng.uniform(-1, 1, d)
            x_j = rng.uniform(-1, 1, d)
            for arr in (x_i, x_j):
                l1 = np.abs(arr).sum()
                if l1 > 1:
                    arr /= l1 * (1 + 1e-9)
            pool.append(pair(x_i - x_j, int(k % 2), i=2 * k, j=2 * k + 1))
        w = rng.normal(0, 0.5, (d_prime, d))
        model = MetricModel(w)

        def clipped(p, row):
            try:
                g = gradient_row(model, p, margin, row)
            except DegenerateDistance:
                g = np.zeros(d)
            return clip_gradient(g, h, "l1")

        for batch_size in (3, 6):
            batch = pool[:batch_size]
            for row in range(d_prime):
                grads = np.stack([clipped(p, row) for p in batch])
                bound = sensitivity_reduced(
                    [grads], w[row:row + 1], h, margin, 1, batch_size
                )[0]
                mean = grads.mean(axis=0)
                for pos in range(batch_size):
                    for repl in pool:
                        swapped = grads.copy()
                        swapped[pos] = clipped(repl, row)
                        delta = np.abs(swapped.mean(axis=0) - mean).sum()
                        assert delta <= bound + 1e-12


class TestObjective:
    def test_clean_run_decreases_steadily_on_toy_data(self):
        _, pairs, graph = toy_setup()
        _, trace = train(pairs, graph, vii_a_config(mechanism="none"))
        objs = np.array([trace.initial_objective] + trace.objectives)
        assert objs[-1] < objs[0]
        # steady descent: any upward step stays within a small fluctuation
        assert np.diff(objs).max() <= 0.01 * objs[0]

    def test_matches_scalar_loss(self, rng):
        w = rng.normal(0, 1, (2, 3))
        model = MetricModel(w)
        pairs = [pair(rng.normal(0, 1, 3), int(rng.integers(0, 2)), i=2 * k,
                      j=2 * k + 1) for k in range(10)]
        dx = np.stack([p.delta_x for p in pairs])
        y = np.array([p.y for p in pairs])
        expected = np.mean([contrastive_loss(model, p, 0.8) for p in pairs])
        assert dataset_objective(w, dx, y, 0.8) == pytest.approx(expected)


class TestTrainMatchesReference:
    """One full-batch step of ``train`` equals the per-pair public functions:
    gradient, clipping, the fixed bound and the data-dependent bound."""

    H = 0.05
    MARGIN = 0.5
    SEED = 4

    def pairs(self, rng):
        fixed = [
            pair([5.0, -4.0, 3.0], 0),     # similar, far apart: clipped
            pair([40.0, 40.0, -40.0], 1),  # dissimilar beyond the margin
            pair([0.0, 0.0, 0.0], 1),      # dissimilar at D = 0: degenerate
            pair([0.02, -0.01, 0.03], 1),  # dissimilar inside the margin
        ]
        drawn = [pair(rng.normal(0, 1, 3), int(rng.integers(0, 2)))
                 for _ in range(8)]
        return [
            PairwiseDatum(2 * k, 2 * k + 1, p.delta_x, p.y)
            for k, p in enumerate(fixed + drawn)
        ]

    @pytest.mark.parametrize("norm_mode", ["l1", "l2"])
    def test_one_step_equals_per_pair_reference(self, rng, norm_mode):
        pairs = self.pairs(rng)
        d, d_prime, n = 3, 2, len(pairs)
        config = TrainConfig(
            d_prime=d_prime, margin=self.MARGIN, lipschitz=self.H,
            batch_size=n, t_max=1, mechanism="none", norm_mode=norm_mode,
            seed=self.SEED,
        )
        model, trace = train(pairs, build_graph(pairs), config)

        init_seed = np.random.SeedSequence(self.SEED).spawn(2 + d_prime)[0]
        w0 = np.random.default_rng(init_seed).uniform(
            -config.init_scale, config.init_scale, (d_prime, d)
        )
        start = MetricModel(w0)
        degenerate = 0
        blocks = []
        for row in range(d_prime):
            grads = []
            for p in pairs:
                try:
                    g = gradient_row(start, p, self.MARGIN, row)
                except DegenerateDistance:
                    degenerate += 1
                    g = np.zeros(d)
                grads.append(clip_gradient(g, self.H, norm_mode))
            blocks.append(np.stack(grads))

        # the batch covers every case the kernel distinguishes
        dists = [float(np.linalg.norm(w0 @ p.delta_x)) for p in pairs]
        assert degenerate == d_prime
        assert dists[1] >= self.MARGIN and 0 < dists[3] < self.MARGIN
        raw = gradient_row(start, pairs[0], self.MARGIN, 0)
        assert not np.allclose(clip_gradient(raw, self.H, norm_mode), raw)

        expected_w = w0 - np.stack([b.mean(axis=0) for b in blocks])
        np.testing.assert_allclose(model.w, expected_w, rtol=0, atol=1e-12)
        assert trace.degenerate_events == 1
        assert trace.sens_basic[0] == sensitivity_basic(
            trace.kappa, self.H, n, d_prime
        )[0]
        reduced = sensitivity_reduced(
            blocks, w0, self.H, self.MARGIN, trace.kappa, n, norm_mode
        )
        np.testing.assert_allclose(
            trace.sens_reduced[0], reduced, rtol=1e-12, atol=0
        )


def _bits(model, trace):
    """Everything ``train`` returns, in a form equal only when bit-equal."""
    return (
        model.w.tobytes(),
        repr(trace.rows()),
        trace.initial_objective.hex(),
        trace.margin.hex(),
        trace.degenerate_events,
        trace.kappa,
    )


class TestTrainMatchesLoopReference:
    """``train`` reproduces the per-pair, per-step loop of
    ``oracles.reference_train`` bit for bit, whatever form its pairs take."""

    MECHANISMS = {
        "none": dict(mechanism="none"),
        "laplace-basic": dict(mechanism="laplace", sensitivity_mode="basic"),
        "laplace-reduced": dict(mechanism="laplace", sensitivity_mode="reduced"),
        "gaussian": dict(mechanism="gaussian", delta=1e-5),
        "staircase": dict(mechanism="staircase", sensitivity_mode="basic"),
        "duchi": dict(mechanism="duchi", sensitivity_mode="basic"),
    }

    @staticmethod
    def data():
        _, pairs, _ = toy_setup(seed=2)
        extra = [
            PairwiseDatum("z0", "z1", np.zeros(2), 1),        # degenerate
            PairwiseDatum("z1", "z2", np.array([9.0, -7.0]), 1),  # far out
            PairwiseDatum("z2", "z3", np.array([4.0, 3.0]), 0),   # clipped
        ]
        pairs = extra + list(pairs)
        return pairs, build_graph(pairs)

    @staticmethod
    def config(mechanism, norm_mode, batch_mode, **overrides):
        # 153 pairs in batches of 40, 40, 40 and 33: two fixed bounds
        base = dict(
            d_prime=2, lipschitz=0.1, batch_size=40, t_max=3, epsilon=3.0,
            norm_mode=norm_mode, batch_mode=batch_mode, seed=9,
        )
        base.update(TestTrainMatchesLoopReference.MECHANISMS[mechanism])
        base.update(overrides)
        return TrainConfig(**base)

    @pytest.mark.parametrize("batch_mode", ["shuffle", "component"])
    @pytest.mark.parametrize(
        "mechanism, norm_mode",
        [(m, n) for m in MECHANISMS for n in NORM_MODES
         if m != "gaussian" or n == "l2"],
    )
    def test_list_and_pairset_inputs(self, mechanism, norm_mode, batch_mode):
        pairs, graph = self.data()
        config = self.config(mechanism, norm_mode, batch_mode)
        report = compute_kappa(graph)
        expected = _bits(*oracles.reference_train(pairs, graph, config, report))
        for given in (pairs, PairSet.of(pairs)):
            model, trace = train(given, graph, config, kappa_report=report)
            assert _bits(model, trace) == expected
        assert trace.degenerate_events > 0

    @pytest.mark.parametrize("mechanism", ["none", "laplace-reduced"])
    def test_fixed_margin_and_computed_kappa(self, mechanism):
        pairs, graph = self.data()
        config = self.config(mechanism, "l1", "shuffle", margin=0.3)
        assert _bits(*train(pairs, graph, config)) == _bits(
            *oracles.reference_train(pairs, graph, config)
        )

    @pytest.mark.parametrize("epsilon", [0.5, 4.0, math.inf])
    def test_input_perturb_outputs(self, epsilon):
        pairs, graph = self.data()
        noisy = input_perturb(pairs, epsilon, np.random.default_rng([1347, 5]))
        noisy_ref = oracles.reference_input_perturb(
            pairs, epsilon, np.random.default_rng([1347, 5])
        )
        config = self.config("none", "l1", "shuffle")
        report = compute_kappa(graph)
        assert _bits(*train(noisy, graph, config, kappa_report=report)) == _bits(
            *oracles.reference_train(noisy_ref, graph, config, report)
        )


class TestTrainMatchesLoopReferenceAcrossBlocks:
    """The trace's objective column is computed after the loop, from the
    stack of every step's ``W``, in blocks of at most ``OBJECTIVE_BLOCK``
    elements. On the 1,374 pairs of ``synth`` seed 0 at 350 per class, a
    block holds five ``W``, so the 55 of a two-epoch run span eleven blocks;
    the trace must still equal the per-step reference bit for bit."""

    @staticmethod
    def data():
        samples = dataio.normalize(dataio.synth_two_gaussians(350, seed=0))
        pairs = dataio.sample_pairs(samples, 2.0, seed=0)
        return list(pairs), build_graph(pairs)

    @pytest.mark.parametrize("mechanism, norm_mode", [
        ("none", "l1"), ("laplace-basic", "l1"), ("laplace-reduced", "l1"),
        ("laplace-reduced", "l2"),
    ])
    def test_bit_equal_to_reference(self, mechanism, norm_mode):
        pairs, graph = self.data()
        config = TestTrainMatchesLoopReference.config(
            mechanism, norm_mode, "shuffle", batch_size=50, t_max=2
        )
        report = compute_kappa(graph)
        model, trace = train(pairs, graph, config, kappa_report=report)
        per_w = config.d_prime * len(pairs)
        assert OBJECTIVE_BLOCK // per_w == 5 and len(trace.objectives) + 1 == 55
        assert _bits(model, trace) == _bits(
            *oracles.reference_train(pairs, graph, config, report)
        )


class TestTrainRepeatsMatchSingleRuns:
    """A one-cell stack of R runs advances them as one ``(R, d_prime, d)``
    stack. Each run must equal ``train`` alone at seed ``config.seed + r``
    bit for bit, in ``W``, its margin, its degenerate count and the steps."""

    R = 3

    @classmethod
    def check(cls, pairs, graph, config, report, run_pairs=None):
        cell = Cell(config, report, range(cls.R), run_pairs)
        models, stack = train(pairs, graph, [cell])
        models, margins, degenerate = models[0], stack.margins[0], stack.degenerate[0]
        assert len(models) == len(margins) == len(degenerate) == cls.R
        pairs = PairSet.of(pairs)
        for r, model in enumerate(models):
            given = pairs if run_pairs is None else PairSet(
                pairs.i, pairs.j, run_pairs[0][r], run_pairs[1][r]
            )
            single, trace = train(given, graph, replace(config, seed=config.seed + r),
                                  kappa_report=report)
            assert model.w.tobytes() == single.w.tobytes()
            assert margins[r].hex() == trace.margin.hex()
            assert degenerate[r] == trace.degenerate_events
            assert stack.iterations == trace.iterations
        assert stack.degenerate_events == sum(degenerate)
        return models, stack

    @pytest.mark.parametrize("batch_mode", ["shuffle", "component"])
    @pytest.mark.parametrize(
        "mechanism", list(TestTrainMatchesLoopReference.MECHANISMS)
    )
    def test_every_mechanism(self, mechanism, batch_mode):
        pairs, graph = TestTrainMatchesLoopReference.data()
        config = TestTrainMatchesLoopReference.config(
            mechanism, "l2" if mechanism == "gaussian" else "l1", batch_mode
        )
        models, stack = self.check(pairs, graph, config, compute_kappa(graph))
        assert len({m.w.tobytes() for m in models}) == self.R
        assert stack.degenerate_events > 0

    def test_short_last_batch_dropped(self):
        pairs, graph = TestTrainMatchesLoopReference.data()
        # 153 = 3 * 49 + 6: the six-pair tail is under half a batch
        config = TestTrainMatchesLoopReference.config(
            "laplace-reduced", "l1", "shuffle", batch_size=49
        )
        _, stack = self.check(pairs, graph, config, compute_kappa(graph))
        assert len(stack.iterations) == 3 * config.t_max

    @pytest.mark.parametrize("epsilon", [0.5, math.inf])
    def test_one_pair_set_per_run(self, epsilon):
        pairs, graph = TestTrainMatchesLoopReference.data()
        pairs = PairSet.of(pairs)
        config = TestTrainMatchesLoopReference.config("none", "l1", "shuffle")
        noisy = [input_perturb(pairs, epsilon, np.random.default_rng([1347, r]))
                 for r in range(self.R)]
        run_pairs = (np.stack([p.dx for p in noisy]), np.stack([p.y for p in noisy]))
        _, stack = self.check(pairs, graph, config, compute_kappa(graph), run_pairs)
        assert len(set(stack.margins[0])) == (1 if math.isinf(epsilon) else self.R)

    @pytest.mark.parametrize(
        "mechanism", ["laplace-basic", "gaussian", "staircase", "duchi"]
    )
    def test_kappa_zero_draws_no_noise(self, mechanism, monkeypatch):
        pairs, graph = TestTrainMatchesLoopReference.data()
        config = TestTrainMatchesLoopReference.config(
            mechanism, "l2" if mechanism == "gaussian" else "l1", "shuffle"
        )
        report = KappaReport(kappa=0, method="upper_bound")
        clean, _ = train(pairs, graph, [Cell(
            replace(config, mechanism="none", delta=0.0), report, range(self.R)
        )])

        def no_draw(*args, **kwargs):
            raise AssertionError("noise drawn at kappa 0")

        for name in ("laplace_sample", "gaussian_sigma", "staircase_sample",
                     "duchi_magnitude", "duchi_bits"):
            monkeypatch.setattr(dml, name, no_draw)
        models, _ = self.check(pairs, graph, config, report)
        assert [m.w.tobytes() for m in models] == [m.w.tobytes() for m in clean[0]]

    def test_run_pairs_shape_checked(self):
        pairs, graph = TestTrainMatchesLoopReference.data()
        pairs = PairSet.of(pairs)
        config = TestTrainMatchesLoopReference.config("none", "l1", "shuffle")
        with pytest.raises(DimensionMismatch):
            train(pairs, graph, [Cell(config, None, range(2), (
                np.stack([pairs.dx] * 3), np.stack([pairs.y] * 3)
            ))])

    @pytest.mark.parametrize("mechanism", ["none", "laplace-reduced"])
    @pytest.mark.parametrize("fault", ["label", "nan"])
    def test_run_pairs_checked_like_pairs(self, fault, mechanism):
        """A run's own label outside {0, 1}, or its non-finite feature
        difference, given through a ``Cell``, raises the error ``PairSet``
        raises for that pair."""
        pairs, graph = TestTrainMatchesLoopReference.data()
        pairs = PairSet.of(pairs)
        config = TestTrainMatchesLoopReference.config(mechanism, "l1", "shuffle")
        dx, y = np.stack([pairs.dx] * 2), np.stack([pairs.y] * 2)
        if fault == "label":
            y[1, 3] = 2
        else:
            dx[1, 3, 0] = np.nan
        with pytest.raises(ValueError) as want:
            PairSet(pairs.i, pairs.j, dx[1], y[1])
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            train(pairs, graph, [Cell(config, None, range(2), (dx, y))])

    @pytest.mark.parametrize("repeats", [None, 2])
    @pytest.mark.parametrize("mechanism", ["laplace-reduced", "gaussian"])
    def test_non_finite_sensitivity_raises(self, mechanism, repeats):
        # a finite but huge feature difference overflows its clipped norm
        pairs = [pair([1e308, 1e308], 0, 0, 1), pair([0.1, 0.2], 1, 1, 2),
                 pair([0.3, -0.2], 0, 2, 3)]
        config = TestTrainMatchesLoopReference.config(
            mechanism, "l2" if mechanism == "gaussian" else "l1", "shuffle",
            batch_size=3, margin=1.0,
        )
        # a single run, or a one-cell stack of ``repeats`` runs
        given = config if repeats is None else [Cell(config, None, range(repeats))]
        with np.errstate(all="ignore"), pytest.raises(NonPositiveScale):
            train(pairs, build_graph(pairs), given)


class TestTrainCellsMatchPerCellBatches:
    """``train`` on a sequence of cells advances every run of every cell in
    one stack. Each cell's models, margins and degenerate counts must equal
    those of its own one-cell stack, bit for bit."""

    R = 3

    @classmethod
    def grid(cls, config, report):
        """None, basic and reduced Laplace cells at finite and infinite
        budgets, and a kappa-0 cell next to cells at a larger kappa."""
        runs = range(cls.R)
        zero = KappaReport(kappa=0, method="upper_bound")
        larger = KappaReport(kappa=report.kappa + 3, method="upper_bound")
        cells = [
            ("none", "reduced", 2.0, report),
            ("laplace", "basic", 1.0, report),
            ("laplace", "reduced", 2.0, report),
            ("laplace", "reduced", math.inf, report),
            ("laplace", "basic", 0.5, zero),
            ("laplace", "reduced", 3.0, larger),
        ]
        return [
            Cell(replace(config, mechanism=m, sensitivity_mode=s, epsilon=e), r, runs)
            for m, s, e, r in cells
        ]

    @staticmethod
    def check(pairs, graph, cells):
        models, trace = train(pairs, graph, cells)
        assert len(models) == len(trace.margins) == len(trace.degenerate) == len(cells)
        for c, cell in enumerate(cells):
            (want,), want_trace = train(pairs, graph, [cell])
            assert [m.w.tobytes() for m in models[c]] == [m.w.tobytes() for m in want]
            assert trace.margins[c] == want_trace.margins[0]
            assert trace.degenerate[c] == want_trace.degenerate[0]
            assert want_trace.iterations == trace.iterations
        assert trace.degenerate_events == sum(map(sum, trace.degenerate))
        return models, trace

    @staticmethod
    def perturbed(pairs, epsilon, runs):
        noisy = [input_perturb(pairs, epsilon, np.random.default_rng([1347, r]))
                 for r in runs]
        return np.stack([p.dx for p in noisy]), np.stack([p.y for p in noisy])

    @pytest.mark.parametrize("batch_mode", ["shuffle", "component"])
    @pytest.mark.parametrize("norm_mode", NORM_MODES)
    def test_mixed_grid(self, batch_mode, norm_mode):
        pairs, graph = TestTrainMatchesLoopReference.data()
        config = TestTrainMatchesLoopReference.config("none", norm_mode, batch_mode)
        models, trace = self.check(pairs, graph, self.grid(config, compute_kappa(graph)))
        assert trace.degenerate_events > 0
        # the clean, infinite-budget and kappa-0 cells take the same steps
        clean = [[m.w.tobytes() for m in models[c]] for c in (0, 3, 4)]
        assert clean[0] == clean[1] == clean[2]
        assert len({m.w.tobytes() for cell in models for m in cell}) == 4 * self.R

    @classmethod
    def mechanism_grid(cls, mechanism, report, **overrides):
        """Cells of one noise mechanism at finite and infinite budgets, a
        kappa-0 cell and, but for Gaussian noise (whose delta a clean cell
        cannot share), a clean cell."""
        norm_mode = "l2" if mechanism == "gaussian" else "l1"
        config = TestTrainMatchesLoopReference.config(
            "gaussian" if mechanism == "gaussian" else "none", norm_mode, "shuffle",
            **overrides,
        )
        runs = range(cls.R)
        zero = KappaReport(kappa=0, method="upper_bound")
        cells = [("basic", 1.0, report), ("reduced", 4.0, report),
                 ("basic", math.inf, report), ("reduced", 2.0, zero)]
        clean = [] if mechanism == "gaussian" else [Cell(config, report, runs)]
        return clean + [
            Cell(replace(config, mechanism=mechanism, sensitivity_mode=s, epsilon=e),
                 r, runs)
            for s, e, r in cells
        ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mechanism, overrides", [
        ("staircase", {}),
        ("staircase", {"staircase_gamma": 0.3}),
        ("duchi", {}),
        ("gaussian", {}),
    ])
    def test_mechanism_grid(self, mechanism, overrides):
        # every mechanism takes its noise from set-up draws; the runs that
        # draw none must add exactly zero and warn about nothing
        pairs, graph = TestTrainMatchesLoopReference.data()
        cells = self.mechanism_grid(mechanism, compute_kappa(graph), **overrides)
        with np.errstate(all="raise"):
            models, _ = self.check(pairs, graph, cells)
        # the infinite-budget and kappa-0 cells take the clean steps
        noiseless = [[m.w.tobytes() for m in models[c]] for c in (-2, -1)]
        assert noiseless[0] == noiseless[1]
        if mechanism != "gaussian":
            assert noiseless[0] == [m.w.tobytes() for m in models[0]]
        assert len({m.w.tobytes() for cell in models for m in cell}) == 3 * self.R

    def test_fixed_margin(self):
        pairs, graph = TestTrainMatchesLoopReference.data()
        config = TestTrainMatchesLoopReference.config("none", "l1", "shuffle",
                                                      margin=0.3)
        _, trace = self.check(pairs, graph, self.grid(config, compute_kappa(graph)))
        assert {m for cell in trace.margins for m in cell} == {0.3}

    def test_input_perturbed_cells(self):
        pairs, graph = TestTrainMatchesLoopReference.data()
        pairs = PairSet.of(pairs)
        config = TestTrainMatchesLoopReference.config("none", "l1", "shuffle")
        report = compute_kappa(graph)
        runs = range(self.R)
        cells = self.grid(config, report)[:3] + [
            Cell(config, report, runs, self.perturbed(pairs, epsilon, runs))
            for epsilon in (0.5, math.inf)
        ]
        _, trace = self.check(pairs, graph, cells)
        assert len(set(trace.margins[3])) == self.R
        assert trace.margins[4] == trace.margins[0]

    def test_cell_split_across_two_stacks(self):
        # a grid in two blocks: the input-perturbed cell's runs 0-1 train in
        # the first stack and run 2 in the second
        pairs, graph = TestTrainMatchesLoopReference.data()
        pairs = PairSet.of(pairs)
        config = TestTrainMatchesLoopReference.config("none", "l2", "component")
        report = compute_kappa(graph)
        clean, basic, reduced = self.grid(config, report)[:3]
        split = [range(0, 2), range(2, 3)]
        first = [clean, Cell(config, report, split[0], self.perturbed(pairs, 1.0, split[0]))]
        second = [Cell(config, report, split[1], self.perturbed(pairs, 1.0, split[1])),
                  basic, reduced]
        head, _ = self.check(pairs, graph, first)
        tail, _ = self.check(pairs, graph, second)
        (whole,), _ = train(pairs, graph, [Cell(
            config, report, range(self.R), self.perturbed(pairs, 1.0, range(self.R))
        )])
        assert [m.w.tobytes() for m in head[1] + tail[0]] == [
            m.w.tobytes() for m in whole
        ]

    def test_cells_checked(self):
        pairs, graph = TestTrainMatchesLoopReference.data()
        config = TestTrainMatchesLoopReference.config("none", "l1", "shuffle")
        report = compute_kappa(graph)
        runs = range(2)
        bad_stacks = [
            [Cell(config, report, runs), Cell(replace(config, lipschitz=0.2), report, runs)],
            [Cell(config, report, runs), Cell(replace(config, seed=1), report, runs)],
            [Cell(replace(config, mechanism="laplace"), report, runs),
             Cell(replace(config, mechanism="staircase"), report, runs)],
            [Cell(config, report, range(0))],
            [],
        ]
        for cells in bad_stacks:
            with pytest.raises(ConfigInvalid):
                train(pairs, graph, cells)
        with pytest.raises(ConfigInvalid):
            train(pairs, graph, [Cell(config, report, runs)], kappa_report=report)
        with pytest.raises(DimensionMismatch):
            train(pairs, graph, [Cell(config, report, runs, (np.zeros((2, 3, 2)),
                                                             np.zeros((2, 3))))])

    def test_non_positive_scale_raises_next_to_a_clean_cell(self):
        # a finite but huge feature difference overflows its clipped norm
        pairs = [pair([1e308, 1e308], 0, 0, 1), pair([0.1, 0.2], 1, 1, 2),
                 pair([0.3, -0.2], 0, 2, 3)]
        config = TestTrainMatchesLoopReference.config(
            "none", "l1", "shuffle", batch_size=3, margin=1.0
        )
        graph = build_graph(pairs)
        report = compute_kappa(graph)
        clean = Cell(config, report, range(2))
        with np.errstate(all="ignore"):
            models, _ = train(pairs, graph, [clean, Cell(
                replace(config, mechanism="laplace", epsilon=math.inf), report, range(2)
            )])
            assert models[0][0].w.tobytes() == models[1][0].w.tobytes()
            with pytest.raises(NonPositiveScale):
                train(pairs, graph, [clean, Cell(
                    replace(config, mechanism="laplace"), report, range(2)
                )])


class TestDefaultMarginMatchesPairSum:
    @pytest.mark.parametrize("norm_mode", ["l1", "l2"])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 17, 40])
    def test_bit_equal_to_left_to_right_sum(self, rng, norm_mode, d):
        pairs = [
            pair(rng.normal(0, 1, d) * rng.uniform(0.01, 50.0),
                 int(k % 3 != 0), i=2 * k, j=2 * k + 1)
            for k in range(300)
        ]
        expected = oracles.reference_default_margin(pairs, 0.7, norm_mode)
        for given in (pairs, PairSet.of(pairs)):
            assert default_margin(given, 0.7, norm_mode).hex() == expected.hex()
