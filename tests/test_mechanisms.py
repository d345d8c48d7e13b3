from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import dppdml
from dppdml.errors import DeltaZero, InvalidGamma, NonPositiveScale, OutOfRange
from dppdml.mechanisms import (
    duchi_randomize,
    duchi_randomize_vector,
    gaussian_sigma,
    input_perturb,
    laplace_sample,
    staircase_optimal_gamma,
    staircase_sample,
)
from dppdml.pairgraph import PairSet, PairwiseDatum

from . import oracles

N_BIG = 1_000_000


class TestLaplace:
    def test_zero_mean(self, rng):
        draws = laplace_sample(1.0, rng, size=N_BIG)
        assert abs(draws.mean()) < 0.01

    def test_variance_is_two_scale_squared(self, rng):
        draws = laplace_sample(1.0, rng, size=N_BIG)
        assert draws.var() == pytest.approx(2.0, abs=0.05)

    def test_algorithm_noise_scale_arithmetic(self):
        # kappa=1, per-row sensitivity 2*kappa*h/|B| with h=0.5, |B|=30,
        # per-epoch budget 0.2 -> Laplace scale 1/6
        kappa, h, batch, eps_epoch = 1, 0.5, 30, 0.2
        sens = 2.0 * kappa * h / batch
        assert sens == pytest.approx(1.0 / 30.0)
        assert sens / eps_epoch == pytest.approx(1.0 / 6.0)

    def test_rejects_non_positive_scale(self, rng):
        with pytest.raises(NonPositiveScale):
            laplace_sample(0.0, rng)

    def test_seed_determinism(self):
        a = laplace_sample(0.7, np.random.default_rng(5), size=32)
        b = laplace_sample(0.7, np.random.default_rng(5), size=32)
        assert np.array_equal(a, b)


class TestGaussianSigma:
    def test_formula_value(self):
        expected = math.sqrt(4.0 + 2.0 * math.log(5.0))
        assert gaussian_sigma(1.0, 0.25 * math.exp(-2), 1.0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_clean_closed_form(self):
        # delta = 1.25 e^-2 makes 2 ln(1.25/delta) = 4 exactly
        assert gaussian_sigma(1.0, 1.25 * math.exp(-2), 1.0) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_linear_in_sensitivity(self):
        assert gaussian_sigma(1.0, 1e-3, 2.0) == pytest.approx(
            2.0 * gaussian_sigma(1.0, 1e-3, 1.0)
        )

    def test_inverse_linear_in_epsilon(self):
        assert gaussian_sigma(2.0, 1e-3, 1.0) == pytest.approx(
            gaussian_sigma(1.0, 1e-3, 1.0) / 2.0
        )

    def test_rejects_zero_delta(self):
        with pytest.raises(DeltaZero):
            gaussian_sigma(1.0, 0.0, 1.0)

    def test_column_of_budgets_equals_each_scalar_sigma(self):
        budgets = np.array([[0.1], [2.0 / 3.0], [5.0]])
        sens = np.array([[0.3, 1e-9], [2.0, 0.7], [1.0, 123.0]])
        sigma = gaussian_sigma(budgets, 1e-5, sens)
        assert sigma.shape == sens.shape
        for (i, j), value in np.ndenumerate(sigma):
            assert value.hex() == gaussian_sigma(budgets[i, 0], 1e-5, sens[i, j]).hex()
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(NonPositiveScale, match="epsilon"):
                gaussian_sigma(np.array([[1.0], [bad]]), 1e-5, sens[:2])

    @pytest.mark.parametrize(
        "epsilon, delta, sensitivity, error",
        [
            (0.0, 1e-3, 1.0, NonPositiveScale),
            (-1.0, 1e-3, 1.0, NonPositiveScale),
            (1.0, 1e-3, 0.0, NonPositiveScale),
            (1.0, -1e-3, 1.0, DeltaZero),
            (1.0, 1.0, 1.0, OutOfRange),
            (1.0, 1.5, 1.0, OutOfRange),
        ],
    )
    def test_rejects_out_of_range(self, epsilon, delta, sensitivity, error):
        with pytest.raises(error):
            gaussian_sigma(epsilon, delta, sensitivity)


class TestStaircase:
    def test_symmetry(self, rng):
        draws = staircase_sample(1.0, 1.0, 0.5, rng, size=N_BIG)
        sigma = math.sqrt(oracles.staircase_variance(1.0, 1.0, 0.5))
        assert abs(draws.mean()) < 5 * sigma / math.sqrt(N_BIG)

    @pytest.mark.parametrize("epsilon,gamma", [(0.5, 0.3), (1.0, 0.5), (2.0, 1.0)])
    def test_empirical_variance_matches_closed_form(self, rng, epsilon, gamma):
        draws = staircase_sample(epsilon, 1.0, gamma, rng, size=N_BIG)
        expected = oracles.staircase_variance(epsilon, 1.0, gamma)
        assert draws.var() == pytest.approx(expected, rel=0.10)

    def test_full_width_step_looks_like_discrete_laplace(self, rng):
        # gamma = 1: uniform within each period, geometric across periods
        draws = staircase_sample(1.0, 1.0, 1.0, rng, size=N_BIG)
        expected = oracles.staircase_variance(1.0, 1.0, 1.0)
        assert draws.var() == pytest.approx(expected, rel=0.10)
        periods = np.floor(np.abs(draws))
        counts = np.bincount(periods.astype(int), minlength=3)[:3]
        # successive period masses decay by e^-eps
        assert counts[1] / counts[0] == pytest.approx(math.exp(-1.0), rel=0.05)
        assert counts[2] / counts[1] == pytest.approx(math.exp(-1.0), rel=0.10)

    def test_scales_with_sensitivity(self):
        assert oracles.staircase_variance(1.0, 2.0, 0.5) == pytest.approx(
            4.0 * oracles.staircase_variance(1.0, 1.0, 0.5)
        )

    def test_rejects_bad_gamma(self, rng):
        with pytest.raises(InvalidGamma):
            staircase_sample(1.0, 1.0, 0.0, rng)
        with pytest.raises(InvalidGamma):
            staircase_sample(1.0, 1.0, 1.5, rng)

    def test_optimal_gamma_minimises_variance(self):
        for epsilon in (0.01, 0.5, 1.0, 3.0, 20.0):
            star = staircase_optimal_gamma(epsilon)
            best = oracles.staircase_variance(epsilon, 1.0, star)
            for gamma in np.geomspace(1e-9, 1.0, 2001):
                other = oracles.staircase_variance(epsilon, 1.0, float(gamma))
                assert best <= other * (1.0 + 1e-12)

    @pytest.mark.parametrize("epsilon", [1e-8, 745.0, 800.0, 3000.0, math.inf])
    def test_optimal_gamma_stays_in_unit_interval(self, epsilon, rng):
        gamma = staircase_optimal_gamma(epsilon)
        assert 0.0 < gamma <= 1.0
        draws = staircase_sample(epsilon, 1.0, gamma, rng, size=100)
        assert np.all(np.isfinite(draws))

    def test_optimal_gamma_limits(self):
        # gamma* -> 1/2 - eps/12 as eps -> 0 and cbrt(e^-eps / 2) as eps grows
        assert staircase_optimal_gamma(1e-8) == pytest.approx(0.5, abs=1e-8)
        assert staircase_optimal_gamma(800.0) == pytest.approx(
            math.exp(-800.0 / 3.0) / 2.0 ** (1.0 / 3.0), rel=1e-12
        )

    def test_tuned_width_beats_laplace_variance(self):
        # the step shape wastes less budget than the exponential tails,
        # increasingly so at larger budgets
        for epsilon in (1.0, 2.0, 4.0, 8.0):
            tuned = oracles.staircase_variance(
                epsilon, 1.0, staircase_optimal_gamma(epsilon)
            )
            laplace_var = 2.0 / epsilon**2
            assert tuned < laplace_var


def test_import_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(dppdml.__file__))
    code = "import sys, dppdml; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


class TestDuchi:
    def test_output_magnitude_and_balance_at_zero(self, rng):
        c = (math.e + 1.0) / (math.e - 1.0)
        assert c == pytest.approx(2.1640, abs=5e-5)
        draws = np.array([duchi_randomize(0.0, 1.0, rng) for _ in range(20_000)])
        assert set(np.round(np.unique(draws), 10)) == {
            round(-c, 10), round(c, 10)
        }
        assert abs((draws > 0).mean() - 0.5) < 0.02

    def test_variance_at_zero(self, rng):
        c = (math.e + 1.0) / (math.e - 1.0)
        p_plus = rng.random(N_BIG) < 0.5
        draws = np.where(p_plus, c, -c)  # exact sampler at value 0
        assert draws.var() == pytest.approx(c * c, rel=0.05)
        assert c * c == pytest.approx(4.683, abs=5e-4)

    def test_unbiased_at_extremes(self, rng):
        draws = np.array([duchi_randomize(1.0, 1.0, rng) for _ in range(50_000)])
        assert draws.mean() == pytest.approx(1.0, abs=0.02)

    def test_unbiased_at_interior_value(self, rng):
        value = -0.37
        draws = np.array([duchi_randomize(value, 1.0, rng) for _ in range(200_000)])
        assert draws.mean() == pytest.approx(value, abs=0.02)

    def test_variance_ratio_against_batched_laplace(self):
        # one-bit randomizer variance over Laplace gradient-noise variance
        # at h=0.5, |B|=50, eps=1
        h, batch, eps = 0.5, 50, 1.0
        c = (math.exp(eps) + 1.0) / (math.exp(eps) - 1.0)
        lap_var = 4.0 * h * h / (batch * batch * eps * eps)
        assert lap_var == pytest.approx(4e-4)
        ratio = c * c / lap_var
        assert ratio == pytest.approx(1.17e4, rel=0.01)

    def test_rejects_out_of_range(self, rng):
        with pytest.raises(OutOfRange):
            duchi_randomize(1.5, 1.0, rng)
        with pytest.raises(OutOfRange):
            duchi_randomize_vector(np.array([0.0, -1.2]), 1.0, rng)

    def test_vector_split_is_unbiased(self, rng):
        values = np.array([0.3, -0.6, 0.0])
        total = np.zeros(3)
        n = 200_000
        for _ in range(n):
            total += duchi_randomize_vector(values, 3.0, rng)
        assert np.allclose(total / n, values, atol=0.05)


class TestWarner:
    def test_infinite_budget_keeps_label(self, rng):
        assert oracles.warner_flip(1, math.inf, rng) == 1
        assert oracles.warner_flip(0, math.inf, rng) == 0

    def test_zero_budget_is_fair_coin(self, rng):
        draws = np.array([oracles.warner_flip(1, 0.0, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(0.5, abs=0.01)

    def test_ln3_keep_rate(self, rng):
        draws = np.array(
            [oracles.warner_flip(1, math.log(3.0), rng) for _ in range(100_000)]
        )
        assert draws.mean() == pytest.approx(0.75, abs=0.01)

    def test_rejects_bad_label(self, rng):
        with pytest.raises(OutOfRange):
            oracles.warner_flip(2, 1.0, rng)


class _ZeroPlanting:
    """A generator whose first block of uniforms has a 0.0 planted at ``at``
    (nothing when ``at`` is None); every other draw is the wrapped
    generator's own."""

    def __init__(self, gen: np.random.Generator, at: tuple[int, int] | None):
        self._gen = gen
        self._at = at
        self.bit_generator = gen.bit_generator
        self.planted = False
        self.laplace_calls = 0

    def random(self, size=None):
        out = self._gen.random(size)
        if size is not None and self._at is not None and not self.planted:
            out[self._at] = 0.0
            self.planted = True
        return out

    def laplace(self, *args, **kwargs):
        self.laplace_calls += 1
        return self._gen.laplace(*args, **kwargs)


class TestInputPerturb:
    @staticmethod
    def _pairs(n, dim=3, seed=0):
        gen = np.random.default_rng(seed)
        return [
            PairwiseDatum(2 * k, 2 * k + 1, gen.uniform(-1, 1, dim), int(k % 2))
            for k in range(n)
        ]

    def test_infinite_budget_is_identity(self, rng):
        pairs = self._pairs(50)
        out = input_perturb(pairs, math.inf, rng)
        for a, b in zip(pairs, out):
            assert np.array_equal(a.delta_x, b.delta_x)
            assert a.y == b.y

    def test_label_flip_rate(self, rng):
        pairs = self._pairs(40_000, dim=1)
        epsilon = 2.0
        out = input_perturb(pairs, epsilon, rng)
        flips = np.mean([a.y != b.y for a, b in zip(pairs, out)])
        expected = 1.0 / (1.0 + math.exp(0.5 * epsilon))
        assert flips == pytest.approx(expected, abs=0.01)

    def test_feature_noise_scale(self, rng):
        pairs = self._pairs(20_000, dim=2)
        epsilon = 4.0
        out = input_perturb(pairs, epsilon, rng)
        deltas = np.array([b.delta_x - a.delta_x for a, b in zip(pairs, out)])
        scale = 2.0 * 2 / (0.5 * epsilon)  # 2d / (feature share * eps)
        assert deltas.var() == pytest.approx(2.0 * scale * scale, rel=0.05)

    def test_budget_share_validation(self, rng):
        with pytest.raises(ValueError):
            input_perturb(self._pairs(2), 1.0, rng, feature_share=1.0)

    def test_determinism(self):
        pairs = self._pairs(10)
        a = input_perturb(pairs, 1.0, np.random.default_rng(3))
        b = input_perturb(pairs, 1.0, np.random.default_rng(3))
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.delta_x, pb.delta_x)
            assert pa.y == pb.y


    @pytest.mark.parametrize("epsilon", [0.3, 2.0, math.inf])
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_matches_per_pair_reference_stream(self, epsilon, dim):
        pairs = self._pairs(400, dim=dim, seed=dim)
        gen, ref_gen = np.random.default_rng(8), np.random.default_rng(8)
        out = input_perturb(pairs, epsilon, gen)
        ref = oracles.reference_input_perturb(pairs, epsilon, ref_gen)
        assert isinstance(out, PairSet)
        assert out.dx.tobytes() == np.stack([p.delta_x for p in ref]).tobytes()
        assert out.y.tolist() == [p.y for p in ref]
        assert out.i == tuple(p.i for p in ref)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    def test_infinite_budget_draws_only_the_label_uniforms(self):
        gen, ref_gen = np.random.default_rng(4), np.random.default_rng(4)
        input_perturb(self._pairs(30), math.inf, gen)
        ref_gen.random(30)
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize("epsilon", [0.3, 2.0, math.inf])
    def test_zero_uniform_falls_back_to_the_reference_stream(self, epsilon):
        # at a finite budget the planted 0.0 is a Laplace uniform, which
        # ``Generator.laplace`` would redraw; at an infinite one it is a
        # label uniform, which is used as drawn
        pairs = self._pairs(50, dim=2, seed=1)
        gen = _ZeroPlanting(np.random.default_rng(8), at=(3, 0))
        ref_gen = np.random.default_rng(8)
        out = input_perturb(pairs, epsilon, gen)
        ref = oracles.reference_input_perturb(pairs, epsilon, ref_gen)
        assert gen.planted and gen.laplace_calls == (0 if math.isinf(epsilon) else 50)
        assert out.dx.tobytes() == np.stack([p.delta_x for p in ref]).tobytes()
        assert out.y.tolist() == [p.y for p in ref]
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize("epsilon", [0.3, 1.0, 4.0, math.inf])
    @pytest.mark.parametrize("seed", range(25))
    def test_block_laplace_matches_the_reference_stream(self, epsilon, seed):
        # without a zero uniform the noise is one ``laplace`` call over the
        # block, and the generator resumes where the reference leaves it
        pairs = self._pairs(60, dim=3, seed=seed)
        gen = _ZeroPlanting(np.random.default_rng(seed), at=None)
        ref_gen = np.random.default_rng(seed)
        out = input_perturb(pairs, epsilon, gen)
        ref = oracles.reference_input_perturb(pairs, epsilon, ref_gen)
        assert gen.laplace_calls == (0 if math.isinf(epsilon) else 1)
        assert out.dx.tobytes() == np.stack([p.delta_x for p in ref]).tobytes()
        assert out.y.tolist() == [p.y for p in ref]
        assert gen.random() == ref_gen.random()

    def test_zero_label_uniform_falls_back_at_a_finite_budget(self):
        # ``laplace`` over the block would redraw the label column's 0.0 and
        # shift every later value, so the pairs are drawn one at a time
        pairs = self._pairs(50, dim=2, seed=1)
        gen = _ZeroPlanting(np.random.default_rng(8), at=(3, 2))
        ref_gen = np.random.default_rng(8)
        out = input_perturb(pairs, 1.0, gen)
        ref = oracles.reference_input_perturb(pairs, 1.0, ref_gen)
        assert gen.planted and gen.laplace_calls == 50
        assert out.dx.tobytes() == np.stack([p.delta_x for p in ref]).tobytes()
        assert out.y.tolist() == [p.y for p in ref]
        assert gen.bit_generator.state == ref_gen.bit_generator.state

    @pytest.mark.parametrize("budgets, planted, laplace_calls", [
        ([0.5, 4.0, math.inf], None, 1),
        ([0.5, 4.0, math.inf], (3, 0), 2 * 50),
        ([math.inf, 4.0, 0.5], (3, 0), 1),
    ])
    def test_budgets_equal_their_own_calls(self, budgets, planted, laplace_calls):
        # the finite budgets share one block of uniforms and one ``laplace``
        # call over it; a planted 0.0 in that block sends each of them to
        # the per-pair draws, and a 0.0 among an infinite budget's label
        # uniforms is used as drawn
        pairs = self._pairs(50, dim=2, seed=1)
        gen = _ZeroPlanting(np.random.default_rng(8), at=planted)
        out = input_perturb(pairs, budgets, gen)
        assert isinstance(out, tuple) and len(out) == len(budgets)
        assert gen.laplace_calls == laplace_calls
        for epsilon, got in zip(budgets, out):
            own_gen = _ZeroPlanting(np.random.default_rng(8), at=planted)
            want = input_perturb(pairs, epsilon, own_gen)
            assert got.dx.tobytes() == want.dx.tobytes()
            assert got.y.tobytes() == want.y.tobytes()
        # the generator is left where the last budget's own call leaves it
        assert gen.bit_generator.state == own_gen.bit_generator.state

    def test_every_budget_checked_before_drawing(self):
        gen = np.random.default_rng(3)
        state = gen.bit_generator.state
        with pytest.raises(NonPositiveScale, match="got 0.0"):
            input_perturb(self._pairs(5), [1.0, 0.0], gen)
        assert gen.bit_generator.state == state

    def test_pairset_input_and_empty_input(self, rng):
        pairs = self._pairs(20)
        a = input_perturb(pairs, 1.0, np.random.default_rng(3))
        b = input_perturb(PairSet.of(pairs), 1.0, np.random.default_rng(3))
        assert a.dx.tobytes() == b.dx.tobytes()
        assert a.y.tolist() == b.y.tolist()
        assert len(input_perturb([], 1.0, rng)) == 0


class TestSamplerDeterminism:
    def test_identical_streams_for_identical_seeds(self):
        def stream(seed):
            gen = np.random.default_rng(seed)
            return (
                staircase_sample(1.0, 1.0, 0.5, gen, size=16),
                np.array([duchi_randomize(0.3, 1.0, gen) for _ in range(16)]),
                np.array([oracles.warner_flip(1, 1.0, gen) for _ in range(16)]),
            )

        first = stream(11)
        second = stream(11)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
