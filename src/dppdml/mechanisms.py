"""Noise mechanisms and randomizers for private training.

All samplers take an explicit ``numpy.random.Generator``; nothing touches
global random state, so runs are reproducible and parallel callers can
derive independent streams by spawning from one master seed.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DeltaZero, InvalidGamma, NonPositiveScale, OutOfRange
from .pairgraph import PairSet, PairwiseDatum


def laplace_sample(scale: float, rng: np.random.Generator, size=None):
    """Zero-mean Laplace draw(s) with the given scale (variance 2 scale^2)."""
    if not scale > 0:
        raise NonPositiveScale(f"Laplace scale must be positive, got {scale}")
    return rng.laplace(0.0, scale, size=size)


def gaussian_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Smallest Gaussian noise level for the approximate regime.

    sigma = sqrt(2 ln(1.25 / delta)) * sensitivity / epsilon, requiring
    0 < delta < 1 and positive epsilon and sensitivity. ``epsilon`` and
    ``sensitivity`` may be arrays, for one sigma per entry of their
    broadcast.
    """
    if delta <= 0:
        raise DeltaZero("Gaussian calibration requires delta > 0")
    if not delta < 1:
        raise OutOfRange(f"delta must be below 1, got {delta}")
    for name, value in (("epsilon", epsilon), ("sensitivity", sensitivity)):
        positive = np.greater(value, 0)
        if not np.all(positive):
            bad = np.extract(~positive, value)[0]
            raise NonPositiveScale(f"{name} must be positive, got {bad}")
    return math.sqrt(2.0 * math.log(1.25 / delta)) * sensitivity / epsilon


# --- staircase mechanism ----------------------------------------------------
#
# Piecewise-constant symmetric density: uniform height on |x| in
# [k*delta, (k+gamma)*delta), a factor e^-eps lower on the remainder of each
# period, decaying geometrically by e^-eps per period.


def _staircase_params(epsilon: float, sensitivity: float, gamma: float):
    if not epsilon > 0:
        raise NonPositiveScale(f"epsilon must be positive, got {epsilon}")
    if not sensitivity > 0:
        raise NonPositiveScale(f"sensitivity must be positive, got {sensitivity}")
    if not (0 < gamma <= 1):
        raise InvalidGamma(f"gamma must lie in (0, 1], got {gamma}")
    b = math.exp(-epsilon)
    if not 1.0 - b > 0:
        # the period index would be geometric with success chance 0
        raise NonPositiveScale(
            f"staircase budget epsilon={epsilon} is too small: 1 - e^-epsilon "
            "rounds to 0"
        )
    return b


def staircase_sample(
    epsilon: float,
    sensitivity: float,
    gamma: float,
    rng: np.random.Generator,
    size=None,
):
    """Zero-mean staircase-distributed draw(s) for an epsilon, sensitivity pair.

    Sampled as sign * delta * (period + offset): the period index is
    geometric with ratio e^-eps, and the offset falls in the high step
    (width gamma) or the low step (width 1 - gamma, weight e^-eps).
    """
    b = _staircase_params(epsilon, sensitivity, gamma)
    shape = () if size is None else size
    sign = rng.integers(0, 2, size=shape) * 2 - 1
    period = rng.geometric(1.0 - b, size=shape) - 1
    uniform = rng.random(size=shape)
    p_low = (1.0 - gamma) * b / (gamma + (1.0 - gamma) * b)
    low_step = rng.random(size=shape) < p_low
    offset = np.where(
        low_step,
        gamma + (1.0 - gamma) * uniform,
        gamma * uniform,
    )
    out = sign * sensitivity * (period + offset)
    return out if size is not None else float(out)


def staircase_optimal_gamma(epsilon: float) -> float:
    """Variance-minimising step-width parameter for the given budget.

    The root of the variance's derivative (Geng & Viswanath 2014):
    ``(cbrt(b (1 + b) / 2) - b) / (1 - b)`` with ``b = e^-eps``. The cube
    root is taken in log form so it stays positive after ``b`` underflows
    (eps above about 745); past eps of about 2,200 it underflows too, and
    the width is floored at the smallest positive float. Below eps = 1e-6
    ``root - b`` cancels, so there it is taken as ``b (root / b - 1)``.
    """
    if not epsilon > 0:
        raise NonPositiveScale(f"epsilon must be positive, got {epsilon}")
    b = math.exp(-epsilon)
    if epsilon < 1e-6:
        ratio = (math.log1p(math.expm1(-epsilon) / 2.0) + 2.0 * epsilon) / 3.0
        return b * math.expm1(ratio) / -math.expm1(-epsilon)
    root = math.exp((math.log1p(b) - math.log(2.0) - epsilon) / 3.0)
    return max((root - b) / -math.expm1(-epsilon), math.ulp(0.0))


# --- one-bit randomizer -----------------------------------------------------


def duchi_randomize(value: float, epsilon: float, rng: np.random.Generator) -> float:
    """Unbiased one-bit randomizer for a value in [-1, 1].

    Returns +/- C with C = (e^eps + 1) / (e^eps - 1), keeping the output
    expectation equal to the input.
    """
    if not epsilon > 0:
        raise NonPositiveScale(f"epsilon must be positive, got {epsilon}")
    if abs(value) > 1.0:
        raise OutOfRange(f"value must lie in [-1, 1], got {value}")
    return float(duchi_bits(value, duchi_magnitude(epsilon), rng.random()))


def duchi_randomize_vector(
    values: np.ndarray, epsilon: float, rng: np.random.Generator
) -> np.ndarray:
    """Per-dimension one-bit randomizer with the budget split evenly."""
    values = np.asarray(values, dtype=float)
    if not epsilon > 0:
        raise NonPositiveScale(f"epsilon must be positive, got {epsilon}")
    if np.any(np.abs(values) > 1.0):
        raise OutOfRange("all coordinates must lie in [-1, 1]")
    c = duchi_magnitude(epsilon / values.size)
    return duchi_bits(values, c, rng.random(values.shape))


def duchi_magnitude(epsilon: float) -> float:
    """The one-bit randomizer's output magnitude C = (e^eps + 1) / (e^eps - 1).

    C is exactly 1.0 from eps of about 37 on, so it is 1.0 too where e^eps
    overflows (eps above about 709.78) or is infinite.
    """
    try:
        e = math.exp(epsilon)
    except OverflowError:
        e = math.inf
    return 1.0 if e == math.inf else (e + 1.0) / (e - 1.0)


def duchi_bits(values: np.ndarray, c, uniforms: np.ndarray) -> np.ndarray:
    """``+C`` where a uniform falls below ``(1 + value / C) / 2``, else
    ``-C``; ``c`` is one magnitude or an array broadcast against
    ``values``."""
    p_plus = 0.5 * (1.0 + values / c)
    return c * np.where(uniforms < p_plus, 1.0, -1.0)


def _keep_probability(epsilon: float) -> float:
    """Randomized response's chance of keeping a label: e^eps / (1 + e^eps)."""
    return 1.0 / (1.0 + math.exp(-epsilon)) if not math.isinf(epsilon) else 1.0


def input_perturb(
    pairs: PairSet | Sequence[PairwiseDatum],
    epsilon: float | Sequence[float],
    rng: np.random.Generator,
    feature_share: float = 0.5,
) -> PairSet | tuple[PairSet, ...]:
    """Input-perturbation baseline: noise the data itself, then train cleanly.

    ``feature_share`` of the budget goes to the feature differences (split
    evenly across dimensions, Laplace at per-coordinate sensitivity 2 under
    the l1 normalisation); the rest drives randomized response on labels.
    ``epsilon`` is one budget, perturbed into a ``PairSet``, or a sequence,
    perturbed into a tuple with one set per budget; each set equals the one
    budget's call on a generator in ``rng``'s state on entry, and ``rng`` is
    left as the last budget's call leaves it.

    The stream is that of drawing, pair by pair, the pair's ``d`` Laplace
    values (none at an infinite budget) and then one uniform for its label.
    At a finite budget it is one ``(n, d + 1)`` block of uniforms, which
    every finite budget shares. ``Generator.laplace`` turns each uniform
    into one value, except that it redraws a uniform of exactly 0. So when
    the block holds no 0, the generator is rewound and ``laplace(0, 1)``
    runs over the same doubles, without the label column, once; numpy
    computes ``laplace(0, s)`` as ``0 -+ s log(.)``, so ``0 + s *
    laplace(0, 1)`` is each budget's noise bit for bit. If the block holds
    a 0, each finite budget draws its pairs one at a time instead. An
    infinite budget draws only the ``n`` label uniforms. The noisy sets
    share the input's endpoints (as :meth:`PairSet.with_values` derives
    them, keeping the new arrays without copying them), so only their
    labels and features are checked again.
    """
    single = np.ndim(epsilon) == 0
    budgets = [epsilon] if single else list(epsilon)
    for e in budgets:
        if not e > 0:
            raise NonPositiveScale(f"epsilon must be positive, got {e}")
    if not (0 < feature_share < 1):
        raise ValueError(f"feature_share must lie in (0, 1), got {feature_share}")
    pairs = PairSet.of(pairs)
    n, d = pairs.dx.shape
    start = rng.bit_generator.state
    block = None   # the finite budgets' unit noise, label uniforms and end state
    out = []
    for e in budgets:
        rng.bit_generator.state = start
        eps_feat = feature_share * e
        if math.isinf(eps_feat):
            noise, label_draw = 0.0, rng.random((n, 1))[:, 0]
        else:
            scale = 2.0 * d / eps_feat
            if block is None:
                block = _unit_laplace_block(rng, n, d)
            if block:
                unit, label_draw, end = block
                noise = 0.0 + scale * unit
                rng.bit_generator.state = end
            else:
                noise, label_draw = np.empty((n, d)), np.empty(n)
                for row in range(n):
                    noise[row] = rng.laplace(0.0, scale, size=d)
                    label_draw[row] = rng.random()
        flipped = label_draw >= _keep_probability((1.0 - feature_share) * e)
        y = np.where(flipped, 1 - pairs.y, pairs.y)
        # both arrays are new, so the noisy set keeps them without a copy
        out.append(pairs._derived(pairs.dx + noise, y))
    return out[0] if single else tuple(out)


def _unit_laplace_block(rng: np.random.Generator, n: int, d: int):
    """``(unit, label_draw, end)`` from one ``(n, d + 1)`` block of uniforms:
    ``laplace(0, 1)`` over its first ``d`` columns, its last column, and the
    generator state past it; ``()`` when the block holds a 0. Either way
    ``rng`` is left in its state on entry."""
    start = rng.bit_generator.state
    draws = rng.random((n, d + 1))
    end = rng.bit_generator.state
    rng.bit_generator.state = start
    if not draws.all():
        return ()
    unit = laplace_sample(1.0, rng, size=(n, d + 1))[:, :d]
    rng.bit_generator.state = start
    return unit, draws[:, d], end
