"""Contrastive-loss metric learning under pairwise privacy.

The loss for one pair is ``(1-y)/2 * D^2 + y/2 * max(0, m - D)^2`` with
``D = ||W dx||_2``. Training runs noisy minibatch gradient descent: per-row
gradients are clipped to a Lipschitz cap, averaged, perturbed by the
configured mechanism at a scale calibrated to the privacy distance of the
pair graph, and applied with a ``1/sqrt(step)`` learning-rate decay. The
data-dependent sensitivity bound (batch gradient peak plus its worst-case
counterpart) replaces the fixed bound when sensitivity reduction is on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    DegenerateDistance,
    DimensionMismatch,
    EmptyBatch,
)
from .kappa import KappaReport, compute_kappa
from .mechanisms import (
    duchi_randomize_vector,
    gaussian_sigma,
    laplace_sample,
    staircase_optimal_gamma,
    staircase_sample,
)
from .pairgraph import PairGraph, PairSet, PairwiseDatum

TRAIN_MECHANISMS = ("none", "laplace", "gaussian", "staircase", "duchi")
SENSITIVITY_MODES = ("basic", "reduced")
NORM_MODES = ("l1", "l2")
BATCH_MODES = ("shuffle", "component")
#: Columns of ``trace.csv``, in order: the keys of :meth:`TrainTrace.rows`.
TRACE_COLUMNS = (
    "iter", "epoch", "objective", "eta",
    "sens_basic", "sens_reduced_min", "sens_reduced_max",
)
#: Most elements the projections of one block of :func:`_objectives` hold.
OBJECTIVE_BLOCK = 2**14


@dataclass(frozen=True)
class MetricModel:
    """Learned transformation; the distance metric is ``W^T W``."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2:
            raise DimensionMismatch(f"W must be 2-D, got shape {w.shape}")
        if not 1 <= w.shape[0] <= w.shape[1]:
            raise DimensionMismatch(
                f"W must have 1 <= d_prime <= d, got shape {w.shape}"
            )
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def d_prime(self) -> int:
        return self.w.shape[0]

    @property
    def d(self) -> int:
        return self.w.shape[1]

    def metric(self) -> np.ndarray:
        """Materialise M = W^T W (symmetric PSD by construction)."""
        return self.w.T @ self.w

    def to_dict(self) -> dict:
        return {
            "d_prime": self.d_prime,
            "d": self.d,
            "w": [float(v) for v in self.w.ravel()],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MetricModel":
        w = np.array(d["w"], dtype=float).reshape(d["d_prime"], d["d"])
        return cls(w)


@dataclass
class TrainConfig:
    """Hyperparameters of the private training loop."""

    d_prime: int
    margin: float | None = None       # None: margin_ratio * mean dissimilar distance
    margin_ratio: float = 1.0
    lipschitz: float = 0.5
    batch_size: int = 50
    t_max: int = 10
    epsilon: float = 2.0
    delta: float = 0.0
    mechanism: str = "laplace"
    sensitivity_mode: str = "reduced"
    norm_mode: str = "l1"
    seed: int = 0
    init_scale: float = 0.1
    staircase_gamma: float | None = None
    batch_mode: str = "shuffle"

    def validate(self) -> None:
        if self.d_prime < 1:
            raise ConfigInvalid(f"d_prime must be >= 1, got {self.d_prime}")
        if self.margin is not None and not self.margin > 0:
            raise ConfigInvalid(f"margin must be positive, got {self.margin}")
        if not self.margin_ratio > 0:
            raise ConfigInvalid(f"margin_ratio must be positive, got {self.margin_ratio}")
        if not self.lipschitz > 0:
            raise ConfigInvalid(f"lipschitz must be positive, got {self.lipschitz}")
        if self.batch_size < 1:
            raise ConfigInvalid(f"batch_size must be >= 1, got {self.batch_size}")
        if self.t_max < 1:
            raise ConfigInvalid(f"t_max must be >= 1, got {self.t_max}")
        if self.mechanism not in TRAIN_MECHANISMS:
            raise ConfigInvalid(f"mechanism must be one of {TRAIN_MECHANISMS}")
        if self.sensitivity_mode not in SENSITIVITY_MODES:
            raise ConfigInvalid(f"sensitivity_mode must be one of {SENSITIVITY_MODES}")
        if self.norm_mode not in NORM_MODES:
            raise ConfigInvalid(f"norm_mode must be one of {NORM_MODES}")
        if self.batch_mode not in BATCH_MODES:
            raise ConfigInvalid(f"batch_mode must be one of {BATCH_MODES}")
        if self.mechanism != "none" and not self.epsilon > 0:
            raise ConfigInvalid(f"epsilon must be positive, got {self.epsilon}")
        if self.mechanism == "gaussian":
            if not 0 < self.delta < 1:
                raise ConfigInvalid(
                    f"gaussian mechanism requires 0 < delta < 1, got {self.delta}"
                )
            if self.norm_mode != "l2":
                raise ConfigInvalid("gaussian mechanism requires norm_mode='l2'")
        elif self.delta != 0:
            raise ConfigInvalid("delta > 0 only applies to the gaussian mechanism")
        if self.staircase_gamma is not None and not 0 < self.staircase_gamma <= 1:
            raise ConfigInvalid(
                f"staircase_gamma must lie in (0, 1], got {self.staircase_gamma}"
            )
        if not self.init_scale > 0:
            raise ConfigInvalid(f"init_scale must be positive, got {self.init_scale}")


@dataclass
class TrainTrace:
    """Per-iteration record of one training run."""

    kappa: int
    kappa_method: str
    margin: float
    initial_objective: float
    iterations: list[int] = field(default_factory=list)
    epochs: list[int] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    etas: list[float] = field(default_factory=list)
    sens_basic: list[float] = field(default_factory=list)
    sens_reduced: list[np.ndarray] = field(default_factory=list)
    degenerate_events: int = 0

    def rows(self) -> list[dict]:
        """One dict per step, keyed by :data:`TRACE_COLUMNS` in order."""
        return [
            dict(zip(TRACE_COLUMNS, (
                self.iterations[k], self.epochs[k], self.objectives[k],
                self.etas[k], self.sens_basic[k],
                float(np.min(reduced)), float(np.max(reduced)),
            )))
            for k, reduced in enumerate(self.sens_reduced)
        ]


# --- loss and gradients -----------------------------------------------------


def contrastive_loss(model: MetricModel, pair: PairwiseDatum, margin: float) -> float:
    """Per-pair loss: pull same-class pairs together, push different-class
    pairs out to the margin."""
    if pair.dim != model.d:
        raise DimensionMismatch(
            f"pair has dimension {pair.dim}, model expects {model.d}"
        )
    return dataset_objective(
        model.w, pair.delta_x[None, :], np.array([pair.y]), margin
    )


def gradient_row(
    model: MetricModel, pair: PairwiseDatum, margin: float, row: int
) -> np.ndarray:
    """Gradient of the pair loss with respect to one row of W (0-based).

    Piecewise: ``(W_r . dx) dx`` for similar pairs, scaled by
    ``(D - m) / D`` inside the margin for dissimilar pairs, zero beyond it.
    Raises :class:`DegenerateDistance` at D = 0 for a dissimilar pair; the
    training loop substitutes the zero subgradient there instead.
    """
    if pair.dim != model.d:
        raise DimensionMismatch(
            f"pair has dimension {pair.dim}, model expects {model.d}"
        )
    if not 0 <= row < model.d_prime:
        raise IndexError(f"row {row} out of range for d_prime={model.d_prime}")
    amat, degenerate = _coefficients(
        model.w, pair.delta_x[None, :], np.array([pair.y == 1]), margin
    )
    if degenerate:
        raise DegenerateDistance(
            "dissimilar pair with zero projected distance; hinge gradient undefined"
        )
    return amat[row, 0] * pair.delta_x


def _vector_norm(v: np.ndarray, norm_mode: str) -> float:
    return float(np.abs(v).sum()) if norm_mode == "l1" else float(np.linalg.norm(v))


def clip_gradient(g: np.ndarray, h: float, norm_mode: str = "l1") -> np.ndarray:
    """Rescale ``g`` so its norm is at most ``h``; identity when already inside."""
    if not h > 0:
        raise ConfigInvalid(f"clipping threshold must be positive, got {h}")
    norm = _vector_norm(np.asarray(g, dtype=float), norm_mode)
    return np.asarray(g, dtype=float) / max(1.0, norm / h)


def step_size(tau: int) -> float:
    """Learning rate at global step ``tau`` (1-based): ``1 / sqrt(tau)``."""
    if tau < 1:
        raise ValueError(f"step counter must be >= 1, got {tau}")
    return 1.0 / math.sqrt(tau)


# --- sensitivity bounds -----------------------------------------------------


def sensitivity_basic(
    kappa: int, h: float, batch_size: int, d_prime: int = 1
) -> np.ndarray:
    """Fixed per-row bound ``2 kappa h / batch_size`` from the Lipschitz cap,
    as a ``(d_prime,)`` array."""
    if kappa < 0 or not h > 0 or batch_size < 1 or d_prime < 1:
        raise ConfigInvalid("kappa >= 0, h > 0, batch_size >= 1, d_prime >= 1 required")
    return np.full(d_prime, 2.0 * kappa * h / batch_size)


def _counterpart_bound(w: np.ndarray, h: float, margin: float, norm_mode: str) -> np.ndarray:
    """Worst-case clipped gradient norm of any replacement pair, per row of
    ``W``; ``w`` is one ``(d_prime, d)`` matrix or a stack ``(..., d_prime, d)``."""
    d_prime = w.shape[-2]
    if norm_mode == "l1":
        w_norms = np.add.reduce(np.abs(w), axis=-1)
        hinge_cap = 2.0 * margin * math.sqrt(d_prime)
    else:
        w_norms = np.sqrt(np.add.reduce(w * w, axis=-1))
        hinge_cap = 2.0 * margin
    return np.minimum(h, np.maximum(4.0 * w_norms, hinge_cap))


def _reduced_bound(
    g_peaks: np.ndarray,
    w: np.ndarray,
    h: float,
    margin: float,
    kappa: int,
    batch_size: int,
    norm_mode: str,
) -> np.ndarray:
    counterpart = _counterpart_bound(w, h, margin, norm_mode)
    return kappa * (g_peaks + counterpart) / batch_size


def sensitivity_reduced(
    clipped_grads: Sequence[np.ndarray],
    w: np.ndarray,
    h: float,
    margin: float,
    kappa: int,
    batch_size: int,
    norm_mode: str = "l1",
) -> np.ndarray:
    """Data-dependent per-row bound ``kappa (g' + g'') / batch_size``, as a
    ``(d_prime,)`` array.

    ``clipped_grads[r]`` holds the clipped per-pair gradients of row r as an
    (n_batch, d) array; g' is the largest norm among them and g'' the
    clipped worst case any replacement pair could contribute.
    """
    w = np.asarray(w, dtype=float)
    if len(clipped_grads) != w.shape[0]:
        raise DimensionMismatch(
            f"need one gradient block per row: got {len(clipped_grads)} "
            f"blocks for {w.shape[0]} rows"
        )
    peaks = []
    for block in clipped_grads:
        block = np.atleast_2d(np.asarray(block, dtype=float))
        if block.shape[0] == 0:
            raise EmptyBatch("cannot bound sensitivity on an empty batch")
        if norm_mode == "l1":
            norms = np.abs(block).sum(axis=1)
        else:
            norms = np.linalg.norm(block, axis=1)
        peaks.append(float(norms.max()))
    return _reduced_bound(
        np.array(peaks), w, h, margin, kappa, batch_size, norm_mode
    )


# --- training ----------------------------------------------------------------


def default_margin(
    pairs: PairSet | Sequence[PairwiseDatum], ratio: float, norm_mode: str
) -> float:
    """Margin as ``ratio`` times the average dissimilar-pair distance.

    The distances are summed left to right in pair order. An l2 distance is
    one row's dot product with itself, the BLAS dot that ``np.linalg.norm``
    takes on a single vector, so each term equals ``_vector_norm`` of its row.
    """
    pairs = PairSet.of(pairs)
    dissimilar = pairs.dx[pairs.y == 1]
    if not len(dissimilar):
        raise ConfigInvalid(
            "no dissimilar pairs to derive a margin from; set margin explicitly"
        )
    if norm_mode == "l1":
        norms = np.add.reduce(np.abs(dissimilar), axis=1)
    else:
        norms = np.sqrt((dissimilar[:, None, :] @ dissimilar[:, :, None]).ravel())
    total = sum(norms.tolist())
    m = ratio * total / len(dissimilar)
    if not m > 0:
        raise ConfigInvalid("derived margin is zero; set margin explicitly")
    return m


def _batch_slices(
    n_pairs: int,
    batch_size: int,
    order: np.ndarray,
) -> list[np.ndarray]:
    batches = [
        order[k : k + batch_size] for k in range(0, n_pairs, batch_size)
    ]
    if len(batches) > 1 and len(batches[-1]) < batch_size / 2:
        batches.pop()  # too small for a stable sensitivity denominator
    return batches


def _pair_order(
    pairs: PairSet,
    graph: PairGraph,
    batch_mode: str,
    rng: np.random.Generator,
) -> np.ndarray:
    order = rng.permutation(len(pairs))
    if batch_mode == "component":
        comp_of: dict[int, int] = {}
        for ci, comp in enumerate(graph.components()):
            for v in comp:
                comp_of[v] = ci
        comp_key = np.array(
            [comp_of[graph.node_index(pairs.i[k])] for k in order]
        )
        order = order[np.argsort(comp_key, kind="stable")]
    return order


def _distances(w: np.ndarray, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projections ``W dx_j`` as columns and their l2 lengths ``D``, for one
    ``W`` or for each ``W`` of a stack ``(..., d_prime, d)``.

    ``sqrt(add.reduce(p * p))`` is what ``np.linalg.norm(p, axis=0)`` runs,
    without its dispatch.
    """
    proj = w @ dx.T                                      # (..., d_prime, n)
    return proj, np.sqrt(np.add.reduce(proj * proj, axis=-2))


def _coefficients(
    w: np.ndarray, dx: np.ndarray, dissimilar: np.ndarray, margin: float
) -> tuple[np.ndarray, int]:
    """Per-pair gradient coefficient matrix for one batch.

    ``dissimilar`` marks the pairs with ``y == 1``. Returns (A, degenerate)
    where row r of A holds the scalar that multiplies dx_j in the gradient
    of row r; the zero subgradient is used for the ``degenerate``
    dissimilar pairs at zero distance.
    """
    proj, d_w = _distances(w, dx)
    coef = np.where(dissimilar, 0.0, 1.0)
    active = dissimilar & (d_w < margin)
    degenerate = 0
    if not d_w.all():
        zero = dissimilar & (d_w == 0)
        degenerate = int(np.count_nonzero(zero))
        active &= ~zero
    np.divide(d_w - margin, d_w, out=coef, where=active)
    return proj * coef, degenerate


def _objectives(
    ws: np.ndarray, dx: np.ndarray, y: np.ndarray, margin: float
) -> np.ndarray:
    """Mean contrastive loss of the whole pair set under each ``W`` of a
    stack ``(T, d_prime, d)``.

    The stack is taken in blocks whose projections hold at most
    :data:`OBJECTIVE_BLOCK` elements, so the temporaries stay small however
    long the run.
    """
    n = len(y)
    similar = y == 0
    out = np.empty(len(ws))
    step = max(1, OBJECTIVE_BLOCK // (ws.shape[1] * n))
    for start in range(0, len(ws), step):
        d_w = _distances(ws[start : start + step], dx)[1]   # (block, n)
        # the distance for similar pairs, the hinge for dissimilar ones
        reach = np.where(similar, d_w, np.maximum(0.0, margin - d_w))
        out[start : start + step] = np.add.reduce(0.5 * reach**2, axis=-1) / n
    return out


def dataset_objective(
    w: np.ndarray, dx: np.ndarray, y: np.ndarray, margin: float
) -> float:
    """Mean contrastive loss of the whole pair set under W."""
    return float(_objectives(np.asarray(w)[None], dx, y, margin)[0])


def train(
    pairs: PairSet | Sequence[PairwiseDatum],
    graph: PairGraph,
    config: TrainConfig,
    kappa_report: KappaReport | None = None,
) -> tuple[MetricModel, TrainTrace]:
    """Run the private training loop and return the model plus its trace.

    The privacy distance comes from ``kappa_report`` when given (so repeated
    runs on one dataset can share it), otherwise it is computed from the
    graph. All randomness derives from ``config.seed``: one stream for the
    initial W, one for the batch order and one per row of W for noise, so
    identical inputs give a bit-identical trajectory. The batches are fixed
    for the whole run, so their slices, labels, feature norms and fixed
    bounds are taken once, before the first step.

    A step computes only what its update needs. It stores its ``W`` and its
    clipped-gradient peaks in arrays sized for the whole run, and the
    trace's objective and data-dependent bound columns are computed from
    those stacks after the last step. The reduced bound is computed inside
    the loop only when it scales the noise.
    """
    config.validate()
    pairs = PairSet.of(pairs)
    if not pairs:
        raise ConfigInvalid("cannot train on an empty pair list")
    d = pairs.dim
    if config.d_prime > d:
        raise ConfigInvalid(
            f"d_prime={config.d_prime} exceeds feature dimension {d}"
        )
    if kappa_report is None:
        kappa_report = compute_kappa(graph)
    kappa = kappa_report.kappa

    margin = (
        config.margin
        if config.margin is not None
        else default_margin(pairs, config.margin_ratio, config.norm_mode)
    )

    dx_all, y_all = pairs.dx, pairs.y
    dx_norms = (
        np.add.reduce(np.abs(dx_all), axis=1)
        if config.norm_mode == "l1"
        else np.sqrt(np.add.reduce(dx_all * dx_all, axis=1))
    )

    seeds = np.random.SeedSequence(config.seed).spawn(2 + config.d_prime)
    init_rng = np.random.default_rng(seeds[0])
    order_rng = np.random.default_rng(seeds[1])
    row_rngs = [np.random.default_rng(s) for s in seeds[2:]]

    order = _pair_order(pairs, graph, config.batch_mode, order_rng)
    slices = _batch_slices(len(pairs), config.batch_size, order)
    h = config.lipschitz
    basic_of = {
        n_b: sensitivity_basic(kappa, h, n_b, config.d_prime)
        for n_b in {len(b) for b in slices}
    }
    batches = [
        (dx_all[b], y_all[b] == 1, dx_norms[b], len(b), basic_of[len(b)])
        for b in slices
    ]

    noisy = config.mechanism != "none"
    reduced_noise = noisy and config.sensitivity_mode == "reduced"
    eps_epoch = config.epsilon / config.t_max if noisy else math.inf
    gamma = config.staircase_gamma
    if config.mechanism == "staircase" and gamma is None:
        gamma = staircase_optimal_gamma(eps_epoch)

    schedule = batches * config.t_max
    ws = np.empty((len(schedule) + 1, config.d_prime, d))
    ws[0] = init_rng.uniform(-config.init_scale, config.init_scale, (config.d_prime, d))
    peaks = np.empty((len(schedule), config.d_prime))
    etas = [step_size(tau) for tau in range(1, len(schedule) + 1)]
    degenerate_events = 0

    for k, (dx, dissimilar, norms, n_b, basic) in enumerate(schedule):
        w = ws[k]
        amat, degenerate = _coefficients(w, dx, dissimilar, margin)
        degenerate_events += degenerate
        raw_norms = np.abs(amat) * norms                    # (d_prime, n)
        clip = np.maximum(1.0, raw_norms / h)
        g_peaks = np.maximum.reduce(raw_norms / clip, axis=1, out=peaks[k])
        update = ((amat / clip) @ dx) / n_b                 # mean gradient

        if noisy:
            sens = (
                _reduced_bound(g_peaks, w, h, margin, kappa, n_b, config.norm_mode)
                if reduced_noise else basic
            )
            for r in range(config.d_prime):
                update[r] += _row_noise(
                    update[r], sens[r], eps_epoch, config, gamma, h, row_rngs[r],
                )
        np.subtract(w, etas[k] * update, out=ws[k + 1])

    objectives = _objectives(ws, dx_all, y_all, margin)
    sizes = np.array([n_b for _, _, _, n_b, _ in schedule])
    reduced = _reduced_bound(
        peaks, ws[:-1], h, margin, kappa, sizes[:, None], config.norm_mode
    )
    trace = TrainTrace(
        kappa=kappa,
        kappa_method=kappa_report.method,
        margin=margin,
        initial_objective=float(objectives[0]),
        iterations=list(range(1, len(schedule) + 1)),
        epochs=[e for e in range(1, config.t_max + 1) for _ in batches],
        objectives=objectives[1:].tolist(),
        etas=etas,
        sens_basic=[float(basic[0]) for _, _, _, _, basic in schedule],
        sens_reduced=list(reduced),
        degenerate_events=degenerate_events,
    )
    return MetricModel(ws[-1]), trace


def _row_noise(
    mean_row: np.ndarray,
    sens: float,
    eps_epoch: float,
    config: TrainConfig,
    gamma: float | None,
    h: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Additive noise for one row's mean gradient (or, for the one-bit
    randomizer, the correction that replaces it entirely)."""
    d = mean_row.shape[0]
    if math.isinf(eps_epoch) or sens == 0.0:
        return np.zeros(d)
    if config.mechanism == "laplace":
        return laplace_sample(sens / eps_epoch, rng, size=d)
    if config.mechanism == "gaussian":
        sigma = gaussian_sigma(eps_epoch, config.delta, sens)
        return rng.normal(0.0, sigma, size=d)
    if config.mechanism == "staircase":
        return staircase_sample(eps_epoch, sens, gamma, rng, size=d)
    # one-bit randomizer: rebuild the row from scaled sign bits; clipping
    # guarantees |coord| <= h up to rounding, so clamp the last ulp away
    scaled = np.clip(mean_row / h, -1.0, 1.0)
    return h * duchi_randomize_vector(scaled, eps_epoch, rng) - mean_row
