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
    NonPositiveScale,
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
    return _default_margin(pairs.dx, pairs.y, ratio, norm_mode)


def _default_margin(
    dx: np.ndarray, y: np.ndarray, ratio: float, norm_mode: str
) -> float:
    dissimilar = dx[y == 1]
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


def _batch_bounds(n_pairs: int, batch_size: int) -> list[tuple[int, int]]:
    """Start and end of each batch along a run's pair order. A last batch
    under half the batch size is dropped, too small for a stable sensitivity
    denominator, unless it is the only one."""
    bounds = [
        (k, min(k + batch_size, n_pairs)) for k in range(0, n_pairs, batch_size)
    ]
    if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] < batch_size / 2:
        bounds.pop()
    return bounds


def _pair_components(pairs: PairSet, graph: PairGraph) -> np.ndarray:
    """Component number of each pair's first endpoint, in the order of
    :meth:`PairGraph.components`."""
    comp_of = np.empty(graph.num_nodes, dtype=np.intp)
    for ci, comp in enumerate(graph.components()):
        comp_of[comp] = ci
    first = np.fromiter(map(graph.node_index, pairs.i), np.intp, len(pairs))
    return comp_of[first]


def _pair_order(
    n_pairs: int, components: np.ndarray | None, rng: np.random.Generator
) -> np.ndarray:
    """A run's pair order: a permutation drawn from ``rng``, stably sorted by
    component when ``components`` is given."""
    order = rng.permutation(n_pairs)
    if components is not None:
        order = order[np.argsort(components[order], kind="stable")]
    return order


def _distances(w: np.ndarray, dx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projections ``W dx_j`` as columns and their l2 lengths ``D``, for one
    ``W`` or for each ``W`` of a stack ``(..., d_prime, d)``; ``dx`` is one
    ``(n, d)`` set or one per ``W``.

    ``sqrt(add.reduce(p * p))`` is what ``np.linalg.norm(p, axis=0)`` runs,
    without its dispatch.
    """
    proj = w @ dx.swapaxes(-1, -2)                       # (..., d_prime, n)
    return proj, np.sqrt(np.add.reduce(proj * proj, axis=-2))


def _coefficients(
    w: np.ndarray, dx: np.ndarray, dissimilar: np.ndarray, margin: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-pair gradient coefficient matrix for one batch, or for a stack of
    ``W`` with one batch and margin each.

    ``dissimilar`` marks the pairs with ``y == 1``. Returns (A, degenerate)
    where row r of A holds the scalar that multiplies dx_j in the gradient
    of row r, and ``degenerate`` counts, per ``W``, the dissimilar pairs at
    zero distance, for which the zero subgradient is used (None when no
    distance is zero).
    """
    proj, d_w = _distances(w, dx)
    coef = np.where(dissimilar, 0.0, 1.0)
    active = dissimilar & (d_w < margin)
    degenerate = None
    if not d_w.all():
        zero = dissimilar & (d_w == 0)
        degenerate = np.count_nonzero(zero, axis=-1)
        active &= ~zero
    np.divide(d_w - margin, d_w, out=coef, where=active)
    return proj * coef[..., None, :], degenerate


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


@dataclass
class RepeatTrace:
    """Record of ``R`` runs trained as one batch by ``train(..., repeats=R)``:
    the steps the runs share, and each run's margin and count of degenerate
    hinge events. The per-step columns of :class:`TrainTrace` are not
    computed for a batch."""

    kappa: int
    kappa_method: str
    margins: tuple[float, ...]
    iterations: list[int]
    degenerate: tuple[int, ...]

    @property
    def degenerate_events(self) -> int:
        """Degenerate hinge events over every run of the batch."""
        return sum(self.degenerate)


def train(
    pairs: PairSet | Sequence[PairwiseDatum],
    graph: PairGraph,
    config: TrainConfig,
    kappa_report: KappaReport | None = None,
    repeats: int | None = None,
    run_pairs: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[MetricModel, TrainTrace] | tuple[tuple[MetricModel, ...], RepeatTrace]:
    """Run the private training loop and return the model plus its trace.

    The privacy distance comes from ``kappa_report`` when given (so repeated
    runs on one dataset can share it), otherwise it is computed from the
    graph. All randomness derives from ``config.seed``: one stream for the
    initial W, one for the batch order and one per row of W for noise, so
    identical inputs give a bit-identical trajectory. The batches are fixed
    for the whole run, so their slices, labels, feature norms and fixed
    bounds are taken once, before the first step.

    With ``repeats=R``, the R runs at seeds ``config.seed + r`` advance as
    one ``(R, d_prime, d)`` stack and the call returns a tuple of R models
    and a :class:`RepeatTrace`; each run equals the single run at its seed
    bit for bit. ``run_pairs``, arrays ``(R, n, d)`` and ``(R, n)``, gives
    each run its own feature differences and labels in place of those of
    ``pairs`` (whose endpoints still set the components), and without a
    fixed margin each run derives its own.

    A step computes only what its update needs. A single run stores its
    ``W`` and its clipped-gradient peaks in arrays sized for the whole run,
    and the trace's objective and data-dependent bound columns are computed
    from those stacks after the last step. The reduced bound is computed
    inside the loop only when it scales the noise.
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
    runs = 1 if repeats is None else repeats
    if runs < 1:
        raise ConfigInvalid(f"repeats must be >= 1, got {repeats}")
    if run_pairs is None:
        dx_runs, y_runs = pairs.dx[None], pairs.y[None]   # shared by every run
    else:
        dx_runs, y_runs = (np.asarray(a) for a in run_pairs)
        want = ((runs, *pairs.dx.shape), (runs, len(pairs)))
        if (dx_runs.shape, y_runs.shape) != want:
            raise DimensionMismatch(
                f"run_pairs must have shapes {want[0]} and {want[1]}, "
                f"got {dx_runs.shape} and {y_runs.shape}"
            )
    if kappa_report is None:
        kappa_report = compute_kappa(graph)
    kappa = kappa_report.kappa

    if config.margin is not None:
        margins = [config.margin]
    elif run_pairs is None:
        margins = [default_margin(pairs, config.margin_ratio, config.norm_mode)]
    else:
        margins = [
            _default_margin(dx, y, config.margin_ratio, config.norm_mode)
            for dx, y in zip(dx_runs, y_runs)
        ]
    # one margin for every run, or one per run as a column over its pairs
    margin = margins[0] if len(margins) == 1 else np.array(margins)[:, None]

    dx_norms = (
        np.add.reduce(np.abs(dx_runs), axis=-1)
        if config.norm_mode == "l1"
        else np.sqrt(np.add.reduce(dx_runs * dx_runs, axis=-1))
    )

    seeds = [
        np.random.SeedSequence(config.seed + r).spawn(2 + config.d_prime)
        for r in range(runs)
    ]
    components = (
        _pair_components(pairs, graph) if config.batch_mode == "component" else None
    )
    orders = np.stack([
        _pair_order(len(pairs), components, np.random.default_rng(s[1]))
        for s in seeds
    ])
    source = (
        np.arange(runs)[:, None] if run_pairs is not None
        else np.zeros((runs, 1), dtype=np.intp)
    )
    # a batch stacks its runs along a leading axis; a single run has none,
    # so its arrays keep the shapes of one W and one batch
    lead, pick = ((), 0) if repeats is None else ((runs,), slice(None))
    h = config.lipschitz
    batches = []
    for start, end in _batch_bounds(len(pairs), config.batch_size):
        taken = (source[pick], orders[pick, start:end])
        n_b = end - start
        batches.append((
            dx_runs[taken], y_runs[taken] == 1, dx_norms[taken][..., None, :],
            n_b, sensitivity_basic(kappa, h, n_b, config.d_prime),
        ))

    noisy = config.mechanism != "none"
    reduced_noise = noisy and config.sensitivity_mode == "reduced"
    eps_epoch = config.epsilon / config.t_max if noisy else math.inf
    gamma = config.staircase_gamma
    if config.mechanism == "staircase" and gamma is None:
        gamma = staircase_optimal_gamma(eps_epoch)

    schedule = batches * config.t_max
    steps = len(schedule)
    shape = (*lead, config.d_prime, d)
    if noisy:
        add_noise = _noise(
            config, kappa, eps_epoch, gamma, h,
            [np.random.default_rng(s) for run in seeds for s in run[2:]],
            steps, shape,
        )
    # a single run keeps every step's W for its trace; a batch keeps two
    ws = np.empty((steps + 1 if repeats is None else 2, *shape))
    w0 = ws[0].reshape(runs, config.d_prime, d)
    for r, run in enumerate(seeds):
        w0[r] = np.random.default_rng(run[0]).uniform(
            -config.init_scale, config.init_scale, (config.d_prime, d)
        )
    peaks = np.empty((steps, *lead, config.d_prime))
    etas = [step_size(tau) for tau in range(1, steps + 1)]
    degenerate_events = np.zeros(lead, dtype=int)

    for k, (dx, dissimilar, norms, n_b, basic) in enumerate(schedule):
        w = ws[k % len(ws)]
        amat, degenerate = _coefficients(w, dx, dissimilar, margin)
        if degenerate is not None:
            degenerate_events += degenerate
        raw_norms = np.abs(amat) * norms                    # (..., d_prime, n)
        clip = np.maximum(1.0, raw_norms / h)
        # the temporaries are divided in place: same values, fewer copies
        g_peaks = np.maximum.reduce(
            np.divide(raw_norms, clip, out=raw_norms), axis=-1, out=peaks[k]
        )
        update = np.divide(amat, clip, out=amat) @ dx
        update /= n_b                                       # mean gradient

        if noisy:
            sens = (
                _reduced_bound(g_peaks, w, h, margin, kappa, n_b, config.norm_mode)
                if reduced_noise else basic
            )
            add_noise(update, sens)
        np.subtract(w, etas[k] * update, out=ws[(k + 1) % len(ws)])

    if repeats is not None:
        return tuple(MetricModel(w) for w in ws[steps % 2]), RepeatTrace(
            kappa=kappa,
            kappa_method=kappa_report.method,
            margins=tuple(np.broadcast_to(margins, runs).tolist()),
            iterations=list(range(1, steps + 1)),
            degenerate=tuple(degenerate_events.tolist()),
        )

    objectives = _objectives(ws, dx_runs[0], y_runs[0], margin)
    sizes = np.array([n_b for _, _, _, n_b, _ in schedule])
    reduced = _reduced_bound(
        peaks, ws[:-1], h, margin, kappa, sizes[:, None], config.norm_mode
    )
    trace = TrainTrace(
        kappa=kappa,
        kappa_method=kappa_report.method,
        margin=margin,
        initial_objective=float(objectives[0]),
        iterations=list(range(1, steps + 1)),
        epochs=[e for e in range(1, config.t_max + 1) for _ in batches],
        objectives=objectives[1:].tolist(),
        etas=etas,
        sens_basic=[float(basic[0]) for _, _, _, _, basic in schedule],
        sens_reduced=list(reduced),
        degenerate_events=int(degenerate_events),
    )
    return MetricModel(ws[-1]), trace


def _noise(
    config: TrainConfig,
    kappa: int,
    eps_epoch: float,
    gamma: float | None,
    h: float,
    streams: list[np.random.Generator],
    steps: int,
    shape: tuple[int, ...],
):
    """``add(update, sens)``, called once per step: adds to each row of the
    mean gradient ``update`` (``shape``: ``(d_prime, d)``, or ``(R,
    d_prime, d)`` for a batch) its noise at that row's sensitivity, in place.

    ``streams`` holds one generator per row, run by run. At an infinite
    budget or at kappa 0 (every sensitivity zero) nothing is drawn.
    Otherwise every stream draws each step, and a noise scale that is not
    positive raises :class:`NonPositiveScale`. numpy computes ``laplace(0,
    s)`` as ``0 -+ s log(.)`` and ``normal(0, s)`` as ``0 + s z``, so ``0 + s
    * laplace(0, 1)`` and ``0 + s * normal(0, 1)`` equal them bit for bit:
    a stream's Laplace or Gaussian noise is one ``(steps, d)`` block of unit
    draws, scaled at each step. The staircase and one-bit randomizers draw
    from several distributions per value, so they draw at each step.
    """
    if math.isinf(eps_epoch) or kappa == 0:
        return lambda update, sens: np.add(update, 0.0, out=update)
    d = shape[-1]
    if config.mechanism not in ("laplace", "gaussian"):
        def add_drawn(update: np.ndarray, sens: np.ndarray) -> None:
            rows = update.reshape(-1, d)
            row_sens = np.broadcast_to(sens, shape[:-1]).reshape(-1)
            for j, rng in enumerate(streams):
                rows[j] += _row_noise(
                    rows[j], row_sens[j], eps_epoch, config, gamma, h, rng
                )
        return add_drawn

    laplace = config.mechanism == "laplace"
    unit = np.empty((steps, len(streams), d))
    for j, rng in enumerate(streams):
        unit[:, j] = (
            laplace_sample(1.0, rng, size=(steps, d)) if laplace
            else rng.normal(0.0, 1.0, size=(steps, d))
        )
    draws = iter(unit.reshape(steps, *shape))           # one per step

    def add_scaled(update: np.ndarray, sens: np.ndarray) -> None:
        if laplace:
            scale = sens / eps_epoch
            if not scale.min() > 0:
                raise NonPositiveScale(
                    f"Laplace scale must be positive, got {scale.min()}"
                )
        else:
            scale = gaussian_sigma(eps_epoch, config.delta, sens)
        update += 0.0 + scale[..., None] * next(draws)

    return add_scaled


def _row_noise(
    mean_row: np.ndarray,
    sens: float,
    eps_epoch: float,
    config: TrainConfig,
    gamma: float | None,
    h: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Staircase noise for one row's mean gradient, or, for the one-bit
    randomizer, the correction that replaces the row entirely."""
    if config.mechanism == "staircase":
        return staircase_sample(eps_epoch, sens, gamma, rng, size=mean_row.shape[0])
    # one-bit randomizer: rebuild the row from scaled sign bits; clipping
    # guarantees |coord| <= h up to rounding, so clamp the last ulp away
    scaled = np.clip(mean_row / h, -1.0, 1.0)
    return h * duchi_randomize_vector(scaled, eps_epoch, rng) - mean_row
