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
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    DegenerateDistance,
    DimensionMismatch,
    EmptyBatch,
    NonFiniteValue,
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
        """The model of a ``to_dict`` mapping, as read from a model file; a
        NaN or infinite weight raises :class:`NonFiniteValue`."""
        w = np.array(d["w"], dtype=float).reshape(d["d_prime"], d["d"])
        if not np.isfinite(w).all():
            k = int(np.argmin(np.isfinite(w.ravel())))
            raise NonFiniteValue(f"model weight w[{k}] is {w.flat[k]}, not finite")
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
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be >= 0, got {self.seed}")


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

    def columns(self) -> tuple[list, ...]:
        """The :data:`TRACE_COLUMNS` in order, one list each, a value per step."""
        reduced = np.array(self.sens_reduced or np.empty((0, 1)))
        return (self.iterations, self.epochs, self.objectives, self.etas,
                self.sens_basic, reduced.min(axis=-1).tolist(),
                reduced.max(axis=-1).tolist())

    def rows(self) -> list[dict]:
        """One dict per step, keyed by :data:`TRACE_COLUMNS` in order."""
        return [dict(zip(TRACE_COLUMNS, row)) for row in zip(*self.columns())]


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


def _norms(x: np.ndarray, norm_mode: str) -> np.ndarray:
    """The l1 or l2 norm of ``x`` over its last axis."""
    if norm_mode == "l1":
        return np.add.reduce(np.abs(x), axis=-1)
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def clip_gradient(g: np.ndarray, h: float, norm_mode: str = "l1") -> np.ndarray:
    """Rescale ``g`` so its norm is at most ``h``; identity when already inside."""
    if not h > 0:
        raise ConfigInvalid(f"clipping threshold must be positive, got {h}")
    g = np.asarray(g, dtype=float)
    return g / max(1.0, float(_norms(g, norm_mode)) / h)


def step_size(tau: int) -> float:
    """Learning rate at global step ``tau`` (1-based): ``1 / sqrt(tau)``."""
    if tau < 1:
        raise ValueError(f"step counter must be >= 1, got {tau}")
    return 1.0 / math.sqrt(tau)


# --- sensitivity bounds -----------------------------------------------------


def _basic_bound(kappa, h: float, batch_size):
    """``2 kappa h / batch_size`` for a kappa, or for a column of them."""
    return 2.0 * kappa * h / batch_size


def _counterpart_bound(w: np.ndarray, h: float, margin: float, norm_mode: str) -> np.ndarray:
    """Worst-case clipped gradient norm of any replacement pair, per row of
    ``W``; ``w`` is one ``(d_prime, d)`` matrix or a stack ``(..., d_prime, d)``."""
    hinge_cap = 2.0 * margin * (math.sqrt(w.shape[-2]) if norm_mode == "l1" else 1.0)
    return np.minimum(h, np.maximum(4.0 * _norms(w, norm_mode), hinge_cap))


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
        peaks.append(float(_norms(block, norm_mode).max()))
    return _reduced_bound(
        np.array(peaks), w, h, margin, kappa, batch_size, norm_mode
    )


# --- training ----------------------------------------------------------------


def default_margin(
    pairs: PairSet | Sequence[PairwiseDatum], ratio: float, norm_mode: str
) -> float:
    """Margin as ``ratio`` times the average dissimilar-pair distance.

    The distances are summed left to right in pair order. An l2 distance is
    the square root of one row's dot product with itself, the BLAS dot that
    ``np.linalg.norm`` takes on a single vector.
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

    With no zero distance the hinge quotient is taken everywhere and kept
    where active, which is faster than a masked divide. Only a quotient it
    drops can be invalid (``inf / inf``), so that warning is silenced; an
    overflow, which may be a kept quotient's, sends the batch to the masked
    divide, so the values and warnings are always the masked divide's.
    """
    proj, d_w = _distances(w, dx)
    active = dissimilar & (d_w < margin)
    gap = d_w - margin
    degenerate = None
    if d_w.all():
        try:
            with np.errstate(over="raise", invalid="ignore"):
                quotient = gap / d_w
        except FloatingPointError:
            pass
        else:
            return proj * np.where(active, quotient, ~dissimilar)[..., None, :], None
    else:
        zero = dissimilar & (d_w == 0)
        degenerate = np.count_nonzero(zero, axis=-1)
        active &= ~zero
    coef = np.where(dissimilar, 0.0, 1.0)
    np.divide(gap, d_w, out=coef, where=active)
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


class Cell(NamedTuple):
    """One cell of a stacked :func:`train` call: its configuration and
    privacy distance (computed from the graph when None), the runs it trains
    (run ``r`` at seed ``config.seed + r``) and, optionally, each run's own
    feature differences and labels as arrays ``(len(runs), n, d)`` and
    ``(len(runs), n)``."""

    config: TrainConfig
    kappa_report: KappaReport | None
    runs: Sequence[int]
    run_pairs: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class StackTrace:
    """Record of the cells trained by one stacked :func:`train` call: the
    steps they share and, per cell, each run's margin and count of
    degenerate hinge events. The per-step columns of :class:`TrainTrace`
    are not computed for a stack."""

    iterations: list[int]
    margins: tuple[tuple[float, ...], ...]
    degenerate: tuple[tuple[int, ...], ...]

    @property
    def degenerate_events(self) -> int:
        """Degenerate hinge events over every run of every cell."""
        return sum(map(sum, self.degenerate))


#: The :class:`TrainConfig` fields in which the cells of one stack may differ.
CELL_FIELDS = ("mechanism", "epsilon", "sensitivity_mode")
#: The mechanisms that a stack of several cells may mix.
STACK_MECHANISMS = ("none", "laplace")


def _cells(
    pairs: PairSet, graph: PairGraph, cells: list[Cell]
) -> list[Cell]:
    """Check a stack's cells against each other and the pairs, and each
    run's own pairs as ``PairSet`` checks pairs (a label outside {0, 1} or a
    non-finite feature raises its error); return the cells with every kappa
    report filled in and every ``run_pairs`` as arrays."""
    cfg = cells[0].config
    for cell in cells:
        cell.config.validate()
        if replace(cell.config, **{f: getattr(cfg, f) for f in CELL_FIELDS}) != cfg:
            raise ConfigInvalid(
                f"the cells of a stack may differ only in {', '.join(CELL_FIELDS)}"
            )
        if len(cells) > 1 and cell.config.mechanism not in STACK_MECHANISMS:
            raise ConfigInvalid(
                f"a stack of several cells takes only the mechanisms {STACK_MECHANISMS}"
            )
        if not len(cell.runs):
            raise ConfigInvalid("every cell needs at least one run")
    if not pairs:
        raise ConfigInvalid("cannot train on an empty pair list")
    n, d = pairs.dx.shape
    if cfg.d_prime > d:
        raise ConfigInvalid(f"d_prime={cfg.d_prime} exceeds feature dimension {d}")
    computed = None
    checked = []
    for cell in cells:
        if cell.run_pairs is not None:
            dx, y = (np.asarray(a) for a in cell.run_pairs)
            want = ((len(cell.runs), n, d), (len(cell.runs), n))
            if (dx.shape, y.shape) != want:
                raise DimensionMismatch(
                    f"run_pairs must have shapes {want[0]} and {want[1]}, "
                    f"got {dx.shape} and {y.shape}"
                )
            if not (np.isfinite(dx).all() and ((y == 0) | (y == 1)).all()):
                for r in range(len(dx)):
                    PairSet(pairs.i, pairs.j, dx[r], y[r])  # a faulty run raises
            cell = cell._replace(run_pairs=(dx, y))
        if cell.kappa_report is None:
            if computed is None:
                computed = compute_kappa(graph)
            cell = cell._replace(kappa_report=computed)
        checked.append(cell)
    return checked


def train(
    pairs: PairSet | Sequence[PairwiseDatum],
    graph: PairGraph,
    config: TrainConfig | Sequence[Cell],
    kappa_report: KappaReport | None = None,
) -> (
    tuple[MetricModel, TrainTrace]
    | tuple[tuple[tuple[MetricModel, ...], ...], StackTrace]
):
    """Run the private training loop and return the model plus its trace.

    The privacy distance comes from ``kappa_report`` when given (so repeated
    runs on one dataset can share it), otherwise it is computed from the
    graph. All randomness derives from ``config.seed``: one stream for the
    initial W, one for the batch order and one per row of W for noise, so
    identical inputs give a bit-identical trajectory.

    ``config`` may instead be a sequence of :class:`Cell`: every run of
    every cell then advances in one ``(runs, d_prime, d)`` stack, and the
    call returns a tuple of each cell's models and a :class:`StackTrace`.
    Run ``r`` of a cell equals the single run at seed ``config.seed + r``
    on that run's pairs, bit for bit. Cells may differ only in
    :data:`CELL_FIELDS`, in kappa and in their runs' pairs, and several
    cells take only :data:`STACK_MECHANISMS`. A run's initial W, pair order
    and unit noise are drawn once per call, for every cell that trains it;
    where a cell draws no noise its scale is 0.

    There is one step loop, and a single run is the one-run stack
    ``[Cell(config, kappa_report, range(1))]``. A step computes only what
    its update needs, and gathers its batch through a table of each run's
    pair rows in order. A single run keeps every step's ``W`` and
    clipped-gradient peaks, and the trace's objective and data-dependent
    bound columns are computed from them after the last step; a stack keeps
    two ``W`` and one step's peaks.
    """
    single = isinstance(config, TrainConfig)
    if single:
        cells = [Cell(config, kappa_report, range(1))]
    else:
        if kappa_report is not None:
            raise ConfigInvalid("each cell of a stack carries its kappa report")
        cells = list(config)
        if not cells:
            raise ConfigInvalid("a stack needs at least one cell")
    pairs = PairSet.of(pairs)
    cells = _cells(pairs, graph, cells)
    cfg = cells[0].config
    h = cfg.lipschitz
    n, d = pairs.dx.shape

    # the stack holds the runs cell by cell
    sizes = [len(cell.runs) for cell in cells]

    def per_run(values) -> np.ndarray:
        """One value per cell, as a column with one entry per run."""
        return np.repeat(values, sizes).reshape(-1, 1)

    # the pair sets, one after another as rows: ``pairs``, then those of
    # each run that brings its own; run i's pair j is row ``n * source[i] + j``
    own = [cell.run_pairs for cell in cells if cell.run_pairs is not None]
    dx_rows = np.concatenate([pairs.dx, *(dx.reshape(-1, d) for dx, _ in own)])
    dissimilar_rows = np.concatenate([pairs.y, *(y.ravel() for _, y in own)]) == 1
    norm_rows = _norms(dx_rows, cfg.norm_mode)
    source, margins, shared = [], [], None
    for cell, size in zip(cells, sizes):
        if cell.run_pairs is None:
            source += [0] * size
        else:
            first = max(source, default=0) + 1
            source += range(first, first + size)
        if cfg.margin is not None:
            margins += [cfg.margin] * size
        elif cell.run_pairs is None:
            if shared is None:
                shared = default_margin(pairs, cfg.margin_ratio, cfg.norm_mode)
            margins += [shared] * size
        else:
            margins += [
                _default_margin(dx, y, cfg.margin_ratio, cfg.norm_mode)
                for dx, y in zip(*cell.run_pairs)
            ]
    # one margin for every run, or one per run as a column over its pairs
    margin = (
        margins[0] if len(set(margins)) == 1 else np.array(margins).reshape(-1, 1)
    )

    # each distinct run draws its seeds, initial W and order once
    offsets = [r for cell in cells for r in cell.runs]
    distinct = sorted(set(offsets))
    run_of = np.searchsorted(distinct, offsets)
    seeds = [
        np.random.SeedSequence(cfg.seed + r).spawn(2 + cfg.d_prime)
        for r in distinct
    ]
    components = (
        _pair_components(pairs, graph) if cfg.batch_mode == "component" else None
    )
    orders = np.stack([
        _pair_order(n, components, np.random.default_rng(s[1])) for s in seeds
    ])
    # each run's pair rows in its order, the same in every epoch
    rows = n * np.array(source)[:, None] + orders[run_of]
    w_init = np.stack([
        np.random.default_rng(s[0]).uniform(
            -cfg.init_scale, cfg.init_scale, (cfg.d_prime, d)
        )
        for s in seeds
    ])

    kappas = [cell.kappa_report.kappa for cell in cells]
    kappa = kappas[0] if len(cells) == 1 else per_run(kappas)
    eps_cells = [
        c.config.epsilon / c.config.t_max if c.config.mechanism != "none"
        else math.inf
        for c in cells
    ]
    eps_epoch = eps_cells[0] if len(cells) == 1 else per_run(eps_cells)
    # the runs whose noise scale is positive; the rest add noise at scale 0
    drawing = [math.isfinite(e) and k > 0 for e, k in zip(eps_cells, kappas)]
    drawn = np.repeat(drawing, sizes)
    reduced = per_run([
        c.config.sensitivity_mode == "reduced" and drawn_c
        for c, drawn_c in zip(cells, drawing)
    ])
    any_reduced, all_reduced = reduced.any(), reduced.all()

    bounds = _batch_bounds(n, cfg.batch_size)
    schedule = bounds * cfg.t_max
    shape = (len(offsets), cfg.d_prime, d)
    basic = {
        hi - lo: np.broadcast_to(_basic_bound(kappa, h, hi - lo), shape[:-1])
        for lo, hi in bounds
    }
    steps = len(schedule)
    add_noise = None
    if any(drawing):
        # several cells draw only Laplace noise, so any drawing cell's
        # config names the mechanism
        noisy = cells[drawing.index(True)].config
        add_noise = _noise(noisy, eps_epoch, drawn, h, seeds, run_of, steps, shape)
    # a single run keeps every step's W and peaks for its trace; a stack
    # keeps two W and one step's peaks
    ws = np.empty((steps + 1 if single else 2, *shape))
    ws[0] = w_init[run_of]
    peaks = np.empty((steps if single else 1, *shape[:-1]))
    etas = [step_size(tau) for tau in range(1, steps + 1)]
    degenerate_events = np.zeros(len(offsets), dtype=int)

    for k, (lo, hi) in enumerate(schedule):
        batch = rows[:, lo:hi]                              # (runs, n_b)
        dx = dx_rows.take(batch, axis=0)
        dissimilar = dissimilar_rows.take(batch)
        n_b = hi - lo
        w = ws[k % len(ws)]
        amat, degenerate = _coefficients(w, dx, dissimilar, margin)
        if degenerate is not None:
            degenerate_events += degenerate
        raw_norms = np.abs(amat) * norm_rows.take(batch)[:, None, :]
        clip = np.maximum(1.0, raw_norms / h)
        # the temporaries are divided in place: same values, fewer copies
        g_peaks = np.maximum.reduce(
            np.divide(raw_norms, clip, out=raw_norms), axis=-1,
            out=peaks[k % len(peaks)],
        )
        update = np.divide(amat, clip, out=amat) @ dx
        update /= n_b                                       # mean gradient

        if add_noise is not None:
            sens = basic[n_b]
            if any_reduced:
                sens = _reduced_bound(g_peaks, w, h, margin, kappa, n_b, cfg.norm_mode)
                if not all_reduced:
                    sens = np.where(reduced, sens, basic[n_b])
            add_noise(update, sens)
        np.subtract(w, etas[k] * update, out=ws[(k + 1) % len(ws)])

    iterations = list(range(1, steps + 1))
    final = ws[steps % len(ws)]
    if not single:
        ends = np.cumsum(sizes).tolist()
        parts = [slice(end - size, end) for size, end in zip(sizes, ends)]
        models = tuple(tuple(MetricModel(w) for w in final[p]) for p in parts)
        return models, StackTrace(
            iterations,
            margins=tuple(tuple(float(m) for m in margins[p]) for p in parts),
            degenerate=tuple(tuple(degenerate_events[p].tolist()) for p in parts),
        )

    ws, peaks = ws[:, 0], peaks[:, 0]
    objectives = _objectives(ws, pairs.dx, pairs.y, margin)
    sizes = np.array([hi - lo for lo, hi in schedule])
    trace = TrainTrace(
        kappa=kappa,
        kappa_method=cells[0].kappa_report.method,
        margin=margin,
        initial_objective=float(objectives[0]),
        iterations=iterations,
        epochs=[e for e in range(1, cfg.t_max + 1) for _ in bounds],
        objectives=objectives[1:].tolist(),
        etas=etas,
        sens_basic=[_basic_bound(kappa, h, n_b) for n_b in sizes.tolist()],
        sens_reduced=list(_reduced_bound(
            peaks, ws[:-1], h, margin, kappa, sizes[:, None], cfg.norm_mode
        )),
        degenerate_events=int(degenerate_events[0]),
    )
    return MetricModel(final[0]), trace


def _noise(
    config: TrainConfig,
    eps_epoch: float | np.ndarray,
    drawn: np.ndarray,
    h: float,
    seeds: list[list[np.random.SeedSequence]],
    run_of: np.ndarray,
    steps: int,
    shape: tuple[int, ...],
):
    """``add(update, sens)``, called once per step: adds to each row of the
    mean gradient ``update`` (``shape``: ``(runs, d_prime, d)``) its noise
    at that row's sensitivity, in place.

    ``eps_epoch`` is the per-epoch budget, or a column with one per run;
    ``drawn`` marks the runs at a finite budget and kappa >= 1, and a noise
    scale of theirs that is not positive raises :class:`NonPositiveScale`.
    Run ``i`` draws from the noise streams of ``seeds[run_of[i]]``, one per
    row. numpy computes ``laplace(0, s)`` as ``0 -+ s log(.)`` and ``normal(0,
    s)`` as ``0 + s z``, so ``0 + s * laplace(0, 1)`` and ``0 + s * normal(0,
    1)`` equal them bit for bit: a stream's Laplace or Gaussian noise is one
    ``(steps, d)`` block of unit draws, scaled at each step, and a run at
    scale 0 adds ``0.0``. The staircase and one-bit randomizers draw from
    several distributions per value, so they draw at each step.
    """
    d = shape[-1]
    if config.mechanism not in ("laplace", "gaussian"):
        gamma = config.staircase_gamma
        if config.mechanism == "staircase" and gamma is None:
            gamma = staircase_optimal_gamma(eps_epoch)
        streams = [np.random.default_rng(s) for u in run_of for s in seeds[u][2:]]

        def add_drawn(update: np.ndarray, sens: np.ndarray) -> None:
            rows = update.reshape(-1, d)
            row_sens = np.broadcast_to(sens, shape[:-1]).reshape(-1)
            for j, rng in enumerate(streams):
                rows[j] += _row_noise(
                    rows[j], row_sens[j], eps_epoch, config, gamma, h, rng
                )
        return add_drawn

    laplace = config.mechanism == "laplace"
    unit = np.empty((steps, len(seeds), shape[-2], d))
    for u, run in enumerate(seeds):
        for row, s in enumerate(run[2:]):
            rng = np.random.default_rng(s)
            unit[:, u, row] = (
                laplace_sample(1.0, rng, size=(steps, d)) if laplace
                else rng.normal(0.0, 1.0, size=(steps, d))
            )
    if np.array_equal(run_of, np.arange(len(seeds))):
        draws = iter(unit.reshape(steps, *shape))           # one per step
    else:   # runs shared by several cells take their draws at each step
        draws = (u.take(run_of, axis=0) for u in unit)
    checked = slice(None) if drawn.all() else drawn

    def add_scaled(update: np.ndarray, sens: np.ndarray) -> None:
        if laplace:
            scale = sens / eps_epoch
            if not scale[checked].min() > 0:
                raise NonPositiveScale(
                    f"Laplace scale must be positive, got {scale[checked].min()}"
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
