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
    ParseError,
)
from .kappa import KappaReport, compute_kappa
from .mechanisms import (
    duchi_bits,
    duchi_magnitude,
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
        """The model of a ``to_dict`` mapping, as read from a model file. A
        missing key or a value of the wrong type raises :class:`ParseError`,
        a weight count other than ``d_prime * d`` :class:`DimensionMismatch`,
        and a NaN or infinite weight :class:`NonFiniteValue`."""
        if not isinstance(d, dict):
            raise ParseError(
                f"model file must hold a JSON object, not a {type(d).__name__}")
        for key, kind in (("d_prime", int), ("d", int), ("w", list)):
            if key not in d:
                raise ParseError(f"model file has no {key!r}")
            if type(d[key]) is not kind:
                raise ParseError(f"model {key!r} must be {kind.__name__}, got {d[key]!r}")
        k = next((k for k, v in enumerate(d["w"]) if type(v) not in (int, float)), None)
        if k is not None:
            raise ParseError(f"model weight w[{k}] is {d['w'][k]!r}, not a number")
        if len(d["w"]) != d["d_prime"] * d["d"]:
            raise DimensionMismatch(f"model 'w' has {len(d['w'])} weights, d_prime*d = "
                                    f"{d['d_prime']}*{d['d']} = {d['d_prime'] * d['d']}")
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


def row_sums(x: np.ndarray) -> np.ndarray:
    """``np.add.reduce(x, axis=-1)``, bit for bit, summed column by column
    when there are many rows of 1 to 7 entries.

    At those widths numpy adds a row's entries one at a time onto 0.0, but
    pays one inner-loop call per row, which dominates when the rows are
    short and many (a ``d = 2`` norm per pair). The same adds taken one
    column at a time over every row cost one call per column, which pays
    from about 64 rows. From 8 entries numpy sums in another order, so
    wider rows are left to it.
    """
    width = x.shape[-1]
    if not 1 <= width < 8 or x.size < 64 * width:
        return np.add.reduce(x, axis=-1)
    total = x[..., 0] + 0.0
    for c in range(1, width):
        total += x[..., c]
    return total


def _norms(x: np.ndarray, norm_mode: str) -> np.ndarray:
    """The l1 or l2 norm of ``x`` over its last axis.

    The rows here are short (a pair's ``d`` features, a row of ``W``), so
    they are summed by :func:`row_sums`: ``np.add.reduce``'s sums, taken
    column by column over many rows, without its cost per row."""
    if norm_mode == "l1":
        return row_sums(np.abs(x))
    return np.sqrt(row_sums(x * x))


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
    dx = pairs.dx
    distances = _norms(dx, "l1") if norm_mode == "l1" else _dot_norms(dx)
    return float(_default_margins(distances[None], (pairs.y == 1)[None], ratio)[0])


def _dot_norms(dx: np.ndarray) -> np.ndarray:
    """The l2 length of each row of ``dx`` as the square root of its BLAS
    dot product with itself."""
    return np.sqrt((dx[:, None, :] @ dx[:, :, None]).ravel())


def _default_margins(
    distances: np.ndarray, dissimilar: np.ndarray, ratio: float
) -> np.ndarray:
    """The default margin of each pair set, from ``(sets, n)`` pair
    distances and dissimilar marks, checked set by set in order.

    ``np.cumsum`` adds each set's distances left to right, a similar pair's
    as 0.0, which leaves the running sum as it is: the order in which the
    builtin ``sum`` adds the list of the dissimilar distances alone (before
    Python 3.12, whose ``sum`` compensates float rounding).
    """
    counts = np.count_nonzero(dissimilar, axis=-1)
    sums = np.cumsum(np.where(dissimilar, distances, 0.0), axis=-1)
    totals = sums[:, -1] if sums.shape[-1] else np.zeros(len(sums))
    with np.errstate(invalid="ignore"):
        margins = ratio * totals / counts
    bad = ~(margins > 0)
    if bad.any():
        if not counts[np.argmax(bad)]:
            raise ConfigInvalid(
                "no dissimilar pairs to derive a margin from; set margin explicitly"
            )
        raise ConfigInvalid("derived margin is zero; set margin explicitly")
    return margins


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


def _index(mask: np.ndarray) -> slice | np.ndarray:
    """The positions of ``mask``'s True entries: a slice when they are
    consecutive, so that indexing takes a view, else an index array."""
    at = np.flatnonzero(mask)
    if len(at) and at[-1] - at[0] + 1 == len(at):
        return slice(int(at[0]), int(at[-1]) + 1)
    return at


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

    Each ``W`` multiplies a C-contiguous copy of its ``dx`` transposed,
    which BLAS takes faster than the transposed view and sums in the same
    order; a single row (``d_prime`` 1) is a vector product, whose BLAS
    kernel would sum in another order, so it keeps the view. ``D`` is
    ``sqrt(add.reduce(p * p, axis=-2))``, what ``np.linalg.norm(p, axis=0)``
    runs. That reduce pays per ``W`` and row, so where there are more ``W``
    than pairs (a stacked step) :func:`row_sums` adds the rows in order
    instead, which is the reduce's order.
    """
    dx_t = dx.swapaxes(-1, -2)
    if w.shape[-2] > 1:
        dx_t = np.ascontiguousarray(dx_t)
    proj = w @ dx_t                                      # (..., d_prime, n)
    squares = proj * proj
    if math.prod(proj.shape[:-2]) > proj.shape[-1]:
        return proj, np.sqrt(row_sums(squares.swapaxes(-1, -2)))
    return proj, np.sqrt(np.add.reduce(squares, axis=-2))


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
    pairs: one ``PairSet`` per run, with the stack's endpoints, whose values
    were checked when the set was made."""

    config: TrainConfig
    kappa_report: KappaReport | None
    runs: Sequence[int]
    run_pairs: Sequence[PairSet] | None = None


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


def _cells(
    pairs: PairSet, graph: PairGraph, cells: list[Cell]
) -> list[Cell]:
    """Check a stack's cells against each other and the pairs, and each
    cell's own pairs for what a ``PairSet`` does not guarantee: one set per
    run, with the stack's ``(n, d)`` shape and endpoints. Return the cells
    with every kappa report filled in."""
    cfg = cells[0].config
    for cell in cells:
        cell.config.validate()
        if replace(cell.config, **{f: getattr(cfg, f) for f in CELL_FIELDS}) != cfg:
            raise ConfigInvalid(
                f"the cells of a stack may differ only in {', '.join(CELL_FIELDS)}"
            )
        if not len(cell.runs):
            raise ConfigInvalid("every cell needs at least one run")
    if len({cell.config.mechanism for cell in cells} - {"none"}) > 1:
        raise ConfigInvalid("the cells of a stack that add noise share one mechanism")
    if not pairs:
        raise ConfigInvalid("cannot train on an empty pair list")
    n, d = pairs.dx.shape
    if cfg.d_prime > d:
        raise ConfigInvalid(f"d_prime={cfg.d_prime} exceeds feature dimension {d}")
    computed = None
    checked = []
    for cell in cells:
        # endpoint tuples compare item by item, so those that input_perturb's
        # sets share with the stack match by identity
        if cell.run_pairs is not None and (len(cell.run_pairs) != len(cell.runs) or any(
            (p.dx.shape, p.i, p.j) != ((n, d), pairs.i, pairs.j) for p in cell.run_pairs
        )):
            raise DimensionMismatch(
                f"a cell's own pairs must be one set per run, each of shape "
                f"{(n, d)} and on the stack's endpoints"
            )
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
    :data:`CELL_FIELDS`, in kappa and in their runs' pairs, and the cells
    that add noise share one mechanism. A run's own pairs come as a
    ``PairSet``, whose values were checked when it was made; the stack
    checks only that it fits and concatenates its ``dx`` and ``y``. A run's
    initial W and pair order are drawn once per call, for every cell that
    trains it, and its noise as :func:`_noise` sets out.

    There is one step loop, and a single run is the one-run stack
    ``[Cell(config, kappa_report, range(1))]``. A step computes only what
    its update needs, and gathers its batch through a table of each run's
    pair rows in order. A single run keeps every step's ``W`` and
    clipped-gradient peaks, and the trace's objective and data-dependent
    bound columns are computed from them after the last step; a stack keeps
    two ``W`` and one step's peaks.

    What a stack's step computes depends on the kind of run. Every run
    gets its projections, hinge coefficients, clipped gradient and update.
    Only the runs of a ``reduced`` cell that draw noise (not one-bit, which
    reads no bound) get their clipped-gradient peaks and data-dependent
    bound. A run at a ``basic`` bound reads a noise scale computed once per
    batch size before the loop, and a run that draws no noise gets none.
    Every pair set's default margin is derived in one pass over the stacked
    labels. Row norms of the short rows here (``d`` features, ``d_prime``
    projections) are summed column by column (:func:`row_sums`), which adds
    in numpy's order without its cost per row.
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
    own = [p for cell in cells if cell.run_pairs is not None for p in cell.run_pairs]
    dx_rows = np.concatenate([pairs.dx, *(p.dx for p in own)])
    dissimilar_rows = np.concatenate([pairs.y, *(p.y for p in own)]) == 1
    norm_rows = _norms(dx_rows, cfg.norm_mode)
    source = []
    for cell, size in zip(cells, sizes):
        if cell.run_pairs is None:
            source += [0] * size
        else:
            first = max(source, default=0) + 1
            source += range(first, first + size)
    if cfg.margin is not None:
        margins = [cfg.margin] * len(source)
    else:
        # every pair set that a run trains on, in the order the runs take
        # them, gets its default margin in one pass
        sets = list(dict.fromkeys(source))
        distances = norm_rows if cfg.norm_mode == "l1" else _dot_norms(dx_rows)
        derived = _default_margins(
            distances.reshape(-1, n)[sets], dissimilar_rows.reshape(-1, n)[sets],
            cfg.margin_ratio,
        )
        of_set = dict(zip(sets, derived.tolist()))
        margins = [of_set[s] for s in source]
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
    # the runs that draw noise, at a finite budget and kappa >= 1
    drawing = [math.isfinite(e) and k > 0 for e, k in zip(eps_cells, kappas)]
    drawn = np.repeat(drawing, sizes)
    # the drawing runs whose noise reads the data-dependent bound; the
    # one-bit randomizer reads no bound
    reduced = np.repeat([
        c.config.sensitivity_mode == "reduced" and drawn_c
        and c.config.mechanism != "duchi"
        for c, drawn_c in zip(cells, drawing)
    ], sizes)
    bounded = _index(reduced) if reduced.any() else None
    if bounded is not None:
        # the data-dependent bound's per-run factors, for its runs only
        margin_b = margin if np.ndim(margin) == 0 else margin[bounded]
        kappa_b = kappa if np.ndim(kappa) == 0 else kappa[bounded]
    # the runs whose clipped-gradient peaks a step takes: a single run's
    # for its trace, else those with a data-dependent bound
    peaked = slice(None) if single else bounded

    bounds = _batch_bounds(n, cfg.batch_size)
    schedule = bounds * cfg.t_max
    shape = (len(offsets), cfg.d_prime, d)
    steps = len(schedule)
    add_noise = None
    if any(drawing):
        # the drawing cells share one mechanism, named by any of their configs
        noisy = cells[drawing.index(True)].config
        basic = {
            hi - lo: np.broadcast_to(_basic_bound(kappa, h, hi - lo), shape[:-1])
            for lo, hi in bounds
        }
        add_noise = _noise(noisy, per_run(eps_cells), drawn, reduced, basic, h,
                           seeds, run_of, steps, shape)
    # a single run keeps every step's W and peaks for its trace; a stack
    # keeps two W and one step's peaks
    ws = np.empty((steps + 1 if single else 2, *shape))
    ws[0] = w_init[run_of]
    peaks = np.empty((
        steps if single else 1,
        len(offsets) if single else np.count_nonzero(reduced), cfg.d_prime,
    ))
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
        if peaked is not None:
            # the temporaries are divided in place: same values, fewer copies
            clipped = raw_norms[peaked]
            g_peaks = np.maximum.reduce(
                np.divide(clipped, clip[peaked], out=clipped), axis=-1,
                out=peaks[k % len(peaks)],
            )
        update = np.divide(amat, clip, out=amat) @ dx
        update /= n_b                                       # mean gradient

        if add_noise is not None:
            sens = None
            if bounded is not None:
                # a single run that reads the bound is all the peaks hold
                sens = _reduced_bound(
                    g_peaks, w[bounded], h, margin_b, kappa_b, n_b, cfg.norm_mode
                )
            add_noise(update, n_b, sens)
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
    eps_epoch: np.ndarray,
    drawn: np.ndarray,
    reduced: np.ndarray,
    basic: dict[int, np.ndarray],
    h: float,
    seeds: list[list[np.random.SeedSequence]],
    run_of: np.ndarray,
    steps: int,
    shape: tuple[int, ...],
):
    """``add(update, n_b, sens)``, called once per step: adds to each row of
    the mean gradient ``update`` (``shape``: ``(runs, d_prime, d)``) of a
    batch of ``n_b`` pairs its noise at that row's sensitivity, in place.

    ``eps_epoch`` is a column with each run's per-epoch budget; ``drawn``
    marks the runs at a finite budget and kappa >= 1, the only rows that
    change, and a noise scale of theirs that is not positive raises
    :class:`NonPositiveScale`. Their scales at the fixed bounds ``basic``
    (each batch size's, per run and row) are computed here, once per batch
    size. ``sens`` holds the data-dependent bound of each run marked in
    ``reduced`` (a drawing run), or is None when no run is marked; those
    runs' scales are computed from it at each step. Run ``i`` draws from the
    noise streams of ``seeds[run_of[i]]``, one per row.

    Every draw is taken here, as one ``(steps, streams, d_prime, d)`` block
    holding each stream's draws in the order per-step draws take them.
    numpy computes ``laplace(0, s)`` as ``0 -+ s log(.)`` and ``normal(0,
    s)`` as ``0 + s z``, so ``0 + s * laplace(0, 1)`` and ``0 + s *
    normal(0, 1)`` equal them bit for bit; a staircase draw ``sign * s *
    x`` is ``s * (sign * x)``, but depends on the budget, so each drawing
    run draws its own. The one-bit randomizer's block holds its uniforms.
    """
    d = shape[-1]
    mechanism = config.mechanism
    drawing = np.flatnonzero(drawn)
    checked = _index(drawn)
    eps = eps_epoch[checked]
    budgets = eps[:, 0].tolist()
    if mechanism == "staircase":
        streams, pick = run_of[drawing], np.arange(len(drawing))
    else:   # one stream per distinct run
        streams, pick = np.unique(run_of[drawing], return_inverse=True)
    unit = np.empty((steps, len(streams), *shape[1:]))
    for i, u in enumerate(streams.tolist()):
        for row, s in enumerate(seeds[u][2:]):
            rng = np.random.default_rng(s)
            if mechanism == "laplace":
                unit[:, i, row] = laplace_sample(1.0, rng, size=(steps, d))
            elif mechanism == "gaussian":
                unit[:, i, row] = rng.normal(0.0, 1.0, size=(steps, d))
            elif mechanism == "duchi":
                unit[:, i, row] = rng.random((steps, d))
            else:
                e = budgets[i]
                gamma = config.staircase_gamma or staircase_optimal_gamma(e)
                unit[:, i, row] = [staircase_sample(e, 1.0, gamma, rng, size=d)
                                   for _ in range(steps)]
    if np.array_equal(pick, np.arange(len(streams))):
        draws = iter(unit)                                  # one per step
    else:   # streams shared by several cells are taken at each step
        draws = (u.take(pick, axis=0) for u in unit)
    if mechanism == "duchi":
        c = np.array([duchi_magnitude(e / d) for e in budgets]).reshape(-1, 1, 1)

        def add(update: np.ndarray, n_b: int, sens: None) -> None:
            # rebuild each row from its scaled sign bits; clipping keeps
            # |coord| <= h up to rounding, so clamp the last ulp away
            rows = update[checked]
            update[checked] += (
                h * duchi_bits(np.clip(rows / h, -1.0, 1.0), c, next(draws)) - rows
            )

        return add

    def scale_of(sens: np.ndarray, eps: np.ndarray) -> np.ndarray:
        if mechanism == "gaussian":
            return gaussian_sigma(eps, config.delta, sens)
        scale = sens / eps if mechanism == "laplace" else sens
        if not scale.min() > 0:
            raise NonPositiveScale(
                f"{mechanism} noise scale must be positive, got {scale.min()}"
            )
        return scale

    # the drawing rows whose scale follows the step's bound, and their budgets
    bounded = _index(reduced[checked]) if reduced.any() else None
    if bounded is not None:
        eps_bounded = eps[bounded]
    every = reduced[checked].all()
    fixed = {n_b: scale_of(sens[checked], eps) for n_b, sens in basic.items()}

    def add(update: np.ndarray, n_b: int, sens: np.ndarray | None) -> None:
        if sens is None:
            scale = fixed[n_b]
        elif every:
            scale = scale_of(sens, eps)
        else:
            scale = fixed[n_b].copy()
            scale[bounded] = scale_of(sens, eps_bounded)
        noise = scale[..., None] * next(draws)
        if mechanism != "staircase":
            noise = 0.0 + noise
        update[checked] += noise

    return add
