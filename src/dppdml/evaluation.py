"""Utility evaluation of a learned metric.

Projects data through the learned transformation, scores it with a kNN
classifier trained on the individuals that appear in training pairs (all
remaining individuals form the test set), and aggregates repeated
private-training runs into accuracy-versus-budget comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dml import OBJECTIVE_BLOCK, Cell, MetricModel, TrainConfig, row_sums, train
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyTestSet,
    EmptyTrainSet,
    NonFiniteValue,
    UnknownNode,
)
from .kappa import KappaReport, compute_kappa, kappa_node_dp
from .dataio import SampleSet
from .mechanisms import input_perturb
from .pairgraph import PairGraph, PairSet, PairwiseDatum

METHODS = ("nonpriv", "dpp", "dpp_s", "node_dp", "input_per")
#: Most bytes the runs of one stacked ``train`` call of :func:`run_experiment`
#: hold in their run-by-pair tables.
STACK_BYTES = 8 * 2**20


@dataclass(frozen=True)
class ExperimentReport:
    """Per-run accuracies of one (method, epsilon) cell, and whether they
    were scored in-sample because every individual is in a pair."""

    method: str
    epsilon: float
    per_run: tuple[float, ...]
    in_sample: bool = False

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.per_run))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.per_run))


def project(model: MetricModel, x: np.ndarray) -> np.ndarray:
    """Map samples (rows of ``x``) into the learned space."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.d:
        raise DimensionMismatch(
            f"expected an n x {model.d} matrix, got shape {x.shape}"
        )
    return x @ model.w.T


def knn_accuracy(
    model: MetricModel | Sequence[MetricModel],
    train_x: np.ndarray,
    train_labels,
    test_x: np.ndarray,
    test_labels,
    k: int = 5,
) -> float | tuple[float, ...]:
    """Fraction of test points classified correctly by projected-space kNN.

    ``model`` is one model, scored as a float, or a sequence of models,
    scored in one pass as a tuple with one accuracy each. Vote ties fall
    back to the nearest neighbour's label; equal distances prefer the lower
    training index.

    The neighbours are selected, not sorted: each row's k-th smallest
    squared distance comes from ``np.partition``, and the k nearest are the
    points strictly below it and then the lowest-index points at it, so a
    row costs O(n_train) at any ``k``. The selection is exact only for
    finite distances, so a squared distance that is NaN or infinite (a
    non-finite input, or finite ones large enough to overflow) raises
    :class:`NonFiniteValue`.

    Each squared distance is ``|p|^2 + |q|^2 - 2 p.q`` over the projections.
    A projection holds only ``d_prime`` entries, so the squared lengths of
    every model's projections are summed by :func:`dppdml.dml.row_sums`:
    column by column, in the order ``np.add.reduce`` adds them, without its
    cost per row.
    """
    single = isinstance(model, MetricModel)
    models = [model] if single else list(model)
    train_x = np.asarray(train_x, dtype=float)
    test_x = np.asarray(test_x, dtype=float)
    if len(train_x) == 0:
        raise EmptyTrainSet("kNN needs at least one training point")
    if len(test_x) == 0:
        raise EmptyTestSet("kNN accuracy needs at least one test point")
    for name, x, labels in (("train", train_x, train_labels),
                            ("test", test_x, test_labels)):
        if len(labels) != len(x):
            raise DimensionMismatch(
                f"{len(labels)} {name} labels for {len(x)} {name} points"
            )
    if not 1 <= k <= len(train_x):
        raise ConfigInvalid(f"k must lie in [1, {len(train_x)}], got {k}")
    labels = np.concatenate([np.asarray(train_labels), np.asarray(test_labels)])
    classes, codes = np.unique(labels, return_inverse=True)
    y_train, y_test = codes[: len(train_x)], codes[len(train_x) :]
    ws = np.stack([m.w for m in models])                  # (models, d_prime, d)
    for x in (train_x, test_x):
        if x.ndim != 2 or x.shape[1] != ws.shape[-1]:
            raise DimensionMismatch(
                f"expected an n x {ws.shape[-1]} matrix, got shape {x.shape}"
            )
    # each model's projections, as ``project`` computes them; an overflow
    # is reported below, as a non-finite distance
    with np.errstate(over="ignore", invalid="ignore"):
        p_train = train_x @ ws.swapaxes(-1, -2)           # (models, n_train, d_prime)
        p_test = test_x @ ws.swapaxes(-1, -2)
        sq_train = row_sums(p_train**2)[..., None, :]
        sq_test = row_sums(p_test**2)[..., :, None]
    n_test = len(test_x)
    one_hot = (y_train[:, None] == np.arange(len(classes))).astype(float)
    # the models are scored in chunks whose distance matrices hold at most
    # OBJECTIVE_BLOCK elements, or one model's where that alone is more
    chunk = max(1, OBJECTIVE_BLOCK // (n_test * len(train_x)))
    correct = []
    for part in (slice(m, m + chunk) for m in range(0, len(models), chunk)):
        # squared distances suffice for ranking
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = sq_test[part] + sq_train[part] - 2.0 * p_test[part] @ p_train[part].swapaxes(-1, -2)
        if not np.isfinite(d2).all():
            raise NonFiniteValue(
                "kNN distances are not finite: the features or the model hold "
                "NaN or infinity, or are large enough to overflow"
            )
        kth = np.partition(d2, k - 1, axis=-1)[..., k - 1, None]
        nearest = d2 <= kth
        # a row with more than k points at or below its k-th distance keeps
        # only the lowest-index ties at that distance, as a stable sort does
        extra = np.count_nonzero(nearest, axis=-1) - k
        if extra.any():
            at = d2 == kth
            kept = np.count_nonzero(at, axis=-1) - extra
            nearest &= ~at | (np.cumsum(at, axis=-1) <= kept[..., None])
        votes = nearest.astype(float) @ one_hot              # (chunk, n_test, classes)
        top = np.maximum.reduce(votes, axis=-1)
        tied = np.add.reduce(votes == top[..., None], axis=-1) > 1
        # argmin takes the first minimum: the nearest point of lowest index
        pred = np.where(tied, y_train[np.argmin(d2, axis=-1)], votes.argmax(axis=-1))
        correct += np.count_nonzero(pred == y_test, axis=-1).tolist()
    accuracy = [c / n_test for c in correct]
    return accuracy[0] if single else tuple(accuracy)


def split_by_participation(
    samples: SampleSet, pairs: PairSet
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of pair participants (train) and everyone else (test)."""
    return split_by_ids(samples, set(pairs.i) | set(pairs.j))


def split_by_ids(samples: SampleSet, ids) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of the samples with the given ids (train) and of everyone
    else (test). Raises :class:`UnknownNode` for an id no sample has."""
    index = samples.index_of()
    mask = np.zeros(len(samples), dtype=bool)
    for i in ids:
        if i not in index:
            raise UnknownNode(f"id {i!r} is not among the samples")
        mask[index[i]] = True
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def _method_config(
    method: str, base: TrainConfig, epsilon: float, seed: int
) -> TrainConfig:
    if method == "nonpriv" or method == "input_per":
        return replace(base, mechanism="none", seed=seed)
    if method in ("dpp", "dpp_s", "node_dp"):
        return replace(
            base, mechanism="laplace",
            sensitivity_mode="reduced" if method == "dpp_s" else "basic",
            epsilon=epsilon, seed=seed,
        )
    raise ConfigInvalid(f"unknown method {method!r}; expected one of {METHODS}")


def run_experiment(
    samples: SampleSet,
    pairs: PairSet | list[PairwiseDatum],
    graph: PairGraph,
    methods,
    epsilons,
    repeats: int,
    config: TrainConfig,
    seed: int = 0,
    k: int = 5,
    kappa_default: KappaReport | None = None,
    kappa_node: KappaReport | None = None,
) -> list[ExperimentReport]:
    """Train ``repeats`` models per (method, epsilon) cell and score each.

    Seeds run ``seed + 0 .. seed + repeats - 1`` so cells are directly
    comparable; the privacy distance is computed once per distinct notion
    and the pairs are stacked into one ``PairSet``, both reused across runs.
    ``nonpriv`` ignores the budget, so it is trained once. Every run of
    every cell advances in one stacked ``train`` loop, taken in blocks of
    runs that hold at most :data:`STACK_BYTES` in their run-by-pair tables:
    each run's row of pair indices, and each ``input_per`` run's own
    perturbed pairs. Those are drawn with their block, once per run for
    every budget in the block that trains it, as the ``PairSet``s that
    :func:`input_perturb` checks and ``train`` takes as they are. A cell's
    models are scored in one ``knn_accuracy`` call. Every budget must be
    positive (an infinite one is allowed) and ``k`` must lie between 1 and
    the number of training individuals; a bad one is rejected before any
    training.
    """
    if repeats < 1:
        raise ConfigInvalid(f"repeats must be >= 1, got {repeats}")
    if seed < 0:
        raise ConfigInvalid(f"seed must be >= 0, got {seed}")
    for m in methods:
        if m not in METHODS:
            raise ConfigInvalid(f"unknown method {m!r}; expected one of {METHODS}")
    for epsilon in epsilons:
        if not epsilon > 0:
            raise ConfigInvalid(f"epsilon must be positive, got {epsilon}")
    pairs = PairSet.of(pairs)
    train_idx, test_idx = split_by_participation(samples, pairs)
    if not 1 <= k <= len(train_idx):
        raise ConfigInvalid(f"k must lie in [1, {len(train_idx)}], got {k}")
    in_sample = len(test_idx) == 0
    if in_sample:
        test_idx = train_idx  # every individual participates; score in-sample
    if kappa_default is None:
        kappa_default = compute_kappa(graph)
    if kappa_node is None:
        kappa_node = kappa_node_dp(graph)
    train_x, train_y = samples.x[train_idx], samples.labels[train_idx]
    test_x, test_y = samples.x[test_idx], samples.labels[test_idx]

    keys = [(m, e) for m in methods for e in epsilons]
    # the cell each report reads: nonpriv ignores the budget, so it trains once
    cell_of = [(m, math.inf if m == "nonpriv" else e) for m, e in keys]
    grid = list(dict.fromkeys(cell_of))

    models: list[list[MetricModel]] = [[] for _ in grid]
    # a block maps each of its cells to the runs it takes; it is cut where
    # its runs would hold more than STACK_BYTES in the run-by-pair tables:
    # train's row of pair indices for every run, and an input_per run's own
    # features and labels
    row = np.dtype(np.intp).itemsize * len(pairs)
    own = row + pairs.dx.nbytes + pairs.y.nbytes
    blocks: list[dict[int, list[int]]] = [{}]
    held = 0
    for c in range(len(grid)):
        size = own if grid[c][0] == "input_per" else row
        for r in range(repeats):
            if blocks[-1] and held + size > STACK_BYTES:
                blocks.append({})
                held = 0
            blocks[-1].setdefault(c, []).append(r)
            held += size
    for block in blocks:
        # an input_per run is perturbed once for every budget that trains it
        by_runs: dict[tuple[int, ...], list[int]] = {}
        for c, runs in block.items():
            if grid[c][0] == "input_per":
                by_runs.setdefault(tuple(runs), []).append(c)
        # run r perturbs with the stream [1347, seed + r]; a cell takes its
        # budget's set of each run
        run_pairs = {}
        for runs, cells in by_runs.items():
            budgets = [grid[c][1] for c in cells]
            rngs = (np.random.default_rng([1347, seed + r]) for r in runs)
            noisy = [input_perturb(pairs, budgets, rng) for rng in rngs]
            run_pairs.update(zip(cells, zip(*noisy)))
        stack = [
            Cell(
                _method_config(grid[c][0], config, grid[c][1], seed),
                kappa_node if grid[c][0] == "node_dp" else kappa_default,
                runs,
                run_pairs.get(c),
            )
            for c, runs in block.items()
        ]
        trained, _ = train(pairs, graph, stack)
        for c, cell_models in zip(block, trained):
            models[c].extend(cell_models)

    accuracy = {
        key: knn_accuracy(cell_models, train_x, train_y, test_x, test_y, k)
        for key, cell_models in zip(grid, models)
    }
    return [
        ExperimentReport(method, epsilon, accuracy[key], in_sample)
        for (method, epsilon), key in zip(keys, cell_of)
    ]

