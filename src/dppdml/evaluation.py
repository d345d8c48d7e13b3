"""Utility evaluation of a learned metric.

Projects data through the learned transformation, scores it with a kNN
classifier trained on the individuals that appear in training pairs (all
remaining individuals form the test set), and aggregates repeated
private-training runs into accuracy-versus-budget comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import groupby
from operator import itemgetter
from typing import Sequence

import numpy as np

from .dml import OBJECTIVE_BLOCK, Cell, MetricModel, TrainConfig, train
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    EmptyTestSet,
    EmptyTrainSet,
    UnknownNode,
)
from .kappa import KappaReport, compute_kappa, kappa_node_dp
from .dataio import SampleSet
from .mechanisms import input_perturb
from .pairgraph import PairGraph, PairSet, PairwiseDatum

METHODS = ("nonpriv", "dpp", "dpp_s", "node_dp", "input_per")


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
    # each model's projections, as ``project`` computes them
    p_train = train_x @ ws.swapaxes(-1, -2)               # (models, n_train, d_prime)
    p_test = test_x @ ws.swapaxes(-1, -2)
    sq_train = np.add.reduce(p_train**2, axis=-1)[..., None, :]
    sq_test = np.add.reduce(p_test**2, axis=-1)[..., :, None]
    n_test, n_classes = len(test_x), len(classes)
    # the models are scored in chunks whose distance matrices hold at most
    # OBJECTIVE_BLOCK elements, or one model's where that alone is more
    chunk = max(1, OBJECTIVE_BLOCK // (n_test * len(train_x)))
    correct = []
    for part in (slice(m, m + chunk) for m in range(0, len(models), chunk)):
        # squared distances suffice for ranking
        d2 = sq_test[part] + sq_train[part] - 2.0 * p_test[part] @ p_train[part].swapaxes(-1, -2)
        nearest = np.argsort(d2, axis=-1, kind="stable")[..., :k]
        neighbour_labels = y_train[nearest]                 # (chunk, n_test, k)
        rows = len(d2) * n_test
        cells = np.arange(rows).reshape(len(d2), n_test, 1) * n_classes + neighbour_labels
        votes = np.bincount(cells.ravel(), minlength=rows * n_classes).reshape(
            len(d2), n_test, n_classes
        )
        top = np.maximum.reduce(votes, axis=-1)
        tied = np.add.reduce(votes == top[..., None], axis=-1) > 1
        pred = np.where(tied, neighbour_labels[..., 0], votes.argmax(axis=-1))
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
    runs whose per-step temporaries hold at most ``OBJECTIVE_BLOCK``
    elements. A block holds at most ``repeats`` ``input_per`` runs, whose
    perturbed pairs are drawn with it, so it holds no more perturbed pair
    sets than one cell. A cell's models are scored in one ``knn_accuracy`` call. Every
    budget must be positive (an infinite one is allowed) and ``k`` must lie
    between 1 and the number of training individuals; a bad one is rejected
    before any training.
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
    runs = [(c, r) for c in range(len(grid)) for r in range(repeats)]
    own = [run for run in runs if grid[run[0]][0] == "input_per"]
    shared = [run for run in runs if grid[run[0]][0] != "input_per"]
    block = max(1, OBJECTIVE_BLOCK // (config.d_prime * config.batch_size))
    while own or shared:
        # a block takes at most as many runs with their own pairs as one
        # cell has, then fills up with runs on the shared pairs
        cut = min(repeats, block)
        taken, own = own[:cut], own[cut:]
        cut = block - len(taken)
        taken, shared = sorted(taken + shared[:cut]), shared[cut:]
        owners, stack = [], []
        for c, group in groupby(taken, key=itemgetter(0)):
            method, epsilon = grid[c]
            taken = [r for _, r in group]
            owners.append(c)
            stack.append(Cell(
                _method_config(method, config, epsilon, seed),
                kappa_node if method == "node_dp" else kappa_default,
                taken,
                _perturbed(pairs, epsilon, seed, taken)
                if method == "input_per" else None,
            ))
        trained, _ = train(pairs, graph, stack)
        for c, cell_models in zip(owners, trained):
            models[c].extend(cell_models)

    accuracy = {
        key: knn_accuracy(cell_models, train_x, train_y, test_x, test_y, k)
        for key, cell_models in zip(grid, models)
    }
    return [
        ExperimentReport(method, epsilon, accuracy[key], in_sample)
        for (method, epsilon), key in zip(keys, cell_of)
    ]


def _perturbed(
    pairs: PairSet, epsilon: float, seed: int, runs: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The input-perturbed feature differences and labels of each run in
    ``runs``, stacked as ``(len(runs), n, d)`` and ``(len(runs), n)``; run
    ``r`` perturbs with the stream ``[1347, seed + r]``."""
    dx = np.empty((len(runs), *pairs.dx.shape))
    y = np.empty((len(runs), len(pairs)), dtype=int)
    for i, r in enumerate(runs):
        noisy = input_perturb(pairs, epsilon, np.random.default_rng([1347, seed + r]))
        dx[i], y[i] = noisy.dx, noisy.y
    return dx, y
