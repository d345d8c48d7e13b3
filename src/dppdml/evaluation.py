"""Utility evaluation of a learned metric.

Projects data through the learned transformation, scores it with a kNN
classifier trained on the individuals that appear in training pairs (all
remaining individuals form the test set), and aggregates repeated
private-training runs into accuracy-versus-budget comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dml import MetricModel, TrainConfig, train
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
    model: MetricModel,
    train_x: np.ndarray,
    train_labels,
    test_x: np.ndarray,
    test_labels,
    k: int = 5,
) -> float:
    """Fraction of test points classified correctly by projected-space kNN.

    Vote ties fall back to the nearest neighbour's label; equal distances
    prefer the lower training index.
    """
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
    p_train = project(model, train_x)
    p_test = project(model, test_x)
    # squared distances suffice for ranking
    d2 = (
        np.add.reduce(p_test**2, axis=1)[:, None]
        + np.add.reduce(p_train**2, axis=1)[None, :]
        - 2.0 * p_test @ p_train.T
    )
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]     # (n_test, k)
    neighbour_labels = y_train[nearest]
    n_test, n_classes = len(test_x), len(classes)
    cells = np.arange(n_test)[:, None] * n_classes + neighbour_labels
    votes = np.bincount(cells.ravel(), minlength=n_test * n_classes).reshape(
        n_test, n_classes
    )
    top = np.maximum.reduce(votes, axis=1)
    tied = np.add.reduce(votes == top[:, None], axis=1) > 1
    pred = np.where(tied, neighbour_labels[:, 0], votes.argmax(axis=1))
    return np.count_nonzero(pred == y_test) / n_test


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
    comparable; the privacy distance is computed once per distance notion
    and the pairs are stacked into one ``PairSet``, both reused across runs.
    A cell's runs train in one batched ``train`` call; for ``input_per``
    each run's perturbed pairs are stacked into one ``(repeats, n, d)``
    array. ``nonpriv`` ignores the budget, so it is trained once.
    Every budget must be positive (an infinite one is allowed); a bad one is
    rejected before any training.
    """
    if repeats < 1:
        raise ConfigInvalid(f"repeats must be >= 1, got {repeats}")
    for m in methods:
        if m not in METHODS:
            raise ConfigInvalid(f"unknown method {m!r}; expected one of {METHODS}")
    for epsilon in epsilons:
        if not epsilon > 0:
            raise ConfigInvalid(f"epsilon must be positive, got {epsilon}")
    pairs = PairSet.of(pairs)
    train_idx, test_idx = split_by_participation(samples, pairs)
    in_sample = len(test_idx) == 0
    if in_sample:
        test_idx = train_idx  # every individual participates; score in-sample
    if kappa_default is None:
        kappa_default = compute_kappa(graph)
    if kappa_node is None:
        kappa_node = kappa_node_dp(graph)
    train_x, train_y = samples.x[train_idx], samples.labels[train_idx]
    test_x, test_y = samples.x[test_idx], samples.labels[test_idx]

    def cell(method: str, epsilon: float) -> tuple[float, ...]:
        run_pairs = None
        if method == "input_per":
            dx = np.empty((repeats, *pairs.dx.shape))
            y = np.empty((repeats, len(pairs)), dtype=int)
            for r in range(repeats):
                rng = np.random.default_rng([1347, seed + r])
                noisy = input_perturb(pairs, epsilon, rng)
                dx[r], y[r] = noisy.dx, noisy.y
            run_pairs = (dx, y)
        models, _ = train(
            pairs, graph, _method_config(method, config, epsilon, seed),
            kappa_report=kappa_node if method == "node_dp" else kappa_default,
            repeats=repeats, run_pairs=run_pairs,
        )
        return tuple(
            knn_accuracy(model, train_x, train_y, test_x, test_y, k)
            for model in models
        )

    reports = []
    nonpriv_cache: tuple[float, ...] | None = None
    for method in methods:
        for epsilon in epsilons:
            if method == "nonpriv" and nonpriv_cache is not None:
                per_run = nonpriv_cache
            else:
                per_run = cell(method, epsilon)
            if method == "nonpriv":
                nonpriv_cache = per_run
            reports.append(ExperimentReport(method, epsilon, per_run, in_sample))
    return reports
