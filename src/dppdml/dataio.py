"""Dataset generation and ingestion.

Covers the synthetic two-strip benchmark, per-sample norm capping, pair
sampling at a controlled graph density, class rebalancing, and CSV
ingestion for externally prepared datasets (categorical columns must be
pre-encoded numerically).
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigInvalid,
    InfeasibleBalance,
    InfeasibleDensity,
    MissingLabelColumn,
    ParseError,
)
from .pairgraph import (PairSet, _float_matrix, _node_ids, _nonblank, _parse_features,
                        _parse_node_id, _write_table)

logger = logging.getLogger(__name__)

# Toy strip geometry: two parallel Gaussian strips, long axis along x,
# offset along y. Scaled so typical samples already satisfy the l1 cap, the
# gap direction dominates the dissimilar-pair differences (so the hinge
# stretches the right axis), and projected distances can actually reach a
# unit margin within a short training run.
TOY_MEAN_A = (0.08, 0.08)
TOY_MEAN_B = (0.08, 0.78)
TOY_STD = (0.035, 0.012)
TOY_SEPARATION_RATIO = (TOY_MEAN_B[1] - TOY_MEAN_A[1]) / TOY_STD[1]

#: Per-sample l1 cap after normalisation (kept strictly below 1).
L1_CAP = 1.0 - 1e-6

#: Endpoint indices :func:`sample_pairs` draws at a time, two per pair.
_DRAW_BLOCK = 1024


@dataclass
class SampleSet:
    """Feature matrix with class labels and node ids, one row per individual."""

    x: np.ndarray
    labels: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.labels = np.asarray(self.labels)
        self.ids = np.asarray(self.ids)
        if not (len(self.x) == len(self.labels) == len(self.ids)):
            raise ValueError(
                f"inconsistent lengths: {len(self.x)} rows, "
                f"{len(self.labels)} labels, {len(self.ids)} ids"
            )

    def __len__(self) -> int:
        return len(self.x)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def index_of(self) -> dict:
        return {i: k for k, i in enumerate(self.ids.tolist())}


def _rng(seed: int) -> np.random.Generator:
    """The generator of ``seed``, which must be non-negative."""
    if seed < 0:
        raise ConfigInvalid(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def synth_two_gaussians(n_per_class: int, seed: int = 0) -> SampleSet:
    """Two anisotropic Gaussian strips with parallel major axes."""
    if n_per_class < 1:
        raise ConfigInvalid(f"n_per_class must be >= 1, got {n_per_class}")
    rng = _rng(seed)
    a = rng.normal(TOY_MEAN_A, TOY_STD, size=(n_per_class, 2))
    b = rng.normal(TOY_MEAN_B, TOY_STD, size=(n_per_class, 2))
    x = np.vstack([a, b])
    labels = np.concatenate(
        [np.zeros(n_per_class, dtype=int), np.ones(n_per_class, dtype=int)]
    )
    ids = np.arange(2 * n_per_class)
    return SampleSet(x, labels, ids)


def normalize(samples: SampleSet, mode: str = "l1") -> SampleSet:
    """Cap each row's norm (l1 strictly below 1, l2 at 1); idempotent.

    Rows already inside the cap pass through unchanged; all-zero rows stay
    zero with a warning.
    """
    if mode not in ("l1", "l2"):
        raise ConfigInvalid(f"mode must be 'l1' or 'l2', got {mode!r}")
    x = samples.x.copy()
    cap = L1_CAP if mode == "l1" else 1.0
    norm_of = (
        (lambda m: np.abs(m).sum(axis=1))
        if mode == "l1"
        else (lambda m: np.linalg.norm(m, axis=1))
    )
    norms = norm_of(x)
    if np.any(norms == 0):
        logger.warning(
            "normalize: %d all-zero rows left unscaled", int(np.sum(norms == 0))
        )
    # a second pass absorbs one-ulp overshoot so the operation is idempotent
    while True:
        over = norms > cap
        if not np.any(over):
            break
        x[over] *= (cap / norms[over])[:, None]
        norms = norm_of(x)
    return SampleSet(x, samples.labels.copy(), samples.ids.copy())


def _pairs_between(samples: SampleSet, rows) -> PairSet:
    """Pairs between the row indices ``(a, b)`` of each entry of ``rows``, as
    one ``PairSet``: ``dx = x[a] - x[b]`` and label 0 iff same class."""
    a, b = np.array(rows, dtype=int).reshape(-1, 2).T
    return PairSet(
        samples.ids[a].tolist(),
        samples.ids[b].tolist(),
        samples.x[a] - samples.x[b],
        samples.labels[a] != samples.labels[b],
    )


def sample_pairs(
    samples: SampleSet,
    density: float,
    balance: bool = False,
    seed: int = 0,
) -> PairSet:
    """Uniformly sample unordered pairs until edges-per-participant hits
    ``density``, returned as one ``PairSet`` in sampling order.

    The participant count only includes individuals that appear in some
    sampled pair. With ``balance`` the same- and different-class pair counts
    are kept equal. Each pair runs from its lower row index to its higher.
    """
    n = len(samples)
    if n < 2 or density > (n - 1) / 2:
        raise InfeasibleDensity(
            f"density {density} infeasible for {n} samples "
            f"(max {(n - 1) / 2 if n >= 2 else 0})"
        )
    if not density > 0:
        raise InfeasibleDensity(f"density must be positive, got {density}")
    rng = _rng(seed)
    labels = samples.labels.tolist()
    total_possible = n * (n - 1) // 2
    seen: set[tuple[int, int]] = set()
    skipped: set[tuple[int, int]] = set()
    chosen: list[tuple[int, int]] = []
    nodes: set[int] = set()
    counts = [0, 0]

    def satisfied() -> bool:
        if not chosen:
            return False
        if balance and counts[0] != counts[1]:
            return False
        return len(chosen) >= round(density * len(nodes))

    def draws():
        # ``rng.integers(n, size=k)`` returns the values of k scalar calls,
        # so a block of draws, read two at a time, gives the same pairs
        while True:
            block = rng.integers(n, size=_DRAW_BLOCK).tolist()
            yield from zip(block[::2], block[1::2])

    candidates = draws()
    while not satisfied():
        if len(seen) + len(skipped) >= total_possible:
            if balance and counts[0] != counts[1]:
                raise InfeasibleBalance(
                    f"ran out of pairs at counts {counts[0]}/{counts[1]}"
                )
            raise InfeasibleDensity(
                f"exhausted all {total_possible} pairs before reaching "
                f"density {density}"
            )
        a, b = next(candidates)
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key in seen or key in skipped:
            continue
        y = 0 if labels[key[0]] == labels[key[1]] else 1
        if balance and counts[y] > counts[1 - y]:
            skipped.add(key)
            continue
        seen.add(key)
        chosen.append(key)
        counts[y] += 1
        nodes.update(key)
        skipped.clear()  # class eligibility may have flipped
    return _pairs_between(samples, chosen)


def toy_pairs(
    samples: SampleSet,
    intra_per_class: int = 50,
    inter: int = 50,
    seed: int = 0,
) -> PairSet:
    """Acyclic toy pair selection, as one ``PairSet``: a chain inside each
    class plus an inter-class star.

    The star centre is the first-class sample closest to its class mean
    (an off-centre hub would tilt every inter-class difference along the
    strip axis); one spoke joins the other class's chain and the rest
    attach fresh nodes, so the whole selection stays a forest (privacy
    distance 1).
    """
    classes = sorted(set(samples.labels.tolist()))
    if len(classes) != 2:
        raise InfeasibleDensity(
            f"toy selection needs exactly 2 classes, got {len(classes)}"
        )
    rng = _rng(seed)
    idx_a = np.flatnonzero(samples.labels == classes[0])
    idx_b = np.flatnonzero(samples.labels == classes[1])
    if len(idx_a) < intra_per_class + 1:
        raise InfeasibleDensity(
            f"class {classes[0]!r} needs {intra_per_class + 1} samples for the chain"
        )
    if len(idx_b) < intra_per_class + inter:
        raise InfeasibleDensity(
            f"class {classes[1]!r} needs {intra_per_class + inter} samples "
            "for the chain plus fresh star targets"
        )
    mean_a = samples.x[idx_a].mean(axis=0)
    centre = int(idx_a[np.argmin(np.linalg.norm(samples.x[idx_a] - mean_a, axis=1))])
    perm_a = np.concatenate(
        [[centre], rng.permutation([i for i in idx_a if i != centre])]
    )
    perm_b = rng.permutation(idx_b)
    chains = [(p[k], p[k + 1]) for k in range(intra_per_class)
              for p in (perm_a, perm_b)]
    targets = [perm_b[0]] + list(perm_b[intra_per_class + 1 : intra_per_class + inter])
    return _pairs_between(samples, chains + [(centre, t) for t in targets])


# --- samples CSV ------------------------------------------------------------
#
# Header row required: optional id column, a named label column, remaining
# columns are numeric features.


def load_csv(
    path,
    label_col: str = "label",
    id_col: str = "id",
    delimiter: str = ",",
) -> SampleSet:
    """Load samples from delimited text with a header row, a whole column at
    a time. Blank rows are skipped; in a faulty file the earliest faulty row
    raises :class:`ParseError` (a repeated id names the row that first gave
    it, and a NaN or infinite feature its column).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    if not rows:
        raise ParseError("empty samples file", row=1)
    header = [c.strip() for c in rows[0]]
    if label_col not in header:
        raise MissingLabelColumn(f"samples file lacks label column {label_col!r} "
                                 f"(columns: {header})")
    label_idx = header.index(label_col)
    id_idx = header.index(id_col) if id_col in header else None
    feat_idx = [k for k in range(len(header)) if k != label_idx and k != id_idx]
    kept = _nonblank(rows, start=1)
    if not kept:
        raise ParseError("samples file has a header but no data rows", row=2)
    body = list(map(rows.__getitem__, kept))
    try:
        if set(map(len, body)) != {len(header)}:
            raise ValueError("a row of the wrong width")
        cols = list(zip(*body))
        x = _float_matrix([cols[k] for k in feat_idx], len(kept))
        if not np.isfinite(x).all():
            raise ValueError("a feature is NaN or infinite")
        try:
            labels = list(map(float, cols[label_idx]))
            if not all(map(float.is_integer, labels)):
                raise ValueError("a label is not an integer")
            labels = list(map(int, labels))
        except ValueError:  # text, or a number that is not an integer
            labels = list(map(_parse_label, cols[label_idx]))
        # without an id column a row's id is its line number less 2
        ids = [k - 1 for k in kept] if id_idx is None else _node_ids(cols[id_idx])
        if len(set(ids)) < len(ids):
            raise ValueError("an id repeats")
    except ValueError:
        _raise_faulty_row(rows, header, label_idx, id_idx, feat_idx)
        raise
    # mixed int and str ids stay as parsed: numpy would make them all str
    mixed = len(set(map(type, ids))) > 1
    return SampleSet(x, np.array(labels), np.array(ids, dtype=object if mixed else None))


def _parse_label(cell: str, rownum: int = 0, col: int = 0):
    """Integer class label, or the stripped text of a non-numeric one."""
    cell = cell.strip()
    try:
        value = float(cell)
    except ValueError:
        return cell
    if not value.is_integer():
        raise ParseError(f"row {rownum}, col {col}: label {cell!r} is not an integer",
                         row=rownum, col=col)
    return int(value)


def _raise_faulty_row(rows, header, label_idx, id_idx, feat_idx) -> None:
    """Raise the :class:`ParseError` of a samples file's earliest faulty row."""
    first_row: dict = {}  # id -> the row that first gave it
    for rownum, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        features = _parse_features(row, rownum, len(header), feat_idx)
        for c, value in zip(feat_idx, features):
            if not math.isfinite(value):
                raise ParseError(f"row {rownum}, col {c + 1}: feature {row[c]!r} is "
                                 "not finite", row=rownum, col=c + 1)
        _parse_label(row[label_idx], rownum, label_idx + 1)
        if id_idx is not None:
            node_id = _parse_node_id(row[id_idx])
            if node_id in first_row:
                raise ParseError(f"row {rownum}, col {id_idx + 1}: id {node_id!r} "
                                 f"repeats row {first_row[node_id]}",
                                 row=rownum, col=id_idx + 1)
            first_row[node_id] = rownum


def save_samples_csv(path, samples: SampleSet, delimiter: str = ",") -> None:
    """Write samples in the format ``load_csv`` accepts."""
    _write_table(path, ["id", "label"] + [f"f{k + 1}" for k in range(samples.dim)],
                 [samples.ids, samples.labels, *samples.x.T], delimiter)
