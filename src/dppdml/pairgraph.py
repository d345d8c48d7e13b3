"""Undirected graph model of a pairwise dataset.

Every labelled pair (feature difference + same/different flag) becomes an
edge between its two participants. The privacy distance depends only on
that structure, so the graph keeps the node ids and one adjacency, not the
pairs; the structural queries the privacy-distance computation needs
(degrees, components, removal effects) live here. Graphs are immutable, so
all queries are safe to run concurrently.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from itertools import chain, compress
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    DuplicateEdge,
    ParseError,
    SelfLoop,
    UnknownNode,
)

NodeId = str | int

RELATION_KINDS = ("transitive", "intransitive")


@dataclass(frozen=True, eq=False)
class PairwiseDatum:
    """One labelled pair: participants i, j; feature difference; binary label.

    ``y == 0`` marks a same-class pair, ``y == 1`` a different-class pair.
    """

    i: NodeId
    j: NodeId
    delta_x: np.ndarray
    y: int

    def __post_init__(self):
        if self.i == self.j:
            raise SelfLoop(f"pair ({self.i}, {self.j}) is a self-loop")
        if self.y not in (0, 1):
            raise ValueError(f"pair label must be 0 or 1, got {self.y!r}")
        dx = np.asarray(self.delta_x, dtype=float)
        if dx.ndim != 1:
            raise DimensionMismatch(f"delta_x must be 1-D, got shape {dx.shape}")
        if not np.all(np.isfinite(dx)):
            raise ValueError(f"pair ({self.i}, {self.j}) has non-finite features")
        if dx.flags.writeable:  # freeze a copy, never the caller's array
            dx = dx.copy()
            dx.setflags(write=False)
        object.__setattr__(self, "delta_x", dx)
        object.__setattr__(self, "y", int(self.y))

    @property
    def dim(self) -> int:
        return self.delta_x.shape[0]


@dataclass(frozen=True, eq=False)
class PairSet:
    """Labelled pairs as columns: endpoint ids ``i`` and ``j``, the read-only
    ``(n, d)`` feature-difference matrix ``dx`` and the labels ``y``.

    The whole matrix is validated once, with the errors ``PairwiseDatum``
    raises for the first faulty pair. Length, indexing and iteration follow
    the pair sequence and yield ``PairwiseDatum`` rows.
    """

    i: tuple[NodeId, ...]
    j: tuple[NodeId, ...]
    dx: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        i, j = tuple(self.i), tuple(self.j)
        if not isinstance(self.dx, np.ndarray):
            shapes = [np.shape(row) for row in self.dx]
            for k, shape in enumerate(shapes):
                if shape != shapes[0]:
                    raise DimensionMismatch(
                        f"pair ({i[k]}, {j[k]}) has feature shape {shape}, "
                        f"expected {shapes[0]}"
                    )
        dx = np.array(self.dx, dtype=float, order="C")  # the set's own copy
        if dx.ndim != 2:
            raise DimensionMismatch(f"dx must be 2-D, got shape {dx.shape}")
        y = np.array(self.y)
        if not len(i) == len(j) == len(y) == len(dx):
            raise DimensionMismatch(
                f"columns disagree in length: {len(i)} i, {len(j)} j, "
                f"{len(y)} y, {len(dx)} dx rows"
            )
        k = _first_fault(i, j, dx, y)
        if k >= 0:
            PairwiseDatum(i[k], j[k], dx[k], y.tolist()[k])  # raises its error
        self._keep(i, j, dx, y)

    def _keep(self, i: tuple, j: tuple, dx: np.ndarray, y: np.ndarray) -> None:
        """Hold checked columns, with the labels as ints and both arrays
        read-only; ``dx`` and ``y`` become the set's own, so they must not be
        shared."""
        y = y.astype(int, copy=False)
        dx.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "y", y)

    def with_values(self, dx, y) -> "PairSet":
        """These pairs with the feature differences ``dx`` and labels ``y`` in
        place of their own, as a new set.

        The endpoints were checked when this set was made, so the new set
        shares its ``i``/``j`` tuples and compares no endpoints; only the
        labels and features are checked, vectorized, and the first faulty
        pair raises the error ``PairwiseDatum`` raises for it."""
        return self._derived(np.array(dx, dtype=float, order="C"), np.array(y))

    def _derived(self, dx: np.ndarray, y: np.ndarray) -> "PairSet":
        """:meth:`with_values` on arrays the new set may keep as its own: a
        C-ordered float ``dx`` and a ``y`` that nothing else holds."""
        if dx.shape != self.dx.shape or y.shape != self.y.shape:
            raise DimensionMismatch(
                f"new columns must have shapes {self.dx.shape} and "
                f"{self.y.shape}, got {dx.shape} and {y.shape}"
            )
        if not (np.isfinite(dx).all() and ((y == 0) | (y == 1)).all()):
            k = int(np.argmax(_value_faults(dx, y)))
            PairwiseDatum(self.i[k], self.j[k], dx[k], y.tolist()[k])  # raises
        derived = object.__new__(PairSet)
        derived._keep(self.i, self.j, dx, y)
        return derived

    @classmethod
    def of(cls, pairs: "Sequence[PairwiseDatum] | PairSet") -> "PairSet":
        """``pairs`` itself if it is a ``PairSet``, else its datums stacked."""
        if isinstance(pairs, PairSet):
            return pairs
        pairs = list(pairs)
        return cls(
            [p.i for p in pairs],
            [p.j for p in pairs],
            [p.delta_x for p in pairs] if pairs else np.empty((0, 0)),
            [p.y for p in pairs],
        )

    @property
    def dim(self) -> int:
        return self.dx.shape[1]

    def __len__(self) -> int:
        return len(self.i)

    def __getitem__(self, k: int) -> PairwiseDatum:
        k = operator.index(k)
        return PairwiseDatum(self.i[k], self.j[k], self.dx[k], int(self.y[k]))

    def __iter__(self) -> Iterator[PairwiseDatum]:
        return (self[k] for k in range(len(self)))


def _value_faults(dx: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per pair, whether its label is not 0 or 1 or a feature is not finite."""
    return ~((y == 0) | (y == 1)) | ~np.isfinite(dx).all(axis=1)


def _first_fault(i: Sequence, j: Sequence, dx: np.ndarray, y: np.ndarray) -> int:
    """Index of the first pair that ``PairwiseDatum`` rejects, or -1."""
    faulty = np.fromiter(map(operator.eq, i, j), bool, len(i)) | _value_faults(dx, y)
    return int(np.argmax(faulty)) if faulty.any() else -1


class PairGraph:
    """Simple undirected graph with one edge per row of ``PairSet.of(pairs)``.

    Node ids are opaque; internally they are normalised to dense indices in
    order of first appearance in the ``i``/``j`` columns, then
    ``extra_nodes``, which fixes all tie-breaking (flow augmenting order,
    reductions) deterministically for a given input order. The graph keeps
    the id order and index, the edge count and one adjacency: per node, its
    neighbours' indices in ascending order, as a tuple of tuples.
    """

    def __init__(
        self,
        pairs: PairSet | Sequence[PairwiseDatum],
        relation_kind: str = "transitive",
        extra_nodes: Iterable[NodeId] = (),
    ):
        if relation_kind not in RELATION_KINDS:
            raise ConfigInvalid(
                f"relation_kind must be one of {RELATION_KINDS}, got {relation_kind!r}"
            )
        self.relation_kind = relation_kind
        pairs = PairSet.of(pairs)  # stacked only to validate; not kept
        index: dict[NodeId, int] = {}
        for n in (*chain.from_iterable(zip(pairs.i, pairs.j)), *extra_nodes):
            index.setdefault(n, len(index))
        self._index = index
        self._order: list[NodeId] = list(index)
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in self._order]
        for u, v in zip(pairs.i, pairs.j):
            a, b = index[u], index[v]
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise DuplicateEdge(f"duplicate pair on ({u}, {v})")
            seen.add(key)
            adj[a].append(b)
            adj[b].append(a)
        self._adj = tuple(tuple(sorted(nb)) for nb in adj)
        self.num_edges = len(seen)

    # --- basic accessors -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._order)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbour indices of every node, ascending; read-only."""
        return self._adj

    def nodes(self) -> list[NodeId]:
        return list(self._order)

    def node_index(self, n: NodeId) -> int:
        try:
            return self._index[n]
        except KeyError:
            raise UnknownNode(f"node {n!r} not in graph") from None

    def node_id(self, idx: int) -> NodeId:
        return self._order[idx]

    def edge_keys(self) -> list[tuple[NodeId, NodeId]]:
        """Each edge as ids ``(u, v)``, ``u`` first in index order, sorted by
        the index pair."""
        return [
            (self._order[a], self._order[b])
            for a, nbrs in enumerate(self._adj) for b in nbrs if a < b
        ]

    # --- structural queries ----------------------------------------------

    def degree(self, n: NodeId) -> int:
        """Number of edges incident to ``n``."""
        return len(self._adj[self.node_index(n)])

    def component_count(self) -> int:
        """Number of connected components, counting isolated nodes."""
        return len(self.components())

    def components(self) -> list[list[int]]:
        """Connected components as sorted index lists, ordered by smallest
        member: the DFS root that :meth:`_articulation_dfs` records."""
        comps: dict[int, list[int]] = {}
        for v, root in enumerate(self._articulation_dfs()[2]):
            comps.setdefault(root, []).append(v)
        return list(comps.values())

    def removal_effects(self) -> tuple[list[int], set[tuple[int, int]]]:
        """What deleting a node or an edge does, from one depth-first search
        (Hopcroft & Tarjan, 1973; Tarjan, 1974) in O(|V| + |E|).

        Returns, by node index, how many components deleting each node (with
        its edges) adds, and the bridges: the edges, as index keys ``(a, b)``
        with ``a < b``, whose deletion splits their component.
        """
        return self._articulation_dfs()[:2]

    def _articulation_dfs(self) -> tuple[list[int], set[tuple[int, int]], list[int]]:
        """:meth:`removal_effects`, plus each node's component, named by the
        index of its DFS root (its smallest member).

        A non-root node splits off one piece per DFS child ``c`` with
        ``low[c] >= disc[v]``: nothing below ``c`` reaches above ``v``. A
        root's children are its pieces, so it scores ``children - 1``; an
        isolated node scores 0. The tree edge to ``c`` is a bridge when
        ``low[c] > disc[v]``: nothing below ``c`` reaches ``v`` either. The
        search keeps its own stack, so long paths cannot exhaust Python's
        recursion limit.
        """
        n = self.num_nodes
        adj = self._adj
        disc = [0] * n  # discovery time from 1; 0 marks unvisited
        low = [0] * n
        parent = [-1] * n
        increase = [0] * n
        root_of = list(range(n))
        bridges: set[tuple[int, int]] = set()
        time = 0
        for root in range(n):
            if disc[root]:
                continue
            time += 1
            disc[root] = low[root] = time
            stack = [(root, iter(adj[root]))]
            while stack:
                v, nbrs = stack[-1]
                for w in nbrs:
                    if not disc[w]:
                        time += 1
                        disc[w] = low[w] = time
                        parent[w] = v
                        root_of[w] = root
                        stack.append((w, iter(adj[w])))
                        break
                    if w != parent[v] and disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    stack.pop()
                    u = parent[v]
                    if u >= 0:
                        if low[v] < low[u]:
                            low[u] = low[v]
                        if low[v] >= disc[u]:
                            increase[u] += 1
                            if low[v] > disc[u]:
                                bridges.add((u, v) if u < v else (v, u))
            # every child of the root passes the test above: one piece each
            increase[root] = max(0, increase[root] - 1)
        return increase, bridges, root_of


def build_graph(
    pairs: PairSet | Sequence[PairwiseDatum],
    relation_kind: str = "transitive",
    extra_nodes: Iterable[NodeId] = (),
) -> PairGraph:
    """Build the pair graph for a dataset.

    Validates a ``PairSet`` or a stacked datum list, then reads only the
    ``i``/``j`` columns: the graph keeps no reference to the pairs. Rejects
    self-loops, duplicate unordered pairs, and mixed feature dimensions.
    ``extra_nodes`` adds individuals that appear in no pair; they stay
    isolated and never affect the privacy distance.
    """
    return PairGraph(pairs, relation_kind, extra_nodes=extra_nodes)


# --- pairs file format ----------------------------------------------------
#
# One row per pair: i, j, y, dx_1, ..., dx_d. Header row optional.


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _looks_like_header(row: Sequence[str]) -> bool:
    """A header names its columns: no cell from column 3 on is a number."""
    return len(row) >= 4 and all(_number(c) is None for c in row[2:])


def _parse_node_id(cell: str) -> NodeId:
    cell = cell.strip()
    try:
        return int(cell)
    except ValueError:
        return cell


def _node_ids(cells: Sequence[str]) -> list[NodeId]:
    """A column of ids: ints if every cell is one, else :func:`_parse_node_id`'s."""
    try:
        return list(map(int, cells))
    except ValueError:
        return list(map(_parse_node_id, cells))


def _nonblank(rows: list[list[str]], start: int = 0) -> list[int]:
    """Indices, from ``start`` on, of the rows with a cell that is not blank."""
    nonblank = map(str.strip, map("".join, rows[start:]))
    return list(compress(range(start, len(rows)), nonblank))


def _float_matrix(columns: Sequence[Sequence[str]], n: int) -> np.ndarray:
    """The C-ordered ``(n, len(columns))`` matrix of the cells read by ``float``."""
    flat = np.fromiter(map(float, chain.from_iterable(columns)), float, n * len(columns))
    return np.ascontiguousarray(flat.reshape(len(columns), n).T)


def _parse_features(row: Sequence[str], rownum: int, width: int, cols) -> list[float]:
    """The numbers in the 0-based columns ``cols`` of data row ``rownum``,
    which must have ``width`` cells; ``ParseError`` names what fails."""
    if len(row) != width:
        raise ParseError(f"row {rownum}: expected {width} columns, got {len(row)}",
                         row=rownum)
    try:
        return [float(row[c]) for c in cols]
    except ValueError:
        c = next(c for c in cols if _number(row[c]) is None)
        raise ParseError(f"row {rownum}, col {c + 1}: feature {row[c]!r} is not "
                         "numeric", row=rownum, col=c + 1) from None


def read_pairs_file(path, delimiter: str = ",") -> PairSet:
    """Read delimited text (``i, j, y, dx_1, ..., dx_d``) into one ``PairSet``,
    a whole column at a time.

    Row 1 is a header when none of its cells from column 3 on is a number;
    blank rows are skipped, and every data row must be as wide as the first.
    In a faulty file the earliest faulty row raises ``ParseError`` naming it
    (and the column of a cell that does not parse)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    start = 1 if rows and _looks_like_header(rows[0]) else 0
    body = list(map(rows.__getitem__, _nonblank(rows, start)))
    try:
        if len(set(map(len, body))) > 1 or body and len(body[0]) < 4:
            raise ValueError("rows of different widths, or under 4 columns")
        cols = list(zip(*body)) or [()] * 3
        y = np.fromiter(map(float, cols[2]), float, len(body))
        dx = _float_matrix(cols[3:], len(body))
        return PairSet(_node_ids(cols[0]), _node_ids(cols[1]), dx, y)
    except ValueError:
        _raise_faulty_row(rows)
        raise


def _raise_faulty_row(rows: list[list[str]]) -> None:
    """Raise the ``ParseError`` of a pairs file's earliest faulty row."""
    i, j, y, dx, rownums = [], [], [], [], []

    def check_pairs() -> None:
        feats = np.array(dx, dtype=float) if dx else np.empty((0, 0))
        try:
            PairSet(i, j, feats, y)
        except ValueError as exc:  # self-loop, label not 0 or 1, non-finite dx
            k = _first_fault(i, j, feats, np.array(y))
            row = rownums[k]
            if i[k] != j[k] and y[k] in (0, 1):  # the fault is a feature's
                c = 3 + int(np.argmin(np.isfinite(feats[k])))
                raise ParseError(f"row {row}, col {c + 1}: feature {rows[row - 1][c]!r} "
                                 "is not finite", row=row, col=c + 1) from exc
            raise ParseError(f"row {row}: {exc}", row=row) from exc

    width = 0
    try:
        for rownum, row in enumerate(rows, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if rownum == 1 and _looks_like_header(row):
                continue
            if len(row) < 4:
                raise ParseError(
                    f"row {rownum}: expected at least 4 columns, got {len(row)}",
                    row=rownum,
                )
            label = _number(row[2])
            if label is None or not label.is_integer():
                what = "not numeric" if label is None else "not an integer"
                raise ParseError(f"row {rownum}, col 3: label {row[2]!r} is {what}",
                                 row=rownum, col=3)
            width = width or len(row)
            dx.append(_parse_features(row, rownum, width, range(3, width)))
            i.append(_parse_node_id(row[0]))
            j.append(_parse_node_id(row[1]))
            y.append(int(label))
            rownums.append(rownum)
    except ParseError:
        check_pairs()  # a faulty pair in an earlier row is reported first
        raise
    check_pairs()


def write_pairs_file(path, pairs: PairSet | Sequence[PairwiseDatum],
                     delimiter: str = ",") -> None:
    """Write pairwise data, header first, in the format ``read_pairs_file``
    accepts, from the columns of ``PairSet.of(pairs)``."""
    ps = PairSet.of(pairs)
    _write_table(path, ["i", "j", "y"] + [f"dx_{k + 1}" for k in range(ps.dim)],
                 [ps.i, ps.j, ps.y, *ps.dx.T], delimiter)


def _write_table(path, header, columns, delimiter: str = ",") -> None:
    """Write ``header``, then ``columns`` side by side. An array column is
    written through ``tolist``, so every float is the ``repr`` of a Python
    float; any other column is written as given."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                               for c in columns)))
