"""Undirected graph model of a pairwise dataset.

Every labelled pair (feature difference + same/different flag) becomes an
edge between its two participants; the structural queries needed by the
privacy-distance computation (degrees, components, removal effects) live
here. Graphs are immutable, so all queries are safe to run concurrently.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
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

    def key(self) -> tuple[NodeId, NodeId]:
        """Unordered endpoint pair in a canonical order."""
        a, b = self.i, self.j
        return (a, b) if _node_sort_key(a) <= _node_sort_key(b) else (b, a)


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
        faulty = np.fromiter(map(operator.eq, i, j), bool, len(i))
        faulty |= ~((y == 0) | (y == 1))
        faulty |= ~np.isfinite(dx).all(axis=1)
        if faulty.any():
            k = int(np.argmax(faulty))
            PairwiseDatum(i[k], j[k], dx[k], y[k].item())  # raises its error
        y = y.astype(int)
        dx.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "y", y)

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


def _node_sort_key(n: NodeId):
    # ints sort before strings so mixed id types stay orderable
    return (0, n, "") if isinstance(n, int) else (1, 0, str(n))


class PairGraph:
    """Simple undirected graph whose edges carry pairwise data.

    Node ids are opaque; internally they are normalised to dense indices in
    order of first appearance, which fixes all tie-breaking (flow augmenting
    order, reductions) deterministically for a given input order.
    """

    def __init__(
        self,
        pairs: Sequence[PairwiseDatum],
        relation_kind: str = "transitive",
        extra_nodes: Iterable[NodeId] = (),
    ):
        if relation_kind not in RELATION_KINDS:
            raise ValueError(
                f"relation_kind must be one of {RELATION_KINDS}, got {relation_kind!r}"
            )
        self.relation_kind = relation_kind
        self._order: list[NodeId] = []
        self._index: dict[NodeId, int] = {}
        dim: int | None = None
        for p in pairs:
            if dim is None:
                dim = p.dim
            elif p.dim != dim:
                raise DimensionMismatch(
                    f"pair ({p.i}, {p.j}) has dimension {p.dim}, expected {dim}"
                )
            self._intern(p.i)
            self._intern(p.j)
        for n in extra_nodes:
            self._intern(n)
        self._dim = dim
        self._edges: dict[tuple[int, int], PairwiseDatum] = {}
        adj: list[list[int]] = [[] for _ in self._order]
        for p in pairs:
            a, b = self._index[p.i], self._index[p.j]
            key = (a, b) if a < b else (b, a)
            if key in self._edges:
                raise DuplicateEdge(f"duplicate pair on ({p.i}, {p.j})")
            self._edges[key] = p
            adj[a].append(b)
            adj[b].append(a)
        # ascending neighbour indices per node, immutable like the graph
        self._adj: list[tuple[int, ...]] = [tuple(sorted(nb)) for nb in adj]

    def _intern(self, n: NodeId) -> int:
        idx = self._index.get(n)
        if idx is None:
            idx = len(self._order)
            self._index[n] = idx
            self._order.append(n)
        return idx

    # --- basic accessors -------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._order)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def dim(self) -> int | None:
        """Feature dimension, or None for an edgeless graph."""
        return self._dim

    def nodes(self) -> list[NodeId]:
        return list(self._order)

    def node_index(self, n: NodeId) -> int:
        try:
            return self._index[n]
        except KeyError:
            raise UnknownNode(f"node {n!r} not in graph") from None

    def node_id(self, idx: int) -> NodeId:
        return self._order[idx]

    def has_node(self, n: NodeId) -> bool:
        return n in self._index

    def pairs(self) -> list[PairwiseDatum]:
        """Edge payloads in deterministic (index-sorted) order."""
        return [self._edges[k] for k in sorted(self._edges)]

    def edge_keys(self) -> list[tuple[NodeId, NodeId]]:
        return [
            (self._order[a], self._order[b]) for a, b in sorted(self._edges)
        ]

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        if u not in self._index or v not in self._index:
            return False
        a, b = self._index[u], self._index[v]
        return ((a, b) if a < b else (b, a)) in self._edges

    def neighbors(self, n: NodeId) -> list[NodeId]:
        """Neighbour ids in ascending index order."""
        return [self._order[m] for m in self._adj[self.node_index(n)]]

    def neighbor_indices(self, idx: int) -> tuple[int, ...]:
        """Neighbour indices of node ``idx`` in ascending order."""
        return self._adj[idx]

    # --- structural queries ----------------------------------------------

    def degree(self, n: NodeId) -> int:
        """Number of edges incident to ``n``."""
        return len(self._adj[self.node_index(n)])

    def component_count(self) -> int:
        """Number of connected components, counting isolated nodes."""
        return len(self.components())

    def components(self) -> list[list[int]]:
        """Connected components as sorted index lists, ordered by smallest member."""
        n = self.num_nodes
        seen = [False] * n
        comps: list[list[int]] = []
        for start in range(n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comp.sort()
            comps.append(comp)
        return comps

    def removal_effects(self) -> tuple[list[int], set[tuple[int, int]]]:
        """What deleting a node or an edge does, from one depth-first search
        (Hopcroft & Tarjan, 1973; Tarjan, 1974) in O(|V| + |E|).

        Returns, by node index, how many components deleting each node (with
        its edges) adds, and the bridges: the edges, as index keys ``(a, b)``
        with ``a < b``, whose deletion splits their component.

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
        return increase, bridges


def build_graph(
    pairs: Sequence[PairwiseDatum],
    relation_kind: str = "transitive",
    extra_nodes: Iterable[NodeId] = (),
) -> PairGraph:
    """Build the pair graph for a dataset.

    Rejects self-loops, duplicate unordered pairs, and mixed feature
    dimensions. ``extra_nodes`` adds individuals that appear in no pair;
    they stay isolated and never affect the privacy distance.
    """
    return PairGraph(pairs, relation_kind, extra_nodes=extra_nodes)


# --- pairs file format ----------------------------------------------------
#
# One row per pair: i, j, y, dx_1, ..., dx_d. Header row optional.


def _looks_like_header(row: Sequence[str]) -> bool:
    if len(row) < 4:
        return False
    try:
        float(row[2])
        float(row[3])
    except ValueError:
        return True
    return False


def _parse_node_id(cell: str) -> NodeId:
    cell = cell.strip()
    try:
        return int(cell)
    except ValueError:
        return cell


def read_pairs_file(path, delimiter: str = ",") -> list[PairwiseDatum]:
    """Read pairwise data from delimited text (``i, j, y, dx_1, ..., dx_d``)."""
    pairs: list[PairwiseDatum] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for rownum, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if rownum == 1 and _looks_like_header(row):
                continue
            if len(row) < 4:
                raise ParseError(
                    f"row {rownum}: expected at least 4 columns, got {len(row)}",
                    row=rownum,
                )
            i = _parse_node_id(row[0])
            j = _parse_node_id(row[1])
            try:
                label = float(row[2])
            except ValueError:
                raise ParseError(
                    f"row {rownum}, col 3: label {row[2]!r} is not numeric",
                    row=rownum,
                    col=3,
                ) from None
            if not label.is_integer():
                raise ParseError(
                    f"row {rownum}, col 3: label {row[2]!r} is not an integer",
                    row=rownum,
                    col=3,
                )
            y = int(label)
            feats = []
            for colnum, cell in enumerate(row[3:], start=4):
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"row {rownum}, col {colnum}: feature {cell!r} is not numeric",
                        row=rownum,
                        col=colnum,
                    ) from None
            try:
                pairs.append(PairwiseDatum(i, j, np.array(feats), y))
            except (SelfLoop, ValueError) as exc:
                raise ParseError(f"row {rownum}: {exc}", row=rownum) from exc
    return pairs


def write_pairs_file(path, pairs: Sequence[PairwiseDatum], delimiter: str = ",",
                     header: bool = True) -> None:
    """Write pairwise data in the format ``read_pairs_file`` accepts."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        if header:
            d = pairs[0].dim if pairs else 0
            writer.writerow(["i", "j", "y"] + [f"dx_{k + 1}" for k in range(d)])
        for p in pairs:
            writer.writerow([p.i, p.j, p.y] + [repr(float(v)) for v in p.delta_x])
