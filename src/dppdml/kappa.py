"""Privacy distance of a pairwise dataset.

The privacy distance counts, for the hardest target pair (s, t), how many
edges an attacker must be missing before the pair's relationship and
feature difference both become un-inferable: the maximum number of
edge-disjoint s-t paths plus the cheaper of the two cycle-isolation costs
left once those paths are removed, maximised over all node pairs. When
labels do not compose (intransitive relations) only the pair's own edge
counts as a path.

Both relation kinds run one pair loop, which differs only in how a pair's
path count and isolation costs are found. A node's cycle-isolation cost is
a closed form, ``k - pieces``: its ``k`` surviving edges minus the pieces
of the remaining graph without the node that they reach. With no edge
removed that is ``u - 1`` for a node with edges, where the cut bound ``u =
degree - component_increase`` is read for every node from one
articulation-point DFS. No pair's term exceeds either endpoint's ``u``, so
the loop visits pairs from the highest ``min(u)`` down and stops once no
later pair can beat the best term: it scores only the pairs near the top.
When labels compose, a pair it scores runs one max flow and each cost one
O(|V| + |E|) traversal, so the exact value is guarded by a node-count
limit; larger graphs get ``max u``, an upper bound from the same DFS. When
they do not, the loop removes at most the pair's own edge, which lowers a
cost by one unless it is a bridge, so every cost is O(1) and the value is
exact at any size. :func:`pair_terms` scores every pair of a small graph
for reports. The node-privacy baseline (maximum degree) is also provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

from .errors import ConfigInvalid, GraphTooLarge, SameNode
from .pairgraph import NodeId, PairGraph

#: Names ``compute_kappa`` accepts for ``method``.
KAPPA_METHODS = ("auto", "exact", "upper", "node-dp")

#: Node-count guard for the exact computation.
DEFAULT_EXACT_LIMIT = 64

#: Largest graph whose per-pair terms :func:`pair_terms` tabulates.
TERMS_NODE_LIMIT = 24


@dataclass(frozen=True, slots=True)
class KappaReport:
    """Result of a privacy-distance computation.

    ``method`` records which variant produced the value; ``witness_pair``
    is a pair achieving the maximum (exact methods only). The computation
    leaves ``per_pair_terms`` None; a caller may attach the
    :func:`pair_terms` table, which maps pairs to their (path count, c_s,
    c_t) triples, with :func:`dataclasses.replace`.
    """

    kappa: int
    method: str
    witness_pair: tuple[NodeId, NodeId] | None = None
    per_pair_terms: dict[tuple[NodeId, NodeId], tuple[int, int, int]] | None = None
    detail: str | None = None

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("privacy distance cannot be negative")
        if self.method == "exact" and self.kappa > 0 and self.witness_pair is None:
            raise ValueError("exact report with positive value needs a witness pair")

    def to_dict(self) -> dict:
        d = {"kappa": self.kappa, "method": self.method}
        if self.witness_pair is not None:
            d["witness_pair"] = list(self.witness_pair)
        if self.per_pair_terms is not None:
            d["per_pair_terms"] = [
                {"pair": list(k), "paths": v[0], "c_s": v[1], "c_t": v[2]}
                for k, v in sorted(
                    self.per_pair_terms.items(), key=lambda kv: str(kv[0])
                )
            ]
        if self.detail is not None:
            d["detail"] = self.detail
        return d


# --- edge-disjoint paths (unit-capacity max flow) --------------------------


def max_edge_disjoint_paths(
    g: PairGraph, s: NodeId, t: NodeId
) -> tuple[int, list[list[NodeId]]]:
    """Maximum number of pairwise edge-disjoint s-t paths plus one witness set.

    Equals the minimum s-t edge cut (Menger). The witness set is
    deterministic: augmentation is breadth-first with neighbours visited in
    ascending index order, and the flow is decomposed by always walking to
    the smallest-index next node.
    """
    if s == t:
        raise SameNode(f"need two distinct nodes, got {s!r} twice")
    si, ti = g.node_index(s), g.node_index(t)
    value, used = _unit_max_flow(g, si, ti)
    paths = _decompose_paths(used, si, ti, value)
    return value, [[g.node_id(i) for i in p] for p in paths]


def _unit_max_flow(g: PairGraph, s: int, t: int) -> tuple[int, list[set[int]]]:
    """Value and flow of a unit-capacity max flow, the flow held as each
    node's successor set: one unit runs v -> w iff ``w in used[v]``, so
    v -> w has residual capacity iff it carries no flow, and pushing a unit
    against a flow cancels it. A flow of ``min(deg(s), deg(t))`` fills a cut
    and is returned without the search that would fail to augment it."""
    n = g.num_nodes
    adj = g.adjacency
    used: list[set[int]] = [set() for _ in range(n)]
    value = 0
    cap = min(len(adj[s]), len(adj[t]))
    while value < cap:
        parent = [-1] * n
        parent[s] = s
        queue = [s]
        for v in queue:  # breadth-first: the queue grows as it is read
            for w in adj[v]:
                if parent[w] == -1 and w not in used[v]:
                    parent[w] = v
                    queue.append(w)
            if parent[t] != -1:
                break
        else:
            return value, used
        v = t
        while v != s:
            u = parent[v]
            if u in used[v]:
                used[v].discard(u)
            else:
                used[u].add(v)
            v = u
        value += 1
    return value, used


def _decompose_paths(
    used: list[set[int]], s: int, t: int, count: int
) -> list[list[int]]:
    paths = []
    for _ in range(count):
        path = [s]
        pos = {s: 0}
        v = s
        while v != t:
            w = min(used[v])
            used[v].discard(w)
            if w in pos:
                # loop-erase: the cycle's edges are already consumed
                cut = pos[w] + 1
                for node in path[cut:]:
                    del pos[node]
                del path[cut:]
            else:
                path.append(w)
                pos[w] = len(path) - 1
            v = w
        paths.append(path)
    return paths


# --- cycle isolation --------------------------------------------------------


def _exact_isolation(g: PairGraph) -> Callable[[int, frozenset], int]:
    """Exact cycle-isolation cost of a node once the given edges are gone,
    in O(|V| + |E|) per call: ``k - pieces``, where ``k`` counts the node's
    surviving edges and ``pieces`` the components of the remaining graph
    without the node that its surviving neighbours reach. Traverses the
    graph's own adjacency, skipping the removed edges, with no copy; an
    edge is removed when its index key ``(a, b)``, ``a < b``, is in the set.

    No search is needed: keeping one edge of the node into each piece
    leaves it on no cycle, and any cheaper set would have to delete edges
    away from the node, each of which splits off at most one more piece, so
    it never saves more than it costs.
    """
    adj = g.adjacency

    def isolation(si: int, removed: frozenset[tuple[int, int]]) -> int:
        seen = {si}
        k = pieces = 0
        for w in adj[si]:
            if ((si, w) if si < w else (w, si)) in removed:
                continue
            k += 1
            if w in seen:
                continue
            pieces += 1
            seen.add(w)
            stack = [w]
            while stack:
                v = stack.pop()
                for x in adj[v]:
                    if x not in seen and ((v, x) if v < x else (x, v)) not in removed:
                        seen.add(x)
                        stack.append(x)
        return k - pieces

    return isolation


# --- privacy distance variants ---------------------------------------------


def _cut_bounds(
    g: PairGraph,
) -> tuple[list[int], list[int], set[tuple[int, int]], list[int]]:
    """From one articulation-point DFS: every node's cut bound ``u = degree
    - component_increase``; its cycle-isolation cost with no edge removed,
    ``max(0, u - 1)`` (``k - pieces`` with ``pieces = component_increase +
    1``; 0 for an isolated node); the bridges; and each node's component."""
    increase, bridges, root_of = g._articulation_dfs()
    u = [len(nbrs) - inc for nbrs, inc in zip(g.adjacency, increase)]
    return u, [x - 1 if x else 0 for x in u], bridges, root_of  # u >= 0: no max()


class _PairRule(NamedTuple):
    """How one relation kind scores a pair: whether it is linked, its path
    count with the edges those paths use, and a node's isolation cost once
    given edges are gone; ``u`` and ``c_full`` are :func:`_cut_bounds`'."""

    u: list[int]
    c_full: list[int]
    linked: Callable[[int, int], bool]
    paths: Callable[[int, int], tuple[int, frozenset[tuple[int, int]]]]
    isolation: Callable[[int, frozenset[tuple[int, int]]], int]

    def triple(self, a: int, b: int) -> tuple[int, int, int]:
        """The pair's (path count, c_s, c_t). A linked pair removes its
        paths' edges before both costs; any other pair reads ``c_full``."""
        if not self.linked(a, b):
            return 0, self.c_full[a], self.c_full[b]
        n_paths, removed = self.paths(a, b)
        return n_paths, self.isolation(a, removed), self.isolation(b, removed)

    def term(self, a: int, b: int, floor: int) -> int:
        """The pair's term ``paths + min(c_s, c_t)``, computed as
        :meth:`triple` does, or an upper bound of it of at most ``floor`` as
        soon as the term cannot exceed ``floor``."""
        if not self.linked(a, b):
            return min(self.c_full[a], self.c_full[b])
        n_paths, removed = self.paths(a, b)
        bound = n_paths + min(self.c_full[a], self.c_full[b])
        if bound <= floor:
            return bound  # removal only lowers isolation costs
        bound = n_paths + self.isolation(a, removed)
        if bound <= floor:
            return bound  # min(cs, ct) cannot exceed cs
        return min(bound, n_paths + self.isolation(b, removed))


def _pair_loop(g: PairGraph, method: str, rule: _PairRule) -> KappaReport:
    """Largest pair term of a graph with edges, with its witness.

    A forest returns 1 at once. Otherwise pairs run from the highest bound
    down, and the loop stops once no later pair can beat the witness. The
    witness is the first maximising pair in the loop's order; up to
    :data:`TERMS_NODE_LIMIT` nodes a tie goes to the pair earlier in index
    order instead, so the witness is the first maximiser of
    :func:`pair_terms`.

    The bound is ``min(u[a], u[b])``, each node's ``degree -
    component_increase``. A linked pair's paths are simple, so each leaves
    ``s`` once, into the piece of ``G - s`` that holds ``t``: the removed
    edges lie in that piece or join ``s`` to it. So ``s`` keeps its edges
    into the other ``component_increase`` pieces, which stay apart, and
    ``c_s = k - pieces <= (degree - paths) - component_increase``, which is
    ``paths + c_s <= u[s]``; likewise for ``t``. An intransitive pair's
    one path is its own edge, and any other pair scores ``min(c_full) <=
    min(u)``.
    """
    n = g.num_nodes
    if not any(rule.c_full):
        # no node lies on a cycle, so a forest: every linked pair has exactly
        # one path; nodes 0 and 1 are the first pair's endpoints, so linked
        # and first
        return KappaReport(1, method, witness_pair=(g.node_id(0), g.node_id(1)))

    u = rule.u

    def bound(a: int, b: int) -> int:
        return min(u[a], u[b])

    def high_bounds_first():
        # descending bound, ties in index order, one bound level at a time:
        # the loop stops within the top levels, and a large graph's pairs
        # need not all be held in memory
        for level in range(max(u), -1, -1):
            live = [v for v in range(n) if u[v] >= level]
            for a, b in combinations(live, 2):
                if bound(a, b) == level:
                    yield a, b

    index_ties = n <= TERMS_NODE_LIMIT
    best, witness = -1, (n, n)  # (n, n) comes after every pair
    for a, b in high_bounds_first():
        # a pair must beat the witness's term, or tie it from earlier in index
        # order; within a bound level pairs come in index order, so once one
        # cannot, no later one can
        floor = best - (index_ties and (a, b) < witness)
        if bound(a, b) <= floor:
            break
        term = rule.term(a, b, floor)
        if term > floor:
            best, witness = term, (a, b)
    return KappaReport(
        best, method, witness_pair=(g.node_id(witness[0]), g.node_id(witness[1]))
    )


def _transitive_rule(g: PairGraph) -> _PairRule:
    """A pair in one component runs one max flow and removes its path set;
    every cost is the closed form of :func:`_exact_isolation`."""
    u, c_full, _, root_of = _cut_bounds(g)
    index = g._index  # node id -> index, with no call per node

    def flow_paths(a: int, b: int) -> tuple[int, frozenset[tuple[int, int]]]:
        n_paths, paths = max_edge_disjoint_paths(g, g.node_id(a), g.node_id(b))
        at = [[index[x] for x in p] for p in paths]
        return n_paths, frozenset(
            (x, y) if x < y else (y, x) for p in at for x, y in zip(p, p[1:])
        )

    return _PairRule(
        u, c_full, lambda a, b: root_of[a] == root_of[b], flow_paths,
        _exact_isolation(g),
    )


def _intransitive_rule(g: PairGraph) -> _PairRule:
    """Only an adjacent pair is linked, by its own edge. Deleting a node's
    edge to ``w`` takes ``w``'s piece away from the node only when the edge
    is a bridge; otherwise ``w`` stays joined to another neighbour. So a
    bridge leaves a whole-graph cost as it was and any other edge lowers it
    by one: one DFS, then O(1) per cost."""
    u, c_full, bridges, _ = _cut_bounds(g)

    def isolation(v: int, removed: frozenset[tuple[int, int]]) -> int:
        return max(0, c_full[v] - (not removed <= bridges))

    return _PairRule(
        u,
        c_full,
        lambda a, b: b in g.adjacency[a],
        lambda a, b: (1, frozenset({(a, b)})),
        isolation,
    )


def pair_terms(g: PairGraph) -> dict[tuple[NodeId, NodeId], tuple[int, int, int]]:
    """Every pair's (path count, c_s, c_t) on a graph of at most
    :data:`TERMS_NODE_LIMIT` nodes, by the rule of the graph's relation
    kind: the terms whose maximum :func:`kappa_exact` or
    :func:`kappa_intransitive` returns. Keyed by the node-id pairs ``(a,
    b)``, ``a`` before ``b`` in index order, in ``combinations`` order.
    ``analyze-kappa`` reports them; no privacy distance needs them. Raises
    :class:`GraphTooLarge` above the limit."""
    n = g.num_nodes
    if n > TERMS_NODE_LIMIT:
        raise GraphTooLarge(
            f"graph has {n} nodes, the per-pair table is built up to "
            f"{TERMS_NODE_LIMIT}"
        )
    rule = (
        _transitive_rule(g) if g.relation_kind == "transitive"
        else _intransitive_rule(g)
    )
    ids = g.nodes()
    return {
        (ids[a], ids[b]): rule.triple(a, b) for a, b in combinations(range(n), 2)
    }


def kappa_exact(g: PairGraph, exact_limit: int = DEFAULT_EXACT_LIMIT) -> KappaReport:
    """Exact privacy distance by the shared pair loop.

    A pair in one component counts its edge-disjoint paths, removes one
    deterministic maximum path set, and adds the cheaper cycle-isolation
    cost on the remainder; a pair across components adds the cheaper
    whole-graph cost. Each cost on a remainder is the closed form ``k -
    pieces`` of :func:`_exact_isolation`, one traversal of the
    remainder without the node, so there is no search and no budget: the
    work is one max flow and at most two traversals per pair the loop
    visits. Guarded by ``exact_limit`` nodes (:class:`GraphTooLarge` past
    it).
    """
    if g.num_nodes > exact_limit:
        raise GraphTooLarge(
            f"graph has {g.num_nodes} nodes, exact computation is guarded "
            f"at {exact_limit}; use kappa_upper"
        )
    if g.num_edges == 0:
        return KappaReport(0, "exact")
    return _pair_loop(g, "exact", _transitive_rule(g))


def kappa_upper(g: PairGraph) -> KappaReport:
    """Efficient upper bound: max over nodes of degree minus the component
    increase caused by deleting the node, the cut bound ``u`` of
    :func:`_cut_bounds`, with its first maximiser as witness. Runs in
    O(|V| + |E|): one articulation-point DFS gives every node's increase."""
    u = _cut_bounds(g)[0]
    best = max(u, default=0)
    detail = f"witness_node={g.node_id(u.index(best))!r}" if best else None
    return KappaReport(best, "upper_bound", detail=detail)


def kappa_node_dp(g: PairGraph) -> KappaReport:
    """Node-privacy baseline: the maximum node degree."""
    return KappaReport(max(map(len, g.adjacency), default=0), "node_dp")


def kappa_intransitive(g: PairGraph) -> KappaReport:
    """Privacy distance when pairwise labels do not compose, exact at any
    size.

    Runs the pair loop of :func:`kappa_exact` with only the pair's own edge
    as a path: adjacent pairs cost one for that edge plus the cheaper cycle
    isolation after deleting it; non-adjacent pairs cost the cheaper cycle
    isolation on the whole graph. Each cost is O(1) after one DFS.
    """
    if g.num_edges == 0:
        return KappaReport(0, "intransitive")
    return _pair_loop(g, "intransitive", _intransitive_rule(g))


def compute_kappa(
    g: PairGraph,
    method: str = "auto",
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> KappaReport:
    """Dispatch to the variant matching ``method`` and the relation kind.

    Intransitive relations get :func:`kappa_intransitive`, exact at any
    size, for every method but ``node-dp``. Transitive ones get
    :func:`kappa_exact` for ``exact``, which raises :class:`GraphTooLarge`
    above ``exact_limit`` nodes, and for ``auto`` up to that size; ``upper``
    and larger ``auto`` runs get :func:`kappa_upper`. Cycle isolation is
    closed form (``k - pieces``, see :func:`_exact_isolation`), so the
    exact computation has no search budget and never falls back. A negative
    ``exact_limit`` raises :class:`ConfigInvalid`.
    """
    if method not in KAPPA_METHODS:
        raise ConfigInvalid(f"unknown method {method!r}")
    if exact_limit < 0:
        raise ConfigInvalid(f"exact_limit must be >= 0, got {exact_limit}")
    if method == "node-dp":
        return kappa_node_dp(g)
    if g.relation_kind == "intransitive":
        return kappa_intransitive(g)
    if method == "upper" or (method == "auto" and g.num_nodes > exact_limit):
        return kappa_upper(g)
    return kappa_exact(g, exact_limit=exact_limit)
