"""Privacy distance of a pairwise dataset.

The privacy distance counts, for the hardest target pair (s, t), how many
edges an attacker must be missing before the pair's relationship and
feature difference both become un-inferable: the maximum number of
edge-disjoint s-t paths plus the cheaper of the two cycle-isolation costs,
maximised over all node pairs.

Computing that exactly requires a subset search (cycle isolation is a
multiway-cut-like problem), so the exact routine is guarded by a size
limit and an edge-scan budget, and a cheap upper bound
``max_s degree(s) - component_increase(s)`` is provided for large graphs,
along with the intransitive-relation variant and the node-privacy
baseline (maximum degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigInvalid, GraphTooLarge, SameNode
from .pairgraph import NodeId, PairGraph

#: Node-count guard for the exact computation.
DEFAULT_EXACT_LIMIT = 64

#: Cap on edge scans one exact computation may spend searching for cycles;
#: read when each search starts.
SEARCH_BUDGET = 200_000_000

#: ``auto`` only attempts the exact computation below this edge density;
#: dense graphs make the cycle-isolation search explode.
_AUTO_DENSITY_LIMIT = 3.0

#: Record per-pair terms only while the pair loop stays this small.
_TERMS_NODE_LIMIT = 24


@dataclass(frozen=True)
class KappaReport:
    """Result of a privacy-distance computation.

    ``method`` records which variant produced the value; ``witness_pair``
    is a pair achieving the maximum (exact methods only) and
    ``per_pair_terms`` maps pairs to their (path count, c_s, c_t) triples
    on small graphs.
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
    n = g.num_nodes
    cap: dict[tuple[int, int], int] = {}
    adj = [g.neighbor_indices(v) for v in range(n)]
    for a, b in g.iter_edge_indices():
        cap[(a, b)] = 1
        cap[(b, a)] = 1
    value = 0
    while True:
        parent = [-1] * n
        parent[s] = s
        queue = [s]
        head = 0
        while head < len(queue) and parent[t] == -1:
            v = queue[head]
            head += 1
            for w in adj[v]:
                if parent[w] == -1 and cap[(v, w)] > 0:
                    parent[w] = v
                    queue.append(w)
        if parent[t] == -1:
            break
        v = t
        while v != s:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        value += 1
    # net unit flow u -> v shows up as cap[(v, u)] == 2
    used: list[set[int]] = [set() for _ in range(n)]
    for a, b in g.iter_edge_indices():
        if cap[(b, a)] == 2:
            used[a].add(b)
        elif cap[(a, b)] == 2:
            used[b].add(a)
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


def _path_edges(paths: Iterable[list[NodeId]]) -> list[tuple[NodeId, NodeId]]:
    edges = []
    for p in paths:
        edges.extend(zip(p, p[1:]))
    return edges


# --- cycle isolation --------------------------------------------------------


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _shortest_cycle_through(
    adj: Sequence[Sequence[int]], s: int, removed: set[tuple[int, int]]
) -> tuple[list[tuple[int, int]] | None, int]:
    """Edge list of a short simple cycle through ``s`` (None if no cycle
    passes through s), plus the number of edge scans spent looking.

    One BFS from s labels every vertex with its first-hop branch; any
    surviving edge joining two different branches closes a cycle through
    s (branch subtrees only meet at s), and a cycle exists iff some such
    bridging edge does. The shortest bridged cycle is returned.
    """
    work = len(adj[s])
    nbrs = [w for w in adj[s] if _edge_key(s, w) not in removed]
    if len(nbrs) < 2:
        return None, work
    dist = {s: 0}
    parent: dict[int, int] = {}
    branch: dict[int, int] = {}
    queue = list(nbrs)
    for u in nbrs:
        dist[u] = 1
        parent[u] = s
        branch[u] = u
    best: tuple[int, int, int] | None = None  # (cycle length, v, w)
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        if best is not None and best[0] <= 2 * dist[v]:
            break  # deeper bridges cannot beat the current cycle
        work += len(adj[v])
        for w in adj[v]:
            if w == s or _edge_key(v, w) in removed:
                continue
            if w in dist:
                if branch[w] != branch[v]:
                    length = dist[v] + dist[w] + 1
                    if best is None or length < best[0]:
                        best = (length, v, w)
                continue
            dist[w] = dist[v] + 1
            parent[w] = v
            branch[w] = branch[v]
            queue.append(w)
    if best is None:
        return None, work
    _, v, w = best
    edges = [_edge_key(v, w)]
    for node in (v, w):
        while node != s:
            edges.append(_edge_key(parent[node], node))
            node = parent[node]
    return edges, work


def _cycle_isolation(
    adj: Sequence[Sequence[int]],
    si: int,
    base_removed: Iterable[tuple[int, int]],
    label: NodeId,
    counter: list[int] | None = None,
) -> int:
    spent = counter if counter is not None else [0]
    budget = SEARCH_BUDGET

    def solvable(removed: set[tuple[int, int]], depth: int) -> bool:
        cycle, work = _shortest_cycle_through(adj, si, removed)
        spent[0] += work
        if spent[0] > budget:
            raise GraphTooLarge(
                f"cycle isolation for node {label!r} exceeded the search "
                f"budget of {budget} edge scans; use the upper bound instead"
            )
        if cycle is None:
            return True
        if depth == 0:
            return False
        for e in cycle:
            removed.add(e)
            if solvable(removed, depth - 1):
                removed.discard(e)
                return True
            removed.discard(e)
        return False

    base = set(base_removed)
    max_depth = sum(1 for w in adj[si] if _edge_key(si, w) not in base)
    for k in range(max_depth + 1):
        if solvable(set(base), k):
            return k
    return max_depth  # pragma: no cover - loop always returns by max_depth


def cycle_isolation_count(g: PairGraph, s: NodeId) -> int:
    """Minimum number of edge deletions leaving ``s`` on no cycle.

    Exact: iterative deepening from zero deletions, branching on the edges
    of a shortest remaining cycle through s (any valid deletion set must
    hit that cycle). Raises :class:`GraphTooLarge` once the search spends
    more than the module's ``SEARCH_BUDGET`` edge scans.
    """
    si = g.node_index(s)
    adj = [g.neighbor_indices(v) for v in range(g.num_nodes)]
    return _cycle_isolation(adj, si, (), s)


# --- privacy distance variants ---------------------------------------------


def kappa_exact(g: PairGraph, exact_limit: int = DEFAULT_EXACT_LIMIT) -> KappaReport:
    """Exact privacy distance by the full pair loop.

    For every unordered node pair: the edge-disjoint path count, one
    deterministic maximum path set removed, then both cycle-isolation
    costs on the remainder. The maximum term wins; the witness is the
    first pair achieving it in a deterministic processing order.
    A node's whole-graph isolation cost is searched when first read: by a
    pair across components, or by the pruning bound above the
    term-recording size. Guarded by ``exact_limit`` nodes and, across all
    searches together, by ``SEARCH_BUDGET`` edge scans
    (:class:`GraphTooLarge` past either).
    """
    if g.num_nodes > exact_limit:
        raise GraphTooLarge(
            f"graph has {g.num_nodes} nodes, exact computation is guarded "
            f"at {exact_limit}; use kappa_upper"
        )
    if g.num_edges == 0:
        return KappaReport(0, "exact")

    record_terms = g.num_nodes <= _TERMS_NODE_LIMIT
    n = g.num_nodes
    comp_of = {}
    for ci, comp in enumerate(g.components()):
        for v in comp:
            comp_of[v] = ci

    if not record_terms and g.num_edges == n - len(set(comp_of.values())):
        # forest: every connected pair has exactly one path and no cycles
        witness = next(
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if comp_of[a] == comp_of[b]
        )
        return KappaReport(
            1, "exact",
            witness_pair=(g.node_id(witness[0]), g.node_id(witness[1])),
        )

    adj = [g.neighbor_indices(v) for v in range(n)]
    counter = [0]  # one budget for the whole computation, not per node
    c_full_known: dict[int, int] = {}

    def c_full(v: int) -> int:
        if v not in c_full_known:
            c_full_known[v] = _cycle_isolation(adj, v, (), g.node_id(v), counter)
        return c_full_known[v]

    def bound(a: int, b: int) -> int:
        # paths <= min degree; removal never creates cycles
        return min(len(adj[a]), len(adj[b])) + min(c_full(a), c_full(b))

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if not record_terms:
        # high bounds first so pruning bites early; exactness is unaffected
        pairs.sort(key=lambda p: (-bound(*p), p))

    best = -1
    witness = None
    terms: dict[tuple[NodeId, NodeId], tuple[int, int, int]] = {}
    # a report holds a triple per pair but few distinct ones: share them
    triples: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    for a, b in pairs:
        if not record_terms:
            cap = bound(a, b)
            if cap < best or (cap == best and witness is not None):
                break  # nothing later can exceed the current maximum
        sa, tb = g.node_id(a), g.node_id(b)
        if comp_of[a] != comp_of[b]:
            n_paths, cs, ct = 0, c_full(a), c_full(b)
        else:
            n_paths, paths = max_edge_disjoint_paths(g, sa, tb)
            if not record_terms and n_paths + min(c_full(a), c_full(b)) <= best:
                continue  # removal only lowers isolation costs
            removed = frozenset(
                _edge_key(g.node_index(x), g.node_index(y))
                for x, y in _path_edges(paths)
            )
            cs = _cycle_isolation(adj, a, removed, sa, counter)
            if not record_terms and n_paths + cs <= best:
                continue  # min(cs, ct) cannot exceed cs
            ct = _cycle_isolation(adj, b, removed, tb, counter)
        term = n_paths + min(cs, ct)
        if record_terms:
            triple = (n_paths, cs, ct)
            terms[(sa, tb)] = triples.setdefault(triple, triple)
        if term > best:
            best = term
            witness = (a, b)
    assert witness is not None
    return KappaReport(
        best,
        "exact",
        witness_pair=(g.node_id(witness[0]), g.node_id(witness[1])),
        per_pair_terms=terms if record_terms else None,
    )


def kappa_upper(g: PairGraph) -> KappaReport:
    """Efficient upper bound: max over nodes of degree minus the component
    increase caused by deleting the node. Runs in O(|V| (|V| + |E|))."""
    best = 0
    witness_node = None
    for v in range(g.num_nodes):
        node = g.node_id(v)
        term = g.degree(node) - g.component_increase_on_removal(node)
        if term > best:
            best = term
            witness_node = node
    detail = None if witness_node is None else f"witness_node={witness_node!r}"
    return KappaReport(best, "upper_bound", detail=detail)


def kappa_node_dp(g: PairGraph) -> KappaReport:
    """Node-privacy baseline: the maximum node degree."""
    best = 0
    for v in range(g.num_nodes):
        best = max(best, len(g.neighbor_indices(v)))
    return KappaReport(best, "node_dp")


def kappa_intransitive(
    g: PairGraph,
    exact: bool = True,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> KappaReport:
    """Privacy distance when pairwise labels do not compose.

    Only feature-difference inference matters: adjacent pairs cost one for
    the shared edge plus the cheaper cycle isolation after deleting it;
    non-adjacent pairs cost the cheaper cycle isolation on the whole graph.
    ``exact=False`` replaces each cycle-isolation cost with the bound
    ``degree - component_increase - 1``.
    """
    if g.num_edges == 0:
        return KappaReport(0, "intransitive", detail="exact" if exact else "bound")
    if exact and g.num_nodes > exact_limit:
        raise GraphTooLarge(
            f"graph has {g.num_nodes} nodes, exact computation is guarded "
            f"at {exact_limit}; use exact=False"
        )

    counter = [0]  # one budget for the whole computation

    def iso_cost(graph: PairGraph, node: NodeId) -> int:
        if exact:
            adjg = [graph.neighbor_indices(v) for v in range(graph.num_nodes)]
            return _cycle_isolation(adjg, graph.node_index(node), (), node, counter)
        return max(
            0,
            graph.degree(node) - graph.component_increase_on_removal(node) - 1,
        )

    full = [iso_cost(g, g.node_id(v)) for v in range(g.num_nodes)]
    best = -1
    witness: tuple[int, int] | None = None
    record_terms = g.num_nodes <= _TERMS_NODE_LIMIT
    terms: dict[tuple[NodeId, NodeId], tuple[int, int, int]] = {}

    # adjacent pairs: one edge of prior plus isolation on the remainder
    for a, b in g.iter_edge_indices():
        sa, tb = g.node_id(a), g.node_id(b)
        reduced = g.remove_edges([(sa, tb)])
        cs = iso_cost(reduced, sa)
        ct = iso_cost(reduced, tb)
        term = 1 + min(cs, ct)
        if record_terms:
            terms[(sa, tb)] = (1, cs, ct)
        if term > best or (term == best and (witness is None or (a, b) < witness)):
            best = term
            witness = (a, b)

    # non-adjacent pairs: isolation costs on the full graph
    for a in range(g.num_nodes):
        for b in range(a + 1, g.num_nodes):
            if g.has_edge(g.node_id(a), g.node_id(b)):
                continue
            term = min(full[a], full[b])
            if record_terms:
                terms[(g.node_id(a), g.node_id(b))] = (0, full[a], full[b])
            if term > best or (term == best and (witness is None or (a, b) < witness)):
                best = term
                witness = (a, b)

    assert witness is not None
    return KappaReport(
        max(best, 0),
        "intransitive",
        witness_pair=(g.node_id(witness[0]), g.node_id(witness[1])),
        per_pair_terms=terms if record_terms else None,
        detail="exact" if exact else "bound",
    )


def compute_kappa(
    g: PairGraph,
    method: str = "auto",
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> KappaReport:
    """Dispatch to the variant matching ``method`` and the relation kind.

    ``auto`` uses the exact computation when the graph fits under
    ``exact_limit`` nodes and is sparse enough for the cycle search
    (falling back to the bound when the search spends more than the
    module's ``SEARCH_BUDGET`` edge scans), and the upper bound otherwise.
    ``exact`` raises :class:`GraphTooLarge` instead of falling back.
    """
    if method not in ("auto", "exact", "upper", "node-dp"):
        raise ConfigInvalid(f"unknown method {method!r}")
    if method == "node-dp":
        return kappa_node_dp(g)
    attempt_exact = method == "exact" or (
        method == "auto"
        and g.num_nodes <= exact_limit
        and g.num_edges <= _AUTO_DENSITY_LIMIT * max(1, g.num_nodes)
    )
    if g.relation_kind == "intransitive":
        if method == "upper" or not attempt_exact:
            return kappa_intransitive(g, exact=False)
        try:
            return kappa_intransitive(g, exact=True, exact_limit=exact_limit)
        except GraphTooLarge:
            if method == "exact":
                raise
            return kappa_intransitive(g, exact=False)
    if method == "upper" or not attempt_exact:
        return kappa_upper(g)
    try:
        return kappa_exact(g, exact_limit=exact_limit)
    except GraphTooLarge:
        if method == "exact":
            raise
        return kappa_upper(g)
