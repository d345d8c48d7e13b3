"""Independent brute-force oracles used to validate the library.

Everything here works on plain edge-index lists with bitmask subsets and
deliberately re-derives results from first principles (union-find
components, min-cut enumeration for path counts, degree-2 subgraph
enumeration for cycles, subset search for cycle breaking), so agreement
with the library is meaningful. The derived-graph helpers rebuild a
``PairGraph`` without some edges or a node, so that what a removal does can
be recounted from scratch. The pair-data and training references at the
end replay, pair by pair (and step by step), the per-datum code that the
columnar code replaced, so that code can be held to them bit for bit; the
text references read and write CSV one row at a time, as the column-wise
readers and writers must match byte for byte and error for error.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from dppdml.dataio import SampleSet
from dppdml.dml import MetricModel, TrainTrace, step_size
from dppdml.errors import (
    InfeasibleBalance,
    InfeasibleDensity,
    MissingLabelColumn,
    OutOfRange,
    ParseError,
    SelfLoop,
    SingleClass,
)
from dppdml.kappa import _exact_isolation, compute_kappa
from dppdml.mechanisms import (
    duchi_randomize_vector,
    gaussian_sigma,
    laplace_sample,
    staircase_optimal_gamma,
    staircase_sample,
)
from dppdml.pairgraph import NodeId, PairGraph, PairSet, PairwiseDatum

Edge = tuple[int, int]


# --- connectivity -------------------------------------------------------------


def components_union_find(n: int, edges: list[Edge]) -> int:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(n)})


def _adj_masks(n: int, edges: list[Edge], emask: int) -> list[int]:
    adj = [0] * n
    for k, (u, v) in enumerate(edges):
        if emask >> k & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def connected(n: int, edges: list[Edge], emask: int, a: int, b: int) -> bool:
    """Whether a and b touch using only the edges selected by ``emask``."""
    adj = _adj_masks(n, edges, emask)
    seen = 1 << a
    frontier = seen
    while frontier:
        new = 0
        for v in range(n):
            if frontier >> v & 1:
                new |= adj[v]
        frontier = new & ~seen
        seen |= frontier
        if seen >> b & 1:
            return True
    return False


# --- derived graphs -------------------------------------------------------------


def _rebuild(g: PairGraph, keys, nodes) -> PairGraph:
    """A graph of ``g``'s relation kind on the edges ``keys`` and the
    ``nodes``, with unit features: the graph keeps only its structure."""
    pairs = [PairwiseDatum(u, v, np.ones(1), 0) for u, v in keys]
    return PairGraph(pairs, g.relation_kind, extra_nodes=nodes)


def remove_edges(g: PairGraph, edge_set) -> PairGraph:
    """``g`` without the given edges; the node set is unchanged."""
    keys = g.edge_keys()
    present = {frozenset(k) for k in keys}
    drop = set()
    for u, v in edge_set:
        if frozenset((u, v)) not in present:
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        drop.add(frozenset((u, v)))
    return _rebuild(g, [k for k in keys if frozenset(k) not in drop], g.nodes())


def without_node(g: PairGraph, n) -> PairGraph:
    """``g`` without ``n`` and its edges."""
    g.node_index(n)  # an unknown node raises
    kept = [k for k in g.edge_keys() if n not in k]
    return _rebuild(g, kept, [m for m in g.nodes() if m != n])


def component_increase(g: PairGraph, v, dropped=()) -> int:
    """Components that deleting ``v`` adds, recounted on ``g`` without the
    edges from ``v`` to ``dropped``; deleting an isolated node adds none."""
    base = remove_edges(g, [(v, w) for w in dropped])
    recount = without_node(base, v).component_count() - base.component_count()
    return max(0, recount)


# --- edge-disjoint paths via min-cut enumeration -------------------------------


def min_cut(n: int, edges: list[Edge], s: int, t: int) -> int:
    """Size of the smallest edge set disconnecting s from t (enumerated)."""
    full = (1 << len(edges)) - 1
    if not connected(n, edges, full, s, t):
        return 0
    for k in range(1, len(edges) + 1):
        for cut in itertools.combinations(range(len(edges)), k):
            mask = full
            for e in cut:
                mask &= ~(1 << e)
            if not connected(n, edges, mask, s, t):
                return k
    return len(edges)  # pragma: no cover


def reference_unit_max_flow(g: PairGraph, s: int, t: int) -> tuple[int, list[set[int]]]:
    """Unit-capacity max flow between node indices on a dict of residual
    capacities over every edge, built for this pair alone: breadth-first
    augmentation with neighbours in ascending index order, then the net flow
    read back per edge (a unit u -> v shows up as ``cap[(v, u)] == 2``).
    Returns the value and each node's set of flow successors."""
    n = g.num_nodes
    edges = sorted((g.node_index(a), g.node_index(b)) for a, b in g.edge_keys())
    adj = g.adjacency
    cap = {}
    for a, b in edges:
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
    used = [set() for _ in range(n)]
    for a, b in edges:
        if cap[(b, a)] == 2:
            used[a].add(b)
        elif cap[(a, b)] == 2:
            used[b].add(a)
    return value, used


def simple_paths(n: int, edges: list[Edge], s: int, t: int) -> list[int]:
    """Edge masks of every simple s-t path."""
    incident: list[list[int]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(edges):
        incident[u].append(k)
        incident[v].append(k)
    out: list[int] = []

    def walk(v: int, visited: int, emask: int) -> None:
        if v == t:
            out.append(emask)
            return
        for k in incident[v]:
            u, w = edges[k]
            nxt = w if u == v else u
            if visited >> nxt & 1:
                continue
            walk(nxt, visited | 1 << nxt, emask | 1 << k)

    walk(s, 1 << s, 0)
    return out


def max_disjoint_path_sets(
    n: int, edges: list[Edge], s: int, t: int, size: int
) -> list[int]:
    """Union edge masks of every maximum set of edge-disjoint s-t paths."""
    if size == 0:
        return [0]
    paths = simple_paths(n, edges, s, t)
    found: set[int] = set()

    def extend(start: int, used: int, depth: int) -> None:
        if depth == size:
            found.add(used)
            return
        for k in range(start, len(paths)):
            if paths[k] & used:
                continue
            extend(k + 1, used | paths[k], depth + 1)

    extend(0, 0, 0)
    return sorted(found)


# --- cycles through a node ------------------------------------------------------


def cycle_masks(n: int, edges: list[Edge]) -> list[int]:
    """Edge masks of every simple cycle: connected subgraphs where each
    touched vertex has degree exactly two."""
    m = len(edges)
    out = []
    for mask in range(1, 1 << m):
        deg = [0] * n
        touched = []
        for k in range(m):
            if mask >> k & 1:
                u, v = edges[k]
                deg[u] += 1
                deg[v] += 1
        ok = True
        for v in range(n):
            if deg[v] == 2:
                touched.append(v)
            elif deg[v] != 0:
                ok = False
                break
        if not ok or not touched:
            continue
        if connected(n, edges, mask, touched[0], touched[-1]):
            # degree-2 everywhere + connected between two members ->
            # verify every member is reachable (single cycle, not two)
            if all(connected(n, edges, mask, touched[0], w) for w in touched):
                out.append(mask)
    return out


def cycles_through(cycles: list[int], edges: list[Edge], node: int, alive: int) -> list[int]:
    keep = []
    for c in cycles:
        if c & ~alive:
            continue
        if any(node in edges[k] for k in range(len(edges)) if c >> k & 1):
            keep.append(c)
    return keep


def min_hitting_set(universe: list[int], targets: list[int]) -> int:
    """Smallest number of elements of ``universe`` (edge indices) covering
    every target mask."""
    if not targets:
        return 0
    for k in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, k):
            rmask = 0
            for e in combo:
                rmask |= 1 << e
            if all(c & rmask for c in targets):
                return k
    return len(universe)  # pragma: no cover


def cycle_isolation(
    n: int, edges: list[Edge], cycles: list[int], node: int, alive: int
) -> int:
    """Minimum number of alive edges whose removal leaves ``node`` on no cycle."""
    targets = cycles_through(cycles, edges, node, alive)
    universe = [k for k in range(len(edges)) if alive >> k & 1]
    return min_hitting_set(universe, targets)


# --- full privacy-distance oracle -----------------------------------------------


def kappa_oracle(
    n: int,
    edges: list[Edge],
    witness_paths: dict[tuple[int, int], list[list[int]]],
) -> dict:
    """Exhaustive evaluation of the privacy distance.

    ``witness_paths`` maps each node pair to the path set (node lists) the
    library chose; the oracle validates each witness (path validity,
    disjointness, maximality against the enumerated min cut and membership
    in the enumerated maximum path sets) and recomputes the cycle terms
    independently on the leftover edges. Returns the oracle value plus the
    min/max over all maximum path sets for the witness-choice gap.
    """
    full = (1 << len(edges)) - 1
    edge_index = {}
    for k, (u, v) in enumerate(edges):
        edge_index[(u, v)] = k
        edge_index[(v, u)] = k
    cycles = cycle_masks(n, edges)

    value = 0
    value_min = 0
    value_max = 0
    gap_pairs = 0
    for s in range(n):
        for t in range(s + 1, n):
            cut = min_cut(n, edges, s, t)
            paths = witness_paths[(s, t)]
            assert len(paths) == cut, (
                f"pair ({s},{t}): witness has {len(paths)} paths, min cut {cut}"
            )
            used = 0
            for p in paths:
                assert p[0] == s and p[-1] == t
                pmask = 0
                for a, b in zip(p, p[1:]):
                    k = edge_index[(a, b)]
                    assert not pmask >> k & 1, "edge repeated within a path"
                    pmask |= 1 << k
                assert not used & pmask, "witness paths share an edge"
                used |= pmask
            unions = max_disjoint_path_sets(n, edges, s, t, cut)
            assert used in unions, "witness is not a maximum path set"
            term_witness = cut + min(
                cycle_isolation(n, edges, cycles, s, full & ~used),
                cycle_isolation(n, edges, cycles, t, full & ~used),
            )
            terms = []
            for u_mask in unions:
                alive = full & ~u_mask
                terms.append(
                    cut
                    + min(
                        cycle_isolation(n, edges, cycles, s, alive),
                        cycle_isolation(n, edges, cycles, t, alive),
                    )
                )
            if min(terms) != max(terms):
                gap_pairs += 1
            value = max(value, term_witness)
            value_min = max(value_min, min(terms))
            value_max = max(value_max, max(terms))
    return {
        "kappa": value,
        "kappa_min_over_path_sets": value_min,
        "kappa_max_over_path_sets": value_max,
        "pairs_with_choice_gap": gap_pairs,
    }


def cycle_isolation_count(g: PairGraph, s: NodeId) -> int:
    """The library's cycle-isolation cost of ``s`` with no edge removed: the
    closed form ``degree(s) - pieces`` of ``kappa._exact_isolation``, read
    here so that tests can hold it to :func:`cycle_isolation` and use it in
    the bounds they check."""
    return _exact_isolation(g)(g.node_index(s), frozenset())


def kappa_intransitive_oracle(n: int, edges: list[Edge]) -> int:
    """Exhaustive intransitive privacy distance: adjacent pairs pay the
    shared edge plus isolation on the remainder; others pay isolation on
    the whole graph."""
    full = (1 << len(edges)) - 1
    cycles = cycle_masks(n, edges)
    edge_set = {tuple(sorted(e)) for e in edges}
    best = 0
    for s in range(n):
        for t in range(s + 1, n):
            if (s, t) in edge_set:
                k = edges.index((s, t)) if (s, t) in edges else edges.index((t, s))
                alive = full & ~(1 << k)
                term = 1 + min(
                    cycle_isolation(n, edges, cycles, s, alive),
                    cycle_isolation(n, edges, cycles, t, alive),
                )
            else:
                term = min(
                    cycle_isolation(n, edges, cycles, s, full),
                    cycle_isolation(n, edges, cycles, t, full),
                )
            best = max(best, term)
    return best


# --- numerical oracles ------------------------------------------------------------


def staircase_variance(epsilon: float, sensitivity: float, gamma: float) -> float:
    """Closed-form variance of the staircase distribution, the reference for
    ``mechanisms.staircase_sample`` and ``staircase_optimal_gamma``."""
    b = math.exp(-epsilon)
    e_g = b / (1.0 - b)
    e_g2 = b * (1.0 + b) / (1.0 - b) ** 2
    p_low = (1.0 - gamma) * b / (gamma + (1.0 - gamma) * b)
    high = e_g2 + gamma * e_g + gamma**2 / 3.0
    low = (
        e_g2
        + (1.0 + gamma) * e_g
        + gamma**2
        + gamma * (1.0 - gamma)
        + (1.0 - gamma) ** 2 / 3.0
    )
    return sensitivity**2 * ((1.0 - p_low) * high + p_low * low)


def warner_flip(label: int, epsilon: float, rng: np.random.Generator) -> int:
    """Randomized response on one label: keep it with probability
    e^eps/(1+e^eps), with one uniform draw, as ``input_perturb`` flips
    each pair's label."""
    if label not in (0, 1):
        raise OutOfRange(f"label must be 0 or 1, got {label!r}")
    keep = 1.0 / (1.0 + math.exp(-epsilon)) if not math.isinf(epsilon) else 1.0
    return label if rng.random() < keep else 1 - label


def downsample_majority(samples: SampleSet, seed: int = 0) -> SampleSet:
    """Randomly subsample every larger class down to the minority size."""
    classes, counts = np.unique(samples.labels, return_counts=True)
    if len(classes) < 2:
        raise SingleClass("rebalancing needs at least two classes")
    target = int(counts.min())
    rng = np.random.default_rng(seed)
    keep: list[int] = []
    for cls in classes:
        members = np.flatnonzero(samples.labels == cls)
        if len(members) > target:
            members = rng.choice(members, size=target, replace=False)
        keep.extend(int(v) for v in members)
    keep.sort()
    return SampleSet(samples.x[keep], samples.labels[keep], samples.ids[keep])


def finite_difference_gradient(loss_fn, w, row: int, step: float = 1e-6):
    """Central finite differences of ``loss_fn(w)`` w.r.t. one row of w."""
    out = np.zeros(w.shape[1])
    for col in range(w.shape[1]):
        wp = w.copy()
        wp[row, col] += step
        wm = w.copy()
        wm[row, col] -= step
        out[col] = (loss_fn(wp) - loss_fn(wm)) / (2.0 * step)
    return out


def random_graph(rng, max_nodes: int = 8, max_edges: int = 12) -> tuple[int, list[Edge]]:
    """Random simple graph as (n, edge list); may be disconnected."""
    n = int(rng.integers(2, max_nodes + 1))
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    cap = min(max_edges, len(all_pairs))
    m = int(rng.integers(0, cap + 1))
    picks = rng.choice(len(all_pairs), size=m, replace=False) if m else []
    return n, sorted(all_pairs[int(k)] for k in picks)


# --- pair data references -------------------------------------------------------
#
# Pair construction and the pairs-file reader as they ran before pairs were
# kept as columns on the way from sampler or file to graph: one validated
# ``PairwiseDatum`` per pair. The columnar code must give the same pairs
# bit for bit and fail on the same rows with the same errors.


def reference_pair_datum(samples, a: int, b: int) -> PairwiseDatum:
    """Pair between sample rows a and b; label 0 iff same class."""
    y = 0 if samples.labels[a] == samples.labels[b] else 1
    return PairwiseDatum(
        samples.ids[a].item() if hasattr(samples.ids[a], "item") else samples.ids[a],
        samples.ids[b].item() if hasattr(samples.ids[b], "item") else samples.ids[b],
        samples.x[a] - samples.x[b],
        y,
    )


def reference_sample_pairs(
    samples, density: float, balance: bool = False, seed: int = 0
) -> list[tuple[int, int]]:
    """Row pairs ``dataio.sample_pairs`` chooses, in order, as it drew them
    before its draws came in blocks: two scalar ``rng.integers(n)`` calls
    per candidate pair. Raises the same errors when the pairs run out."""
    n = len(samples)
    rng = np.random.default_rng(seed)
    total_possible = n * (n - 1) // 2
    seen, skipped, chosen, nodes, counts = set(), set(), [], set(), [0, 0]

    def satisfied() -> bool:
        if not chosen or (balance and counts[0] != counts[1]):
            return False
        return len(chosen) >= round(density * len(nodes))

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
        a = int(rng.integers(n))
        b = int(rng.integers(n))
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        if key in seen or key in skipped:
            continue
        y = 0 if samples.labels[key[0]] == samples.labels[key[1]] else 1
        if balance and counts[y] > counts[1 - y]:
            skipped.add(key)
            continue
        seen.add(key)
        chosen.append(key)
        counts[y] += 1
        nodes.update(key)
        skipped.clear()
    return chosen


def _reference_looks_like_header(row) -> bool:
    if len(row) < 4:
        return False
    try:
        float(row[2])
        float(row[3])
    except ValueError:
        return True
    return False


def _reference_node_id(cell: str):
    cell = cell.strip()
    try:
        return int(cell)
    except ValueError:
        return cell


def reference_read_pairs_file(path, delimiter: str = ",") -> list[PairwiseDatum]:
    """The per-row reader: row 1 is a header when its label or first feature
    does not parse, and rows may differ in width."""
    pairs: list[PairwiseDatum] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for rownum, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if rownum == 1 and _reference_looks_like_header(row):
                continue
            if len(row) < 4:
                raise ParseError(
                    f"row {rownum}: expected at least 4 columns, got {len(row)}",
                    row=rownum,
                )
            i = _reference_node_id(row[0])
            j = _reference_node_id(row[1])
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
            # a self-loop or a label outside {0, 1} is reported before a
            # non-finite feature, as ``PairwiseDatum`` checks them
            if i != j and y in (0, 1):
                for colnum, (cell, value) in enumerate(zip(row[3:], feats), start=4):
                    if not math.isfinite(value):
                        raise ParseError(
                            f"row {rownum}, col {colnum}: feature {cell!r} is not finite",
                            row=rownum,
                            col=colnum,
                        )
            try:
                pairs.append(PairwiseDatum(i, j, np.array(feats), y))
            except (SelfLoop, ValueError) as exc:
                raise ParseError(f"row {rownum}: {exc}", row=rownum) from exc
    return pairs


def _reference_label(cell: str, rownum: int, col: int):
    cell = cell.strip()
    try:
        value = float(cell)
    except ValueError:
        return cell
    if not value.is_integer():
        raise ParseError(
            f"row {rownum}, col {col}: label {cell!r} is not an integer",
            row=rownum,
            col=col,
        )
    return int(value)


def _reference_features(row, rownum: int, width: int, cols) -> list[float]:
    if len(row) != width:
        raise ParseError(f"row {rownum}: expected {width} columns, got {len(row)}",
                         row=rownum)
    feats = []
    for c in cols:
        try:
            feats.append(float(row[c]))
        except ValueError:
            raise ParseError(f"row {rownum}, col {c + 1}: feature {row[c]!r} is not "
                             "numeric", row=rownum, col=c + 1) from None
    return feats


def reference_load_csv(path, label_col: str = "label", id_col: str = "id",
                       delimiter: str = ",") -> SampleSet:
    """The per-row samples reader: header, then one parsed row at a time,
    blank rows skipped; without an id column a row's id is its line number
    less 2."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty samples file", row=1) from None
        header = [c.strip() for c in header]
        if label_col not in header:
            raise MissingLabelColumn(
                f"samples file lacks label column {label_col!r} "
                f"(columns: {header})"
            )
        label_idx = header.index(label_col)
        id_idx = header.index(id_col) if id_col in header else None
        feat_idx = [
            k for k in range(len(header)) if k != label_idx and k != id_idx
        ]
        rows, labels, ids = [], [], []
        first_row: dict = {}
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            feats = _reference_features(row, rownum, len(header), feat_idx)
            for c, value in zip(feat_idx, feats):
                if not math.isfinite(value):
                    raise ParseError(f"row {rownum}, col {c + 1}: feature "
                                     f"{row[c]!r} is not finite", row=rownum, col=c + 1)
            rows.append(feats)
            labels.append(_reference_label(row[label_idx], rownum, label_idx + 1))
            if id_idx is not None:
                node_id = _reference_node_id(row[id_idx])
                if node_id in first_row:
                    raise ParseError(
                        f"row {rownum}, col {id_idx + 1}: id {node_id!r} "
                        f"repeats row {first_row[node_id]}",
                        row=rownum,
                        col=id_idx + 1,
                    )
                first_row[node_id] = rownum
                ids.append(node_id)
            else:
                ids.append(rownum - 2)
    if not rows:
        raise ParseError("samples file has a header but no data rows", row=2)
    mixed = len(set(map(type, ids))) > 1
    return SampleSet(np.array(rows), np.array(labels),
                     np.array(ids, dtype=object if mixed else None))


# --- writer references ----------------------------------------------------------
#
# The row-by-row writers: every float cell is formatted with ``repr`` before
# the csv module sees it.


def reference_write_pairs_file(path, pairs, delimiter: str = ",") -> None:
    ps = PairSet.of(pairs)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["i", "j", "y"] + [f"dx_{k + 1}" for k in range(ps.dim)])
        for i, j, y, dx in zip(ps.i, ps.j, ps.y.tolist(), ps.dx.tolist()):
            writer.writerow([i, j, y] + [repr(v) for v in dx])


def reference_save_samples_csv(path, samples: SampleSet, delimiter: str = ",") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["id", "label"] + [f"f{k + 1}" for k in range(samples.dim)])
        for i, label, row in zip(
            samples.ids.tolist(), samples.labels.tolist(), samples.x.tolist()
        ):
            writer.writerow([i, label] + [repr(v) for v in row])


def reference_write_csv(path, fieldnames, rows) -> None:
    """A header, then each row with its floats (numpy's too) as ``repr`` of
    a Python float."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, float) else v for v in row]
            )


# --- training reference -------------------------------------------------------
#
# The per-pair, per-step training loop as it ran before pairs were stored as
# columns: margin summed pair by pair, every batch sliced, masked and bounded
# again on every step, norms through ``np.linalg.norm``. ``train`` must match
# it bit for bit. It shares with ``dml`` only the config and trace types, the
# step size, the fixed bound, the batch split and the noise samplers.


def reference_default_margin(pairs, ratio: float, norm_mode: str) -> float:
    dissimilar = [p for p in pairs if p.y == 1]
    total = sum(
        float(np.abs(p.delta_x).sum()) if norm_mode == "l1"
        else float(np.linalg.norm(p.delta_x))
        for p in dissimilar
    )
    return ratio * total / len(dissimilar)


def reference_objective(w, dx, y, margin: float) -> float:
    d_w = np.linalg.norm(w @ dx.T, axis=0)
    losses = np.where(
        y == 0, 0.5 * d_w**2, 0.5 * np.maximum(0.0, margin - d_w) ** 2
    )
    return float(losses.mean())


def _reference_coefficients(w, dx, y, margin: float):
    proj = w @ dx.T
    d_w = np.linalg.norm(proj, axis=0)
    coef = np.ones_like(d_w)
    active = (y == 1) & (d_w > 0) & (d_w < margin)
    coef[active] = (d_w[active] - margin) / d_w[active]
    dead = (y == 1) & ((d_w >= margin) | (d_w == 0))
    coef[dead] = 0.0
    degenerate = int(np.count_nonzero((y == 1) & (d_w == 0)))
    return proj * coef, degenerate


def masked_divide_coefficients(w, dx, dissimilar, margin):
    """``dml._coefficients`` as one masked divide over every batch: each
    hinge quotient is computed only where it is kept."""
    proj = w @ dx.swapaxes(-1, -2)
    d_w = np.sqrt(np.add.reduce(proj * proj, axis=-2))
    coef = np.where(dissimilar, 0.0, 1.0)
    active = dissimilar & (d_w < margin)
    degenerate = None
    if not d_w.all():
        zero = dissimilar & (d_w == 0)
        degenerate = np.count_nonzero(zero, axis=-1)
        active &= ~zero
    np.divide(d_w - margin, d_w, out=coef, where=active)
    return proj * coef[..., None, :], degenerate


def sensitivity_basic(
    kappa: int, h: float, batch_size: int, d_prime: int = 1
) -> np.ndarray:
    """Fixed per-row bound ``2 kappa h / batch_size`` from the Lipschitz cap,
    as a ``(d_prime,)`` array: the training loop's basic bound."""
    return np.full(d_prime, 2.0 * kappa * h / batch_size)


def _reference_reduced_bound(g_peaks, w, h, margin, kappa, batch_size, norm_mode):
    if norm_mode == "l1":
        w_norms = np.abs(w).sum(axis=1)
        hinge_cap = 2.0 * margin * math.sqrt(w.shape[0])
    else:
        w_norms = np.linalg.norm(w, axis=1)
        hinge_cap = 2.0 * margin
    counterpart = np.minimum(h, np.maximum(4.0 * w_norms, hinge_cap))
    return kappa * (g_peaks + counterpart) / batch_size


def reference_train(pairs, graph, config, kappa_report=None):
    """``dml.train`` on a list of ``PairwiseDatum``, one pair at a time where
    the data is gathered and every per-batch value recomputed each step."""
    config.validate()
    d = pairs[0].dim
    if kappa_report is None:
        kappa_report = compute_kappa(graph)
    kappa = kappa_report.kappa
    margin = (
        config.margin
        if config.margin is not None
        else reference_default_margin(pairs, config.margin_ratio, config.norm_mode)
    )
    dx_all = np.stack([p.delta_x for p in pairs])
    y_all = np.array([p.y for p in pairs], dtype=int)
    dx_norms = (
        np.abs(dx_all).sum(axis=1)
        if config.norm_mode == "l1"
        else np.linalg.norm(dx_all, axis=1)
    )

    seeds = np.random.SeedSequence(config.seed).spawn(2 + config.d_prime)
    init_rng = np.random.default_rng(seeds[0])
    order_rng = np.random.default_rng(seeds[1])
    row_rngs = [np.random.default_rng(s) for s in seeds[2:]]

    w = init_rng.uniform(-config.init_scale, config.init_scale, (config.d_prime, d))
    order = order_rng.permutation(len(pairs))
    if config.batch_mode == "component":
        comp_of = {}
        for ci, comp in enumerate(graph.components()):
            for v in comp:
                comp_of[v] = ci
        comp_key = np.array(
            [comp_of[graph.node_index(pairs[k].i)] for k in order]
        )
        order = order[np.argsort(comp_key, kind="stable")]
    batches = [
        order[k : k + config.batch_size]
        for k in range(0, len(pairs), config.batch_size)
    ]
    if len(batches) > 1 and len(batches[-1]) < config.batch_size / 2:
        batches.pop()

    eps_epoch = (
        math.inf if config.mechanism == "none" else config.epsilon / config.t_max
    )
    h = config.lipschitz
    gamma = config.staircase_gamma
    if config.mechanism == "staircase" and gamma is None:
        gamma = staircase_optimal_gamma(eps_epoch)

    trace = TrainTrace(
        kappa=kappa,
        kappa_method=kappa_report.method,
        margin=margin,
        initial_objective=reference_objective(w, dx_all, y_all, margin),
    )
    tau = 0
    for epoch in range(1, config.t_max + 1):
        for batch in batches:
            tau += 1
            eta = step_size(tau)
            dx = dx_all[batch]
            yv = y_all[batch]
            n_b = len(batch)

            amat, degenerate = _reference_coefficients(w, dx, yv, margin)
            trace.degenerate_events += degenerate
            raw_norms = np.abs(amat) * dx_norms[batch]
            clip = np.maximum(1.0, raw_norms / h)
            cmat = amat / clip
            clipped_norms = raw_norms / clip
            g_peaks = clipped_norms.max(axis=1)
            mean_grad = (cmat @ dx) / n_b

            basic = sensitivity_basic(kappa, h, n_b, config.d_prime)
            reduced = _reference_reduced_bound(
                g_peaks, w, h, margin, kappa, n_b, config.norm_mode
            )
            sens = reduced if config.sensitivity_mode == "reduced" else basic

            update = mean_grad
            if config.mechanism != "none":
                update = mean_grad.copy()
                for r in range(config.d_prime):
                    update[r] += reference_row_noise(
                        mean_grad[r], sens[r], eps_epoch, config, gamma,
                        h, row_rngs[r],
                    )
            w = w - eta * update

            trace.iterations.append(tau)
            trace.epochs.append(epoch)
            trace.objectives.append(reference_objective(w, dx_all, y_all, margin))
            trace.etas.append(eta)
            trace.sens_basic.append(float(basic[0]))
            trace.sens_reduced.append(reduced)
    return MetricModel(w), trace


def reference_row_noise(mean_row, sens, eps_epoch, config, gamma, h, rng):
    """One row's noise drawn at its own step, as ``train`` took it before
    every mechanism's noise came from draws taken at set-up, one block per
    stream: zeros at an infinite budget or a zero sensitivity, else one call
    of the mechanism's sampler (for the one-bit randomizer, the correction
    that replaces the row)."""
    d = mean_row.shape[0]
    if math.isinf(eps_epoch) or sens == 0.0:
        return np.zeros(d)
    if config.mechanism == "laplace":
        return laplace_sample(sens / eps_epoch, rng, size=d)
    if config.mechanism == "gaussian":
        sigma = gaussian_sigma(eps_epoch, config.delta, sens)
        return rng.normal(0.0, sigma, size=d)
    if config.mechanism == "staircase":
        return staircase_sample(eps_epoch, sens, gamma, rng, size=d)
    scaled = np.clip(mean_row / h, -1.0, 1.0)
    return h * duchi_randomize_vector(scaled, eps_epoch, rng) - mean_row


def reference_input_perturb(pairs, epsilon, rng, feature_share: float = 0.5):
    """Input perturbation one ``PairwiseDatum`` at a time: each pair's ``d``
    Laplace draws, then its randomized-response draw."""
    d = pairs[0].dim
    eps_feat = feature_share * epsilon
    eps_label = (1.0 - feature_share) * epsilon
    scale = 0.0 if math.isinf(eps_feat) else 2.0 * d / eps_feat
    out = []
    for p in pairs:
        noise = rng.laplace(0.0, scale, size=d) if scale > 0 else np.zeros(d)
        out.append(
            PairwiseDatum(p.i, p.j, p.delta_x + noise, warner_flip(p.y, eps_label, rng))
        )
    return out


def reference_knn_accuracy(model, train_x, train_labels, test_x, test_labels, k):
    """``evaluation.knn_accuracy`` one test row at a time, with labels encoded
    through a dict: the ``k`` nearest by stable sort of squared distances,
    the majority label, and the nearest neighbour's label on a tied vote."""
    classes = np.unique(np.concatenate([np.asarray(train_labels),
                                        np.asarray(test_labels)]))
    lookup = {c: code for code, c in enumerate(classes.tolist())}
    y_train = np.array([lookup[v] for v in np.asarray(train_labels).tolist()])
    y_test = np.array([lookup[v] for v in np.asarray(test_labels).tolist()])
    p_train = np.asarray(train_x, dtype=float) @ model.w.T
    p_test = np.asarray(test_x, dtype=float) @ model.w.T
    d2 = (
        np.sum(p_test**2, axis=1)[:, None]
        + np.sum(p_train**2, axis=1)[None, :]
        - 2.0 * p_test @ p_train.T
    )
    correct = 0
    for row in range(len(p_test)):
        nearest = np.argsort(d2[row], kind="stable")[:k]
        votes = np.bincount(y_train[nearest], minlength=len(classes))
        winners = np.flatnonzero(votes == votes.max())
        pred = winners[0] if len(winners) == 1 else y_train[nearest[0]]
        correct += int(pred == y_test[row])
    return correct / len(p_test)
