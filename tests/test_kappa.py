from __future__ import annotations

import gc
import logging
import os
import tracemalloc
from dataclasses import replace
from itertools import combinations

import pytest

from dppdml import dataio, kappa
from dppdml.errors import GraphTooLarge, SameNode, UnknownNode
from dppdml.kappa import (
    KappaReport,
    compute_kappa,
    kappa_exact,
    kappa_intransitive,
    kappa_node_dp,
    kappa_upper,
    max_edge_disjoint_paths,
    pair_terms,
)
from dppdml.pairgraph import build_graph

from .conftest import graph_from_edges
from . import oracles

logger = logging.getLogger(__name__)

TRIANGLE = [("a", "b"), ("b", "c"), ("c", "a")]
K4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
BOWTIE = [("x", "a"), ("a", "b"), ("b", "x"), ("x", "c"), ("c", "d"), ("d", "x")]


#: 16 nodes, each on two cycles of the circulant graph C16(1, 5).
CIRCULANT_16 = graph_from_edges(
    [(k, (k + 1) % 16) for k in range(16)]
    + [(k, (k + 5) % 16) for k in range(16)]
)


def kept_bytes(make):
    """What ``make()`` returns, and the bytes that lines of ``dppdml``
    allocated during the call and still hold, as tracemalloc counts them.
    Only the package's own lines count: other libraries' garbage-collector
    callbacks allocate during the call too."""
    own = [tracemalloc.Filter(True, os.path.join(os.path.dirname(kappa.__file__), "*"))]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(own)
        made = make()
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(own)
    finally:
        tracemalloc.stop()
    return made, sum(d.size_diff for d in after.compare_to(before, "filename"))


def caterpillar(hubs):
    """A path of ``hubs`` hubs with 5 leaves each, plus a separate triangle
    ``t0``, ``t1``, ``t2``. A hub has degree up to 7 but cut bound ``u`` 1,
    so only the triangle's pairs can score 2."""
    edges = [(f"h{k}", f"h{k + 1}") for k in range(hubs - 1)]
    edges += [(f"h{k}", f"l{k}.{j}") for k in range(hubs) for j in range(5)]
    return graph_from_edges(edges + [("t0", "t1"), ("t1", "t2"), ("t2", "t0")])


def flow_calls(monkeypatch):
    """Counts the calls the pair loop makes to ``max_edge_disjoint_paths``."""
    calls = []
    real = kappa.max_edge_disjoint_paths

    def spy(g, s, t):
        calls.append((s, t))
        return real(g, s, t)

    monkeypatch.setattr(kappa, "max_edge_disjoint_paths", spy)
    return calls


def edge_key(g, a, b):
    """The index key ``(i, j)``, ``i < j``, by which removed edges are named."""
    return tuple(sorted((g.node_index(a), g.node_index(b))))


def witness_paths_for(g):
    """Library witness path sets keyed by integer node-id pairs."""
    ids = sorted(g.nodes())
    out = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            _, paths = max_edge_disjoint_paths(g, a, b)
            out[(a, b)] = paths
    return out


def midsize_graphs(rng, low, high, relation="transitive", max_extra=6):
    """Eight graphs of ``low`` to ``high - 1`` nodes each: a random tree
    missing up to two edges plus up to ``max_extra`` extra edges, and a
    forest in every third trial."""
    for trial in range(8):
        n = int(rng.integers(low, high))
        edges = {(int(rng.integers(k)), k) for k in range(1, n)}
        for e in sorted(edges)[: int(rng.integers(0, 3))]:
            edges.discard(e)
        extra = int(rng.integers(0, max_extra + 1)) if trial % 3 else 0
        target = len(edges) + extra
        while len(edges) < target:
            a, b = int(rng.integers(n)), int(rng.integers(n))
            if a != b:
                edges.add((min(a, b), max(a, b)))
        yield graph_from_edges(sorted(edges), relation=relation, n_nodes=n)


class TestEdgeDisjointPaths:
    def test_disconnected_pair_has_no_paths(self):
        g = graph_from_edges([("a", "b"), ("c", "d")])
        count, paths = max_edge_disjoint_paths(g, "a", "c")
        assert count == 0
        assert paths == []

    def test_tree_pair_has_unique_path(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "d")])
        count, paths = max_edge_disjoint_paths(g, "a", "d")
        assert count == 1
        assert paths == [["a", "b", "c", "d"]]

    def test_fig5_source_sink_pair(self, fig5_graph):
        count, paths = max_edge_disjoint_paths(fig5_graph, "s", "t")
        assert count == 2
        assert ["s", "t"] in paths
        used = set()
        for p in paths:
            for e in zip(p, p[1:]):
                key = tuple(sorted(e))
                assert key not in used
                used.add(key)

    def test_same_node_rejected(self, fig5_graph):
        with pytest.raises(SameNode):
            max_edge_disjoint_paths(fig5_graph, "s", "s")

    def test_unknown_node_rejected(self, fig5_graph):
        with pytest.raises(UnknownNode):
            max_edge_disjoint_paths(fig5_graph, "s", "zz")

    def test_menger_consistency_on_random_graphs(self, rng):
        """Path count equals the enumerated minimum cut on small graphs."""
        for _ in range(60):
            n, edges = oracles.random_graph(rng, max_nodes=6, max_edges=10)
            if n < 2:
                continue
            g = graph_from_edges(edges, n_nodes=n)
            for s in range(n):
                for t in range(s + 1, n):
                    count, paths = max_edge_disjoint_paths(g, s, t)
                    assert count == oracles.min_cut(n, edges, s, t)
                    used = set()
                    for p in paths:
                        assert p[0] == s and p[-1] == t
                        for e in zip(p, p[1:]):
                            key = tuple(sorted(e))
                            assert key not in used
                            used.add(key)


    def test_witness_paths_match_capacity_map_reference(self, rng):
        """``kappa_exact`` removes exactly the witness paths' edges, so its
        terms depend on them: value and path lists must equal those of the
        capacity-map flow, decomposed by the same walk. Breadth-first
        augmentation rarely cancels a unit of flow; graphs of up to 20
        nodes and 60 edges make it happen in about one graph in ten."""
        pairs = 0
        for _ in range(300):
            n, edges = oracles.random_graph(rng, max_nodes=20, max_edges=60)
            g = graph_from_edges(edges, n_nodes=n)
            for s, t in combinations(g.nodes(), 2):
                si, ti = g.node_index(s), g.node_index(t)
                value, used = oracles.reference_unit_max_flow(g, si, ti)
                want = [
                    [g.node_id(i) for i in p]
                    for p in kappa._decompose_paths(used, si, ti, value)
                ]
                assert max_edge_disjoint_paths(g, s, t) == (value, want)
                pairs += value > 1
        assert pairs > 300

    def test_capped_flow_keeps_the_uncapped_paths_on_a_saturated_graph(self):
        """On the 4-regular, 4-edge-connected ``CIRCULANT_16`` every pair's
        flow reaches ``min(deg(s), deg(t))``, where it stops without a last
        search; value and paths equal those of the uncapped reference."""
        g = CIRCULANT_16
        for s, t in combinations(g.nodes(), 2):
            si, ti = g.node_index(s), g.node_index(t)
            value, used = oracles.reference_unit_max_flow(g, si, ti)
            assert value == 4 == min(g.degree(s), g.degree(t))
            want = [
                [g.node_id(i) for i in p]
                for p in kappa._decompose_paths(used, si, ti, value)
            ]
            assert max_edge_disjoint_paths(g, s, t) == (value, want)


class TestCycleIsolation:
    def test_acyclic_graph_needs_nothing(self):
        g = graph_from_edges([("a", "b"), ("b", "c")])
        assert oracles.cycle_isolation_count(g, "b") == 0

    def test_triangle_needs_one(self):
        g = graph_from_edges(TRIANGLE)
        assert oracles.cycle_isolation_count(g, "a") == 1

    def test_two_shared_triangles_need_two(self):
        g = graph_from_edges(BOWTIE)
        assert oracles.cycle_isolation_count(g, "x") == 2

    def test_matches_subset_search_oracle(self, rng):
        for _ in range(40):
            n, edges = oracles.random_graph(rng, max_nodes=6, max_edges=9)
            g = graph_from_edges(edges, n_nodes=n)
            cycles = oracles.cycle_masks(n, edges)
            alive = (1 << len(edges)) - 1
            for v in range(n):
                assert oracles.cycle_isolation_count(g, v) == oracles.cycle_isolation(
                    n, edges, cycles, v, alive
                )

    def test_closed_form_matches_oracle_after_removals(self, rng):
        """``k - pieces`` after the removed sets the pair loop passes (a
        max-flow path set, or a pair's own edge) and after random ones,
        against the subset-search oracle on the remaining edges."""
        checked = 0
        for _ in range(300):
            n, edges = oracles.random_graph(rng, max_nodes=9, max_edges=14)
            g = graph_from_edges(edges, n_nodes=n)
            isolation = kappa._exact_isolation(g)
            cycles = oracles.cycle_masks(n, edges)
            key_bit = {
                edge_key(g, a, b): 1 << k for k, (a, b) in enumerate(edges)
            }
            removed_sets = [frozenset()]
            removed_sets += [frozenset({k}) for k in key_bit]
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            _, paths = max_edge_disjoint_paths(g, a, b)
            removed_sets.append(frozenset(
                edge_key(g, x, y) for p in paths for x, y in zip(p, p[1:])
            ))
            for _ in range(3):
                removed_sets.append(frozenset(
                    k for k in key_bit if rng.random() < 0.4
                ))
            for removed in removed_sets:
                alive = sum(key_bit.values()) - sum(key_bit[e] for e in removed)
                for v in range(n):
                    assert isolation(g.node_index(v), removed) == (
                        oracles.cycle_isolation(n, edges, cycles, v, alive)
                    ), (n, edges, v, sorted(removed))
                    checked += 1
        assert checked > 10_000


class TestKappaExact:
    def test_tree_value_is_one(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("b", "d"), ("d", "e")])
        report = kappa_exact(g)
        assert report.kappa == 1
        assert report.method == "exact"
        assert report.witness_pair is not None

    def test_single_edge_terms(self):
        g = graph_from_edges([("a", "b")])
        report = kappa_exact(g)
        assert report.kappa == 1
        assert pair_terms(g)[("a", "b")] == (1, 0, 0)

    def test_edgeless_graph_is_zero(self):
        g = graph_from_edges([], n_nodes=3)
        assert kappa_exact(g).kappa == 0

    def test_k4_matches_oracle(self):
        g = graph_from_edges(K4)
        oracle = oracles.kappa_oracle(4, K4, witness_paths_for(g))
        assert kappa_exact(g).kappa == oracle["kappa"]

    def test_witness_choice_gap_fixture_stays_inside_oracle_bounds(self):
        """A pair whose term depends on which maximum path set is removed:
        the long witness paths eat cycle edges and cheapen isolation. The
        deterministic choice must land on one of the enumerated terms and
        the overall value must stay inside the oracle's min/max sandwich."""
        edges = [(0, 1), (0, 3), (0, 7), (1, 7), (2, 4), (2, 5),
                 (3, 4), (3, 7), (4, 5), (6, 7)]
        g = graph_from_edges(edges, n_nodes=8)
        full = (1 << len(edges)) - 1
        cycles = oracles.cycle_masks(8, edges)
        cut = oracles.min_cut(8, edges, 0, 4)
        assert cut == 1
        terms = []
        for union in oracles.max_disjoint_path_sets(8, edges, 0, 4, cut):
            alive = full & ~union
            terms.append(cut + min(
                oracles.cycle_isolation(8, edges, cycles, 0, alive),
                oracles.cycle_isolation(8, edges, cycles, 4, alive),
            ))
        assert sorted(terms) == [1, 1, 2]  # the choice genuinely matters
        report = kappa_exact(g)
        n_paths, c_s, c_t = pair_terms(g)[(0, 4)]
        assert n_paths + min(c_s, c_t) in terms
        oracle = oracles.kappa_oracle(8, edges, witness_paths_for(g))
        assert report.kappa == oracle["kappa"] == 3
        assert (oracle["kappa_min_over_path_sets"] <= report.kappa
                <= oracle["kappa_max_over_path_sets"])

    def test_disconnected_cyclic_components_contribute_isolation_terms(self):
        # pairs across components have no paths but both isolation costs
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        g = graph_from_edges(edges)
        report = kappa_exact(g)
        assert report.kappa == 2
        assert pair_terms(g)[(0, 3)] == (0, 1, 1)
        oracle = oracles.kappa_oracle(6, edges, witness_paths_for(g))
        assert report.kappa == oracle["kappa"]

        # a bowtie, a K4, a tree and an isolated node: every cross-component
        # pair reads both whole-graph isolation costs
        edges = ([(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
                 + [(a, b) for a in range(5, 9) for b in range(a + 1, 9)]
                 + [(9, 10), (10, 11), (10, 12)])
        g = graph_from_edges(edges, n_nodes=14)
        report = kappa_exact(g)
        terms = pair_terms(g)
        comp_of = {}
        for ci, comp in enumerate(g.components()):
            for v in comp:
                comp_of[g.node_id(v)] = ci
        assert len(set(comp_of.values())) == 4
        cross = [(a, b) for (a, b) in terms if comp_of[a] != comp_of[b]]
        assert len(cross) == 14 * 13 // 2 - (10 + 6 + 6)
        for a, b in cross:
            assert terms[(a, b)] == (
                0,
                oracles.cycle_isolation_count(g, a),
                oracles.cycle_isolation_count(g, b),
            )
        assert terms[(0, 5)] == (0, 2, 2)
        assert report.kappa == max(
            n + min(cs, ct) for n, cs, ct in terms.values()
        )

    def test_compact_terms_behave_like_the_plain_dict(self, rng):
        """``pair_terms`` equals a plain dict built by the same loop: same
        keys in the same order, values, ``len``, ``==`` both ways and a
        report's ``to_dict()``; a reversed or unknown key raises
        ``KeyError``."""
        for relation in ("transitive", "intransitive"):
            for _ in range(40):
                n, edges = oracles.random_graph(rng, max_nodes=12, max_edges=20)
                if not edges:
                    continue
                g = graph_from_edges(edges, relation=relation, n_nodes=n)
                plain = {}
                for a, b in combinations(g.nodes(), 2):
                    if relation == "intransitive":
                        count = int(g.node_index(b) in g.adjacency[g.node_index(a)])
                        dropped = [(a, b)] if count else []
                    else:
                        count, paths = max_edge_disjoint_paths(g, a, b)
                        dropped = [e for p in paths for e in zip(p, p[1:])]
                    sub = oracles.remove_edges(g, dropped)
                    plain[(a, b)] = (count, oracles.cycle_isolation_count(sub, a),
                                     oracles.cycle_isolation_count(sub, b))
                report = compute_kappa(g, method="exact")
                terms = pair_terms(g)
                assert list(terms) == list(plain)
                assert list(terms.items()) == list(plain.items())
                assert list(terms.values()) == list(plain.values())
                assert len(terms) == len(plain) == n * (n - 1) // 2
                assert terms == plain and plain == terms
                assert all(terms[k] == v for k, v in plain.items())
                with_dict = KappaReport(
                    report.kappa, report.method, report.witness_pair, plain,
                    report.detail,
                )
                assert replace(report, per_pair_terms=terms).to_dict() == (
                    with_dict.to_dict()
                )
                a, b = next(iter(plain))
                assert (a, b) in terms and (b, a) not in terms
                for bad in [(b, a), (a, n + 5), (n + 5, a), (a, a), (a,), a]:
                    with pytest.raises(KeyError):
                        terms[bad]

    def test_guard_rejects_large_graphs(self):
        g = graph_from_edges([(k, k + 1) for k in range(70)])
        with pytest.raises(GraphTooLarge):
            kappa_exact(g)
        assert kappa_exact(g, exact_limit=100).kappa == 1

    def test_deterministic_reports(self, fig5_graph):
        first = kappa_exact(fig5_graph)
        second = kappa_exact(fig5_graph)
        assert first == second

    def test_pruned_pair_loop_matches_plain_loop_on_midsize_graphs(self, rng):
        """The pair loop prunes and may take the forest shortcut; above the
        table size, where ``TestPairTerms`` does not reach, the value must
        match an unpruned sweep."""
        for g in midsize_graphs(rng, 30, 61):
            n = g.num_nodes
            comp_of = {}
            for ci, comp in enumerate(g.components()):
                for v in comp:
                    comp_of[g.node_id(v)] = ci  # components() yields indices
            terms = {}
            for a in range(n):
                for b in range(a + 1, n):
                    if comp_of[a] != comp_of[b]:
                        cs = oracles.cycle_isolation_count(g, a)
                        ct = oracles.cycle_isolation_count(g, b)
                        terms[frozenset((a, b))] = min(cs, ct)
                        continue
                    count, paths = max_edge_disjoint_paths(g, a, b)
                    sub = oracles.remove_edges(
                        g, [e for p in paths for e in zip(p, p[1:])]
                    )
                    terms[frozenset((a, b))] = count + min(
                        oracles.cycle_isolation_count(sub, a),
                        oracles.cycle_isolation_count(sub, b),
                    )
            report = kappa_exact(g)
            assert report.kappa == max(terms.values())
            assert terms[frozenset(report.witness_pair)] == report.kappa

    def test_caterpillar_runs_one_flow(self, monkeypatch):
        """1,203 nodes, most of them hubs of degree up to 7 and leaves: the
        cut bound leaves only the triangle's pairs above 1, and the first
        of them, a term of 2, ends the loop."""
        g = caterpillar(200)
        assert g.num_nodes == 1203
        calls = flow_calls(monkeypatch)
        report = compute_kappa(g, method="exact", exact_limit=2000)
        assert (report.kappa, report.witness_pair) == (2, ("t0", "t1"))
        assert len(calls) <= 2

    def test_auto_on_a_63_node_caterpillar_runs_one_flow(self, monkeypatch):
        """The same shape at the size ``auto`` still computes exactly."""
        g = caterpillar(10)
        assert g.num_nodes == 63
        calls = flow_calls(monkeypatch)
        report = compute_kappa(g)
        assert (report.kappa, report.method) == (2, "exact")
        assert len(calls) <= 2


class TestKappaUpper:
    def test_star_bound_is_one(self):
        g = graph_from_edges([("c", f"l{k}") for k in range(4)])
        assert kappa_upper(g).kappa == 1

    def test_triangle_bound_is_two(self):
        g = graph_from_edges(TRIANGLE)
        assert kappa_upper(g).kappa == 2
        assert kappa_exact(g).kappa == 2

    def test_bound_dominates_exact_on_randoms(self, rng):
        for _ in range(40):
            n, edges = oracles.random_graph(rng, max_nodes=7, max_edges=11)
            g = graph_from_edges(edges, n_nodes=n)
            assert kappa_exact(g).kappa <= kappa_upper(g).kappa

    def test_matches_per_node_reference(self, rng):
        """Same report as degree minus the recounted component increase,
        with the first maximising node as witness, on graphs of up to 60
        nodes with isolated nodes and several components."""
        for _ in range(60):
            n, edges = oracles.random_graph(rng, max_nodes=60, max_edges=80)
            g = graph_from_edges(edges, n_nodes=n)
            best, witness = 0, None
            for v in g.nodes():
                term = g.degree(v) - oracles.component_increase(g, v)
                if term > best:
                    best, witness = term, v
            expected = {"kappa": best, "method": "upper_bound"}
            if witness is not None:
                expected["detail"] = f"witness_node={witness!r}"
            assert kappa_upper(g).to_dict() == expected


class TestKappaNodeDp:
    def test_edgeless_is_zero(self):
        assert kappa_node_dp(graph_from_edges([], n_nodes=4)).kappa == 0

    def test_star_is_leaf_count(self):
        g = graph_from_edges([("c", f"l{k}") for k in range(5)])
        assert kappa_node_dp(g).kappa == 5

    def test_tree_gap_versus_pairwise_notion(self):
        g = graph_from_edges([("c", f"l{k}") for k in range(5)])
        assert kappa_exact(g).kappa == 1
        assert kappa_node_dp(g).kappa == 5

    def test_monotone_under_edge_deletion(self, rng):
        for _ in range(20):
            n, edges = oracles.random_graph(rng, max_nodes=7, max_edges=11)
            if not edges:
                continue
            g = graph_from_edges(edges, n_nodes=n)
            base = kappa_node_dp(g).kappa
            for key in g.edge_keys():
                sub = oracles.remove_edges(g, [key])
                assert kappa_node_dp(sub).kappa <= base

    def test_exact_monotonicity_flagged_not_asserted(self, rng):
        """Edge deletion occasionally interacts oddly with the exact value;
        log any increase rather than failing."""
        bumps = 0
        for _ in range(15):
            n, edges = oracles.random_graph(rng, max_nodes=6, max_edges=8)
            if not edges:
                continue
            g = graph_from_edges(edges, n_nodes=n)
            base = kappa_exact(g).kappa
            for key in g.edge_keys():
                after = kappa_exact(oracles.remove_edges(g, [key])).kappa
                if after > base:
                    bumps += 1
                    logger.warning(
                        "exact privacy distance rose from %d to %d after "
                        "deleting %s", base, after, key,
                    )
        logger.info("non-monotone deletions observed: %d", bumps)


class TestKappaIntransitive:
    def test_acyclic_with_edge_is_one(self):
        g = graph_from_edges([("a", "b"), ("b", "c")], relation="intransitive")
        assert kappa_intransitive(g).kappa == 1

    def test_triangle_is_one(self):
        g = graph_from_edges(TRIANGLE, relation="intransitive")
        assert kappa_intransitive(g).kappa == 1

    def test_bowtie_matches_oracle(self):
        edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
        g = graph_from_edges(edges, relation="intransitive")
        assert kappa_intransitive(g).kappa == oracles.kappa_intransitive_oracle(
            5, edges
        )

    def test_random_graphs_match_oracle(self, rng):
        for _ in range(25):
            n, edges = oracles.random_graph(rng, max_nodes=6, max_edges=9)
            if not edges:
                continue
            g = graph_from_edges(edges, relation="intransitive", n_nodes=n)
            assert kappa_intransitive(g).kappa == oracles.kappa_intransitive_oracle(
                n, edges
            )

    def test_terms_follow_degree_formula_and_match_oracle(self, rng):
        checked = 0
        for _ in range(25):
            n, edges = oracles.random_graph(rng, max_nodes=6, max_edges=9)
            if not edges:
                continue
            g = graph_from_edges(edges, relation="intransitive", n_nodes=n)
            report = kappa_intransitive(g)
            terms = pair_terms(g)
            assert report.kappa == oracles.kappa_intransitive_oracle(n, edges)
            # each isolation cost is degree - increase - 1 on the graph
            # without the pair's own edge
            for (a, b), triple in terms.items():
                linked = g.node_index(b) in g.adjacency[g.node_index(a)]
                sub = oracles.remove_edges(g, [(a, b)]) if linked else g
                assert triple == (int(linked),) + tuple(
                    max(0, sub.degree(v) - oracles.component_increase(sub, v) - 1)
                    for v in (a, b)
                )
            # up to the table size the witness is the first maximising pair
            # in index order
            maximisers = [
                k for k, (p, cs, ct) in terms.items()
                if p + min(cs, ct) == report.kappa
            ]
            assert report.witness_pair == min(
                maximisers, key=lambda k: (g.node_index(k[0]), g.node_index(k[1]))
            )
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("by_count", [True, False])
    def test_pruned_pair_loop_matches_plain_loop_on_midsize_graphs(
        self, rng, by_count
    ):
        """The pair loop must match an unpruned sweep over reduced graphs
        whose isolation costs come from ``oracles.cycle_isolation_count`` (by
        count) or from the oracle's ``degree - increase - 1``: value and
        witness term at every size, and up to the table size every term of
        ``pair_terms``. The loop prunes and may take the forest
        shortcut."""

        def cost(graph, v):
            if by_count:
                return oracles.cycle_isolation_count(graph, v)
            increase = oracles.component_increase(graph, v)
            return max(0, graph.degree(v) - increase - 1)

        sizes = []
        for g in [
            *midsize_graphs(rng, 10, 25, "intransitive", max_extra=30),
            *midsize_graphs(rng, 25, 41, "intransitive", max_extra=30),
        ]:
            n = g.num_nodes
            full = {v: cost(g, v) for v in range(n)}
            terms = {}  # keyed like pair_terms: ids in index order
            for a, b in combinations(sorted(range(n), key=g.node_index), 2):
                if g.node_index(b) in g.adjacency[g.node_index(a)]:
                    sub = oracles.remove_edges(g, [(a, b)])
                    terms[(a, b)] = (1, cost(sub, a), cost(sub, b))
                else:
                    terms[(a, b)] = (0, full[a], full[b])
            term = {k: p + min(cs, ct) for k, (p, cs, ct) in terms.items()}
            report = kappa_intransitive(g)
            assert report.kappa == max(term.values())
            assert term[report.witness_pair] == report.kappa
            if n <= kappa.TERMS_NODE_LIMIT:
                assert dict(pair_terms(g)) == terms
            if g.num_edges == n - g.component_count():
                assert report.kappa == 1
                a, b = map(g.node_index, report.witness_pair)
                assert b in g.adjacency[a]
            sizes.append(n)
        assert min(sizes) <= kappa.TERMS_NODE_LIMIT < max(sizes)

    def test_exact_method_has_no_size_guard(self):
        """The intransitive engine is exact at any size, so ``exact``
        returns the ``auto`` report above ``exact_limit``."""
        edges = [(k, (k + 1) % 80) for k in range(80)]
        edges += [(k, k + 40) for k in range(0, 40, 3)]
        g = graph_from_edges(edges, relation="intransitive")
        assert g.num_nodes == 80 > kappa.DEFAULT_EXACT_LIMIT
        report = compute_kappa(g, method="exact")
        assert report == compute_kappa(g, method="auto")
        assert report == compute_kappa(g, method="exact", exact_limit=3)
        assert report.method == "intransitive"
        assert report.kappa > 1


class TestPairLoopBound:
    @pytest.mark.parametrize("dispatched", [True, False])
    @pytest.mark.parametrize("relation", ["transitive", "intransitive"])
    def test_every_term_within_smaller_degree(self, rng, relation, dispatched):
        """No term of ``pair_terms`` exceeds ``min(degree)``, the looser
        bound above the cut bound the loop prunes by, and some pairs reach
        it. The table's maximum is the value of
        ``compute_kappa(method="exact")`` (dispatched) or of the relation's
        engine called directly."""
        engine = kappa_exact if relation == "transitive" else kappa_intransitive
        reached = 0
        for _ in range(150):
            n, edges = oracles.random_graph(rng, max_nodes=12, max_edges=20)
            if not edges:
                continue
            g = graph_from_edges(edges, relation=relation, n_nodes=n)
            if dispatched:
                report = compute_kappa(g, method="exact")
            else:
                report = engine(g)
            terms = pair_terms(g)
            assert report.kappa == max(p + min(cs, ct) for p, cs, ct in terms.values())
            for (a, b), (p, cs, ct) in terms.items():
                smaller = min(g.degree(a), g.degree(b))
                assert p + min(cs, ct) <= smaller
                reached += p + min(cs, ct) == smaller
        assert reached > 0

    @pytest.mark.parametrize("relation", ["transitive", "intransitive"])
    def test_every_term_within_smaller_cut_bound(self, rng, relation):
        """The pair loop prunes by ``min(u(a), u(b))``, ``u(v) = degree(v) -
        component_increase(v)`` recounted by the oracle: no term of
        ``pair_terms`` exceeds it, some reach it, and ``kappa_upper`` is
        ``max(u)``."""
        checked = reached = 0
        for _ in range(150):
            n, edges = oracles.random_graph(
                rng, max_nodes=kappa.TERMS_NODE_LIMIT, max_edges=40
            )
            g = graph_from_edges(edges, relation=relation, n_nodes=n)
            u = {v: g.degree(v) - oracles.component_increase(g, v) for v in g.nodes()}
            assert kappa_upper(g).kappa == max(u.values(), default=0)
            for (a, b), (p, cs, ct) in pair_terms(g).items():
                assert p + min(cs, ct) <= min(u[a], u[b]), (edges, a, b)
                reached += p + min(cs, ct) == min(u[a], u[b]) > 0
                checked += 1
        assert checked > 10_000 and reached > 0


class TestPairTerms:
    @pytest.mark.parametrize("relation", ["transitive", "intransitive"])
    def test_kappa_is_the_table_maximum_at_its_first_maximiser(
        self, rng, relation
    ):
        """Up to the table size, the pruned loop's value is the maximum of
        ``pair_terms`` and its witness the table's first maximiser in index
        order, also where a later maximiser has a larger minimum degree and
        so comes first in the loop's own order."""
        later_first = 0
        for _ in range(150):
            n, edges = oracles.random_graph(
                rng, max_nodes=kappa.TERMS_NODE_LIMIT, max_edges=40
            )
            if not edges:
                continue
            g = graph_from_edges(edges, relation=relation, n_nodes=n)
            terms = {k: p + min(cs, ct) for k, (p, cs, ct) in pair_terms(g).items()}
            report = compute_kappa(g)
            assert report.kappa == max(terms.values())
            maximisers = [k for k, term in terms.items() if term == report.kappa]
            assert report.witness_pair == maximisers[0]  # iterated in index order
            bounds = [min(g.degree(a), g.degree(b)) for a, b in maximisers]
            later_first += max(bounds) > bounds[0]
        assert later_first > 10

    def test_guard_rejects_graphs_above_the_limit(self):
        limit = kappa.TERMS_NODE_LIMIT
        path = [(k, k + 1) for k in range(limit - 1)]
        assert len(pair_terms(graph_from_edges(path))) == limit * (limit - 1) // 2
        with pytest.raises(GraphTooLarge):
            pair_terms(graph_from_edges(path + [(limit - 1, limit)]))

    @pytest.mark.parametrize("relation", ["transitive", "intransitive"])
    def test_report_of_16_nodes_keeps_no_table(self, relation):
        """A report holds the value, the method and the witness: no table
        and no closure over the graph, in fixed slots."""
        g = graph_from_edges(CIRCULANT_16.edge_keys(), relation=relation)
        compute_kappa(g)  # warm any lazily built module state
        report, kept = kept_bytes(lambda: compute_kappa(g))
        assert report.per_pair_terms is None
        assert report.kappa >= 3
        assert kept <= 256, kept


class TestDominanceAndDispatch:
    def test_dominance_chain_on_randoms(self, rng):
        for _ in range(40):
            n, edges = oracles.random_graph(rng, max_nodes=7, max_edges=11)
            g = graph_from_edges(edges, n_nodes=n)
            ke = kappa_exact(g).kappa
            ku = kappa_upper(g).kappa
            kn = kappa_node_dp(g).kappa
            assert ke <= ku <= kn

    def test_forest_values(self, rng):
        g = graph_from_edges([("a", "b"), ("c", "d"), ("d", "e")])
        assert kappa_exact(g).kappa == 1
        assert kappa_exact(graph_from_edges([], n_nodes=2)).kappa == 0

    def test_auto_uses_exact_when_small(self):
        g = graph_from_edges(TRIANGLE)
        assert compute_kappa(g).method == "exact"

    def test_auto_falls_back_to_bound_when_large(self):
        g = graph_from_edges([(k, k + 1) for k in range(80)])
        report = compute_kappa(g)
        assert report.method == "upper_bound"
        assert report.kappa == 1

    def test_auto_runs_exact_on_dense_graphs(self):
        k12 = graph_from_edges(
            [(i, j) for i in range(12) for j in range(i + 1, 12)]
        )
        report = compute_kappa(k12)
        assert report.method == "exact"
        assert report.kappa == 11

    @pytest.mark.parametrize("seed, expected", [
        (3, 11), (4, 11), (5, 10), (6, 11), (7, 11), (8, 11),
    ])
    def test_auto_is_exact_on_64_node_graphs(self, seed, expected):
        """``synth`` graphs of 32 samples per class at density 2.95: the
        size where a cycle search used to run out of budget."""
        samples = dataio.normalize(dataio.synth_two_gaussians(32, seed=seed))
        g = build_graph(dataio.sample_pairs(samples, 2.95, seed=seed))
        assert 63 <= g.num_nodes <= kappa.DEFAULT_EXACT_LIMIT
        report = compute_kappa(g)
        assert report.method == "exact"
        assert report.kappa == expected
        assert report.kappa <= kappa_upper(g).kappa

    def test_auto_respects_relation_kind(self):
        g = graph_from_edges(TRIANGLE, relation="intransitive")
        assert compute_kappa(g).method == "intransitive"

    def test_node_dp_method_dispatch(self):
        g = graph_from_edges(TRIANGLE)
        assert compute_kappa(g, method="node-dp").method == "node_dp"

    def test_degree_decomposition_on_pendant_configurations(self):
        """Degree minus path count minus isolation equals the component
        increase in the proof's pendant-target configurations."""
        cases = [
            (graph_from_edges([("s", "a"), ("s", "b"), ("s", "c")]), "s", "a"),
            (graph_from_edges(TRIANGLE + [("a", "p")]), "a", "p"),
            (graph_from_edges(BOWTIE + [("x", "p")]), "x", "p"),
        ]
        for g, s, t in cases:
            count, paths = max_edge_disjoint_paths(g, s, t)
            sub = oracles.remove_edges(
                g, [e for p in paths for e in zip(p, p[1:])]
            )
            c_s = oracles.cycle_isolation_count(sub, s)
            lhs = oracles.component_increase(g, s)
            assert lhs == g.degree(s) - count - c_s
