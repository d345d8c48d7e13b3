from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppdml import dataio
from dppdml.errors import (
    DimensionMismatch,
    DuplicateEdge,
    ParseError,
    SelfLoop,
    UnknownNode,
)
from dppdml.pairgraph import (
    PairGraph,
    PairSet,
    PairwiseDatum,
    build_graph,
    read_pairs_file,
    write_pairs_file,
)

from .conftest import graph_from_edges
from . import oracles


def datum(i, j, y=0, dx=(1.0,)):
    return PairwiseDatum(i, j, np.array(dx), y)


def increase_of(g, v):
    """Components that deleting node ``v`` adds, from the graph's one DFS."""
    return g.removal_effects()[0][g.node_index(v)]


class TestConstruction:
    def test_empty_input_gives_empty_graph(self):
        g = build_graph([])
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.component_count() == 0

    def test_path_graph_degrees(self):
        g = build_graph([datum("a", "b"), datum("b", "c")])
        assert g.degree("a") == 1
        assert g.degree("b") == 2
        assert g.degree("c") == 1

    def test_toy_dataset_shape_and_acyclicity(self):
        samples = dataio.normalize(dataio.synth_two_gaussians(100, seed=1))
        pairs = dataio.toy_pairs(samples, 50, 50, seed=1)
        g = build_graph(pairs, extra_nodes=samples.ids.tolist())
        assert g.num_edges == 150
        assert g.num_nodes == 200
        # acyclic: every component contributes nodes - 1 edges
        assert g.num_edges == g.num_nodes - g.component_count()

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            datum("a", "a")

    def test_duplicate_edge_rejected_either_orientation(self):
        with pytest.raises(DuplicateEdge):
            build_graph([datum("a", "b"), datum("b", "a", y=1)])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_graph([datum("a", "b"), datum("b", "c", dx=(1.0, 2.0))])

    def test_label_domain_checked(self):
        with pytest.raises(ValueError):
            PairwiseDatum("a", "b", np.array([1.0]), 2)

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValueError):
            PairwiseDatum("a", "b", np.array([np.nan]), 0)

    def test_caller_array_stays_writeable(self):
        a = np.array([1.0, 2.0])
        p = PairwiseDatum(0, 1, a, 0)
        assert a.flags.writeable
        assert not p.delta_x.flags.writeable
        a[0] = 5.0
        assert p.delta_x.tolist() == [1.0, 2.0]

    def test_isolated_nodes_retained(self):
        g = build_graph([datum("a", "b")], extra_nodes=["z"])
        assert g.nodes() == ["a", "b", "z"]
        assert g.degree("z") == 0

    def test_mixed_id_types_supported(self):
        from dppdml.kappa import kappa_exact

        g = build_graph([datum(0, "alice"), datum("alice", 1), datum(1, 0)])
        assert g.degree("alice") == 2
        assert kappa_exact(g).kappa == 2
        # ids keep their types; each key leads with the earlier-seen id
        assert g.edge_keys() == [(0, "alice"), (0, 1), ("alice", 1)]


def _error(make):
    """(type, message) of the exception ``make()`` raises."""
    with pytest.raises(Exception) as info:
        make()
    return type(info.value), str(info.value)


class TestPairSet:
    IDS = ([0, "a", 4, 6], [1, "b", 5, 7])

    def rows(self, bad_row=None, bad_value=None):
        dx = np.arange(8.0).reshape(4, 2)
        if bad_row is not None:
            dx[bad_row, 1] = bad_value
        return dx

    def test_self_loop_error_matches_datum(self):
        i, j = [0, "a", 4, 6], [1, "a", 5, 7]
        got = _error(lambda: PairSet(i, j, self.rows(), [0, 1, 0, 1]))
        assert got[0] is SelfLoop
        assert got == _error(
            lambda: PairwiseDatum("a", "a", np.array([2.0, 3.0]), 1)
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_error_matches_datum(self, value):
        dx = self.rows(2, value)
        got = _error(lambda: PairSet(*self.IDS, dx, [0, 1, 0, 1]))
        assert got[0] is ValueError
        assert got == _error(lambda: PairwiseDatum(4, 5, dx[2].copy(), 0))

    @pytest.mark.parametrize("label", [2, -1, 0.5])
    def test_label_error_matches_datum(self, label):
        got = _error(lambda: PairSet(*self.IDS, self.rows(), [0, 1, label, 1]))
        assert got[0] is ValueError
        assert got == _error(
            lambda: PairwiseDatum(4, 5, np.array([4.0, 5.0]), label)
        )

    def test_first_faulty_pair_is_reported(self):
        i, j = [0, "a", 4, 6], [1, "b", 5, 6]  # pair 3 is a self-loop
        dx = self.rows(1, np.nan)                # pair 1 is not finite
        got = _error(lambda: PairSet(i, j, dx, [0, 1, 0, 1]))
        assert got == (ValueError, "pair (a, b) has non-finite features")

    @pytest.mark.parametrize("dx", [np.ones(4), np.ones((4, 2, 1)), np.ones((4, 0, 2))])
    def test_dx_must_be_2d(self, dx):
        with pytest.raises(DimensionMismatch):
            PairSet(*self.IDS, dx, [0, 1, 0, 1])

    def test_rows_of_different_widths(self):
        rows = [[1.0, 2.0], [3.0, 4.0], [5.0], [6.0, 7.0]]
        with pytest.raises(DimensionMismatch, match=r"pair \(4, 5\)"):
            PairSet(*self.IDS, rows, [0, 1, 0, 1])
        with pytest.raises(DimensionMismatch):
            PairSet.of([datum(0, 1, dx=(1.0, 2.0)), datum(2, 3, dx=(1.0,))])

    def test_column_lengths_must_agree(self):
        with pytest.raises(DimensionMismatch):
            PairSet(*self.IDS, self.rows(), [0, 1, 0])

    def test_of_round_trips_a_list(self):
        pairs = [datum(0, 1, 1, (0.5, -2.0)), datum("x", 0, 0, (3.0, 4.0)),
                 datum(2, "x", 1, (-0.0, 1e-300))]
        ps = PairSet.of(pairs)
        assert PairSet.of(ps) is ps
        assert len(ps) == 3 and ps.dim == 2
        assert ps.i == (0, "x", 2) and ps.j == (1, 0, "x")
        assert ps.y.tolist() == [1, 0, 1]
        assert ps[-1].i == 2
        back = list(ps)
        assert all(isinstance(p, PairwiseDatum) for p in back)
        for a, b in zip(pairs, back):
            assert (a.i, a.j, a.y) == (b.i, b.j, b.y)
            assert a.delta_x.tobytes() == b.delta_x.tobytes()
        with pytest.raises(IndexError):
            ps[3]

    def test_empty(self):
        ps = PairSet.of([])
        assert len(ps) == 0 and not ps and list(ps) == []

    def test_columns_read_only_and_own_copy(self):
        dx = self.rows()
        y = np.array([0, 1, 0, 1])
        ps = PairSet(*self.IDS, dx, y)
        assert dx.flags.writeable and y.flags.writeable
        assert not ps.dx.flags.writeable and not ps.y.flags.writeable
        dx[0, 0] = 99.0
        assert ps.dx[0, 0] == 0.0
        # datum rows are read-only views of the matrix, not copies
        assert np.shares_memory(ps[2].delta_x, ps.dx)

    def test_with_values_equals_a_fully_checked_set(self):
        ps = PairSet(*self.IDS, self.rows(), [0, 1, 0, 1])
        dx, y = self.rows() * -0.5, np.array([1.0, 1.0, 0.0, 0.0])
        derived = ps.with_values(dx, y)
        full = PairSet(*self.IDS, dx, y)
        assert derived.i is ps.i and derived.j is ps.j
        assert derived.dx.tobytes() == full.dx.tobytes()
        assert derived.y.tolist() == full.y.tolist() and derived.y.dtype == full.y.dtype
        assert not derived.dx.flags.writeable and not derived.y.flags.writeable
        dx[0, 0] = 99.0  # the derived set holds its own copy
        assert derived.dx[0, 0] == -0.0

    @pytest.mark.parametrize("dx_value, label", [(np.nan, 0), (np.inf, 0), (0.0, 2),
                                                 (0.0, 0.5)])
    def test_with_values_raises_the_datum_error(self, dx_value, label):
        ps = PairSet(*self.IDS, self.rows(), [0, 1, 0, 1])
        dx = self.rows(2, dx_value)
        got = _error(lambda: ps.with_values(dx, [0, 1, label, 1]))
        assert got[0] is ValueError
        assert got == _error(lambda: PairSet(*self.IDS, dx, [0, 1, label, 1]))

    def test_with_values_checks_shapes(self):
        ps = PairSet(*self.IDS, self.rows(), [0, 1, 0, 1])
        with pytest.raises(DimensionMismatch):
            ps.with_values(self.rows()[:3], [0, 1, 0])
        with pytest.raises(DimensionMismatch):
            ps.with_values(self.rows()[:, :1], [0, 1, 0, 1])

    def test_graph_built_from_a_pairset(self):
        pairs = [datum("a", "b"), datum("b", "c", 1)]
        g = build_graph(PairSet.of(pairs))
        assert g.edge_keys() == build_graph(pairs).edge_keys()


class TestQueries:
    def test_degree_unknown_node(self):
        g = build_graph([datum("a", "b")])
        with pytest.raises(UnknownNode):
            g.degree("nope")

    def test_star_center_degree(self):
        g = graph_from_edges([("c", f"l{k}") for k in range(4)])
        assert g.degree("c") == 4

    def test_fig5_degree_of_b(self, fig5_graph):
        assert fig5_graph.degree("b") == 2

    def test_neighbours_ascending_and_read_only(self):
        g = graph_from_edges([("c", "b"), ("c", "a"), ("d", "c"), ("a", "b")])
        # indices follow first appearance: c=0, b=1, a=2, d=3
        assert g.adjacency == ((1, 2, 3), (0, 2), (0, 1), (0,))
        assert g.adjacency is g.adjacency  # the graph's own, not a copy
        with pytest.raises(TypeError):
            g.adjacency[0][0] = 3
        with pytest.raises(TypeError):
            g.adjacency[0] = ()
        with pytest.raises(AttributeError):
            g.adjacency = ()

    def test_component_count_two_disjoint_edges(self):
        g = build_graph([datum("a", "b"), datum("c", "d")])
        assert g.component_count() == 2

    def test_component_count_matches_union_find_oracle(self, rng):
        for _ in range(40):
            n, edges = oracles.random_graph(rng, max_nodes=6, max_edges=10)
            g = graph_from_edges(edges, n_nodes=n)
            assert g.component_count() == oracles.components_union_find(n, edges)

    def test_removal_increase_leaf_of_path(self):
        g = graph_from_edges([("a", "s"), ("s", "b"), ("b", "c")])
        assert increase_of(g, "a") == 0

    def test_removal_increase_path_center(self):
        g = graph_from_edges([("a", "s"), ("s", "b")])
        assert increase_of(g, "s") == 1

    def test_removal_increase_three_branch_cut_vertex(self):
        g = graph_from_edges(
            [("s", "a"), ("a", "a2"), ("s", "b"), ("b", "b2"), ("s", "c")]
        )
        before = g.component_count()
        after = oracles.without_node(g, "s").component_count()
        assert after - before == 2
        assert increase_of(g, "s") == 2

    def test_removal_increase_isolated_node(self):
        g = build_graph([datum("a", "b")], extra_nodes=["z"])
        assert increase_of(g, "z") == 0

    def test_removal_increase_matches_recount(self, rng):
        """The DFS's increases equal recounting the components of the graph
        without each node, isolated nodes included. Its bridges are the edges
        whose deletion adds a component, and without its edge to a
        neighbour a node's increase drops by one exactly when that edge is
        a bridge."""
        isolated = split = bridged = kept = 0
        for _ in range(150):
            n, edges = oracles.random_graph(rng, max_nodes=10, max_edges=14)
            g = graph_from_edges(edges, n_nodes=n)
            increase, bridges = g.removal_effects()
            assert increase == [
                oracles.component_increase(g, g.node_id(v)) for v in range(n)
            ]
            assert bridges == {
                (g.node_index(a), g.node_index(b)) for a, b in g.edge_keys()
                if oracles.remove_edges(g, [(a, b)]).component_count()
                > g.component_count()
            }
            assert g._articulation_dfs()[2] == [
                c[0] for v in range(n) for c in g.components() if v in c
            ]
            split += sum(len(c) > 1 for c in g.components()) > 1
            for v in range(n):
                isolated += g.degree(v) == 0
                for w in g.adjacency[v]:
                    bridge = (min(v, w), max(v, w)) in bridges
                    bridged += bridge and increase[v] > 0
                    kept += not bridge and increase[v] > 0
                    assert max(0, increase[v] - bridge) == (
                        oracles.component_increase(
                            g, g.node_id(v), [g.node_id(w)]
                        )
                    )
        assert isolated > 0
        assert split > 0  # several components with edges
        assert bridged > 0 and kept > 0  # both sides of the bridge rule

    def test_component_increases_on_shapes(self):
        star = graph_from_edges([("c", f"l{k}") for k in range(4)])
        assert star.removal_effects() == (
            [3, 0, 0, 0, 0], {(0, 1), (0, 2), (0, 3), (0, 4)}
        )
        path = graph_from_edges([("a", "b"), ("b", "c"), ("c", "d")])
        assert path.removal_effects() == ([0, 1, 1, 0], {(0, 1), (1, 2), (2, 3)})
        # node 0 is the DFS root; its three children lead apart, and each
        # child cuts off its own leaf
        spider = graph_from_edges(
            [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]
        )
        assert spider.removal_effects()[0] == [2, 1, 1, 1, 0, 0, 0]
        # a back edge from 2 to the root leaves one root child, and only
        # the pendant edge is a bridge
        triangle = graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        assert triangle.removal_effects() == ([0, 0, 1, 0], {(2, 3)})
        isolated = build_graph([datum("a", "b")], extra_nodes=["z"])
        assert isolated.removal_effects() == ([0, 0, 0], {(0, 1)})

    def test_component_increases_on_long_path(self):
        n = 20_000
        g = graph_from_edges([(k, k + 1) for k in range(n - 1)])
        increase, bridges = g.removal_effects()
        assert increase == [0] + [1] * (n - 2) + [0]
        assert len(bridges) == n - 1


class TestRemoveEdges:
    """The oracle that rebuilds a graph without some edges, which the
    removal-effect tests recount against."""

    def test_remove_all_edges_keeps_nodes(self):
        g = graph_from_edges([("a", "b"), ("b", "c")])
        stripped = oracles.remove_edges(g, g.edge_keys())
        assert stripped.num_edges == 0
        assert sorted(stripped.nodes()) == sorted(g.nodes())

    def test_triangle_minus_edge_is_path(self):
        g = graph_from_edges([("a", "b"), ("b", "c"), ("c", "a")])
        path = oracles.remove_edges(g, [("a", "b")])
        assert path.num_edges == 2
        assert path.degree("a") == 1
        assert path.degree("c") == 2

    def test_missing_edge_raises(self):
        g = graph_from_edges([("a", "b"), ("b", "c")])
        with pytest.raises(KeyError):
            oracles.remove_edges(g, [("a", "c")])

    def test_fig5_minus_flow_paths(self, fig5_graph):
        from dppdml.kappa import max_edge_disjoint_paths

        _, paths = max_edge_disjoint_paths(fig5_graph, "s", "t")
        used = [e for p in paths for e in zip(p, p[1:])]
        sub = oracles.remove_edges(fig5_graph, used)
        assert sub.num_nodes == fig5_graph.num_nodes
        assert sub.num_edges == fig5_graph.num_edges - len(used)
        # wiped routes no longer connect s and t
        assert sub.node_index("t") not in sub.adjacency[sub.node_index("s")]


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return n, edges


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(edge_lists())
    def test_round_trip_recovers_edges(self, case):
        n, edges = case
        pairs = [PairwiseDatum(a, b, np.array([float(a + b)]), (a + b) % 2)
                 for a, b in edges]
        g = build_graph(pairs)
        back = g.edge_keys()
        assert len(back) == g.num_edges == len(edges)
        assert set(map(frozenset, back)) == set(map(frozenset, edges))

    @settings(max_examples=60, deadline=None)
    @given(edge_lists())
    def test_degree_sums_to_twice_edges(self, case):
        n, edges = case
        g = graph_from_edges(edges, n_nodes=n)
        assert sum(g.degree(v) for v in g.nodes()) == 2 * g.num_edges

    @settings(max_examples=60, deadline=None)
    @given(edge_lists())
    def test_component_increase_at_most_degree(self, case):
        n, edges = case
        g = graph_from_edges(edges, n_nodes=n)
        increase, _ = g.removal_effects()
        for v in g.nodes():
            assert increase[g.node_index(v)] <= g.degree(v)

    @settings(max_examples=40, deadline=None)
    @given(edge_lists())
    def test_remove_edges_preserves_node_count(self, case):
        n, edges = case
        g = graph_from_edges(edges, n_nodes=n)
        keys = g.edge_keys()
        half = keys[: len(keys) // 2]
        assert oracles.remove_edges(g, half).num_nodes == g.num_nodes


class TestPairsFile:
    def test_round_trip(self, tmp_path):
        pairs = [
            PairwiseDatum(0, 1, np.array([0.25, -1.5]), 0),
            PairwiseDatum(1, 2, np.array([1.0 / 3.0, 2.0]), 1),
        ]
        path = tmp_path / "pairs.csv"
        write_pairs_file(path, pairs)
        back = read_pairs_file(path)
        assert len(back) == 2
        for a, b in zip(pairs, back):
            assert (a.i, a.j, a.y) == (b.i, b.j, b.y)
            assert np.array_equal(a.delta_x, b.delta_x)

    def test_bool_and_float_labels_round_trip_as_int(self, tmp_path):
        pairs = [
            PairwiseDatum(0, 1, np.array([0.5]), True),
            PairwiseDatum(1, 2, np.array([0.25]), 1.0),
            PairwiseDatum(2, 3, np.array([0.75]), np.int64(0)),
        ]
        assert [type(p.y) for p in pairs] == [int, int, int]
        path = tmp_path / "pairs.csv"
        write_pairs_file(path, pairs)
        assert [p.y for p in read_pairs_file(path)] == [1, 1, 0]

    def test_headerless_and_custom_delimiter(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("0;1;0;0.5\n1;2;1;-0.25\n")
        back = read_pairs_file(path, delimiter=";")
        assert [(p.i, p.j, p.y) for p in back] == [(0, 1, 0), (1, 2, 1)]

    def test_parse_error_names_row_and_col(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,y,dx_1\n0,1,0,0.5\n1,2,1,oops\n")
        with pytest.raises(ParseError) as err:
            read_pairs_file(path)
        assert err.value.row == 3
        assert err.value.col == 4

    @pytest.mark.parametrize("label", ["0.5", "1.9", "-0.1", "nan", "inf"])
    def test_fractional_label_rejected(self, tmp_path, label):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1,0,0.5\n1,2,{label},0.25\n")
        with pytest.raises(ParseError) as err:
            read_pairs_file(path)
        assert (err.value.row, err.value.col) == (2, 3)

    def test_integral_float_label_accepted(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("0,1,1.0,0.5\n1,2,0.0,0.25\n")
        assert [p.y for p in read_pairs_file(path)] == [1, 0]

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,0\n")
        with pytest.raises(ParseError):
            read_pairs_file(path)

    def test_typo_in_first_data_row_is_not_a_header(self, tmp_path):
        # the label parses, so row 1 is data whose feature is a typo
        path = tmp_path / "typo.csv"
        path.write_text("0,1,0,oops\n1,2,1,0.25\n2,0,0,0.3\n")
        with pytest.raises(ParseError) as err:
            read_pairs_file(path)
        assert (err.value.row, err.value.col) == (1, 4)

    @pytest.mark.parametrize("header", ["i,j,y,dx_1", " a , b , label , f1 "])
    def test_header_names_every_column_from_the_label_on(self, tmp_path, header):
        path = tmp_path / "pairs.csv"
        path.write_text(f"{header}\n0,1,0,0.5\n1,2,1,0.25\n")
        back = read_pairs_file(path)
        assert (back.i, back.j, back.y.tolist()) == ((0, 1), (1, 2), [0, 1])

    def test_row_wider_or_narrower_than_the_first_names_its_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        for text, row in [("0,1,0,0.5,0.25\n1,2,1,0.5\n", 2),
                          ("i,j,y,dx_1\n0,1,0,0.5\n\n1,2,1,0.5\n2,3,0,0.1,0.2\n", 5)]:
            path.write_text(text)
            with pytest.raises(ParseError, match="columns") as err:
                read_pairs_file(path)
            assert (err.value.row, err.value.col) == (row, None)

    def test_reads_into_a_pair_set(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("i,j,y,dx_1\n")
        empty = read_pairs_file(path)
        assert isinstance(empty, PairSet) and len(empty) == 0
        assert build_graph(empty).num_edges == 0


def _columns(pairs):
    """Ids with their types, labels and the bytes and shape of ``dx``."""
    ps = PairSet.of(pairs)
    typed = lambda ids: [(type(v), v) for v in ids]
    return typed(ps.i), typed(ps.j), ps.y.tolist(), ps.dx.tobytes(), ps.dx.shape


def _pairs_text(seed, ids, header, blank, delimiter, pad, n=14, d=3):
    """A valid pairs file with the given id kind, header, blank lines,
    delimiter and cell padding; numbers in several spellings."""
    rng = np.random.default_rng(seed)
    name = {
        "int": str,
        "str": lambda k: f"u{k}",
        "mixed": lambda k: str(k) if k % 2 else f"u{k}",
    }[ids]
    spell = [repr, lambda v: f"{v:.3e}", lambda v: f"{v:.6f}"]
    lines = [delimiter.join(["i", "j", "y"] + [f"dx_{k + 1}" for k in range(d)])]
    lines = lines if header else []
    for r in range(n):
        a, b = rng.choice(40, size=2, replace=False)
        label = ["0", "1", "1.0", "0.0"][rng.integers(4)]
        feats = [spell[rng.integers(3)](float(v)) for v in rng.normal(size=d)]
        cells = [name(a), name(b), label] + feats
        if pad:
            cells = [f" {c}  " for c in cells]
        lines.append(delimiter.join(cells))
        if blank and r % 5 == 1:
            lines += ["", delimiter.join(["  "] * (d + 3))]
    return "\n".join(lines) + "\n"


class TestReaderMatchesReference:
    """``read_pairs_file`` against the per-row reader of
    ``oracles.reference_read_pairs_file``."""

    @pytest.mark.parametrize("ids", ["int", "str", "mixed"])
    @pytest.mark.parametrize("header, blank, delimiter, pad", [
        (True, False, ",", False),
        (False, False, ",", False),
        (True, True, ";", False),
        (False, True, ",", True),
        (True, False, ";", True),
    ])
    def test_valid_files(self, tmp_path, ids, header, blank, delimiter, pad):
        path = tmp_path / "pairs.txt"
        for seed in range(3):
            path.write_text(_pairs_text(seed, ids, header, blank, delimiter, pad))
            got = read_pairs_file(path, delimiter=delimiter)
            want = oracles.reference_read_pairs_file(path, delimiter=delimiter)
            assert isinstance(got, PairSet)
            assert _columns(got) == _columns(want)

    MALFORMED = {
        "non-numeric label": "0,1,0,0.5\n1,2,x,0.25\n",
        "fractional label": "0,1,0,0.5\n1,2,0.5,0.25\n",
        "NaN label": "0,1,0,0.5\n1,2,nan,0.25\n",
        "label out of range": "0,1,0,0.5\n1,2,2,0.25\n",
        "huge label": "0,1,0,0.5\n1,2,1e30,0.25\n",
        "bad feature": "i,j,y,dx_1,dx_2\n0,1,0,0.5,0.1\n1,2,1,0.25,oops\n",
        "self-loop": "0,1,0,0.5\n2,2,1,0.25\n",
        "padded self-loop": "a,b,0,0.5\n c ,c,1,0.25\n",
        "non-finite feature": "0,1,0,0.5\n1,2,1,inf\n",
        "NaN feature in row 1": "0,1,0,nan\n1,2,1,0.25\n",
        "short row": "0,1,0,0.5\n1,2,1\n",
        "self-loop, then bad feature": "0,1,0,0.5\n2,2,1,0.25\n3,4,0,oops\n",
        "bad feature, then self-loop": "0,1,0,0.5\n1,2,1,zz\n2,2,1,0.25\n",
        "two faulty pairs": "0,1,0,0.5\n1,2,1,-inf\n3,4,5,0.25\n",
        "NaN in a later feature column": "i,j,y,a,b\n0,1,0,0.5,0.1\n1,2,1,0.25, NaN \n",
        "self-loop with a NaN feature": "0,1,0,0.5\n2,2,1,nan\n",
        "label out of range with an infinite feature": "0,1,0,0.5\n1,2,3,inf\n",
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_files_fail_alike(self, tmp_path, case):
        path = tmp_path / "bad.csv"
        path.write_text(self.MALFORMED[case])
        with pytest.raises(ParseError) as got:
            read_pairs_file(path)
        with pytest.raises(ParseError) as want:
            oracles.reference_read_pairs_file(path)
        assert (got.value.row, got.value.col, str(got.value)) == (
            want.value.row, want.value.col, str(want.value)
        )

    #: The only files the two readers treat differently: the reference
    #: skips a first row with a typo as a header, and reads a ragged file
    #: whose widths only the graph build rejects, naming no row.
    DIFFERENCES = {
        "typo in row 1": ("0,1,0,oops\n1,2,1,0.25\n2,0,0,0.3\n", (1, 4)),
        "ragged": ("0,1,0,0.5,0.1\n1,2,1,0.25\n", (2, None)),
    }

    @pytest.mark.parametrize("case", sorted(DIFFERENCES))
    def test_listed_differences(self, tmp_path, case):
        text, where = self.DIFFERENCES[case]
        path = tmp_path / "pairs.csv"
        path.write_text(text)
        assert len(oracles.reference_read_pairs_file(path)) == 2
        with pytest.raises(ParseError) as got:
            read_pairs_file(path)
        assert (got.value.row, got.value.col) == where


class TestGraphFromColumns:
    """A graph from a ``PairSet`` equals the graph from the equivalent datum
    list, and both equal a first-appearance recount of the list."""

    @staticmethod
    def recount(pairs):
        order = list(dict.fromkeys(n for p in pairs for n in (p.i, p.j)))
        index = {n: k for k, n in enumerate(order)}
        nbrs = [[] for _ in order]
        keys = []
        for p in pairs:
            a, b = index[p.i], index[p.j]
            nbrs[a].append(b)
            nbrs[b].append(a)
            keys.append((min(a, b), max(a, b)))
        return (order, [tuple(sorted(nb)) for nb in nbrs],
                [(order[a], order[b]) for a, b in sorted(keys)])

    @staticmethod
    def shape(g):
        return g.nodes(), list(g.adjacency), g.edge_keys()

    @pytest.mark.parametrize("seed", range(5))
    def test_same_graph(self, seed):
        rng = np.random.default_rng(seed)
        ids = [k if k % 3 else f"n{k}" for k in range(12)]
        keys = list(dict.fromkeys(
            tuple(sorted(rng.choice(12, size=2, replace=False).tolist()))
            for _ in range(20)
        ))
        pairs = []
        for a, b in keys:
            if rng.integers(2):
                a, b = b, a
            pairs.append(datum(ids[a], ids[b], int(rng.integers(2)), rng.normal(size=2)))
        from_list, from_set = build_graph(pairs), build_graph(PairSet.of(pairs))
        assert self.shape(from_list) == self.shape(from_set) == self.recount(pairs)
        assert from_set.num_edges == len(pairs)

    def test_same_errors(self):
        dup = [datum("a", "b"), datum(0, "a"), datum("b", "a", y=1)]
        mixed = [datum("a", "b"), datum("b", "c", dx=(1.0, 2.0))]
        assert _error(lambda: build_graph(dup)) == _error(
            lambda: build_graph(PairSet.of(dup))
        )
        assert _error(lambda: build_graph(dup))[0] is DuplicateEdge
        assert _error(lambda: build_graph(mixed)) == _error(
            lambda: PairSet.of(mixed)
        )
        assert _error(lambda: build_graph(mixed))[0] is DimensionMismatch

    def test_edgeless_graph_keeps_its_nodes(self):
        g = build_graph(PairSet.of([]), extra_nodes=["z", 1])
        assert g.nodes() == ["z", 1] and g.edge_keys() == []
        assert g.adjacency == ((), ()) and g.num_edges == 0

    def test_graph_keeps_only_its_structure(self):
        """The graph holds the relation kind, the id order and index, the
        adjacency and the edge count; the pairs it was built from are
        freed once the caller drops them."""
        ps = PairSet.of([datum("a", "b", dx=(1.0, 2.0)), datum("b", 0, dx=(3.0, 4.0))])
        g = build_graph(ps, extra_nodes=["z"])
        assert set(vars(g)) == {
            "relation_kind", "_order", "_index", "_adj", "num_edges"
        }
        ref = weakref.ref(ps)
        del ps
        gc.collect()
        assert ref() is None
        assert g.nodes() == ["a", "b", 0, "z"] and g.num_edges == 2
