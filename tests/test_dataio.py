from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppdml import dataio
from dppdml.cli import _write_csv
from dppdml.dataio import (
    SampleSet,
    load_csv,
    normalize,
    sample_pairs,
    save_samples_csv,
    synth_two_gaussians,
    toy_pairs,
)
from dppdml.errors import (
    ConfigInvalid,
    InfeasibleBalance,
    InfeasibleDensity,
    MissingLabelColumn,
    ParseError,
    SingleClass,
)
from dppdml.kappa import compute_kappa
from dppdml.pairgraph import PairSet, build_graph, write_pairs_file

from . import oracles


class TestSynth:
    def test_size_and_balance(self):
        samples = synth_two_gaussians(100, seed=3)
        assert len(samples) == 200
        assert samples.dim == 2
        assert int(np.sum(samples.labels == 0)) == 100
        assert int(np.sum(samples.labels == 1)) == 100

    def test_determinism(self):
        a = synth_two_gaussians(50, seed=9)
        b = synth_two_gaussians(50, seed=9)
        assert np.array_equal(a.x, b.x)

    def test_class_separation_ratio(self):
        samples = synth_two_gaussians(500, seed=4)
        mean0 = samples.x[samples.labels == 0].mean(axis=0)
        mean1 = samples.x[samples.labels == 1].mean(axis=0)
        minor_std = samples.x[samples.labels == 0, 1].std()
        gap = np.linalg.norm(mean1 - mean0)
        assert gap / minor_std > 0.8 * dataio.TOY_SEPARATION_RATIO

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigInvalid, match="seed must be >= 0, got -1"):
            synth_two_gaussians(5, seed=-1)


class TestNormalize:
    def test_oversized_row_scaled_to_cap(self):
        s = SampleSet(np.array([[4.0, 1.0]]), np.array([0]), np.array([0]))
        out = normalize(s, "l1")
        factor = (1.0 - 1e-6) / 5.0
        assert out.x[0] == pytest.approx([4.0 * factor, 1.0 * factor])

    def test_compliant_row_untouched(self):
        s = SampleSet(np.array([[0.25, 0.25]]), np.array([0]), np.array([0]))
        out = normalize(s, "l1")
        assert np.array_equal(out.x, s.x)

    def test_pair_differences_bounded(self, rng):
        x = rng.normal(0, 3, (100, 4))
        s = normalize(SampleSet(x, np.zeros(100), np.arange(100)), "l1")
        diffs = s.x[None, :, :] - s.x[:, None, :]
        assert np.abs(diffs).sum(axis=2).max() <= 2.0

    def test_zero_row_left_alone(self, caplog):
        s = SampleSet(np.array([[0.0, 0.0], [5.0, 0.0]]), np.array([0, 1]),
                      np.array([0, 1]))
        with caplog.at_level("WARNING"):
            out = normalize(s, "l1")
        assert np.array_equal(out.x[0], [0.0, 0.0])
        assert any("zero rows" in m for m in caplog.messages)

    def test_l2_mode(self):
        s = SampleSet(np.array([[3.0, 4.0]]), np.array([0]), np.array([0]))
        out = normalize(s, "l2")
        assert np.linalg.norm(out.x[0]) == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_idempotent(self, seed):
        x = np.random.default_rng(seed).normal(0, 2, (20, 3))
        s = SampleSet(x, np.zeros(20), np.arange(20))
        once = normalize(s, "l1")
        twice = normalize(once, "l1")
        assert np.array_equal(once.x, twice.x)


class TestSamplePairs:
    def test_density_two_on_thousand_samples(self):
        samples = normalize(synth_two_gaussians(500, seed=7))
        pairs = sample_pairs(samples, 2.0, seed=7)
        nodes = {p.i for p in pairs} | {p.j for p in pairs}
        assert len(pairs) == round(2.0 * len(nodes))
        assert 1800 <= len(pairs) <= 2200

    def test_no_duplicates_or_self_pairs(self):
        samples = normalize(synth_two_gaussians(50, seed=1))
        pairs = sample_pairs(samples, 1.5, seed=1)
        keys = [tuple(sorted((p.i, p.j))) for p in pairs]
        assert len(keys) == len(set(keys))
        assert all(p.i != p.j for p in pairs)

    def test_two_samples_excess_density_rejected(self):
        s = SampleSet(np.array([[0.1], [0.2]]), np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(InfeasibleDensity):
            sample_pairs(s, 0.6, seed=0)
        assert len(sample_pairs(s, 0.5, seed=0)) == 1

    def test_balanced_sampling_equalises_labels(self):
        samples = normalize(synth_two_gaussians(200, seed=2))
        pairs = sample_pairs(samples, 2.0, balance=True, seed=2)
        counts = [sum(p.y == 0 for p in pairs), sum(p.y == 1 for p in pairs)]
        assert counts[0] == counts[1]

    def test_labels_follow_classes(self):
        samples = normalize(synth_two_gaussians(60, seed=5))
        lookup = samples.index_of()
        for p in sample_pairs(samples, 1.0, seed=5):
            same = samples.labels[lookup[p.i]] == samples.labels[lookup[p.j]]
            assert p.y == (0 if same else 1)

    def test_transitive_consistency_on_shared_individuals(self):
        """Any two pairs sharing an individual imply the third relation
        consistently with the underlying classes."""
        samples = normalize(synth_two_gaussians(40, seed=8))
        pairs = sample_pairs(samples, 2.0, seed=8)
        by_node: dict = {}
        for p in pairs:
            by_node.setdefault(p.i, []).append(p)
            by_node.setdefault(p.j, []).append(p)
        lookup = samples.index_of()
        for node, incident in by_node.items():
            for a in incident:
                for b in incident:
                    other_a = a.j if a.i == node else a.i
                    other_b = b.j if b.i == node else b.i
                    if other_a == other_b:
                        continue
                    implied = (a.y + b.y) % 2  # same iff both same or both diff
                    actual = 0 if samples.labels[lookup[other_a]] == samples.labels[
                        lookup[other_b]] else 1
                    assert implied == actual

    def test_determinism(self):
        samples = normalize(synth_two_gaussians(80, seed=3))
        a = sample_pairs(samples, 1.5, seed=42)
        b = sample_pairs(samples, 1.5, seed=42)
        assert [(p.i, p.j, p.y) for p in a] == [(p.i, p.j, p.y) for p in b]

    def test_rejects_negative_seed(self):
        samples = normalize(synth_two_gaussians(20, seed=0))
        with pytest.raises(ConfigInvalid, match="seed must be >= 0, got -1"):
            sample_pairs(samples, 1.5, seed=-1)


class TestToyPairs:
    def test_counts_and_acyclicity(self):
        samples = normalize(synth_two_gaussians(100, seed=0))
        pairs = toy_pairs(samples, 50, 50, seed=0)
        assert len(pairs) == 150
        assert sum(p.y == 0 for p in pairs) == 100
        assert sum(p.y == 1 for p in pairs) == 50
        g = build_graph(pairs)
        assert g.num_edges == g.num_nodes - g.component_count()

    def test_privacy_distance_is_one(self):
        samples = normalize(synth_two_gaussians(100, seed=0))
        g = build_graph(toy_pairs(samples, 50, 50, seed=0))
        assert compute_kappa(g).kappa == 1

    def test_needs_enough_samples(self):
        samples = normalize(synth_two_gaussians(30, seed=0))
        with pytest.raises(ValueError):
            toy_pairs(samples, 50, 50, seed=0)

    def test_rejects_negative_seed(self):
        samples = normalize(synth_two_gaussians(20, seed=0))
        with pytest.raises(ConfigInvalid, match="seed must be >= 0, got -1"):
            toy_pairs(samples, 3, 3, seed=-1)


class TestPairsMatchReference:
    """``sample_pairs`` and ``toy_pairs`` build their ``PairSet`` from index
    arrays; each pair equals, bit for bit, the datum that
    ``oracles.reference_pair_datum`` makes from the same two sample rows."""

    @staticmethod
    def string_id_samples(tmp_path, n_per_class):
        samples = normalize(synth_two_gaussians(n_per_class, seed=4))
        ids = [f"s{k:03d}" for k in range(len(samples))]
        save_samples_csv(tmp_path / "s.csv", SampleSet(samples.x, samples.labels, ids))
        return load_csv(tmp_path / "s.csv")

    @staticmethod
    def assert_matches(samples, ps, ascending):
        assert isinstance(ps, PairSet)
        index = samples.index_of()
        rows = [(index[i], index[j]) for i, j in zip(ps.i, ps.j)]
        if ascending:
            assert all(a < b for a, b in rows)
        want = [oracles.reference_pair_datum(samples, a, b) for a, b in rows]
        assert [(type(i), i, type(j), j) for i, j in zip(ps.i, ps.j)] == [
            (type(p.i), p.i, type(p.j), p.j) for p in want
        ]
        assert ps.y.tolist() == [p.y for p in want]
        assert ps.dx.tobytes() == np.stack([p.delta_x for p in want]).tobytes()

    @pytest.mark.parametrize("balance", [False, True])
    @pytest.mark.parametrize("ids", ["int", "str"])
    def test_sample_pairs(self, tmp_path, balance, ids):
        samples = (normalize(synth_two_gaussians(60, seed=4)) if ids == "int"
                   else self.string_id_samples(tmp_path, 60))
        ps = sample_pairs(samples, 2.0, balance=balance, seed=9)
        self.assert_matches(samples, ps, ascending=True)
        assert type(ps.i[0]) is (int if ids == "int" else str)

    @pytest.mark.parametrize("balance", [False, True])
    def test_block_draws_choose_the_scalar_draws_pairs(self, balance):
        """Drawing endpoints in blocks chooses the pairs, in order, that two
        scalar draws per candidate chose, and runs out of pairs with the
        same error."""
        # every pair of 4 samples, which cannot balance: 2 same, 4 different
        cases = [(2, 1.5), (3, 1.0), (5, 1.5), (12, 2.0), (60, 2.0), (350, 2.0)]
        ran_out = 0
        for (n_per_class, density), seed in itertools.product(cases, range(8)):
            samples = normalize(synth_two_gaussians(n_per_class, seed=seed))
            try:
                want = oracles.reference_sample_pairs(samples, density, balance, seed)
            except (InfeasibleDensity, InfeasibleBalance) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    sample_pairs(samples, density, balance=balance, seed=seed)
                ran_out += 1
                continue
            ps = sample_pairs(samples, density, balance=balance, seed=seed)
            index = samples.index_of()
            assert [(index[i], index[j]) for i, j in zip(ps.i, ps.j)] == want
        # the largest case needs more candidates than one block holds
        assert 2 * len(want) > dataio._DRAW_BLOCK
        assert ran_out == (8 if balance else 0)

    @pytest.mark.parametrize("ids", ["int", "str"])
    def test_toy_pairs(self, tmp_path, ids):
        samples = (normalize(synth_two_gaussians(100, seed=4)) if ids == "int"
                   else self.string_id_samples(tmp_path, 100))
        self.assert_matches(samples, toy_pairs(samples, 50, 50, seed=4), ascending=False)


class TestDownsample:
    def test_balanced_input_unchanged(self):
        samples = synth_two_gaussians(50, seed=1)
        out = oracles.downsample_majority(samples, seed=1)
        assert len(out) == len(samples)

    def test_ninety_ten_split_equalised(self):
        x = np.zeros((1000, 2))
        labels = np.array([0] * 900 + [1] * 100)
        out = oracles.downsample_majority(SampleSet(x, labels, np.arange(1000)), seed=0)
        assert int(np.sum(out.labels == 0)) == 100
        assert int(np.sum(out.labels == 1)) == 100

    def test_determinism(self):
        x = np.zeros((100, 2))
        labels = np.array([0] * 70 + [1] * 30)
        s = SampleSet(x, labels, np.arange(100))
        a = oracles.downsample_majority(s, seed=5)
        b = oracles.downsample_majority(s, seed=5)
        assert np.array_equal(a.ids, b.ids)

    def test_single_class_rejected(self):
        s = SampleSet(np.zeros((10, 2)), np.zeros(10), np.arange(10))
        with pytest.raises(SingleClass):
            oracles.downsample_majority(s, seed=0)


class TestCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("id,label,f1,f2\n0,0,0.1,0.2\n1,1,0.3,0.4\n2,0,0.5,0.6\n")
        s = load_csv(path)
        assert s.x.shape == (3, 2)
        assert s.labels.tolist() == [0, 1, 0]
        assert s.ids.tolist() == [0, 1, 2]

    def test_non_numeric_feature_cell(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("id,label,f1\n0,0,0.1\n1,1,abc\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 3
        assert err.value.col == 3

    @pytest.mark.parametrize("cell", ["nan", " NaN", "inf", "-Infinity", "1e999"])
    def test_non_finite_feature_rejected_naming_row_and_column(self, tmp_path, cell):
        path = tmp_path / "samples.csv"
        path.write_text(f"id,f1,label,f2\n0,0.1,0,0.2\n1,0.3,1,0.4\n"
                        f"2,0.5,0,{cell}\n3,nan,1,0.8\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert (err.value.row, err.value.col) == (4, 4)
        assert str(err.value) == f"row 4, col 4: feature {cell!r} is not finite"

    @pytest.mark.parametrize("label", ["1.5", "-0.5", "inf", "nan"])
    def test_non_integral_label_rejected(self, tmp_path, label):
        path = tmp_path / "samples.csv"
        path.write_text(f"id,label,f1\n0,0,0.1\n1,{label},0.2\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 3
        assert err.value.col == 2

    def test_integral_and_text_labels_accepted(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("id,label,f1\n0,1.0,0.1\n1, 0 ,0.2\n")
        assert load_csv(path).labels.tolist() == [1, 0]
        path.write_text("id,label,f1\n0,cat,0.1\n1,dog,0.2\n")
        assert load_csv(path).labels.tolist() == ["cat", "dog"]

    @pytest.mark.parametrize("first, repeat, shown", [
        ("1", "1", "1"),
        ("1", " 1 ", "1"),
        ("a", "a", "'a'"),
    ])
    def test_repeated_id_rejected_naming_row(self, tmp_path, first, repeat, shown):
        path = tmp_path / "samples.csv"
        path.write_text(
            f"id,label,f1\n{first},0,0.1\n2,1,0.5\n3,0,0.2\n"
            f"{repeat},1,0.7\n4,1,0.9\n"
        )
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 5
        assert err.value.col == 1
        assert f"id {shown} repeats row 2" in str(err.value)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("id,target,f1\n0,0,0.1\n")
        with pytest.raises(MissingLabelColumn):
            load_csv(path)

    def test_wide_census_shaped_file(self, tmp_path):
        """A file shaped like the larger census benchmarks (124 feature
        columns) loads with the right dimensionality."""
        rng = np.random.default_rng(0)
        d = 124
        header = "id,label," + ",".join(f"f{k}" for k in range(d))
        rows = [header]
        for k in range(10):
            feats = ",".join(repr(float(v)) for v in rng.uniform(-1, 1, d))
            rows.append(f"{k},{k % 2},{feats}")
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(rows) + "\n")
        s = load_csv(path)
        assert s.dim == 124
        assert len(s) == 10

    def test_id_column_optional(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("label,f1\n1,0.5\n0,0.25\n")
        s = load_csv(path)
        assert s.ids.tolist() == [0, 1]

    @pytest.mark.parametrize("cells, kind", [
        (["1", "a", "2", "b"], "O"),  # an object array only when types mix
        (["1", "2", "3", "4"], "i"),
        (["u1", "a", "x", "b"], "U"),
    ])
    def test_ids_keep_their_parsed_types(self, tmp_path, cells, kind):
        path = tmp_path / "samples.csv"
        rows = [f"{c},{k % 2},{k / 4}" for k, c in enumerate(cells)]
        path.write_text("\n".join(["id,label,f1", *rows]) + "\n")
        s = load_csv(path)
        assert s.ids.dtype.kind == kind
        want = [int(c) if c.isdigit() else c for c in cells]
        assert [(type(v), v) for v in s.ids.tolist()] == [(type(v), v) for v in want]
        back = tmp_path / "back.csv"
        save_samples_csv(back, s)
        assert back.read_text().splitlines()[1:] == [
            f"{c},{k % 2},{k / 4!r}" for k, c in enumerate(cells)
        ]

    def test_round_trip(self, tmp_path):
        samples = normalize(synth_two_gaussians(20, seed=6))
        path = tmp_path / "samples.csv"
        save_samples_csv(path, samples)
        back = load_csv(path)
        assert np.array_equal(back.x, samples.x)
        assert back.labels.tolist() == samples.labels.tolist()
        assert back.ids.tolist() == samples.ids.tolist()


def _samples_text(seed, ids, labels, blank, delimiter, pad, n=12, d=3):
    """A valid samples file: id column of the given kind (or none), label
    column of the given kind, columns in a seeded order, blank lines,
    padding, and numbers in several spellings."""
    rng = np.random.default_rng(seed)
    name = {
        "int": str,
        "str": lambda k: f"u{k}",
        "mixed": lambda k: str(k) if k % 2 else f"u{k}",
    }.get(ids)
    spellings = {
        "int": ["0", "1", "1.0", "-2", "3e0"],
        "text": ["cat", "dog", "0x1"],
        "mixed": ["0", "cat", "1.0"],
    }[labels]
    spell = [repr, lambda v: f"{v:.3e}", lambda v: f"{v:.6f}"]
    header = ["label"] + [f"f{k + 1}" for k in range(d)] + (["id"] if name else [])
    order = rng.permutation(len(header))
    lines = [delimiter.join(header[c] for c in order)]
    for r, k in enumerate(rng.permutation(100)[:n].tolist()):
        cells = [spellings[rng.integers(len(spellings))]]
        cells += [spell[rng.integers(3)](float(v)) for v in rng.normal(size=d)]
        cells += [name(k)] if name else []
        cells = [cells[c] for c in order]
        if pad:
            cells = [f" {c}  " for c in cells]
        lines.append(delimiter.join(cells))
        if blank and r % 5 == 1:
            lines += ["", delimiter.join(["  "] * len(header))]
    return "\n".join(lines) + "\n"


def _sample_columns(s):
    """Every column of a ``SampleSet`` with its dtype and value types, and
    the bytes, shape and layout of ``x``."""
    typed = lambda a: (a.dtype.str, [(type(v), v) for v in a.tolist()])
    return (s.x.tobytes(), s.x.shape, s.x.dtype.str, s.x.flags.c_contiguous,
            typed(s.labels), typed(s.ids))


def _failure(read, path, **kwargs):
    """The type, row, column and message of the error ``read`` raises."""
    with pytest.raises((ParseError, MissingLabelColumn)) as err:
        read(path, **kwargs)
    e = err.value
    return type(e), getattr(e, "row", None), getattr(e, "col", None), str(e)


class TestLoadCsvMatchesReference:
    """``load_csv`` against the per-row reader of
    ``oracles.reference_load_csv``."""

    @pytest.mark.parametrize("ids", ["int", "str", "mixed", None])
    @pytest.mark.parametrize("labels", ["int", "text", "mixed"])
    @pytest.mark.parametrize("blank, delimiter, pad", [
        (False, ",", False),
        (True, ";", False),
        (True, ",", True),
        (False, "\t", True),
    ])
    def test_valid_files(self, tmp_path, ids, labels, blank, delimiter, pad):
        path = tmp_path / "samples.txt"
        for seed in range(3):
            path.write_text(_samples_text(seed, ids, labels, blank, delimiter, pad))
            got = load_csv(path, delimiter=delimiter)
            want = oracles.reference_load_csv(path, delimiter=delimiter)
            assert _sample_columns(got) == _sample_columns(want)

    def test_other_column_names(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("key,x,cls,y\n7,0.5,1,2\n3,0.25,0,-1\n")
        for kwargs in ({"label_col": "cls", "id_col": "key"},
                       {"label_col": "cls"}, {"label_col": "cls", "id_col": "y"}):
            assert _sample_columns(load_csv(path, **kwargs)) == _sample_columns(
                oracles.reference_load_csv(path, **kwargs))

    MALFORMED = {
        "empty file": "",
        "blank header": "\nid,label,f1\n",
        "no label column": "id,target,f1\n0,0,0.1\n",
        "header only": "id,label,f1\n",
        "header and blank rows only": "id,label,f1\n\n , , \n",
        "repeated id": "id,label,f1\n1,0,0.1\n2,1,0.2\n 1 ,0,0.3\n",
        "repeated text id": "id,label,f1\na,0,0.1\nb,1,0.2\na,0,0.3\n",
        "non-integer label": "id,label,f1\n0,0,0.1\n1,1.5,0.2\n",
        "NaN label": "id,label,f1\n0,0,0.1\n1,nan,0.2\n",
        "infinite label": "id,label,f1\n0,cat,0.1\n1,-inf,0.2\n",
        "non-integer label among text": "id,label,f1\n0,cat,0.1\n1,0.5,0.2\n",
        "bad feature": "id,label,f1\n0,0,0.1\n1,1,abc\n",
        "NaN feature": "id,label,f1,f2\n0,0,0.1,0.2\n1,1,0.2,nan\n",
        "infinite feature without ids": "label,f1\n0,0.1\n\n1,-inf\n",
        "NaN feature, then bad label": "id,label,f1\n1,0,nan\n2,0.5,0.3\n",
        "bad label and NaN feature in one row": "id,label,f1\n1,0.5,nan\n",
        "ragged row": "id,label,f1\n0,0,0.1\n1,1,0.2,0.3\n",
        "short row": "id,label,f1,f2\n0,0,0.1,0.2\n1,1,0.2\n",
        "short row after blanks": "id,label,f1\n\n0,0,0.1\n , , \n2,0\n",
        "short row without ids": "label,f1\n0,0.1\n\n1\n",
        "bad feature, then repeated id": "id,label,f1\n1,0,0.1\n2,0,x\n1,1,0.2\n",
        "repeated id, then bad label": "id,label,f1\n1,0,0.1\n1,0,0.2\n2,0.5,0.3\n",
        "bad label, then ragged row": "id,label,f1\n1,0.5,0.1\n2,0,0.2,9\n",
        "bad label and bad feature in one row": "id,label,f1\n1,0.5,x\n",
        "bad label and repeated id in one row": "id,label,f1\n1,0,0.1\n1,0.5,0.2\n",
    }

    @pytest.mark.parametrize("delimiter", [",", ";"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_files_fail_alike(self, tmp_path, case, delimiter):
        path = tmp_path / "bad.csv"
        path.write_text(self.MALFORMED[case].replace(",", delimiter))
        assert _failure(load_csv, path, delimiter=delimiter) == _failure(
            oracles.reference_load_csv, path, delimiter=delimiter)


#: Floats at the edges of ``repr``: the switch to exponent notation, signed
#: zero, the smallest subnormal and the largest finite value.
EDGE_FLOATS = [1e16, 1e-05, -0.0, 5e-324, 1.7976931348623157e308,
               0.1, -2.5, 123456789.125, 9999999999999998.0, 0.0001]


class TestWritersMatchReference:
    """The column writers write the bytes of the row-by-row writers of
    ``oracles``."""

    IDS = {
        "int": [3, 1, 4, 15, 9, 2, 6, 5, 35, 8],
        "quoted str": ["a,b", 'q"t', "plain", "x y", "a;b", "t\tab", "1.5",
                       "", "e", "z"],
        "mixed": [7, "a,b", 0, 'q"t', -3, "u", 12, "v", 2, "w"],
    }

    @staticmethod
    def pair_set(ids):
        n = len(ids)
        dx = np.array(EDGE_FLOATS)[:, None] * np.array([1.0, -1.0, 0.5])
        return PairSet(ids, ids[1:] + ids[:1], dx[:n], [k % 2 for k in range(n)])

    @pytest.mark.parametrize("delimiter", [",", ";", "."])
    @pytest.mark.parametrize("ids", sorted(IDS))
    def test_pairs_file(self, tmp_path, ids, delimiter):
        pairs = self.pair_set(self.IDS[ids])
        write_pairs_file(tmp_path / "got.csv", pairs, delimiter=delimiter)
        oracles.reference_write_pairs_file(tmp_path / "want.csv", pairs,
                                           delimiter=delimiter)
        assert (tmp_path / "got.csv").read_bytes() == (
            tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("delimiter", [",", ";", "."])
    @pytest.mark.parametrize("ids", sorted(IDS))
    @pytest.mark.parametrize("labels", [[0, 1] * 5, ["cat", "a,b"] * 5])
    def test_samples_file(self, tmp_path, ids, labels, delimiter):
        x = np.array(EDGE_FLOATS)[:, None] * np.array([[1.0, -1.0]])
        mixed = len(set(map(type, self.IDS[ids]))) > 1
        samples = SampleSet(x, labels, np.array(self.IDS[ids],
                                                dtype=object if mixed else None))
        save_samples_csv(tmp_path / "got.csv", samples, delimiter=delimiter)
        oracles.reference_save_samples_csv(tmp_path / "want.csv", samples,
                                           delimiter=delimiter)
        assert (tmp_path / "got.csv").read_bytes() == (
            tmp_path / "want.csv").read_bytes()

    def test_empty_pairs_file(self, tmp_path):
        write_pairs_file(tmp_path / "got.csv", [])
        oracles.reference_write_pairs_file(tmp_path / "want.csv", [])
        assert (tmp_path / "got.csv").read_bytes() == (
            tmp_path / "want.csv").read_bytes()

    def test_cli_csv(self, tmp_path):
        rows = [
            (name, np.float64(v), k, v, np.float64(-v), np.int64(k), k % 2 == 0)
            for k, (name, v) in enumerate(zip(self.IDS["mixed"], EDGE_FLOATS))
        ]
        names = ["name", "np", "run", "py", "neg", "npint", "flag"]
        _write_csv(tmp_path / "got.csv", names, list(zip(*rows)))
        oracles.reference_write_csv(tmp_path / "want.csv", names, rows)
        assert (tmp_path / "got.csv").read_bytes() == (
            tmp_path / "want.csv").read_bytes()
