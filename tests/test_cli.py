from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dppdml import cli, dataio, evaluation
from dppdml.cli import main
from dppdml.kappa import compute_kappa
from dppdml.pairgraph import (
    PairSet, PairwiseDatum, build_graph, read_pairs_file, write_pairs_file,
)


def run(args):
    return main([str(a) for a in args])


def write_tree_pairs(path):
    pairs = [
        PairwiseDatum("a", "b", np.array([0.1]), 0),
        PairwiseDatum("b", "c", np.array([0.2]), 1),
        PairwiseDatum("b", "d", np.array([0.3]), 1),
    ]
    write_pairs_file(path, pairs)


def write_star_pairs(path, leaves=5):
    pairs = [
        PairwiseDatum("hub", f"l{k}", np.array([0.1 * (k + 1)]), k % 2)
        for k in range(leaves)
    ]
    write_pairs_file(path, pairs)


@pytest.fixture
def toy_files(tmp_path):
    out = tmp_path / "data"
    assert run(["synth", "--out-dir", out, "--seed", 3]) == 0
    return out / "samples.csv", out / "pairs.csv"


class TestSynth:
    def test_outputs_load_cleanly(self, toy_files):
        samples_path, pairs_path = toy_files
        samples = dataio.load_csv(samples_path)
        pairs = read_pairs_file(pairs_path)
        assert len(samples) == 200
        assert len(pairs) == 150

    def test_density_mode(self, tmp_path):
        out = tmp_path / "d"
        assert run(["synth", "--out-dir", out, "--mode", "density",
                    "--n-per-class", 50, "--density", 1.5]) == 0
        pairs = read_pairs_file(out / "pairs.csv")
        assert len(pairs) > 100


class TestAnalyzeKappa:
    def test_tree_is_exactly_one(self, tmp_path, capsys):
        path = tmp_path / "tree.csv"
        write_tree_pairs(path)
        assert run(["analyze-kappa", "--pairs", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kappa"] == 1
        assert report["method"] == "exact"

    def test_node_dp_on_star(self, tmp_path, capsys):
        path = tmp_path / "star.csv"
        write_star_pairs(path, leaves=5)
        assert run(["analyze-kappa", "--pairs", path, "--method", "node-dp"]) == 0
        assert json.loads(capsys.readouterr().out)["kappa"] == 5

    def test_malformed_file_exits_two_naming_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,0,0.5\nc,d,1,zzz\n")
        assert run(["analyze-kappa", "--pairs", path]) == 2
        assert "row 2" in capsys.readouterr().err

    def test_fractional_label_exits_two_naming_row(self, tmp_path, capsys):
        path = tmp_path / "frac.csv"
        path.write_text("a,b,0,0.5\nc,d,0.5,0.25\n")
        assert run(["analyze-kappa", "--pairs", path]) == 2
        assert "row 2, col 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where", [
        ("0,1,0,oops\n1,2,1,0.25\n2,0,0,0.3\n", "row 1, col 4"),
        ("0,1,0,0.5,0.1\n1,2,1,0.25\n", "row 2: expected 5 columns, got 4"),
    ], ids=["typo-in-row-1", "ragged"])
    def test_typo_in_row_one_or_ragged_row_exits_two_naming_row(
        self, tmp_path, capsys, text, where
    ):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert run(["analyze-kappa", "--pairs", path]) == 2
        assert where in capsys.readouterr().err

    def test_intransitive_relation(self, tmp_path, capsys):
        path = tmp_path / "tri.csv"
        pairs = [
            PairwiseDatum("a", "b", np.array([0.1]), 0),
            PairwiseDatum("b", "c", np.array([0.1]), 0),
            PairwiseDatum("c", "a", np.array([0.1]), 0),
        ]
        write_pairs_file(path, pairs)
        assert run(["analyze-kappa", "--pairs", path,
                    "--relation", "intransitive"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "intransitive"
        assert report["kappa"] == 1

    def test_intransitive_exact_has_no_size_guard(self, toy_files, capsys):
        _, pairs_path = toy_files
        args = ["analyze-kappa", "--pairs", pairs_path, "--relation", "intransitive"]
        assert run(args) == 0
        auto = capsys.readouterr().out
        assert run(args + ["--method", "exact", "--exact-limit", 3]) == 0
        assert capsys.readouterr().out == auto
        report = json.loads(auto)
        assert report["method"] == "intransitive" and "detail" not in report

    def test_missing_pairs_flag_exits_two(self, capsys):
        assert run(["analyze-kappa"]) == 2
        assert "pairs" in capsys.readouterr().err

    # (pair, paths, c_s, c_t) rows in kappa.json's order. On both graphs the
    # first maximising pair in index order has a smaller minimum degree
    # than another maximising pair: (0, 6) and ("q", "x") respectively.
    TABLES = {
        "transitive": (
            [(0, 3), (0, 4), (0, 6), (3, 6), (4, 2), (4, 5), (6, 1)],
            {"kappa": 2, "method": "exact", "witness_pair": [0, 3]},
            [(0, 1, 1, 0, 0), (0, 2, 1, 1, 0), (0, 3, 2, 0, 0), (0, 4, 1, 1, 0),
             (0, 5, 1, 1, 0), (0, 6, 2, 0, 0), (2, 1, 1, 0, 0), (2, 5, 1, 0, 0),
             (3, 1, 1, 0, 0), (3, 2, 1, 0, 0), (3, 4, 1, 0, 0), (3, 5, 1, 0, 0),
             (3, 6, 2, 0, 0), (4, 1, 1, 0, 0), (4, 2, 1, 0, 0), (4, 5, 1, 0, 0),
             (4, 6, 1, 0, 0), (5, 1, 1, 0, 0), (6, 1, 1, 1, 0), (6, 2, 1, 0, 0),
             (6, 5, 1, 0, 0)],
        ),
        "intransitive": (
            [("p", "q"), ("q", "x"), ("x", "a"), ("a", "b"), ("b", "x"),
             ("x", "c"), ("c", "d"), ("d", "x")],
            {"kappa": 1, "method": "intransitive", "witness_pair": ["p", "q"]},
            [("a", "b", 1, 0, 0), ("a", "c", 0, 1, 1), ("a", "d", 0, 1, 1),
             ("b", "c", 0, 1, 1), ("b", "d", 0, 1, 1), ("c", "d", 1, 0, 0),
             ("p", "a", 0, 0, 1), ("p", "b", 0, 0, 1), ("p", "c", 0, 0, 1),
             ("p", "d", 0, 0, 1), ("p", "q", 1, 0, 0), ("p", "x", 0, 0, 2),
             ("q", "a", 0, 0, 1), ("q", "b", 0, 0, 1), ("q", "c", 0, 0, 1),
             ("q", "d", 0, 0, 1), ("q", "x", 1, 0, 2), ("x", "a", 1, 1, 0),
             ("x", "b", 1, 1, 0), ("x", "c", 1, 1, 0), ("x", "d", 1, 1, 0)],
        ),
    }

    @pytest.mark.parametrize("relation", sorted(TABLES))
    def test_small_graph_report_carries_the_pair_table(
        self, relation, tmp_path, capsys
    ):
        """Up to 24 nodes, kappa.json lists every pair's terms, and the
        witness is the first maximising pair in index order."""
        edges, head, rows = self.TABLES[relation]
        path = tmp_path / "pairs.csv"
        write_pairs_file(path, [
            PairwiseDatum(a, b, np.array([0.1 * (k + 1)]), k % 2)
            for k, (a, b) in enumerate(edges)
        ])
        out = tmp_path / "kappa"
        assert run(["analyze-kappa", "--pairs", path, "--relation", relation,
                    "--out-dir", out]) == 0
        want = {**head, "per_pair_terms": [
            {"pair": [a, b], "paths": p, "c_s": cs, "c_t": ct}
            for a, b, p, cs, ct in rows
        ]}
        assert json.loads((out / "kappa.json").read_text()) == want
        assert json.loads(capsys.readouterr().out) == want


class TestTrainEvaluate:
    def test_artifacts_written(self, toy_files, tmp_path, capsys):
        samples_path, pairs_path = toy_files
        out = tmp_path / "run"
        assert run([
            "train", "--pairs", pairs_path, "--out-dir", out,
            "--t-max", 2, "--batch-size", 30, "--margin", 1.0, "--seed", 1,
        ]) == 0
        stdout = capsys.readouterr().out
        assert "kappa=1" in stdout
        model = json.loads((out / "model.json").read_text())
        assert model["d_prime"] == 2
        assert model["d"] == 2
        assert len(model["w"]) == 4
        assert model["kappa"] == 1
        assert model["train_ids"]
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 5
        assert set(rows[0]) == {
            "iter", "epoch", "objective", "eta", "sens_basic",
            "sens_reduced_min", "sens_reduced_max",
        }

        assert run([
            "evaluate", "--model", out / "model.json",
            "--data", samples_path, "--k", 5,
        ]) == 0
        result = json.loads(capsys.readouterr().out)
        assert 0.0 <= result["accuracy"] <= 1.0
        assert result["train_size"] + result["test_size"] == 200

        # an explicit pairs file defines the same split
        assert run([
            "evaluate", "--model", out / "model.json",
            "--data", samples_path, "--pairs", pairs_path, "--k", 5,
        ]) == 0
        via_pairs = json.loads(capsys.readouterr().out)
        assert via_pairs == result

    def test_fractional_sample_label_exits_two_naming_row(
        self, toy_files, tmp_path, capsys
    ):
        samples_path, pairs_path = toy_files
        out = tmp_path / "run"
        assert run(["train", "--pairs", pairs_path, "--out-dir", out,
                    "--t-max", 1]) == 0
        lines = samples_path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "1.5"
        lines[3] = ",".join(cells)
        bad = tmp_path / "bad_samples.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["evaluate", "--model", out / "model.json",
                    "--data", bad]) == 2
        assert "row 4, col 2" in capsys.readouterr().err

    def test_mixed_numeric_and_text_ids(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("id,label,f1\n1,0,0.1\na,1,0.5\n2,0,0.2\nb,1,0.7\n")
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("1,a,1,0.1\na,2,1,0.2\n2,b,1,0.3\n")
        out = tmp_path / "run"
        assert run(["train", "--pairs", pairs, "--out-dir", out,
                    "--t-max", 1, "--d-prime", 1]) == 0
        capsys.readouterr()
        for extra in ([], ["--pairs", pairs]):
            assert run(["evaluate", "--model", out / "model.json",
                        "--data", samples, "--k", 1, *extra]) == 0
            result = json.loads(capsys.readouterr().out)
            assert result["train_size"] == 4

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_repeated_sample_id_exits_two_naming_row(
        self, command, tmp_path, capsys
    ):
        samples = tmp_path / "samples.csv"
        samples.write_text(
            "id,label,f1\n1,0,0.1\n2,1,0.5\n3,0,0.2\n1,1,0.7\n4,1,0.9\n"
        )
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("1,2,1,0.4\n2,3,1,0.3\n3,4,1,0.7\n1,3,0,0.1\n")
        out = tmp_path / "run"
        assert run(["train", "--pairs", pairs, "--out-dir", out,
                    "--t-max", 1, "--d-prime", 1]) == 0
        argv = {
            "evaluate": ["evaluate", "--model", out / "model.json",
                         "--data", samples, "--k", 1],
            "sweep": ["sweep", "--data", samples, "--pairs", pairs,
                      "--out-dir", tmp_path / "sweep", "--methods", "nonpriv",
                      "--epsilons", 1, "--repeats", 1, "--t-max", 1,
                      "--d-prime", 1, "--k", 1],
        }[command]
        capsys.readouterr()
        assert run(argv) == 2
        assert "row 5, col 1: id 1 repeats row 2" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "command", ["evaluate-pairs", "sweep", "evaluate-model"]
    )
    def test_id_missing_from_samples_exits_two(
        self, command, toy_files, tmp_path, capsys
    ):
        samples_path, pairs_path = toy_files
        out = tmp_path / "run"
        assert run(["train", "--pairs", pairs_path, "--out-dir", out,
                    "--t-max", 1, "--mechanism", "none"]) == 0
        stray = tmp_path / "stray_pairs.csv"
        pairs = read_pairs_file(pairs_path)
        write_pairs_file(stray, list(pairs) + [
            PairwiseDatum(pairs[0].i, 9999, pairs[0].delta_x, 1)
        ])
        model = json.loads((out / "model.json").read_text())
        model["train_ids"].append(9999)
        (out / "model.json").write_text(json.dumps(model))
        argv = {
            "evaluate-pairs": ["evaluate", "--model", out / "model.json",
                               "--data", samples_path, "--pairs", stray],
            "sweep": ["sweep", "--data", samples_path, "--pairs", stray,
                      "--out-dir", tmp_path / "sweep", "--repeats", 1],
            "evaluate-model": ["evaluate", "--model", out / "model.json",
                               "--data", samples_path],
        }[command]
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: id 9999 is not among the samples\n"
        )

    def test_invalid_config_exits_two(self, toy_files, tmp_path, capsys):
        _, pairs_path = toy_files
        assert run([
            "train", "--pairs", pairs_path, "--out-dir", tmp_path / "x",
            "--d-prime", 0,
        ]) == 2
        assert "d_prime" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["toy", "density"])
def test_cli_path_builds_no_per_pair_datum(mode, tmp_path, monkeypatch):
    """Pairs stay columns from the sampler or the file to the graph, the
    trainer and the split: no step reads a ``PairSet`` row by row or builds
    a ``PairwiseDatum``."""
    def per_pair(*args, **kwargs):
        raise AssertionError("per-pair datum on the CLI path")

    monkeypatch.setattr(PairSet, "__getitem__", per_pair)
    monkeypatch.setattr(PairSet, "__iter__", per_pair)
    monkeypatch.setattr(PairwiseDatum, "__post_init__", per_pair)
    d = tmp_path
    samples, pairs = d / "samples.csv", d / "pairs.csv"
    for argv in (
        ["synth", "--mode", mode, "--n-per-class", 60, "--intra", 20,
         "--inter", 20, "--density", 1.5, "--out-dir", d],
        ["analyze-kappa", "--pairs", pairs],
        ["train", "--pairs", pairs, "--out-dir", d / "m", "--t-max", 1],
        ["evaluate", "--model", d / "m" / "model.json", "--data", samples,
         "--pairs", pairs],
        ["sweep", "--data", samples, "--pairs", pairs, "--out-dir", d / "s",
         "--repeats", 1, "--t-max", 1, "--epsilons", 1],
    ):
        assert run(argv) == 0, argv[0]


class TestSweep:
    def test_long_format_shape(self, toy_files, tmp_path):
        samples_path, pairs_path = toy_files
        out = tmp_path / "sweep"
        assert run([
            "sweep", "--data", samples_path, "--pairs", pairs_path,
            "--out-dir", out, "--methods", "nonpriv,dpp",
            "--epsilons", "1,2", "--repeats", 2, "--t-max", 1,
            "--batch-size", 30, "--margin", 1.0,
        ]) == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        # methods x epsilons x repeats, baseline rows repeated per budget
        assert len(rows) == 2 * 2 * 2
        nonpriv = [r for r in rows if r["method"] == "nonpriv"]
        assert len(nonpriv) == 4
        by_eps = {}
        for r in nonpriv:
            by_eps.setdefault(r["epsilon"], []).append(r["accuracy"])
        assert len(by_eps) == 2
        accs = list(by_eps.values())
        assert accs[0] == accs[1]


class TestInSampleScoring:
    """With every individual in a pair, there is no held-out sample:
    ``evaluate`` and ``sweep`` score on the training individuals and say so."""

    IN_SAMPLE_LINE = ("every sample is in a pair: accuracies are scored "
                      "in-sample, on the training individuals")

    @staticmethod
    def everyone_paired(tmp_path):
        samples = dataio.normalize(dataio.synth_two_gaussians(10, seed=2))
        a, b = np.arange(len(samples) - 1), np.arange(1, len(samples))
        chain = PairSet(samples.ids[a].tolist(), samples.ids[b].tolist(),
                        samples.x[a] - samples.x[b],
                        (samples.labels[a] != samples.labels[b]).astype(int))
        dataio.save_samples_csv(tmp_path / "samples.csv", samples)
        write_pairs_file(tmp_path / "pairs.csv", chain)
        return tmp_path / "samples.csv", tmp_path / "pairs.csv"

    def evaluate_and_sweep(self, samples, pairs, out, capsys):
        assert run(["train", "--pairs", pairs, "--out-dir", out / "m",
                    "--t-max", 1]) == 0
        results = []
        for source in (["--pairs", pairs], []):
            assert run(["evaluate", "--model", out / "m" / "model.json",
                        "--data", samples, "--out-dir", out / "e", *source]) == 0
            results.append(json.loads((out / "e" / "accuracy.json").read_text()))
        capsys.readouterr()
        assert run(["sweep", "--data", samples, "--pairs", pairs, "--out-dir",
                    out / "s", "--methods", "nonpriv,dpp", "--epsilons", 1,
                    "--repeats", 2, "--t-max", 1]) == 0
        return results, capsys.readouterr().out.splitlines()

    def test_everyone_paired_is_flagged(self, tmp_path, capsys):
        samples, pairs = self.everyone_paired(tmp_path)
        results, lines = self.evaluate_and_sweep(samples, pairs, tmp_path, capsys)
        for result in results:
            assert result["in_sample"] is True
            assert result["test_size"] == result["train_size"] == 20
        assert lines.count(self.IN_SAMPLE_LINE) == 1

    def test_held_out_samples_are_not_flagged(self, toy_files, tmp_path, capsys):
        results, lines = self.evaluate_and_sweep(*toy_files, tmp_path, capsys)
        for result in results:
            assert result["in_sample"] is False
            assert result["test_size"] > 0
        assert self.IN_SAMPLE_LINE not in lines


class TestCompareMechanisms:
    def test_objective_columns(self, toy_files, tmp_path):
        _, pairs_path = toy_files
        out = tmp_path / "cmp"
        assert run([
            "compare-mechanisms", "--pairs", pairs_path, "--out-dir", out,
            "--batch-size", 30, "--margin", 1.0, "--epsilon", 2,
        ]) == 0
        with open(out / "mechanisms.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {"iter", "lap", "lap_s", "scdf", "duchi"}
        assert len(rows) == 5  # one epoch of 150/30 batches

    def test_unknown_mechanism_exits_two(self, toy_files, tmp_path, capsys):
        _, pairs_path = toy_files
        assert run([
            "compare-mechanisms", "--pairs", pairs_path,
            "--out-dir", tmp_path / "z", "--mechanisms", "lap,warp",
        ]) == 2
        assert "warp" in capsys.readouterr().err


class TestParserCache:
    """``main`` builds its parser once per process, looks each handler up
    by name at call time, and carries nothing from one call to the next."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_patched_handler_runs_after_a_first_call(self, toy_files, tmp_path,
                                                     monkeypatch):
        _, pairs = toy_files
        assert run(["train", "--pairs", pairs, "--t-max", 1,
                    "--out-dir", tmp_path / "a"]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_train", calls.append)
        assert run(["train", "--pairs", pairs, "--out-dir", tmp_path / "b"]) == 0
        assert [cfg["pairs"] for cfg in calls] == [str(pairs)]
        assert not (tmp_path / "b" / "model.json").exists()
        assert not (tmp_path / "b" / "trace.csv").exists()

    def test_flags_do_not_leak_into_the_next_call(self, toy_files, tmp_path):
        _, pairs = toy_files
        common = ["train", "--pairs", pairs, "--t-max", 1]
        assert run(common + ["--epsilon", 1, "--out-dir", tmp_path / "a"]) == 0
        assert run(common + ["--out-dir", tmp_path / "b"]) == 0
        first, second = (
            json.loads((tmp_path / d / "resolved_config.json").read_text())
            for d in "ab"
        )
        assert first["epsilon"] == 1.0
        assert second["epsilon"] == cli.TRAIN_DEFAULTS["epsilon"] != 1.0
        assert {**first, "epsilon": second["epsilon"],
                "out_dir": second["out_dir"]} == second


class TestFlagsFromDefaults:
    """A subcommand's flags, other than ``--config``, are exactly the keys of
    its defaults table, in its order, each parsing to its default's type."""

    RENAMED = {"model_out": "--out", "sweep_out": "--out", "compare_out": "--out",
               "trace_out": "--trace"}
    OPTIONAL_NUMBERS = {"margin", "staircase_gamma"}

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_one_flag_per_key(self, command):
        defaults = cli.COMMANDS[command][0]
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        actions = [a for a in sub.choices[command]._actions
                   if a.dest not in ("help", "config")]
        assert [a.dest for a in actions] == list(defaults)
        for action in actions:
            key, default = action.dest, defaults[action.dest]
            flag = self.RENAMED.get(key, "--" + key.replace("_", "-"))
            assert action.option_strings == [flag]
            if isinstance(default, bool):
                value = True
            elif default is None:
                value = 0.25 if key in self.OPTIONAL_NUMBERS else "given.csv"
            elif action.choices:
                value = action.choices[-1]
            else:
                value = default + type(default)(1)
            argv = [flag] if value is True else [flag, str(value)]
            parsed = getattr(parser.parse_args([command, *argv]), key)
            assert parsed == value and type(parsed) is type(value), (key, parsed)


class TestResolvedConfig:
    def test_synth_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        assert run(["synth", "--out-dir", first, "--seed", 9]) == 0
        resolved = first / "resolved_config.json"
        second = tmp_path / "b"
        config = json.loads(resolved.read_text())
        config["out_dir"] = str(second)
        patched = tmp_path / "patched.json"
        patched.write_text(json.dumps(config))
        assert run(["synth", "--config", patched]) == 0
        for name in ("samples.csv", "pairs.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_train_rerun_is_byte_identical(self, toy_files, tmp_path):
        _, pairs_path = toy_files
        first = tmp_path / "a"
        assert run([
            "train", "--pairs", pairs_path, "--out-dir", first,
            "--t-max", 2, "--batch-size", 30, "--margin", 1.0, "--seed", 4,
        ]) == 0
        config = json.loads((first / "resolved_config.json").read_text())
        second = tmp_path / "b"
        config["out_dir"] = str(second)
        patched = tmp_path / "patched.json"
        patched.write_text(json.dumps(config))
        assert run(["train", "--config", patched]) == 0
        assert (first / "model.json").read_bytes() == (second / "model.json").read_bytes()
        assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"frobnicate": 1}')
        assert run(["synth", "--config", bad, "--out-dir", tmp_path / "o"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_per_class": 110, "seed": 1}))
        out = tmp_path / "o"
        assert run(["synth", "--config", cfg, "--out-dir", out,
                    "--n-per-class", 120]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["n_per_class"] == 120
        assert resolved["seed"] == 1
        samples = dataio.load_csv(out / "samples.csv")
        assert len(samples) == 240

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_each_command_records_itself_once(self, command, toy_files, tmp_path,
                                              monkeypatch):
        samples_path, pairs_path = toy_files
        model_path = tmp_path / "model.json"
        if command == "evaluate":
            assert run(["train", "--pairs", pairs_path, "--out", model_path,
                        "--out-dir", tmp_path / "m", "--t-max", 1]) == 0
        argv = {
            "synth": [],
            "analyze-kappa": ["--pairs", pairs_path],
            "train": ["--pairs", pairs_path, "--t-max", 1],
            "evaluate": ["--model", model_path, "--data", samples_path],
            "sweep": ["--data", samples_path, "--pairs", pairs_path, "--methods",
                      "nonpriv", "--epsilons", 1, "--repeats", 1, "--t-max", 1],
            "compare-mechanisms": ["--pairs", pairs_path, "--mechanisms", "lap"],
        }[command]
        out = tmp_path / "out"
        assert run([command, *argv, "--out-dir", out]) == 0
        assert [p.relative_to(out) for p in out.rglob("resolved_config.json")] == [
            Path("resolved_config.json")]
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["command"] == command
        assert set(resolved) == {"command", *cli.COMMANDS[command][0]}
        if command in ("analyze-kappa", "evaluate"):  # no out dir by default
            cwd = tmp_path / "cwd"
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            assert run([command, *argv]) == 0
            assert not list(cwd.iterdir())

    @pytest.mark.parametrize("case", ["negative-seed", "self-loop", "malformed-model"])
    def test_failed_command_records_nothing(self, case, toy_files, tmp_path):
        samples_path, pairs_path = toy_files
        bad = tmp_path / "bad"
        if case == "self-loop":
            bad.write_text("i,j,y,dx_1\na,b,0,0.1\nc,c,1,0.2\n")
        elif case == "malformed-model":
            bad.write_text(json.dumps({"d_prime": 2, "d": 2, "w": [1.0, 0.0, 1.0]}))
        argv = {
            "negative-seed": ["train", "--pairs", pairs_path, "--seed", -1],
            "self-loop": ["train", "--pairs", bad],
            "malformed-model": ["evaluate", "--model", bad, "--data", samples_path],
        }[case]
        out = tmp_path / "out"
        assert run(argv + ["--out-dir", out]) == 2
        assert not (out / "resolved_config.json").exists()


BAD_OPTION_VALUES = {
    "evaluate-k-zero": (["evaluate", "--model", "{model}", "--data", "{samples}",
                         "--k", 0], None),
    "evaluate-k-too-large": (["evaluate", "--model", "{model}",
                              "--data", "{samples}", "--k", 1000], None),
    "sweep-k-zero": (["sweep", "--data", "{samples}", "--pairs", "{pairs}",
                      "--methods", "nonpriv", "--epsilons", 1, "--repeats", 1,
                      "--t-max", 1, "--k", 0], None),
    "sweep-unknown-method": (["sweep", "--data", "{samples}", "--pairs", "{pairs}",
                              "--methods", "bogus"], None),
    "sweep-zero-repeats": (["sweep", "--data", "{samples}", "--pairs", "{pairs}",
                            "--repeats", 0], None),
    "synth-zero-samples": (["synth", "--n-per-class", 0], None),
    "synth-config-norm-mode": (["synth"], {"norm_mode": "l3"}),
    "synth-config-mode": (["synth"], {"mode": "bogus"}),
    "train-gaussian-delta-above-one": (["train", "--pairs", "{pairs}",
                                       "--mechanism", "gaussian", "--norm-mode",
                                       "l2", "--delta", 1.5], None),
    "analyze-config-method": (["analyze-kappa", "--pairs", "{pairs}"],
                              {"method": "bogus"}),
    "analyze-config-bogus-relation": (["analyze-kappa", "--pairs", "{pairs}"],
                                      {"relation": "bogus"}),
    "train-config-bogus-relation": (["train", "--pairs", "{pairs}"],
                                    {"relation": "bogus"}),
    "sweep-non-numeric-epsilon": (["sweep", "--data", "{samples}",
                                   "--pairs", "{pairs}", "--epsilons", "1,x"],
                                  None),
    "sweep-nonpositive-epsilon": (["sweep", "--data", "{samples}",
                                   "--pairs", "{pairs}", "--methods", "nonpriv",
                                   "--epsilons=-1,0", "--repeats", 1,
                                   "--t-max", 1], None),
    "sweep-nan-epsilon": (["sweep", "--data", "{samples}", "--pairs",
                           "{pairs}", "--methods", "nonpriv", "--epsilons",
                           "nan", "--repeats", 1, "--t-max", 1], None),
    "sweep-empty-epsilons": (["sweep", "--data", "{samples}", "--pairs",
                              "{pairs}", "--epsilons="], None),
    "sweep-empty-methods": (["sweep", "--data", "{samples}", "--pairs",
                             "{pairs}", "--methods="], None),
    "compare-empty-mechanisms": (["compare-mechanisms", "--pairs", "{pairs}",
                                  "--mechanisms="], None),
    "analyze-negative-exact-limit": (["analyze-kappa", "--pairs", "{pairs}",
                                      "--exact-limit", -5], None),
    "analyze-config-string-exact-limit": (["analyze-kappa", "--pairs", "{pairs}"],
                                          {"exact_limit": "64"}),
    "evaluate-config-string-k": (["evaluate", "--model", "{model}",
                                  "--data", "{samples}"], {"k": "5"}),
    "train-config-string-t-max": (["train", "--pairs", "{pairs}"], {"t_max": "3"}),
    "train-config-true-t-max": (["train", "--pairs", "{pairs}"], {"t_max": True}),
    "train-config-string-margin": (["train", "--pairs", "{pairs}"], {"margin": "1"}),
    "synth-config-int-balance": (["synth"], {"balance": 1}),
    "sweep-config-number-out": (["sweep", "--data", "{samples}", "--pairs",
                                 "{pairs}"], {"sweep_out": 3}),
}


class TestExitCodes:
    def test_no_command_prints_help(self, capsys):
        assert run([]) == 2

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command", ["synth", "train", "sweep"])
    def test_negative_seed_exits_two_before_any_work(
        self, command, via, toy_files, tmp_path, monkeypatch, capsys
    ):
        samples_path, pairs_path = toy_files

        def no_work(*args, **kwargs):
            raise AssertionError("worked before the seed was checked")

        for module, name in ((dataio, "synth_two_gaussians"),
                             (cli, "read_pairs_file"), (dataio, "load_csv")):
            monkeypatch.setattr(module, name, no_work)
        argv = {
            "synth": ["synth"],
            "train": ["train", "--pairs", pairs_path],
            "sweep": ["sweep", "--data", samples_path, "--pairs", pairs_path],
        }[command] + ["--out-dir", tmp_path / "out"]
        if via == "flag":
            argv += ["--seed", -1]
        else:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"seed": -1}))
            argv += ["--config", config_path]
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, config", BAD_OPTION_VALUES.values(),
                             ids=BAD_OPTION_VALUES.keys())
    def test_bad_option_value_exits_two(self, args, config, toy_files,
                                        tmp_path, capsys):
        samples_path, pairs_path = toy_files
        model_path = tmp_path / "model.json"
        if "{model}" in args:
            assert run(["train", "--pairs", pairs_path, "--out", model_path,
                        "--out-dir", tmp_path / "m", "--t-max", 1,
                        "--mechanism", "none"]) == 0
        paths = {"{model}": model_path, "{samples}": samples_path,
                 "{pairs}": pairs_path}
        argv = [paths.get(a, a) for a in args]
        if config is not None:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config))
            argv += ["--config", config_path]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(argv + ["--out-dir", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "pairs.csv").exists()

    @pytest.mark.parametrize("k", [0, 100_000])
    def test_sweep_rejects_bad_k_before_training(self, k, toy_files, tmp_path,
                                                 monkeypatch, capsys):
        samples_path, pairs_path = toy_files

        def no_training(*args, **kwargs):
            raise AssertionError("trained before k was checked")

        monkeypatch.setattr(evaluation, "train", no_training)
        assert run(["sweep", "--data", samples_path, "--pairs", pairs_path,
                    "--out-dir", tmp_path / "s", "--repeats", 1, "--k", k]) == 2
        assert "k must lie in" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert run(["analyze-kappa", "--pairs", tmp_path / "ghost.csv"]) == 2

    @pytest.mark.parametrize("case", ["train --pairs <dir>", "evaluate --model <dir>",
                                      "synth --out-dir <file>",
                                      "train --pairs <file>/x"])
    def test_path_of_the_wrong_kind_exits_two_naming_it(self, case, toy_files,
                                                        tmp_path, capsys):
        samples_path, pairs_path = toy_files
        folder = tmp_path / "folder"
        folder.mkdir()
        argv, named = {
            "train --pairs <dir>": (["train", "--pairs", folder], folder),
            "evaluate --model <dir>": (
                ["evaluate", "--model", folder, "--data", samples_path], folder),
            "synth --out-dir <file>": (["synth"], samples_path),
            "train --pairs <file>/x": (
                ["train", "--pairs", samples_path / "x"], samples_path / "x"),
        }[case]
        out = samples_path if case.startswith("synth") else tmp_path / "out"
        capsys.readouterr()
        assert run(argv + ["--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(str(named)) in err

    def test_non_finite_model_weight_exits_two(self, toy_files, tmp_path, capsys):
        samples_path, pairs_path = toy_files
        model_path = tmp_path / "model.json"
        assert run(["train", "--pairs", pairs_path, "--out", model_path,
                    "--out-dir", tmp_path / "m", "--t-max", 1]) == 0
        payload = json.loads(model_path.read_text())
        payload["w"][1] = math.nan
        model_path.write_text(json.dumps(payload))  # writes the token NaN
        capsys.readouterr()
        assert run(["evaluate", "--model", model_path, "--data", samples_path,
                    "--out-dir", tmp_path / "eval"]) == 2
        assert capsys.readouterr().err == "error: model weight w[1] is nan, not finite\n"
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("payload, named", [
        ({"d_prime": 2, "d": 2, "w": [1.0, 0.0, 1.0]}, "3 weights"),
        ({"d_prime": 2, "d": 2}, "no 'w'"),
        ({"d_prime": 2, "d": 2, "w": [1.0, "a", 0.0, 1.0]}, "w[1] is 'a'"),
        ([1.0, 0.0, 0.0, 1.0], "not a list"),
    ], ids=["count", "missing-w", "string-weight", "list-file"])
    def test_malformed_model_file_exits_two_naming_the_fault(
        self, payload, named, toy_files, tmp_path, capsys
    ):
        samples_path, _ = toy_files
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run(["evaluate", "--model", model_path, "--data", samples_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model ") and named in err

    def test_one_bit_budget_past_exp_overflow_trains(self, toy_files, tmp_path):
        # 1000 per dimension: e^eps overflows, and the magnitude is 1.0
        _, pairs_path = toy_files
        assert run(["train", "--pairs", pairs_path, "--mechanism", "duchi",
                    "--epsilon", 2000, "--t-max", 1, "--out-dir", tmp_path]) == 0
        w = json.loads((tmp_path / "model.json").read_text())["w"]
        assert all(math.isfinite(v) for v in w)

    def test_tiny_staircase_budget_trains(self, tmp_path):
        # 1 - e^-eps is still positive, and the tuned width near 1/2
        data = tmp_path / "data"
        assert run(["synth", "--out-dir", data, "--mode", "density",
                    "--n-per-class", 40, "--density", 1.5]) == 0
        pairs_path = data / "pairs.csv"
        assert compute_kappa(build_graph(read_pairs_file(pairs_path))).kappa > 0
        assert run(["train", "--pairs", pairs_path, "--mechanism", "staircase",
                    "--epsilon", "1e-16", "--t-max", 1, "--out-dir", tmp_path]) == 0
        w = json.loads((tmp_path / "model.json").read_text())["w"]
        assert all(math.isfinite(v) for v in w)

    def test_vanishing_staircase_budget_exits_two_naming_it(
        self, toy_files, tmp_path, capsys
    ):
        _, pairs_path = toy_files
        capsys.readouterr()
        assert run(["train", "--pairs", pairs_path, "--mechanism", "staircase",
                    "--epsilon", "1e-320", "--t-max", 1,
                    "--out-dir", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "epsilon=1e-320" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_non_finite_sample_feature_exits_two(self, command, toy_files,
                                                 tmp_path, capsys):
        samples_path, pairs_path = toy_files
        lines = samples_path.read_text().splitlines(keepends=True)
        header = lines[0].strip().split(",")
        col = next(c for c, name in enumerate(header) if name not in ("id", "label"))
        row = lines[5].split(",")
        row[col] = "nan"
        lines[5] = ",".join(row)
        bad = tmp_path / "samples.csv"
        bad.write_text("".join(lines))
        argv = {
            "evaluate": ["evaluate", "--model", tmp_path / "model.json"],
            "sweep": ["sweep", "--pairs", pairs_path, "--repeats", 1],
        }[command]
        if command == "evaluate":
            assert run(["train", "--pairs", pairs_path, "--out",
                        tmp_path / "model.json", "--out-dir", tmp_path / "m",
                        "--t-max", 1]) == 0
        capsys.readouterr()
        assert run(argv + ["--data", bad, "--out-dir", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == (
            f"error: row 6, col {col + 1}: feature 'nan' is not finite\n")

    def test_compare_mechanisms_rerun_byte_identical(self, toy_files, tmp_path):
        _, pairs_path = toy_files
        first = tmp_path / "a"
        assert run([
            "compare-mechanisms", "--pairs", pairs_path, "--out-dir", first,
            "--batch-size", 30, "--margin", 1.0, "--seed", 6,
        ]) == 0
        config = json.loads((first / "resolved_config.json").read_text())
        second = tmp_path / "b"
        config["out_dir"] = str(second)
        patched = tmp_path / "patched.json"
        patched.write_text(json.dumps(config))
        assert run(["compare-mechanisms", "--config", patched]) == 0
        assert (first / "mechanisms.csv").read_bytes() == (
            second / "mechanisms.csv").read_bytes()
