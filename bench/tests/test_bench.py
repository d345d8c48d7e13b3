"""Tests of the benchmark itself: ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
REFERENCES = ROOT / "bench" / "references.json"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

for path in (ROOT, ROOT / "src", ROOT / "bench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--seconds", "0.5",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tiny_run_of_all_workloads_prints_every_end_to_end_metric():
    proc = bench("--workload", "all", "--scale", "tiny", "--seed", "1")
    res = result_line(proc)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    want = {f"{w}.{m['name']}" for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert set(res["metrics"]) == want
    for m in SPEC["end_to_end"]:
        assert f"  {m['name']} " in proc.stdout
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--scale", "tiny", "--trace", "1")
    res = result_line(proc)
    assert res["correct"], proc.stdout
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert f"  {m['name']} " in proc.stdout
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    if workload == "pipeline-700":
        # analyze-kappa and train each compute the bound once
        assert metrics["kappa.kappa_upper.calls"] == 2
        assert metrics["cli.train.s"] > metrics["dml.train.s"] > 0
    if workload == "exact-small":
        assert metrics["kappa.exact_success_ratio"] == 1.0
        assert metrics["kappa.max_edge_disjoint_paths.calls"] > 0
    if workload == "sweep-grid":
        assert metrics["dml.train.s"] >= metrics["dml.train.self_s"] > 0
        assert metrics["mechanisms.input_perturb.pairs"] > 0


def _corrupt_exact_kappa(refs):
    refs["exact-small"]["tiny"]["graphs"]["npc3-d1.5-r0"]["kappa"] += 1


def _corrupt_pipeline_kappa(refs):
    refs["pipeline-700"]["tiny"]["kappa"]["0"] += 1


def _corrupt_pipeline_objective(refs):
    refs["pipeline-700"]["tiny"]["objective"]["ceiling"] = 0.0


def _corrupt_sweep_objective(refs):
    refs["sweep-grid"]["tiny"]["training"]["nonpriv"]["ceiling"] = 0.0


@pytest.mark.parametrize("workload, corrupt, failing", [
    ("exact-small", _corrupt_exact_kappa, {"npc3-d1.5-r0"}),
    ("pipeline-700", _corrupt_pipeline_kappa, {"analyze_kappa", "train"}),
    ("pipeline-700", _corrupt_pipeline_objective, {"train"}),
    ("sweep-grid", _corrupt_sweep_objective, {"train nonpriv"}),
])
def test_corrupted_reference_counts_as_failure(tmp_path, workload, corrupt,
                                               failing):
    from workloads import WORKLOADS

    refs = json.loads(REFERENCES.read_text())
    corrupt(refs)
    wl = WORKLOADS[workload]("tiny", 0, refs, tmp_path)
    wl.setup()
    result = wl.run_pass(0)
    wl.check(result)
    failed = {c.name for c in result.calls if not c.ok}
    assert failed == failing, [(c.name, c.detail) for c in result.calls]


def test_exact_success_ratio_counts_fallbacks():
    from workloads import PassResult, exact_success_ratio

    runs = [PassResult(kappa_methods=["exact", "upper_bound"]),
            PassResult(kappa_methods=["exact", "exact"])]
    assert exact_success_ratio(runs) == 0.75
    assert exact_success_ratio([PassResult()]) == 0.0


def test_host_speed_is_reference_time_over_fastest_loop():
    from calibration import REFERENCE_S, host_speed

    assert host_speed([2 * REFERENCE_S, 4 * REFERENCE_S]) == 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for workload in WORKLOADS + ["all"]:
        proc = bench("--workload", workload, cwd=tmp_path)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


def _int_graph(graph):
    from dppdml.pairgraph import PairwiseDatum, build_graph

    ids = sorted(graph.nodes())
    index = {v: k for k, v in enumerate(ids)}
    edges = sorted(
        (min(index[a], index[b]), max(index[a], index[b]))
        for a, b in graph.edge_keys()
    )
    pairs = [PairwiseDatum(a, b, [1.0], 0) for a, b in edges]
    return len(ids), edges, build_graph(pairs, extra_nodes=range(len(ids)))


ORACLE_MAX_EDGES = 20


def test_small_exact_references_match_brute_force_oracle():
    from dppdml.kappa import max_edge_disjoint_paths
    from dppdml.pairgraph import build_graph
    from tests.oracles import kappa_oracle
    from workloads import PARAMS, exact_family, exact_pairs

    graphs = json.loads(REFERENCES.read_text())["exact-small"]["full"]["graphs"]
    checked = 0
    for label, n, dens, seed in exact_family(PARAMS["full"]["exact-small"]):
        graph = build_graph(exact_pairs(n, dens, seed))
        # the oracle enumerates edge subsets: minutes at 25 edges
        if graph.num_nodes > 10 or graph.num_edges > ORACLE_MAX_EDGES:
            continue
        n_nodes, edges, g = _int_graph(graph)
        witness = {
            (a, b): max_edge_disjoint_paths(g, a, b)[1]
            for a in range(n_nodes) for b in range(a + 1, n_nodes)
        }
        oracle = kappa_oracle(n_nodes, edges, witness)["kappa"]
        assert graphs[label]["kappa"] == oracle, label
        checked += 1
    assert checked >= 10
