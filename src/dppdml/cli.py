"""Command-line entry point.

Subcommands: ``synth`` (dataset generation), ``analyze-kappa`` (privacy
distance of a pairs file), ``train`` (private metric learning),
``evaluate`` (kNN accuracy of a saved model), ``sweep``
(accuracy-versus-budget grid) and ``compare-mechanisms`` (one-epoch
objective traces per mechanism).

Every artifact-producing run writes a ``resolved_config.json`` capturing
all defaults plus the seed; re-running with ``--config`` on that file
reproduces the outputs byte-identically. Exit codes: 0 success, 2
usage/config errors, 3 runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import dataio, evaluation, kappa as kappa_mod
from .dml import (
    BATCH_MODES,
    NORM_MODES,
    SENSITIVITY_MODES,
    TRACE_COLUMNS,
    TRAIN_MECHANISMS,
    MetricModel,
    TrainConfig,
    train,
)
from .errors import ConfigInvalid, DppError
from .pairgraph import RELATION_KINDS, build_graph, read_pairs_file, write_pairs_file

_CONFIG_KEYS_IGNORED = {"command"}

#: TrainConfig fields set from flags; the seed comes from ``--seed``.
TRAIN_FIELDS = tuple(f.name for f in fields(TrainConfig) if f.name != "seed")

MECHANISM_VARIANTS = {
    "lap": ("laplace", "basic"),
    "lap_s": ("laplace", "reduced"),
    "scdf": ("staircase", "basic"),
    "duchi": ("duchi", "basic"),
}


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, fieldnames, columns) -> None:
    """A header, then ``columns`` side by side; numpy turns each column into
    Python scalars, so every float is written as its ``repr``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))


def _str_list(cfg: dict, key: str) -> list:
    """Items of a comma-separated option (or a config-file list); never empty."""
    value = cfg[key]
    if isinstance(value, str):
        value = [v.strip() for v in value.split(",") if v.strip()]
    if not isinstance(value, list) or not value:
        raise ConfigInvalid(f"--{key} needs a non-empty list, got {cfg[key]!r}")
    return value


def _float_list(cfg: dict, key: str) -> list[float]:
    items = _str_list(cfg, key)
    try:
        return [float(v) for v in items]
    except (TypeError, ValueError):
        raise ConfigInvalid(f"--{key} must list numbers, got {cfg[key]!r}") from None


#: Options unset (``None``) by default that take a number when set, and
#: comma-separated options, which a config file may also give as a list.
_OPTIONAL_NUMBERS = {"margin", "staircase_gamma"}
_LIST_OPTIONS = {"methods", "epsilons", "mechanisms"}


def _check_config_type(key: str, value, default) -> None:
    """A config-file value must have its default's type: any number for a
    float, an int but no bool for an int (JSON ``true`` is a Python int), a
    string or list for a comma-separated option, and for an option unset by
    default ``null`` or, once set, a number or a string."""
    if default is None:
        if value is None:
            return
        default = 0.0 if key in _OPTIONAL_NUMBERS else ""
    types = (int, float) if isinstance(default, float) else type(default)
    if key in _LIST_OPTIONS:
        types = (str, list)
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(
        value, types
    ):
        raise ConfigInvalid(
            f"config key {key!r} must be {type(default).__name__}, got {value!r}"
        )


def _resolve(defaults: dict, args: argparse.Namespace) -> dict:
    """Layer explicit CLI flags over the config file over defaults."""
    merged = dict(defaults)
    provided = vars(args)
    config_path = provided.pop("config", None)
    if config_path:
        with open(config_path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise DppError(f"config file {config_path} must hold a JSON object")
        for key, value in loaded.items():
            if key in _CONFIG_KEYS_IGNORED:
                continue
            if key not in merged:
                raise DppError(f"config file {config_path}: unknown key {key!r}")
            _check_config_type(key, value, merged[key])
            merged[key] = value
    for key, value in provided.items():
        if key in ("command", "func"):
            continue
        merged[key] = value
    # every command takes a seed; a negative one is rejected before any work
    if merged["seed"] < 0:
        raise ConfigInvalid(f"seed must be >= 0, got {merged['seed']}")
    return merged


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    return TrainConfig(seed=seed, **{k: cfg[k] for k in TRAIN_FIELDS})


def _require(cfg: dict, key: str):
    if cfg.get(key) in (None, ""):
        raise DppError(f"missing required option --{key.replace('_', '-')}")
    return cfg[key]


def _load_dataset(cfg: dict):
    samples = dataio.load_csv(_require(cfg, "data"))
    pairs = read_pairs_file(_require(cfg, "pairs"))
    graph = build_graph(pairs, cfg.get("relation", "transitive"))
    return samples, pairs, graph


def _emit_resolved(cfg: dict, command: str) -> None:
    out_dir = cfg.get("out_dir")
    if out_dir:
        _write_json(
            Path(out_dir) / "resolved_config.json",
            {"command": command, **cfg},
        )


# --- subcommand handlers -----------------------------------------------------


SYNTH_DEFAULTS = {
    "seed": 0,
    "out_dir": "out",
    "n_per_class": 100,
    "mode": "toy",
    "density": 2.0,
    "balance": False,
    "intra": 50,
    "inter": 50,
    "norm_mode": "l1",
}


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _resolve(SYNTH_DEFAULTS, args)
    if cfg["mode"] not in ("toy", "density"):
        raise ConfigInvalid(f"mode must be 'toy' or 'density', got {cfg['mode']!r}")
    samples = dataio.synth_two_gaussians(cfg["n_per_class"], seed=cfg["seed"])
    samples = dataio.normalize(samples, cfg["norm_mode"])
    if cfg["mode"] == "toy":
        pairs = dataio.toy_pairs(
            samples, cfg["intra"], cfg["inter"], seed=cfg["seed"]
        )
    else:
        pairs = dataio.sample_pairs(
            samples, cfg["density"], balance=cfg["balance"], seed=cfg["seed"]
        )
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    dataio.save_samples_csv(out / "samples.csv", samples)
    write_pairs_file(out / "pairs.csv", pairs)
    _emit_resolved(cfg, "synth")
    print(f"wrote {out / 'samples.csv'} ({len(samples)} samples) and "
          f"{out / 'pairs.csv'} ({len(pairs)} pairs)")
    return 0


ANALYZE_DEFAULTS = {
    "seed": 0,
    "out_dir": None,
    "pairs": None,
    "relation": "transitive",
    "method": "auto",
    "exact_limit": kappa_mod.DEFAULT_EXACT_LIMIT,
}


def cmd_analyze_kappa(args: argparse.Namespace) -> int:
    cfg = _resolve(ANALYZE_DEFAULTS, args)
    pairs = read_pairs_file(_require(cfg, "pairs"))
    graph = build_graph(pairs, cfg["relation"])
    report = kappa_mod.compute_kappa(
        graph, method=cfg["method"], exact_limit=cfg["exact_limit"]
    )
    if (report.method in ("exact", "intransitive") and graph.num_edges
            and graph.num_nodes <= kappa_mod.TERMS_NODE_LIMIT):
        report = replace(report, per_pair_terms=kappa_mod.pair_terms(graph))
    print(json.dumps(report.to_dict(), sort_keys=True))
    if cfg.get("out_dir"):
        _write_json(Path(cfg["out_dir"]) / "kappa.json", report.to_dict())
        _emit_resolved(cfg, "analyze-kappa")
    return 0


TRAIN_DEFAULTS = {
    "seed": 0,
    "out_dir": "out",
    "pairs": None,
    "relation": "transitive",
    "kappa_method": "auto",
    "exact_limit": kappa_mod.DEFAULT_EXACT_LIMIT,
    "model_out": None,
    "trace_out": None,
    **{f.name: f.default for f in fields(TrainConfig) if f.name in TRAIN_FIELDS},
    "d_prime": 2,  # TrainConfig leaves d_prime without a default
}


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve(TRAIN_DEFAULTS, args)
    pairs = read_pairs_file(_require(cfg, "pairs"))
    graph = build_graph(pairs, cfg["relation"])
    report = kappa_mod.compute_kappa(
        graph, method=cfg["kappa_method"], exact_limit=cfg["exact_limit"]
    )
    print(f"privacy distance kappa={report.kappa} ({report.method})")
    config = _train_config(cfg, cfg["seed"])
    model, trace = train(pairs, graph, config, kappa_report=report)

    out = Path(cfg["out_dir"])
    model_path = Path(cfg["model_out"]) if cfg["model_out"] else out / "model.json"
    trace_path = Path(cfg["trace_out"]) if cfg["trace_out"] else out / "trace.csv"
    participants = sorted(
        set(pairs.i) | set(pairs.j), key=lambda v: (str(type(v)), v)
    )
    payload = model.to_dict()
    payload.update(
        {
            "kappa": trace.kappa,
            "kappa_method": trace.kappa_method,
            "margin": trace.margin,
            "train_ids": list(participants),
        }
    )
    _write_json(model_path, payload)
    _write_csv(trace_path, TRACE_COLUMNS, trace.columns())
    _emit_resolved(cfg, "train")
    print(f"wrote {model_path} and {trace_path} "
          f"(final objective {trace.objectives[-1]:.6f})")
    return 0


EVALUATE_DEFAULTS = {
    "seed": 0,
    "out_dir": None,
    "model": None,
    "data": None,
    "pairs": None,
    "k": 5,
}


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve(EVALUATE_DEFAULTS, args)
    with open(_require(cfg, "model")) as fh:
        payload = json.load(fh)
    model = MetricModel.from_dict(payload)
    samples = dataio.load_csv(_require(cfg, "data"))
    if cfg.get("pairs"):
        pairs = read_pairs_file(cfg["pairs"])
        train_idx, test_idx = evaluation.split_by_participation(samples, pairs)
    else:
        train_ids = payload.get("train_ids")
        if train_ids is None:
            raise DppError(
                "model file carries no train_ids; pass --pairs to define the split"
            )
        train_idx, test_idx = evaluation.split_by_ids(samples, train_ids)
    in_sample = len(test_idx) == 0
    if in_sample:
        test_idx = train_idx  # every individual participates; score in-sample
    acc = evaluation.knn_accuracy(
        model,
        samples.x[train_idx],
        samples.labels[train_idx],
        samples.x[test_idx],
        samples.labels[test_idx],
        cfg["k"],
    )
    result = {
        "accuracy": acc,
        "k": cfg["k"],
        "train_size": int(len(train_idx)),
        "test_size": int(len(test_idx)),
        "in_sample": in_sample,
    }
    print(json.dumps(result, sort_keys=True))
    if cfg.get("out_dir"):
        _write_json(Path(cfg["out_dir"]) / "accuracy.json", result)
        _emit_resolved(cfg, "evaluate")
    return 0


SWEEP_DEFAULTS = {
    "seed": 0,
    "out_dir": "out",
    "data": None,
    "pairs": None,
    "relation": "transitive",
    "methods": "nonpriv,dpp,dpp_s,node_dp,input_per",
    "epsilons": "1,2,3,4",
    "repeats": 20,
    "k": 5,
    "sweep_out": None,
    **{k: TRAIN_DEFAULTS[k] for k in TRAIN_FIELDS},
}


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve(SWEEP_DEFAULTS, args)
    samples, pairs, graph = _load_dataset(cfg)
    methods = _str_list(cfg, "methods")
    epsilons = _float_list(cfg, "epsilons")
    base = _train_config(cfg, cfg["seed"])
    kappa_default = kappa_mod.compute_kappa(graph)
    kappa_node = kappa_mod.kappa_node_dp(graph)
    print(f"privacy distance kappa={kappa_default.kappa} "
          f"({kappa_default.method}); node-dp kappa={kappa_node.kappa}")

    reports = evaluation.run_experiment(
        samples, pairs, graph, methods, epsilons,
        repeats=cfg["repeats"], config=base, seed=cfg["seed"], k=cfg["k"],
        kappa_default=kappa_default, kappa_node=kappa_node,
    )

    out = Path(cfg["out_dir"])
    sweep_path = Path(cfg["sweep_out"]) if cfg["sweep_out"] else out / "sweep.csv"
    rows = [(rep.method, rep.epsilon, run, acc)
            for rep in reports for run, acc in enumerate(rep.per_run)]
    _write_csv(sweep_path, ["method", "epsilon", "run", "accuracy"], zip(*rows))
    _emit_resolved(cfg, "sweep")
    if any(rep.in_sample for rep in reports):
        print("every sample is in a pair: accuracies are scored in-sample, "
              "on the training individuals")
    for rep in reports:
        print(f"{rep.method:10s} eps={rep.epsilon:<6g} "
              f"acc={rep.mean_accuracy:.4f} +- {rep.std_accuracy:.4f}")
    print(f"wrote {sweep_path}")
    return 0


COMPARE_DEFAULTS = {
    "seed": 0,
    "out_dir": "out",
    "pairs": None,
    "relation": "transitive",
    "mechanisms": "lap,lap_s,scdf,duchi",
    "compare_out": None,
    **{k: TRAIN_DEFAULTS[k] for k in TRAIN_FIELDS},
}


def cmd_compare_mechanisms(args: argparse.Namespace) -> int:
    cfg = _resolve(COMPARE_DEFAULTS, args)
    pairs = read_pairs_file(_require(cfg, "pairs"))
    graph = build_graph(pairs, cfg["relation"])
    report = kappa_mod.compute_kappa(graph)
    print(f"privacy distance kappa={report.kappa} ({report.method})")
    names = _str_list(cfg, "mechanisms")
    for name in names:
        if name not in MECHANISM_VARIANTS:
            raise DppError(
                f"unknown mechanism {name!r}; expected one of "
                f"{sorted(MECHANISM_VARIANTS)}"
            )
    columns = {}
    for name in names:
        mech, sens = MECHANISM_VARIANTS[name]
        config = _train_config({**cfg, "mechanism": mech,
                                "sensitivity_mode": sens, "t_max": 1},
                               cfg["seed"])
        _, trace = train(pairs, graph, config, kappa_report=report)
        columns[name] = trace.objectives
    n_iter = min(len(v) for v in columns.values())
    out = Path(cfg["out_dir"])
    path = Path(cfg["compare_out"]) if cfg["compare_out"] else out / "mechanisms.csv"
    _write_csv(path, ["iter"] + names, [range(1, n_iter + 1)] + [
        columns[name][:n_iter] for name in names
    ])
    _emit_resolved(cfg, "compare-mechanisms")
    print(f"wrote {path}")
    return 0


# --- parser -------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="master seed")
    p.add_argument("--config", help="JSON file of defaults for this command")
    p.add_argument("--out-dir", dest="out_dir", help="artifact directory")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-prime", dest="d_prime", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--margin-ratio", dest="margin_ratio", type=float)
    p.add_argument("--lipschitz", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--t-max", dest="t_max", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--mechanism", choices=TRAIN_MECHANISMS)
    p.add_argument("--sensitivity-mode", dest="sensitivity_mode",
                   choices=SENSITIVITY_MODES)
    p.add_argument("--norm-mode", dest="norm_mode", choices=NORM_MODES)
    p.add_argument("--init-scale", dest="init_scale", type=float)
    p.add_argument("--staircase-gamma", dest="staircase_gamma", type=float)
    p.add_argument("--batch-mode", dest="batch_mode", choices=BATCH_MODES)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once; each subcommand names its handler, which ``main`` looks up."""
    parser = argparse.ArgumentParser(
        prog="dppdml",
        description="Differentially pairwise-private distance metric learning",
    )
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic dataset",
                       argument_default=argparse.SUPPRESS)
    _add_common(p)
    p.add_argument("--n-per-class", dest="n_per_class", type=int)
    p.add_argument("--mode", choices=["toy", "density"])
    p.add_argument("--density", type=float)
    p.add_argument("--balance", action="store_true")
    p.add_argument("--intra", type=int)
    p.add_argument("--inter", type=int)
    p.add_argument("--norm-mode", dest="norm_mode", choices=NORM_MODES)
    p.set_defaults(func="cmd_synth")

    p = sub.add_parser("analyze-kappa", help="privacy distance of a pairs file",
                       argument_default=argparse.SUPPRESS)
    _add_common(p)
    p.add_argument("--pairs")
    p.add_argument("--relation", choices=RELATION_KINDS)
    p.add_argument("--method", choices=kappa_mod.KAPPA_METHODS)
    p.add_argument("--exact-limit", dest="exact_limit", type=int)
    p.set_defaults(func="cmd_analyze_kappa")

    p = sub.add_parser("train", help="train a private metric",
                       argument_default=argparse.SUPPRESS)
    _add_common(p)
    p.add_argument("--pairs")
    p.add_argument("--relation", choices=RELATION_KINDS)
    p.add_argument("--kappa-method", dest="kappa_method",
                   choices=kappa_mod.KAPPA_METHODS)
    p.add_argument("--exact-limit", dest="exact_limit", type=int)
    p.add_argument("--out", dest="model_out", help="model file path")
    p.add_argument("--trace", dest="trace_out", help="trace CSV path")
    _add_train_flags(p)
    p.set_defaults(func="cmd_train")

    p = sub.add_parser("evaluate", help="kNN accuracy of a saved model",
                       argument_default=argparse.SUPPRESS)
    _add_common(p)
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--pairs", help="training pairs defining the split")
    p.add_argument("--k", type=int)
    p.set_defaults(func="cmd_evaluate")

    p = sub.add_parser("sweep", help="accuracy sweep over methods and budgets",
                       argument_default=argparse.SUPPRESS)
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--pairs")
    p.add_argument("--relation", choices=RELATION_KINDS)
    p.add_argument("--methods")
    p.add_argument("--epsilons")
    p.add_argument("--repeats", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--out", dest="sweep_out", help="sweep CSV path")
    _add_train_flags(p)
    p.set_defaults(func="cmd_sweep")

    p = sub.add_parser("compare-mechanisms",
                       help="one-epoch objective traces per mechanism",
                       argument_default=argparse.SUPPRESS)
    _add_common(p)
    p.add_argument("--pairs")
    p.add_argument("--relation", choices=RELATION_KINDS)
    p.add_argument("--mechanisms")
    p.add_argument("--out", dest="compare_out", help="comparison CSV path")
    _add_train_flags(p)
    p.set_defaults(func="cmd_compare_mechanisms")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        parser.print_help()
        return 2
    try:
        return globals()[args.func](args)
    except (DppError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
