"""Command-line entry point.

Subcommands: ``synth`` (dataset generation), ``analyze-kappa`` (privacy
distance of a pairs file), ``train`` (private metric learning),
``evaluate`` (kNN accuracy of a saved model), ``sweep``
(accuracy-versus-budget grid) and ``compare-mechanisms`` (one-epoch
objective traces per mechanism).

A command's options are the keys of its defaults table in :data:`COMMANDS`,
one flag each. :func:`main` resolves them for every command and hands
them to its handler; a run that succeeds with an out dir writes them all,
the seed included, to ``resolved_config.json``, and re-running with
``--config`` on that file reproduces the outputs byte-identically. Exit
codes: 0 success, 2 usage/config errors, 3 runtime failures.
"""

from __future__ import annotations

import argparse
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
from .pairgraph import (RELATION_KINDS, _write_table, build_graph, read_pairs_file,
                        write_pairs_file)

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
    _write_table(path, fieldnames, map(np.asarray, columns))


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


def _option_type(key: str, default) -> type:
    """The type an option's flag parses to and its config-file value must
    have: a float for an optional number, a string for any other option
    unset by default, else its default's type."""
    if key in _OPTIONAL_NUMBERS:
        return float
    return str if default is None else type(default)


def _check_config_type(key: str, value, default) -> None:
    """A config-file value must have its option's type: any number for a
    float, an int but no bool for an int (JSON ``true`` is a Python int), a
    string or list for a comma-separated option, and also ``null`` for an
    option unset by default."""
    if default is None and value is None:
        return
    kind = _option_type(key, default)
    types = ((str, list) if key in _LIST_OPTIONS
             else (int, float) if kind is float else kind)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        raise ConfigInvalid(
            f"config key {key!r} must be {kind.__name__}, got {value!r}"
        )


def _resolve(defaults: dict, provided: dict) -> dict:
    """Layer the flags given (``provided``) over the config file over defaults."""
    merged = dict(defaults)
    config_path = provided.pop("config", None)
    if config_path:
        with open(config_path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise DppError(f"config file {config_path} must hold a JSON object")
        for key, value in loaded.items():
            if key == "command":
                continue
            if key not in merged:
                raise DppError(f"config file {config_path}: unknown key {key!r}")
            _check_config_type(key, value, merged[key])
            merged[key] = value
    merged.update(provided)
    # every command takes a seed; a negative one is rejected before any work
    if merged["seed"] < 0:
        raise ConfigInvalid(f"seed must be >= 0, got {merged['seed']}")
    return merged


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(seed=cfg["seed"], **{k: cfg[k] for k in TRAIN_FIELDS})


def _require(cfg: dict, key: str):
    if cfg.get(key) in (None, ""):
        raise DppError(f"missing required option --{key.replace('_', '-')}")
    return cfg[key]


def _load_pairs(cfg: dict):
    pairs = read_pairs_file(_require(cfg, "pairs"))
    return pairs, build_graph(pairs, cfg["relation"])


# --- subcommand handlers -----------------------------------------------------


SYNTH_MODES = ("toy", "density")

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


def cmd_synth(cfg: dict) -> None:
    if cfg["mode"] not in SYNTH_MODES:
        raise ConfigInvalid(
            f"mode must be {' or '.join(map(repr, SYNTH_MODES))}, got {cfg['mode']!r}"
        )
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
    print(f"wrote {out / 'samples.csv'} ({len(samples)} samples) and "
          f"{out / 'pairs.csv'} ({len(pairs)} pairs)")


ANALYZE_DEFAULTS = {
    "seed": 0,
    "out_dir": None,
    "pairs": None,
    "relation": "transitive",
    "method": "auto",
    "exact_limit": kappa_mod.DEFAULT_EXACT_LIMIT,
}


def cmd_analyze_kappa(cfg: dict) -> None:
    _, graph = _load_pairs(cfg)
    report = kappa_mod.compute_kappa(
        graph, method=cfg["method"], exact_limit=cfg["exact_limit"]
    )
    if (report.method in ("exact", "intransitive") and graph.num_edges
            and graph.num_nodes <= kappa_mod.TERMS_NODE_LIMIT):
        report = replace(report, per_pair_terms=kappa_mod.pair_terms(graph))
    print(json.dumps(report.to_dict(), sort_keys=True))
    if cfg.get("out_dir"):
        _write_json(Path(cfg["out_dir"]) / "kappa.json", report.to_dict())


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


def cmd_train(cfg: dict) -> None:
    pairs, graph = _load_pairs(cfg)
    report = kappa_mod.compute_kappa(
        graph, method=cfg["kappa_method"], exact_limit=cfg["exact_limit"]
    )
    print(f"privacy distance kappa={report.kappa} ({report.method})")
    config = _train_config(cfg)
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
    print(f"wrote {model_path} and {trace_path} "
          f"(final objective {trace.objectives[-1]:.6f})")


EVALUATE_DEFAULTS = {
    "seed": 0,
    "out_dir": None,
    "model": None,
    "data": None,
    "pairs": None,
    "k": 5,
}


def cmd_evaluate(cfg: dict) -> None:
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
        model, samples.x[train_idx], samples.labels[train_idx],
        samples.x[test_idx], samples.labels[test_idx], cfg["k"],
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


def cmd_sweep(cfg: dict) -> None:
    samples = dataio.load_csv(_require(cfg, "data"))
    pairs, graph = _load_pairs(cfg)
    methods = _str_list(cfg, "methods")
    epsilons = _float_list(cfg, "epsilons")
    base = _train_config(cfg)
    kappa_default = kappa_mod.compute_kappa(graph)
    kappa_node = kappa_mod.kappa_node_dp(graph)
    print(f"privacy distance kappa={kappa_default.kappa} "
          f"({kappa_default.method}); node-dp kappa={kappa_node.kappa}")

    reports = evaluation.run_experiment(
        samples, pairs, graph, methods, epsilons,
        repeats=cfg["repeats"], config=base, seed=cfg["seed"], k=cfg["k"],
        kappa_default=kappa_default, kappa_node=kappa_node,
    )

    sweep_path = Path(cfg["sweep_out"] or Path(cfg["out_dir"]) / "sweep.csv")
    rows = [(rep.method, rep.epsilon, run, acc)
            for rep in reports for run, acc in enumerate(rep.per_run)]
    _write_csv(sweep_path, ["method", "epsilon", "run", "accuracy"], zip(*rows))
    if any(rep.in_sample for rep in reports):
        print("every sample is in a pair: accuracies are scored in-sample, "
              "on the training individuals")
    for rep in reports:
        print(f"{rep.method:10s} eps={rep.epsilon:<6g} "
              f"acc={rep.mean_accuracy:.4f} +- {rep.std_accuracy:.4f}")
    print(f"wrote {sweep_path}")


COMPARE_DEFAULTS = {
    "seed": 0,
    "out_dir": "out",
    "pairs": None,
    "relation": "transitive",
    "mechanisms": "lap,lap_s,scdf,duchi",
    "compare_out": None,
    **{k: TRAIN_DEFAULTS[k] for k in TRAIN_FIELDS},
}


def cmd_compare_mechanisms(cfg: dict) -> None:
    pairs, graph = _load_pairs(cfg)
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
                                "sensitivity_mode": sens, "t_max": 1})
        _, trace = train(pairs, graph, config, kappa_report=report)
        columns[name] = trace.objectives
    n_iter = min(len(v) for v in columns.values())
    path = Path(cfg["compare_out"] or Path(cfg["out_dir"]) / "mechanisms.csv")
    _write_csv(path, ["iter"] + names, [range(1, n_iter + 1)] + [
        columns[name][:n_iter] for name in names
    ])
    print(f"wrote {path}")


# --- parser -------------------------------------------------------------------

#: Each subcommand's defaults, help and handler name. The defaults are the
#: only declaration of its options: one flag per key, ``--key-with-dashes``
#: unless renamed in :data:`_FLAG_NAMES`, parsed to :func:`_option_type`.
COMMANDS = {
    "synth": (SYNTH_DEFAULTS, "generate a synthetic dataset", "cmd_synth"),
    "analyze-kappa": (ANALYZE_DEFAULTS, "privacy distance of a pairs file",
                      "cmd_analyze_kappa"),
    "train": (TRAIN_DEFAULTS, "train a private metric", "cmd_train"),
    "evaluate": (EVALUATE_DEFAULTS, "kNN accuracy of a saved model", "cmd_evaluate"),
    "sweep": (SWEEP_DEFAULTS, "accuracy sweep over methods and budgets", "cmd_sweep"),
    "compare-mechanisms": (COMPARE_DEFAULTS, "one-epoch objective traces per mechanism",
                           "cmd_compare_mechanisms"),
}

_FLAG_NAMES = {"model_out": "--out", "sweep_out": "--out", "compare_out": "--out",
               "trace_out": "--trace"}

_CHOICES = {"mode": SYNTH_MODES, "relation": RELATION_KINDS,
            "method": kappa_mod.KAPPA_METHODS, "kappa_method": kappa_mod.KAPPA_METHODS,
            "mechanism": TRAIN_MECHANISMS, "sensitivity_mode": SENSITIVITY_MODES,
            "norm_mode": NORM_MODES, "batch_mode": BATCH_MODES}

#: Flag help by key, or by (command, key) where one command words it apart.
_HELP = {
    "seed": "master seed",
    "out_dir": "artifact directory",
    "model_out": "model file path",
    "trace_out": "trace CSV path",
    "sweep_out": "sweep CSV path",
    "compare_out": "comparison CSV path",
    ("evaluate", "pairs"): "training pairs defining the split",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once from :data:`COMMANDS`. A flag left out is absent from the
    namespace, so ``_resolve`` falls back to the config file, then the
    default."""
    parser = argparse.ArgumentParser(
        prog="dppdml",
        description="Differentially pairwise-private distance metric learning",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (defaults, help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for key, default in defaults.items():
            flag = _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))
            help_ = _HELP.get((name, key), _HELP.get(key))
            kind = _option_type(key, default)
            if kind is bool:
                p.add_argument(flag, dest=key, action="store_true", help=help_)
            else:
                p.add_argument(flag, dest=key, type=None if kind is str else kind,
                               choices=_CHOICES.get(key), help=help_)
            if key == "seed":  # every usage line reads --seed, then --config
                p.add_argument("--config", help="JSON file of defaults for this command")
    return parser


def main(argv=None) -> int:
    """Run one subcommand: resolve its options, call its handler with them,
    then record them in ``resolved_config.json`` if the command has an out
    dir. A command that fails records nothing."""
    parser = build_parser()
    provided = vars(parser.parse_args(argv))
    command = provided.pop("command")
    if command is None:
        parser.print_help()
        return 2
    defaults, _, handler = COMMANDS[command]
    try:
        cfg = _resolve(defaults, provided)
        globals()[handler](cfg)  # looked up now, so a patched handler runs
        if cfg["out_dir"]:
            _write_json(Path(cfg["out_dir"]) / "resolved_config.json",
                        {"command": command, **cfg})
        return 0
    except (DppError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError, json.JSONDecodeError) as exc:
        # bad input, or a path that is missing or of the wrong kind (the
        # OSError's message names the path)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
