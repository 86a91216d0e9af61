"""Command line driver.

Subcommands: gen-data, train, eval-verify, eval-identify, eval-security,
protocol-demo.  Experiments are described by a flat INI-style config file
(key=value lines under bracketed sections); every key can be overridden on
the command line as ``--key=value``.  Seeds come only from the ``seed`` and
``data_seed`` keys, and from ``--seed`` in protocol-demo.  All randomness is
seeded, so every command writes byte-identical outputs across runs.

Errors print a machine-parsable ``ERROR:<category>:`` line to stderr and
exit nonzero.
"""

from __future__ import annotations

import argparse
import configparser
import os
import random
import sys
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import data as data_mod
from . import evaluation as eval_mod
from .core import _MODEL_FIELDS, ModelConfig, _read_fields
from .errors import ConfigError, GmkitError, ParseError
from .learning import Model, _balanced_group_size, train, train_random_assignment_baseline
from .modelio import load_model, save_model
from .protocol import ProtocolKeys, SecurityParams, run_protocol
from .protocol.engine import DEFAULT_ADDITIVE_BITS

TRANSCRIPT_FILE = "transcript.bin"
DECISION_FILE = "decision.txt"
DEFAULT_OUT_DIR = "gmkit-out"

_CLAIM_STREAM = 1779033703  # fixed stream tag for impostor claim draws


@dataclass
class ExperimentConfig:
    model: ModelConfig
    synthetic: Optional[data_mod.SyntheticSpec]
    dataset_dir: Optional[str]
    group_sizes: list[int]
    sparsity_levels: list[int]
    out_dir: str


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"ERROR:cli:{message}", file=sys.stderr)
        raise SystemExit(2)


# SyntheticSpec's [data] key where it differs from the field name, and the
# defaults of the fields the dataclass leaves without one
_DATA_RENAMES = {"seed": "data_seed"}
_DATA_DEFAULTS = {"samples_per_identity": 2, "noise_sigma": 0.1, "impostor_fraction": 0.25}

_ALL_SECTIONS = {
    "model": set(_MODEL_FIELDS),
    "data": {_DATA_RENAMES.get(f.name, f.name) for f in fields(data_mod.SyntheticSpec)} | {"dataset_dir"},
    "sweep": {"group_sizes", "sparsity_levels"},
    "output": {"out_dir"},
}


def _parse_overrides(extras: list[str]) -> dict[str, str]:
    overrides = {}
    for item in extras:
        if not item.startswith("--") or "=" not in item:
            raise ConfigError(f"unrecognized argument {item!r} (overrides look like --key=value)")
        key, value = item[2:].split("=", 1)
        overrides[key] = value
    return overrides


def load_experiment_config(path: str, overrides: dict[str, str]) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ParseError(f"config file {path} not found")

    values: dict[str, str] = {}
    for section in parser.sections():
        if section not in _ALL_SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _ALL_SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[key] = value
    known = set().union(*_ALL_SECTIONS.values())
    for key, value in overrides.items():
        if key not in known:
            raise ConfigError(f"unknown override key {key!r}")
        values[key] = value

    model = _read_fields(ModelConfig, values, ConfigError)
    dataset_dir = values.get("dataset_dir")
    synthetic = None
    if dataset_dir is None:
        synthetic = _read_fields(data_mod.SyntheticSpec, values, ConfigError,
                                 keys=_DATA_RENAMES, defaults=_DATA_DEFAULTS)

    def int_list(key):
        raw = values.get(key, "")
        try:
            return [int(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"bad integer list for {key}: {raw!r}") from None

    return ExperimentConfig(
        model=model,
        synthetic=synthetic,
        dataset_dir=dataset_dir,
        group_sizes=int_list("group_sizes"),
        sparsity_levels=int_list("sparsity_levels"),
        out_dir=values.get("out_dir", DEFAULT_OUT_DIR),
    )


def _load_dataset(cfg: ExperimentConfig) -> data_mod.Dataset:
    if cfg.dataset_dir:
        return data_mod.load_dataset(cfg.dataset_dir)
    if cfg.synthetic is None:
        raise ConfigError("no dataset: provide [data] synthetic keys or dataset_dir")
    return data_mod.generate(cfg.synthetic)


def cmd_gen_data(args, overrides) -> int:
    cfg = load_experiment_config(args.config, overrides)
    if cfg.synthetic is None:
        raise ConfigError("gen-data needs synthetic [data] keys, not dataset_dir")
    dataset = data_mod.generate(cfg.synthetic)
    os.makedirs(cfg.out_dir, exist_ok=True)
    data_mod.save_dataset(cfg.out_dir, dataset)
    print(f"wrote dataset bundle ({dataset.enrolled.num_signatures} enrolled, "
          f"{len(dataset.genuine)} genuine, {len(dataset.impostors)} impostors) to {cfg.out_dir}")
    return 0


def _train_log_lines(model: Model, source: str) -> list[str]:
    cfg = model.config
    lines = ["gmkit training log", f"data: {source}"]
    lines.append("config: " + " ".join(f"{name}={getattr(cfg, name)!r}" for name in _MODEL_FIELDS))
    for i, ob in enumerate(model.objective_trace, start=1):
        lines.append(f"iter {i}: embedding={ob.embedding_cost!r} within={ob.within_trace!r} total={ob.total!r}")
    lines.append(f"stopped after {len(model.objective_trace)} iterations (max_outer_iters={cfg.max_outer_iters})")
    lines.append(f"final within_trace={model.objective_trace[-1].within_trace!r}")
    return lines


def cmd_train(args, overrides) -> int:
    cfg = load_experiment_config(args.config, overrides)
    dataset = _load_dataset(cfg)
    source = cfg.dataset_dir or "synthetic"
    if args.baseline:
        model = train_random_assignment_baseline(dataset.enrolled, cfg.model)
        source += f" (random-assignment baseline, group_size={dataset.enrolled.num_signatures // cfg.model.num_groups})"
    else:
        model = train(dataset.enrolled, cfg.model)
    os.makedirs(cfg.out_dir, exist_ok=True)
    model_path = os.path.join(cfg.out_dir, "model.txt")
    save_model(model_path, model)
    with open(os.path.join(cfg.out_dir, "train.log"), "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(_train_log_lines(model, source)) + "\n")
    print(f"wrote {model_path}")
    return 0


def _metrics_row(model: Model, dataset: data_mod.Dataset, claim_seed: int) -> dict[str, float]:
    queries = eval_mod.query_set_from_dataset(dataset, model)
    claims_rng = np.random.default_rng([claim_seed, _CLAIM_STREAM])
    roc_verify = eval_mod.verification_sweep(model, queries, claims_rng)
    pfn05 = eval_mod.pfn_at_pfp(roc_verify, eval_mod.TARGET_PFP)
    roc_ident = eval_mod.identification_sweep(model, queries)
    tau_star = eval_mod.threshold_at_pfp(roc_ident, eval_mod.TARGET_PFP)
    report = eval_mod.identification_report(model, queries, tau_star)
    security = eval_mod.security_report(dataset.enrolled, queries, model)
    return {
        "pfn_at_pfp05": pfn05,
        "p_epsilon": report.p_epsilon,
        "dir": report.dir_rate,
        "mse_security": security.mse_security,
        "mse_privacy": security.mse_privacy,
    }


_METRIC_COLUMNS = ("pfn_at_pfp05", "p_epsilon", "dir", "mse_security", "mse_privacy")


def _write_metrics_csv(path: str, axis: str, rows: list[tuple[int, dict[str, float]]]) -> None:
    lines = [axis + "," + ",".join(_METRIC_COLUMNS)]
    for value, metrics in rows:
        lines.append(str(value) + "," + ",".join(repr(metrics[c]) for c in _METRIC_COLUMNS))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_eval(args, overrides, mode: str) -> int:
    cfg = load_experiment_config(args.config, overrides)
    dataset = _load_dataset(cfg)
    n = dataset.enrolled.num_signatures
    os.makedirs(cfg.out_dir, exist_ok=True)
    axis = "S" if mode == "security" else "m"

    rows: list[tuple[int, dict[str, float]]] = []
    if args.model:
        model = load_model(args.model)
        value = model.config.sparsity if axis == "S" else max(1, n // model.config.num_groups)
        rows.append((value, _metrics_row(model, dataset, model.config.seed)))
    else:
        if axis == "m":
            # without group_sizes the sweep is the config's own point, N / num_groups
            sweep = cfg.group_sizes or [_balanced_group_size(n, cfg.model.num_groups)]
            for value in sweep:
                if not 1 <= value <= n:
                    raise ConfigError(f"group_sizes value {value} outside [1, {n}], the number of enrolled signatures")
        else:
            sweep = cfg.sparsity_levels or [cfg.model.sparsity]
        base = cfg.model
        for value in sweep:
            if axis == "m":
                point = replace(base, num_groups=n // value)
            else:
                point = replace(base, sparsity=value)
            model = train(dataset.enrolled, point)
            metrics = _metrics_row(model, dataset, point.seed)
            rows.append((value, metrics))
            _write_metrics_csv(os.path.join(cfg.out_dir, f"{mode}-{axis}-{value}.csv"), axis, [(value, metrics)])

    index_path = os.path.join(cfg.out_dir, f"{mode}-metrics.csv")
    _write_metrics_csv(index_path, axis, rows)
    print(f"wrote {index_path}")
    return 0


def cmd_protocol_demo(args, overrides) -> int:
    if overrides:
        raise ConfigError("protocol-demo takes flags only, no config overrides")
    model = load_model(args.model)
    num_codes = model.assignments.num_signatures
    if not 0 <= args.query_index < num_codes:
        raise ConfigError(f"query index {args.query_index} out of range [0, {num_codes})")
    rng = random.Random(args.seed)
    keys = ProtocolKeys.generate(SecurityParams(additive_bits=args.additive_bits), rng)
    code = model.codes.column(args.query_index)
    decision, transcript = run_protocol(code, model.representations, args.tau, rng, keys)
    os.makedirs(args.out_dir, exist_ok=True)
    transcript.save(os.path.join(args.out_dir, TRANSCRIPT_FILE))
    verdict = "accept" if decision.accept else "reject"
    with open(os.path.join(args.out_dir, DECISION_FILE), "w", encoding="ascii", newline="\n") as fh:
        fh.write(verdict + "\n")
    print(f"decision: {verdict}")
    print(f"wrote {os.path.join(args.out_dir, TRANSCRIPT_FILE)}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="gmkit", description="group membership verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name, help_text, with_model=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--dataset", help="dataset bundle directory (sets dataset_dir)")
        if with_model:
            p.add_argument("--model", help="evaluate a saved model file instead of sweeping")
        return p

    add_config_command("gen-data", "generate a synthetic dataset bundle")
    p_train = add_config_command("train", "train a model and write the model file")
    p_train.add_argument("--baseline", action="store_true",
                         help="train the random-assignment baseline: num_groups random groups of equal size")
    add_config_command("eval-verify", "group verification metrics", with_model=True)
    add_config_command("eval-identify", "open-set identification metrics", with_model=True)
    add_config_command("eval-security", "reconstruction attack metrics", with_model=True)

    p_demo = sub.add_parser("protocol-demo", help="run the two-party protocol for one enrolled code")
    p_demo.add_argument("--model", required=True)
    p_demo.add_argument("--query-index", type=int, required=True)
    p_demo.add_argument("--tau", type=int, required=True)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument("--out-dir", default=DEFAULT_OUT_DIR)
    p_demo.add_argument("--additive-bits", type=int, default=DEFAULT_ADDITIVE_BITS)
    return parser


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval-verify": lambda a, o: _run_eval(a, o, "verify"),
    "eval-identify": lambda a, o: _run_eval(a, o, "identify"),
    "eval-security": lambda a, o: _run_eval(a, o, "security"),
    "protocol-demo": cmd_protocol_demo,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        overrides = _parse_overrides(extras)
        if getattr(args, "dataset", None):  # --dataset DIR is --dataset_dir=DIR
            overrides["dataset_dir"] = args.dataset
        return _HANDLERS[args.command](args, overrides)
    except GmkitError as exc:
        print(f"ERROR:{exc.category}:{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR:io:{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
