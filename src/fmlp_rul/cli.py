"""Config-driven experiment runner: train, evaluate, predict, inspect.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 numeric or
training error; each error class carries its code. Output files are written
atomically (temp file + rename) into a fixed layout under the output
directory: artifact.json, trace.csv, report.csv, report.json, inspect/.
"""

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import fmlp
from .cmapss import SUBSET_IDS, WINDOW_LENGTHS, load_subset, parse_trajectory_file, read_file
from .errors import ArtifactError, ConfigError, FmlpRulError, IntegrityError, json_number
from .fpca import DEFAULT_COMPONENT_CAP, DEFAULT_FVE_CUTOFF, check_basis_settings, fit_basis
from .preprocess import (
    DEFAULT_RUL_CAP,
    fit_preprocessing,
    sliding_windows,
    training_instances,
    transform_rows,
)

EXIT_OK = 0


@dataclass
class ExperimentConfig:
    """Flat experiment configuration; see README for the JSON schema."""

    data_root: str | None = None
    subset: str | None = None
    seed: int = 7
    out_dir: str = "out"
    learning_rate: float = fmlp.TrainConfig.learning_rate
    epochs: int = fmlp.TrainConfig.epochs
    batch_size: int = fmlp.TrainConfig.batch_size
    init_scale: float = fmlp.TrainConfig.init_scale
    patience: int = fmlp.TrainConfig.patience
    val_fraction: float = fmlp.TrainConfig.val_fraction
    fve_cutoff: float = DEFAULT_FVE_CUTOFF
    component_cap: int = DEFAULT_COMPONENT_CAP
    t_cap: int = DEFAULT_RUL_CAP

    def train_config(self) -> fmlp.TrainConfig:
        """The TrainConfig fields, each from the config key of the same name."""
        fields = dataclasses.fields(fmlp.TrainConfig)
        return fmlp.TrainConfig(**{f.name: getattr(self, f.name) for f in fields})

    def condition_config(self) -> None:  # perfbench/child.py's sweep set-up still calls it
        return None


def validate_config(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a flat JSON document, rejecting
    unknown keys and wrong value types before any work starts."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = ExperimentConfig()
    unknown = sorted(set(doc) - set(vars(cfg)))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in doc.items():
        name, kind = f"config key {key!r}", type(getattr(cfg, key))
        if kind in (int, float):
            value = json_number(value, kind, name, ConfigError)
        elif not isinstance(value, str) and (value is not None or kind is str):
            raise ConfigError(f"{name} is {value!r}, expected a string")
        setattr(cfg, key, value)
    if cfg.subset is not None and cfg.subset not in SUBSET_IDS:
        raise ConfigError(f"subset must be one of {SUBSET_IDS}, got {cfg.subset!r}")
    if not 0 < cfg.t_cap < 2**63:
        raise ConfigError(f"config key 't_cap' must be in (0, 2**63), got {cfg.t_cap}")
    # The train config and the basis check their own ranges; their messages
    # start with the field name, which is the config key that set it.
    try:
        cfg.train_config()
        check_basis_settings(cfg.fve_cutoff, cfg.component_cap)
    except ValueError as exc:
        field, _, rule = str(exc).partition(" ")
        raise ConfigError(f"config key {field!r} {rule}") from exc
    return cfg


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    doc = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except ValueError as exc:  # bad JSON, bad UTF-8, an integer of over 4300 digits
            raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}") from exc
    if isinstance(doc, dict):  # validate_config rejects any other root
        doc.update({k: v for k, v in overrides.items() if v is not None})
    return validate_config(doc)


def atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _require(cfg: ExperimentConfig, *keys: str) -> None:
    missing = [k for k in keys if getattr(cfg, k) is None]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")


def cmd_train(cfg: ExperimentConfig) -> int:
    _require(cfg, "data_root", "subset")
    subset = load_subset(cfg.data_root, cfg.subset, splits=("train",))
    condition_model, scaler = fit_preprocessing(subset.train)
    instances = training_instances(subset, condition_model, scaler, cfg.t_cap)
    if len(instances) < 2:
        raise IntegrityError(
            f"{cfg.subset} training units yield {len(instances)} windows of length"
            f" {subset.window_length} (the longest unit has"
            f" {max(len(t.cycles) for t in subset.train)} cycles); at least 2 are needed"
        )
    basis = fit_basis(
        instances,
        sensor_ids=scaler.sensor_ids,
        fve_cutoff=cfg.fve_cutoff,
        component_cap=cfg.component_cap,
    )
    result = fmlp.train(
        instances, basis, cfg.train_config(), label_scale=float(cfg.t_cap)
    )
    pipeline = fmlp.Pipeline(condition_model, scaler, result.model, cfg.subset)

    out = Path(cfg.out_dir)
    atomic_write(out / "artifact.json", json.dumps(fmlp.pipeline_to_doc(pipeline), indent=1))
    rows = ["epoch,train_mse,val_mse"]
    for row in result.trace:
        val = "" if row.val_mse is None else repr(row.val_mse)
        rows.append(f"{row.epoch},{row.train_mse!r},{val}")
    atomic_write(out / "trace.csv", "\n".join(rows) + "\n")
    print(f"trained {cfg.subset}: {len(instances)} instances, "
          f"{len(result.trace)} epochs, artifact at {out / 'artifact.json'}")
    return EXIT_OK


def _load_pipeline(path: str | None) -> fmlp.Pipeline:
    if path is None:
        raise ConfigError("--model is required")
    try:
        return read_file(path, fmlp.load_model)
    except FileNotFoundError:
        raise FileNotFoundError(f"missing model artifact: {path}") from None


def _load_scored_subset(cfg: ExperimentConfig, pipeline: fmlp.Pipeline, split: str):
    """One split of the configured subset, else the artifact's; its window length must match."""
    subset_id = cfg.subset or pipeline.subset_id
    _require(cfg, "data_root")
    if pipeline.window_length != WINDOW_LENGTHS[subset_id]:
        raise ArtifactError(
            f"artifact for {pipeline.subset_id} uses window length"
            f" {pipeline.window_length}, but {subset_id} uses {WINDOW_LENGTHS[subset_id]}"
        )
    return load_subset(cfg.data_root, subset_id, splits=(split,))


def cmd_evaluate(cfg: ExperimentConfig, model_path: str | None) -> int:
    pipeline = _load_pipeline(model_path)
    subset = _load_scored_subset(cfg, pipeline, "test")

    report = ev.build_report(
        pipeline.predict(subset.test),
        subset.test_rul,
        unit_ids=[t.unit_id for t in subset.test],
        subset_id=subset.subset_id,
        t_cap=int(pipeline.network.label_scale),
    )
    out = Path(cfg.out_dir)
    doc = json.dumps(ev.report_to_doc(report), indent=1)  # every metric, before any write
    atomic_write(out / "report.csv", ev.report_to_csv(report))
    atomic_write(out / "report.json", doc)
    print(ev.format_comparison_table(report))
    return EXIT_OK


def cmd_predict(model_path: str | None, trajectory_file: str) -> int:
    pipeline = _load_pipeline(model_path)
    trajectories = read_file(trajectory_file, parse_trajectory_file)
    estimates = pipeline.predict(trajectories)
    print("unit_id,estimated_rul")
    for traj, estimate in zip(trajectories, estimates):
        print(f"{traj.unit_id},{float(estimate)!r}")
    return EXIT_OK


def _float_cells(row) -> str:
    return ",".join(repr(float(v)) for v in row)


def cmd_inspect(cfg: ExperimentConfig, model_path: str | None, unit: int | None) -> int:
    if unit is not None and cfg.data_root is None:
        raise ConfigError(
            "--unit needs --data-root (or config key 'data_root'): unit features"
            " are read from the train file"
        )
    pipeline = _load_pipeline(model_path)
    network = pipeline.network
    out = Path(cfg.out_dir) / "inspect"
    tables = {}  # file name -> text; every read and check runs before the first write

    for sensor in network.basis.sensors:
        header = ["grid", "mean", "eigenvalue", "fve"]
        header += [f"phi_{p + 1}" for p in range(sensor.num_components)]
        table = np.column_stack(
            [network.basis.grid, sensor.mean, sensor.eigenvalues, sensor.fve, sensor.components.T]
        )
        lines = [",".join(header)] + [_float_cells(row) for row in table]
        tables[f"sensor_{sensor.sensor_id:02d}.csv"] = "\n".join(lines) + "\n"

    if cfg.data_root is not None:
        subset = _load_scored_subset(cfg, pipeline, "train")
        by_unit = {t.unit_id: t for t in subset.train}
        if unit is None:
            unit = subset.train[0].unit_id
        if unit not in by_unit:
            raise IntegrityError(f"unit {unit} not found in {subset.subset_id} training set")
        traj = by_unit[unit]
        if traj.n_cycles < subset.window_length:
            raise IntegrityError(
                f"unit {unit} of the {subset.subset_id} training set has {traj.n_cycles}"
                f" cycles, fewer than the window length {subset.window_length}: it has no windows"
            )
        scaled = transform_rows(
            traj.op_settings, traj.sensors, pipeline.condition_model, pipeline.scaler
        )
        windows = sliding_windows([scaled], subset.window_length, network.label_scale)
        z = network.functional_layer(windows)
        # A unit's c-th sliding window starts at its cycle c.
        header = ["window", "start_cycle", "label"]
        header += [f"z_{i + 1}" for i in range(network.n_functional)] + ["H"]
        table = np.column_stack([windows.labels, z, z @ network.a])
        lines = [",".join(header)] + [
            f"{c},{c},{_float_cells(row)}" for c, row in enumerate(table, start=1)
        ]
        tables[f"features_unit{unit}.csv"] = "\n".join(lines) + "\n"

    for name, text in tables.items():
        atomic_write(out / name, text)
    n = len(network.basis.sensors)
    print(
        f"wrote {n} sensor basis CSVs"
        + (f" and features_unit{unit}.csv" if cfg.data_root is not None else "")
        + f" to {out}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmlp-rul",
        description="Functional-MLP remaining-useful-life estimation on "
        "C-MAPSS-format data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a flat JSON config file")
        p.add_argument("--data-root", dest="data_root", help="directory with data files")
        p.add_argument("--subset", choices=SUBSET_IDS, help="subset id, e.g. FD001")
        p.add_argument("--seed", type=int, help="64-bit experiment seed")
        p.add_argument("--out", dest="out_dir", help="output directory")

    p_train = sub.add_parser("train", help="fit preprocessing, basis, and network")
    add_common(p_train)

    p_eval = sub.add_parser("evaluate", help="score a trained model on test data")
    add_common(p_eval)
    p_eval.add_argument("--model", help="path to artifact.json")

    p_pred = sub.add_parser("predict", help="print per-engine RUL estimates as CSV")
    p_pred.add_argument("--model", help="path to artifact.json")
    p_pred.add_argument("trajectory_file", help="C-MAPSS-format trajectory file")

    p_ins = sub.add_parser("inspect", help="emit plot-ready basis/feature CSVs")
    add_common(p_ins)
    p_ins.add_argument("--model", help="path to artifact.json")
    p_ins.add_argument("--unit", type=int, help="training unit for feature trajectories")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        return int(exc.code or 0)

    try:
        if args.command == "predict":
            return cmd_predict(args.model, args.trajectory_file)
        overrides = {key: getattr(args, key) for key in ("data_root", "subset", "seed", "out_dir")}
        cfg = load_config(args.config, overrides)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.model)
        if args.command == "inspect":
            return cmd_inspect(cfg, args.model, args.unit)
        raise ConfigError(f"unknown command {args.command!r}")
    except (FmlpRulError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", FmlpRulError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
