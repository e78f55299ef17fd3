import dataclasses
import gzip
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmapss_synth import write_subset

import fmlp_rul
from fmlp_rul import cli

FAST_CONFIG = {
    "subset": "FD001",
    "seed": 11,
    "epochs": 40,
    "patience": 40,
    "batch_size": 32,
}


@pytest.fixture(scope="module")
def mini_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    write_subset(root, "FD001", n_train=10, n_test=6)
    return root


@pytest.fixture(scope="module")
def mini_run(mini_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("mini_out")
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(FAST_CONFIG))
    code = cli.main(
        [
            "train",
            "--config", str(cfg_path),
            "--data-root", str(mini_root),
            "--out", str(out),
        ]
    )
    assert code == 0
    code = cli.main(
        [
            "evaluate",
            "--model", str(out / "artifact.json"),
            "--config", str(cfg_path),
            "--data-root", str(mini_root),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_train_writes_artifact_and_trace(mini_run):
    assert (mini_run / "artifact.json").is_file()
    trace = (mini_run / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "epoch,train_mse,val_mse"
    assert 1 < len(trace) <= FAST_CONFIG["epochs"] + 1


def test_artifact_is_schema_versioned(mini_run):
    doc = json.loads((mini_run / "artifact.json").read_text())
    assert doc["schema"] == "fmlp-artifact/5"
    assert doc["subset_id"] == "FD001"
    assert doc["window_length"] == 31
    assert doc["train_config"]["seed"] == 11
    # Each value is stored once: the seed, the grid and the component counts are derived.
    assert set(doc) == {
        "schema", "subset_id", "window_length", "label_scale", "train_config",
        "condition_model", "scaler", "basis", "network",
    }
    assert set(doc["condition_model"]) == {
        "setting_min", "setting_max", "target_mean", "target_scale", "weights", "bias",
    }
    assert set(doc["basis"]) == {"fve_cutoff", "component_cap", "sensors"}
    assert set(doc["basis"]["sensors"][0]) == {"sensor_id", "mean", "eigenvalues", "components"}
    assert list(doc["network"]) == list(fmlp_rul.fmlp.BLOCKS)


def test_evaluate_outputs(mini_run):
    rows = (mini_run / "report.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 6  # header + one row per test engine
    doc = json.loads((mini_run / "report.json").read_text())
    assert doc["n_engines"] == 6
    assert doc["rmse"] >= 0.0
    assert "LSTM" in doc["baselines"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subset": "FD001", "learning_rte": 0.1}))
    code = cli.main(["train", "--config", str(bad), "--data-root", str(tmp_path)])
    assert code == 2
    assert "learning_rte" in capsys.readouterr().err


def test_config_type_checked(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"epochs": "many"}))
    code = cli.main(["train", "--config", str(bad), "--data-root", str(tmp_path)])
    assert code == 2
    assert "epochs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("epochs", 0),
        ("learning_rate", 0.0),
        ("val_fraction", 0.7),
        ("t_cap", 0),
        ("fve_cutoff", float("nan")),
        ("fve_cutoff", 0.0),
        ("fve_cutoff", 1.5),
        ("component_cap", 0),
        # Each of these once ended in a traceback (exit 1) or in exit 4:
        ("init_scale", float("inf")),  # OverflowError from rng.uniform
        ("init_scale", 1e308),  # 2 * init_scale overflows: the same OverflowError
        ("t_cap", 2**63),  # OverflowError: Python int too large to convert to C long
        # condition_hidden sized the drawn condition layer; it is now an unknown key
        ("condition_hidden", 0),
        ("condition_hidden", 10**30),
        ("condition_hidden", 257),
        ("learning_rate", float("inf")),  # exit 4: training diverged at epoch 1
        ("learning_rate", 10**400),  # OverflowError: int too large to convert to float
        ("out_dir", None),  # a TypeError from Path(None) once training was done
    ],
)
def test_config_range_checked_before_work(key, value, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subset": "FD001", key: value}))
    code = cli.main(["train", "--config", str(bad), "--data-root", str(tmp_path)])
    assert code == 2
    named = f"unknown config keys: {key}" if key == "condition_hidden" else repr(key)
    assert named in capsys.readouterr().err


def test_batch_larger_than_training_split_trains(mini_root, tmp_path):
    # One batch per epoch: the kernel's arrays are sized by the training
    # split, never by batch_size itself.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**FAST_CONFIG, "epochs": 3, "batch_size": 10**30}))
    argv = ["--config", str(cfg), "--data-root", str(mini_root), "--out", str(tmp_path)]
    assert cli.main(["train", *argv]) == 0
    assert cli.main(["evaluate", "--model", str(tmp_path / "artifact.json"), *argv]) == 0


@pytest.mark.parametrize("argv,config", [(["--seed", "-1"], {}), ([], {"seed": 2**64})])
def test_seed_outside_64_bits_is_config_error(argv, config, tmp_path, capsys):
    # -1 once ended in a numpy ValueError traceback (exit 1); 2**64 was accepted.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"subset": "FD001", **config}))
    code = cli.main(["train", "--config", str(cfg), "--data-root", str(tmp_path), *argv])
    assert code == 2
    assert "config key 'seed' must be in [0, 2**64)" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["condition_epochs", "condition_learning_rate", "condition_hidden"])
def test_removed_condition_keys_are_unknown(key, tmp_path, capsys):
    # The condition fit is one least-squares solve on fixed features: it has
    # no epochs, rate or hidden width.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subset": "FD001", key: 10}))
    code = cli.main(["train", "--config", str(bad), "--data-root", str(tmp_path)])
    assert code == 2
    assert f"unknown config keys: {key}" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"epochs": 5}')
    code = cli.main(["train", "--config", str(bad), "--data-root", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "UTF-8" in err


def test_train_requires_data_root(capsys):
    assert cli.main(["train", "--subset", "FD001"]) == 2


def test_missing_model_artifact_is_data_error(mini_root, tmp_path):
    code = cli.main(
        [
            "evaluate",
            "--model", str(tmp_path / "nope.json"),
            "--data-root", str(mini_root),
            "--subset", "FD001",
            "--out", str(tmp_path),
        ]
    )
    assert code == 3


def _copy_files(src, dst, names):
    for name in names:
        (dst / name).write_text((src / name).read_text())


def test_evaluate_reads_only_test_files(mini_run, mini_root, tmp_path):
    _copy_files(mini_root, tmp_path, ["test_FD001.txt", "RUL_FD001.txt"])
    out = tmp_path / "out"
    code = cli.main(
        [
            "evaluate",
            "--model", str(mini_run / "artifact.json"),
            "--data-root", str(tmp_path),
            "--subset", "FD001",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "report.json").read_bytes() == (mini_run / "report.json").read_bytes()


def test_train_reads_only_train_file(mini_root, tmp_path):
    _copy_files(mini_root, tmp_path, ["train_FD001.txt"])
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**FAST_CONFIG, "epochs": 2}))
    code = cli.main(
        ["train", "--config", str(cfg), "--data-root", str(tmp_path), "--out", str(tmp_path)]
    )
    assert code == 0
    assert (tmp_path / "artifact.json").is_file()


def test_evaluate_rejects_artifact_of_other_window_length(mini_run, tmp_path, capsys):
    code = cli.main(
        [
            "evaluate",
            "--model", str(mini_run / "artifact.json"),
            "--data-root", str(tmp_path),
            "--subset", "FD003",
            "--out", str(tmp_path),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    for part in ("FD001", "31", "FD003", "38"):
        assert part in err


def test_inspect_rejects_artifact_of_other_window_length(mini_run, tmp_path, capsys):
    write_subset(tmp_path, "FD003", n_train=3, n_test=2)
    code = cli.main(
        [
            "inspect",
            "--model", str(mini_run / "artifact.json"),
            "--data-root", str(tmp_path),
            "--subset", "FD003",
            "--out", str(tmp_path),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    for part in ("FD001", "31", "FD003", "38"):
        assert part in err


def test_evaluate_rejects_unknown_subset_in_artifact(mini_run, tmp_path, capsys):
    doc = json.loads((mini_run / "artifact.json").read_text())
    doc["subset_id"] = "FD009"
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(doc))
    code = cli.main(
        ["evaluate", "--model", str(artifact), "--data-root", str(tmp_path), "--out", str(tmp_path)]
    )
    assert code == 3
    assert "FD009" in capsys.readouterr().err


def test_predict_outputs_csv(mini_run, mini_root, capsys):
    code = cli.main(
        [
            "predict",
            "--model", str(mini_run / "artifact.json"),
            str(mini_root / "test_FD001.txt"),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "unit_id,estimated_rul"
    assert len(lines) == 1 + 6
    for line in lines[1:]:
        unit, value = line.split(",")
        assert int(unit) >= 1
        assert float(value) >= 0.0
    # The batched predict gives exactly evaluate's estimates, in file order.
    report = (mini_run / "report.csv").read_text().strip().split("\n")[1:]
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [row.split(",")[0], repr(float(row.split(",")[2]))] for row in report
    ]


def test_predict_rejects_malformed_file(mini_run, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1 0.1 0.2\n")
    code = cli.main(["predict", "--model", str(mini_run / "artifact.json"), str(bad)])
    assert code == 3
    assert "line 1" in capsys.readouterr().err


def test_predict_rejects_non_finite_reading(mini_run, mini_root, tmp_path, capsys):
    lines = (mini_root / "test_FD001.txt").read_text().splitlines()
    fields = lines[1].split()
    fields[7] = "nan"
    lines[1] = " ".join(fields)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    code = cli.main(["predict", "--model", str(mini_run / "artifact.json"), str(bad)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unit {fields[0]}" in captured.err
    assert f"cycle {fields[1]}" in captured.err


@pytest.mark.parametrize("column,token", [(0, "1e20"), (0, "9223372036854775808"), (1, "1e20")])
@pytest.mark.parametrize("later_bad_line", [False, True])
def test_predict_rejects_unit_or_cycle_beyond_int64(
    mini_run, mini_root, tmp_path, capsys, column, token, later_bad_line
):
    # Once a RuntimeWarning from the int64 cast: a traceback under CI's flags.
    # With a malformed later line, the line-by-line reader once named that one.
    lines = (mini_root / "test_FD001.txt").read_text().splitlines()
    fields = lines[1].split()
    fields[column] = token
    lines[1] = " ".join(fields)
    if later_bad_line:
        lines[4] = "x " + lines[4]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    code = cli.main(["predict", "--model", str(mini_run / "artifact.json"), str(bad)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2: malformed numeric field" in captured.err and token in captured.err


def test_inspect_emits_sensor_csvs(mini_run, mini_root, capsys):
    code = cli.main(
        [
            "inspect",
            "--model", str(mini_run / "artifact.json"),
            "--data-root", str(mini_root),
            "--subset", "FD001",
            "--out", str(mini_run),
            "--unit", "2",
        ]
    )
    assert code == 0
    inspect_dir = mini_run / "inspect"
    doc = json.loads((mini_run / "artifact.json").read_text())
    sensor_files = sorted(inspect_dir.glob("sensor_*.csv"))
    assert len(sensor_files) == len(doc["basis"]["sensors"])
    for path in sensor_files:
        rows = path.read_text().strip().split("\n")
        header = rows[0].split(",")
        assert header[:4] == ["grid", "mean", "eigenvalue", "fve"]
        eigenvalues = [float(r.split(",")[2]) for r in rows[1:]]
        assert all(b <= a for a, b in zip(eigenvalues, eigenvalues[1:]))
        fve = [float(r.split(",")[3]) for r in rows[1:]]
        assert fve[-1] == pytest.approx(1.0, abs=1e-9)
    features = inspect_dir / "features_unit2.csv"
    body = features.read_text().strip().split("\n")
    assert body[0].startswith("window,start_cycle,label,z_1")
    assert len(body) > 1


def test_inspect_features_track_labels_on_trained_model(fd001_run, fd001_root, tmp_path):
    code = cli.main(
        [
            "inspect",
            "--model", str(fd001_run.out / "artifact.json"),
            "--data-root", str(fd001_root),
            "--subset", "FD001",
            "--out", str(tmp_path),
            "--unit", "1",
        ]
    )
    assert code == 0
    sensor_files = list((tmp_path / "inspect").glob("sensor_*.csv"))
    assert 14 <= len(sensor_files) <= 21
    rows = (tmp_path / "inspect" / "features_unit1.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
    labels = data[:, header.index("label")]
    correlations = [
        abs(np.corrcoef(data[:, i], labels)[0, 1])
        for i, name in enumerate(header)
        if name.startswith("z_")
    ]
    assert max(correlations) > 0.5


def test_cli_end_to_end_deterministic(mini_root, tmp_path_factory):
    outputs = []
    for name in ("rep_a", "rep_b"):
        out = tmp_path_factory.mktemp(name)
        cfg = out / "config.json"
        cfg.write_text(json.dumps(FAST_CONFIG))
        assert cli.main(
            ["train", "--config", str(cfg), "--data-root", str(mini_root), "--out", str(out)]
        ) == 0
        assert cli.main(
            [
                "evaluate",
                "--model", str(out / "artifact.json"),
                "--config", str(cfg),
                "--data-root", str(mini_root),
                "--out", str(out),
            ]
        ) == 0
        outputs.append(out)
    a, b = outputs
    assert (a / "artifact.json").read_bytes() == (b / "artifact.json").read_bytes()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


@pytest.mark.parametrize("command", ["train", "evaluate", "predict", "inspect"])
def test_help_exits_cleanly(command, capsys):
    assert cli.main([command, "--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_top_level_help(capsys):
    assert cli.main(["--help"]) == 0


@pytest.mark.parametrize("text", ["[1]", '{"epochs": 1' + "0" * 5000 + "}"])
def test_config_that_json_cannot_hold_is_config_error(text, tmp_path, capsys):
    # A list root once raised AttributeError when --subset was merged into it;
    # an integer of over 4300 digits raised ValueError from json (both exit 1).
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    code = cli.main(["train", "--config", str(cfg), "--subset", "FD001", "--data-root", "x"])
    assert code == 2
    assert "config" in capsys.readouterr().err


def test_artifact_integer_of_too_many_digits_is_artifact_error(mini_run, mini_root, tmp_path, capsys):
    # json raises ValueError, not JSONDecodeError, past 4300 digits: once exit 1.
    text = (mini_run / "artifact.json").read_text()
    artifact = tmp_path / "artifact.json"
    artifact.write_text(text.replace('"window_length": 31', '"window_length": 3' + "1" * 5000))
    code = cli.main(["predict", "--model", str(artifact), str(mini_root / "test_FD001.txt")])
    assert code == 3
    assert "artifact is not valid JSON" in capsys.readouterr().err


def test_evaluate_of_estimates_too_far_off_is_numeric_error(mini_run, mini_root, tmp_path, capsys):
    # Every estimate is 1e6 cycles: the score once overflowed to inf, a
    # RuntimeWarning traceback under CI's flags.
    doc = json.loads((mini_run / "artifact.json").read_text())
    doc["label_scale"] = 1e6
    doc["network"]["w2"], doc["network"]["b2"] = [[0.0, 0.0]], [1.0]
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["--model", str(artifact), "--data-root", str(mini_root), "--out", str(out)]
    assert cli.main(["evaluate", *argv]) == 4
    assert "score overflows" in capsys.readouterr().err
    assert not out.exists()


def test_flags_override_config(mini_root, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"subset": "FD002", "seed": 1}))
    parsed = cli.load_config(str(cfg), {"subset": "FD001", "seed": None})
    assert parsed.subset == "FD001"
    assert parsed.seed == 1


def test_inspect_labels_use_the_artifact_label_scale(mini_root, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**FAST_CONFIG, "epochs": 2, "t_cap": 100}))
    out = tmp_path / "out"
    assert cli.main(
        ["train", "--config", str(cfg), "--data-root", str(mini_root), "--out", str(out)]
    ) == 0
    # inspect runs with the default config (t_cap 130) on the longest unit
    units, lengths = np.unique(
        np.loadtxt(mini_root / "train_FD001.txt", usecols=0), return_counts=True
    )
    unit = int(units[np.argmax(lengths)])
    assert lengths.max() - 31 + 1 > 101
    assert cli.main(
        [
            "inspect",
            "--model", str(out / "artifact.json"),
            "--data-root", str(mini_root),
            "--subset", "FD001",
            "--out", str(out),
            "--unit", str(unit),
        ]
    ) == 0
    rows = (out / "inspect" / f"features_unit{unit}.csv").read_text().strip().split("\n")
    labels = [float(line.split(",")[2]) for line in rows[1:]]
    assert max(labels) == 100.0
    assert labels[-1] == 0.0
    assert len(labels) == lengths.max() - 30


def _empty_split(mini_root, tmp_path, names):
    _copy_files(mini_root, tmp_path, ["train_FD001.txt", "test_FD001.txt", "RUL_FD001.txt"])
    for name in names:
        (tmp_path / name).write_text("")


def test_train_on_empty_train_file_is_integrity_error(mini_root, tmp_path, capsys):
    _empty_split(mini_root, tmp_path, ["train_FD001.txt"])
    code = cli.main(
        ["train", "--subset", "FD001", "--data-root", str(tmp_path), "--out", str(tmp_path)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "train_FD001.txt" in err and "no data" in err


def test_train_with_too_few_windows_is_integrity_error(mini_root, tmp_path, capsys):
    # two 20-cycle units cannot hold one 31-cycle FD001 window
    rows = [line.split() for line in (mini_root / "train_FD001.txt").read_text().splitlines()]
    short = [" ".join(r) for r in rows if int(r[0]) <= 2 and int(r[1]) <= 20]
    (tmp_path / "train_FD001.txt").write_text("\n".join(short) + "\n")
    code = cli.main(
        ["train", "--subset", "FD001", "--data-root", str(tmp_path), "--out", str(tmp_path)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "0 windows of length 31" in err and "longest unit has 20 cycles" in err
    assert not (tmp_path / "artifact.json").exists()


def test_evaluate_on_empty_test_files_is_integrity_error(mini_run, mini_root, tmp_path, capsys):
    _empty_split(mini_root, tmp_path, ["test_FD001.txt", "RUL_FD001.txt"])
    code = cli.main(
        [
            "evaluate",
            "--model", str(mini_run / "artifact.json"),
            "--data-root", str(tmp_path),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert "test_FD001.txt" in capsys.readouterr().err


def test_predict_on_empty_file_prints_header(mini_run, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code = cli.main(["predict", "--model", str(mini_run / "artifact.json"), str(empty)])
    assert code == 0
    assert capsys.readouterr().out == "unit_id,estimated_rul\n"


def test_predict_rejects_file_that_is_not_utf8(mini_run, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe1 1 0.1\n")
    code = cli.main(["predict", "--model", str(mini_run / "artifact.json"), str(bad)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1" in captured.err and "not UTF-8" in captured.err


def test_evaluate_rejects_file_that_is_not_utf8(mini_run, mini_root, tmp_path, capsys):
    _copy_files(mini_root, tmp_path, ["test_FD001.txt", "RUL_FD001.txt"])
    text = (tmp_path / "test_FD001.txt").read_bytes()
    (tmp_path / "test_FD001.txt").write_bytes(text.replace(b"\n", b"\n\xe9", 2))
    code = cli.main(
        [
            "evaluate",
            "--model", str(mini_run / "artifact.json"),
            "--data-root", str(tmp_path),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "line 2" in err and "not UTF-8" in err


@pytest.mark.parametrize("literal", ["1_0", "\u0661\u0662"])  # int() reads both
def test_evaluate_rejects_rul_that_is_not_ascii_digits(mini_run, mini_root, tmp_path, literal, capsys):
    _copy_files(mini_root, tmp_path, ["test_FD001.txt"])
    rul = (mini_root / "RUL_FD001.txt").read_text().splitlines()
    rul[1] = literal
    (tmp_path / "RUL_FD001.txt").write_text("\n".join(rul) + "\n", encoding="utf-8")
    code = cli.main(
        [
            "evaluate",
            "--model", str(mini_run / "artifact.json"),
            "--data-root", str(tmp_path),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 3
    assert f"line 2: expected an integer, got {literal!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# numpy reads a *.txt file by name; when numpy opens a name, it would also
# decompress "x.txt.gz", fall back to "x.txt.gz" for a missing "x.txt" and
# download a URL. Each of these must read as the plain file it names.
@pytest.mark.parametrize(
    "files,argument,code,message",
    [
        ({"x.txt.gz": "gzip"}, "x.txt.gz", 3, "line 1: x.txt.gz is not UTF-8 text"),
        ({"x.dat": "plain"}, "x.dat", 0, ""),
        ({"x.txt.gz": "gzip"}, "x.txt", 3, "No such file or directory: 'x.txt'"),
        ({}, "http://127.0.0.1:9/x.txt", 3, "No such file or directory: 'http://127.0.0.1:9/x.txt'"),
    ],
    ids=["gzip", "other-suffix", "missing-beside-gzip", "url"],
)
def test_predict_reads_the_named_file_as_plain_text(
    mini_run, mini_root, tmp_path, monkeypatch, capsys, files, argument, code, message
):
    plain = (mini_root / "test_FD001.txt").read_bytes()
    for name, form in files.items():
        (tmp_path / name).write_bytes(gzip.compress(plain) if form == "gzip" else plain)
    model = str(mini_run / "artifact.json")
    assert cli.main(["predict", "--model", model, str(mini_root / "test_FD001.txt")]) == 0
    expected = capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    assert cli.main(["predict", "--model", model, argument]) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == (expected if code == 0 else "")


def test_predict_rejects_artifact_with_nan_weight(mini_run, mini_root, tmp_path, capsys):
    doc = json.loads((mini_run / "artifact.json").read_text())
    doc["network"]["w1"][0][0] = float("nan")
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(doc))
    code = cli.main(["predict", "--model", str(artifact), str(mini_root / "test_FD001.txt")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "network.w1" in captured.err


def _set_path(path, value):
    def mutate(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return mutate


def _set_nan(path):
    return _set_path(path, float("nan"))


def _drop_last(path):
    def mutate(doc):
        for key in path:
            doc = doc[key]
        doc.pop()

    return mutate


def _make_constant(doc):
    # the scaler no longer retains the first basis sensor
    i = doc["basis"]["sensors"][0]["sensor_id"] - 1
    doc["scaler"]["maximum"][i] = doc["scaler"]["minimum"][i]


def _truncate_components(doc):
    for row in doc["basis"]["sensors"][0]["components"]:
        row.pop()


def _set_sensor(i, key, value):
    return lambda doc: doc["basis"]["sensors"][i].__setitem__(key, value)


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _nest_a(doc):
    # a (K,) block written as (K, 1)
    network = doc["network"]
    network["a"] = [[x] for x in network["a"]]


def _hidden_width_3(doc):
    network = doc["network"]
    network["w1"].append([0.5])
    network["b1"].append(0.0)
    network["w2"][0].append(0.5)


def _components_above_cap(doc):
    # sensor 0 gets component_cap + 1 rows, and beta one column per added row
    sensor = doc["basis"]["sensors"][0]
    p = len(sensor["components"])
    extra = doc["basis"]["component_cap"] + 1 - p
    sensor["components"] += [sensor["components"][0]] * extra
    for row in doc["network"]["beta"]:
        row[p:p] = [0.0] * extra


def _per_sensor_w1(doc):
    # fmlp-artifact/2 drew one condition hidden layer per sensor: w1 was (S, 3, H)
    doc["condition_model"]["w1"] = [[[0.5] * 8] * 3] * 21


def _condition_width_8(doc):
    # fmlp-artifact/4 held 8 hidden-unit weights per sensor, not 9 feature weights
    for row in doc["condition_model"]["weights"]:
        row.pop()


@pytest.mark.parametrize(
    "mutate,block",
    [
        (_set_nan(["network", "b2", 0]), "network.b2"),
        (_set_nan(["basis", "sensors", 0, "mean", 2]), "mean"),
        (_set_nan(["basis", "sensors", 1, "eigenvalues", 0]), "eigenvalues"),
        (_set_nan(["basis", "sensors", 2, "components", 0, 5]), "components"),
        (_set_nan(["condition_model", "weights", 4, 1]), "condition_model.weights"),
        (_set_nan(["condition_model", "target_mean", 0]), "condition_model.target_mean"),
        (_set_nan(["scaler", "maximum", 7]), "scaler.maximum"),
        (_set("label_scale", float("inf")), "label_scale"),
        (_set("label_scale", float("nan")), "label_scale is nan, expected a finite number"),
        (_drop_last(["condition_model", "bias"]), "condition_model.bias"),
        # fmlp-artifact/4's drawn layer, left in a /5 condition_model block
        (_set_path(["condition_model", "w1"], [[0.5] * 8] * 3), "condition_model.w1"),
        (_set("schema", "fmlp-artifact/4"),
         "unsupported artifact schema 'fmlp-artifact/4', expected 'fmlp-artifact/5'"),
        (lambda d: (_drop_last(["scaler", "minimum"])(d), _drop_last(["scaler", "maximum"])(d)),
         "scaler.minimum"),
        (_make_constant, "scaler retains"),
        (lambda d: d["basis"].__setitem__("sensors", []), "basis covers no sensors"),
        # window_length is the one record of M: every curve block is checked against it
        (_set_path(["window_length"], 30), "mean has shape (31,), expected (30,)"),
        (_set("window_length", 30), "window_length 30"),
        (_set("window_length", 0), "window_length is 0, expected > 0"),
        (_set("window_length", 31.0), "window_length is 31.0, expected an integer"),
        (_set("window_length", None), "window_length is None, expected an integer"),
        (_truncate_components, "components has shape"),
        (_drop_last(["network", "w2", 0]), "network.w2 has shape (1, 1), expected (1, 2)"),
        (_nest_a, "network.a has shape (4, 1), expected (4,)"),
        (lambda d: d["network"].__setitem__("w2", 1.0),
         "network.w2 has shape (), expected (1, 2)"),
        (_hidden_width_3, "network.w1 has shape (3, 1), expected (2, 1)"),
        (lambda d: d["network"].pop("b1"), "malformed model artifact: 'b1'"),
        (_set("label_scale", 0), "label_scale is 0.0, expected > 0"),
        (_set("label_scale", -130), "label_scale is -130.0, expected > 0"),
        # evaluate caps true RULs at the label scale, which once truncated 130.9 to 130
        (_set("label_scale", 130.9), "label_scale is 130.9, expected > 0 and a whole number"),
        (_set("condition_model", None), "condition_model is null"),
        (_set("scaler", None), "scaler is null"),
        (lambda d: d.pop("scaler"), "scaler is null or missing"),
        (_set("subset_id", ["FD001"]), "subset_id is ['FD001']"),
        (_set("subset_id", None), "subset_id is None, expected one of"),
        (_set("label_scale", True), "label_scale is True, expected a number"),
        (_set("label_scale", "130"), "label_scale is '130', expected a number"),
        (_set_sensor(0, "sensor_id", 2.5), "sensor_id is 2.5, expected an integer"),
        (lambda d: d["basis"].__setitem__("component_cap", "2"),
         "component_cap is '2', expected an integer"),
        (lambda d: d["basis"].__setitem__("fve_cutoff", False), "fve_cutoff is False"),
        (lambda d: d["train_config"].__setitem__("epochs", 40.0),
         "train_config.epochs is 40.0, expected an integer"),
        (lambda d: d["train_config"].__setitem__("learning_rate", float("inf")),
         "train_config.learning_rate is inf, expected a finite number"),
        (lambda d: d["train_config"].__setitem__("seed", -1), "seed must be in [0, 2**64)"),
        (_condition_width_8, "condition_model.weights has shape (21, 8), expected (21, 9)"),
        # The id names the input: a /2 per-sensor layer is an unknown field in /5.
        pytest.param(
            _per_sensor_w1, "artifact field condition_model.w1 is unknown",
            id="_per_sensor_w1-condition_model.w1 has shape (21, 3, 8) in the input",
        ),
        # A boolean is not a number, in any block.
        (_set_path(["network", "b2", 0], True), "network.b2 is True, expected a number"),
        (_set_path(["network", "beta", 1, 0], False), "network.beta is False"),
        (_set_path(["condition_model", "weights", 0, 0], True), "condition_model.weights is True"),
        (_set_path(["scaler", "minimum", 3], True), "scaler.minimum is True"),
        (_set_path(["basis", "sensors", 0, "mean", 0], True), "sensors[0].mean is True"),
        (_set_path(["network", "a", 0], "0.5"), "network.a is '0.5', expected a number"),
        # The basis rules of fit_basis hold for a loaded basis, too.
        (_set_path(["basis", "fve_cutoff"], -1), "fve_cutoff must be in (0, 1], got -1.0"),
        (_set_path(["basis", "component_cap"], 0), "component_cap must be > 0, got 0"),
        (_components_above_cap, "component rows [3, 1, 1, 2,"),
        # A stage config holds exactly its dataclass's fields.
        (lambda d: d["train_config"].pop("learning_rate"), "train_config.learning_rate is missing"),
        (_set_path(["train_config", "momentum"], 0.9), "train_config.momentum is unknown"),
    ],
)
def test_artifact_blocks_are_validated(mini_run, mutate, block):
    from fmlp_rul import fmlp
    from fmlp_rul.errors import ArtifactError

    doc = json.loads((mini_run / "artifact.json").read_text())
    fmlp.pipeline_from_doc(json.loads(json.dumps(doc)))  # the real artifact loads
    mutate(doc)
    with pytest.raises(ArtifactError, match=re.escape(block)):
        fmlp.pipeline_from_doc(doc)


def test_predict_rejects_artifact_with_nested_a(mini_run, mini_root, tmp_path, capsys):
    doc = json.loads((mini_run / "artifact.json").read_text())
    _nest_a(doc)
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(doc))
    code = cli.main(["predict", "--model", str(artifact), str(mini_root / "test_FD001.txt")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "network.a" in captured.err


@pytest.mark.parametrize("subset_id,window_length", [("FD003", 38), ("FD004", 19)])
def test_train_and_evaluate_smoke(subset_id, window_length, tmp_path):
    # FD003: two fault modes; FD004: six conditions and two fault modes
    write_subset(tmp_path, subset_id, n_train=8, n_test=5)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**FAST_CONFIG, "subset": subset_id}))
    out = tmp_path / "out"
    common = ["--config", str(cfg_path), "--data-root", str(tmp_path), "--out", str(out)]
    assert cli.main(["train", *common]) == 0
    assert cli.main(["evaluate", "--model", str(out / "artifact.json"), *common]) == 0
    assert json.loads((out / "artifact.json").read_text())["window_length"] == window_length
    rows = (out / "report.csv").read_text().strip().split("\n")[1:]
    assert [int(row.split(",")[0]) for row in rows] == [1, 2, 3, 4, 5]
    assert all(np.isfinite([float(v) for v in row.split(",")[1:]]).all() for row in rows)


def test_evaluate_rejects_artifact_with_list_subset_id(mini_run, mini_root, tmp_path, capsys):
    # A list was once a TypeError traceback (exit 1) from hashing it. Null was
    # accepted, and evaluate without --subset then exited 2: train always
    # records the subset, so null now fails the same check.
    for subset_id in (["FD001"], None):
        doc = json.loads((mini_run / "artifact.json").read_text())
        doc["subset_id"] = subset_id
        artifact = tmp_path / "artifact.json"
        artifact.write_text(json.dumps(doc))
        argv = ["--model", str(artifact), "--data-root", str(mini_root), "--out", str(tmp_path)]
        for command in ("evaluate", "inspect"):
            assert cli.main([command, *argv]) == 3
            assert f"subset_id is {subset_id!r}" in capsys.readouterr().err
        assert not (tmp_path / "inspect").exists()


def test_inspect_of_other_subset_writes_nothing(fd002_run, mini_root, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        [
            "inspect",
            "--model", str(fd002_run.out / "artifact.json"),
            "--data-root", str(mini_root),
            "--subset", "FD001",
            "--out", str(out),
        ]
    )
    assert code == 3
    assert "window length 21" in capsys.readouterr().err
    assert not (out / "inspect").exists()


def test_inspect_of_unknown_unit_writes_nothing(mini_run, mini_root, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(
        [
            "inspect",
            "--model", str(mini_run / "artifact.json"),
            "--data-root", str(mini_root),
            "--out", str(out),
            "--unit", "99",
        ]
    )
    assert code == 3
    assert "unit 99 not found" in capsys.readouterr().err
    assert not (out / "inspect").exists()


def test_inspect_of_unit_shorter_than_window_writes_nothing(mini_run, mini_root, tmp_path, capsys):
    # Once exit 0 with a features_unit11.csv that held only its header.
    lines = (mini_root / "train_FD001.txt").read_text().splitlines()
    short = ["11 " + line.split(" ", 1)[1] for line in lines[:5]]  # unit 1's first 5 cycles
    (tmp_path / "train_FD001.txt").write_text("\n".join(lines + short) + "\n")
    out = tmp_path / "out"
    model = str(mini_run / "artifact.json")
    argv = ["--model", model, "--data-root", str(tmp_path), "--out", str(out), "--unit", "11"]
    assert cli.main(["inspect", *argv]) == 3
    err = capsys.readouterr().err
    assert "unit 11" in err and "5 cycles" in err and "window length 31" in err
    assert not out.exists()


def test_inspect_unit_without_data_root_is_usage_error(mini_run, tmp_path, capsys):
    # Once exit 0 with the sensor CSVs written and the feature file dropped.
    out = tmp_path / "out"
    code = cli.main(
        ["inspect", "--model", str(mini_run / "artifact.json"), "--out", str(out), "--unit", "5"]
    )
    assert code == 2
    assert "--data-root" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def six_condition_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fd002_small")
    write_subset(root, "FD002", 7, n_train=8, n_test=5)
    return root


def _train_fd002(root, tmp_path, **config):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"subset": "FD002", "seed": 7, "epochs": 5, **config}))
    out = tmp_path / "out"
    code = cli.main(["train", "--config", str(cfg_path), "--data-root", str(root), "--out", str(out)])
    return code, out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_condition_fit_that_leaves_no_sensor_is_numeric_error(six_condition_root, tmp_path, capsys):
    # Every reading constant across six regimes: removal leaves nothing that varies.
    root = tmp_path / "data"
    root.mkdir()
    lines = (six_condition_root / "train_FD002.txt").read_text().splitlines()
    rows = [line.split() for line in lines]
    constant = [" ".join(row[:5] + ["518.67"] * 21) for row in rows]
    (root / "train_FD002.txt").write_text("\n".join(constant) + "\n")
    code, out = _train_fd002(root, tmp_path)
    assert code == 4
    err = capsys.readouterr().err
    assert "no sensor varies after condition removal" in err
    assert "constant readings" in err
    assert not out.exists()


def test_artifact_of_previous_schema_is_rejected(mini_run, mini_root, tmp_path, capsys):
    # fmlp-artifact/2 held one condition hidden layer per sensor, /3 stored
    # copies of derived values and a layer-list head, and /4 a seeded
    # condition hidden layer; retrain instead.
    for schema in ("fmlp-artifact/2", "fmlp-artifact/3", "fmlp-artifact/4"):
        doc = json.loads((mini_run / "artifact.json").read_text())
        doc["schema"] = schema
        artifact = tmp_path / "artifact.json"
        artifact.write_text(json.dumps(doc))
        argv = ["--model", str(artifact), "--data-root", str(mini_root), "--out", str(tmp_path)]
        assert cli.main(["evaluate", *argv]) == 3
        err = capsys.readouterr().err
        assert repr(schema) in err and "'fmlp-artifact/5'" in err
        assert not (tmp_path / "report.json").exists()


def _train_with_fields(tmp_path, edits):
    """Exit code and stderr of CLI train, run as CI runs it, on a small FD001
    train file whose (line, field) entries are replaced by the given tokens."""
    write_subset(tmp_path, "FD001", n_train=6, n_test=3)
    path = tmp_path / "train_FD001.txt"
    lines = path.read_text().splitlines()
    for (line, field), token in edits.items():
        row = lines[line].split()
        row[field] = token
        lines[line] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    src = Path(fmlp_rul.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    python = [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning"]  # as CI runs
    argv = ["--data-root", str(tmp_path), "--subset", "FD001", "--out", str(tmp_path / "out")]
    run = subprocess.run(
        [*python, "-m", "fmlp_rul.cli", "train", *argv], capture_output=True, text=True, env=env
    )
    return run.returncode, run.stderr


def test_huge_reading_is_numeric_error_without_traceback(tmp_path):
    # One reading of 1e200 once overflowed the sensor's std: the condition
    # predictions became NaN and the FPCA raised a ValueError traceback (exit 1).
    code, err = _train_with_fields(tmp_path, {(3, 10): "1e200"})
    assert code == 4, err
    assert "condition fit is not finite: settings or readings too large to fit" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_settings_span_overflow_is_numeric_error_without_traceback(tmp_path):
    # A setting of 1e308 and one of -1e308 overflow the settings span; scaling
    # them once raised a RuntimeWarning traceback (exit 1) under CI's flags.
    code, err = _train_with_fields(tmp_path, {(3, 2): "1e308", (5, 2): "-1e308"})
    assert code == 4, err
    assert "condition fit is not finite: settings or readings too large to fit" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_huge_reading_in_scored_file_is_numeric_error(mini_run, mini_root, tmp_path, command):
    # A reading of -1e308 in the retained sensor with the smallest min-max span
    # once overflowed the scaling: evaluate reported a NaN RMSE, predict printed
    # a NaN estimate, and under -W error::RuntimeWarning both ended in a traceback.
    scaler = json.loads((mini_run / "artifact.json").read_text())["scaler"]
    span = np.subtract(scaler["maximum"], scaler["minimum"])
    sensor = int(np.argmin(np.where(span > 0, span, np.inf)))
    for name in ("test_FD001.txt", "RUL_FD001.txt"):
        (tmp_path / name).write_text((mini_root / name).read_text())
    path = tmp_path / "test_FD001.txt"
    lines = path.read_text().splitlines()
    row = lines[-1].split()
    row[5 + sensor] = "-1e308"
    lines[-1] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = {
        "evaluate": ["--data-root", str(tmp_path), "--out", str(out)],
        "predict": [str(path)],
    }[command]
    src = Path(fmlp_rul.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    python = [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning"]  # as CI runs
    run = subprocess.run(
        [*python, "-m", "fmlp_rul.cli", command, "--model", str(mini_run / "artifact.json"),
         *argv],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 4, run.stderr
    assert "settings or readings too large to scale" in run.stderr
    assert "Traceback" not in run.stderr
    assert "nan" not in run.stdout.lower()
    assert not list(tmp_path.rglob("report.*"))


def _huge_output(doc):
    # Finite weights whose estimate is 10 * 1e308 cycles.
    doc["label_scale"] = 1e308
    doc["network"]["b2"] = [10.0]


def _huge_beta(doc):
    # Every functional neuron saturates: the estimates stay finite.
    doc["network"]["beta"] = [[1e308] * len(row) for row in doc["network"]["beta"]]


@pytest.mark.parametrize("mutate,code", [(_huge_output, 4), (_huge_beta, 0)])
@pytest.mark.parametrize("command", ["evaluate", "predict", "inspect"])
def test_huge_artifact_weights_give_numeric_error_or_finite_estimates(
    mini_run, mini_root, tmp_path, command, mutate, code
):
    # Both artifacts once ended in an overflow traceback under CI's flags; without
    # them, the first made predict print "1,inf" and exit 0.
    doc = json.loads((mini_run / "artifact.json").read_text())
    mutate(doc)
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = {
        "evaluate": ["--data-root", str(mini_root), "--out", str(out)],
        "predict": [str(mini_root / "test_FD001.txt")],
        "inspect": ["--data-root", str(mini_root), "--out", str(out)],
    }[command]
    src = Path(fmlp_rul.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    python = [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning"]  # as CI runs
    run = subprocess.run(
        [*python, "-m", "fmlp_rul.cli", command, "--model", str(artifact), *argv],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr
    assert "nan" not in run.stdout.lower() and "inf" not in run.stdout.lower()
    if code:
        assert "network output is not finite" in run.stderr
        assert run.stdout == "" and not out.exists()


def _leaf_paths(node, path=()):
    """The path of every scalar in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaf_paths(value, (*path, key))
        else:
            yield (*path, key)


_BAD_LEAVES = [
    float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 0, -1, True, "x", None, [],
    [[1.0, 2.0], [3.0]],
]


@pytest.fixture(scope="module")
def mini_leaves(mini_run):
    """The mini run's artifact and its leaf paths grouped by block, so that a
    scalar field is drawn as often as a large array."""
    doc = json.loads((mini_run / "artifact.json").read_text())
    blocks = {}
    for path in _leaf_paths(doc):
        blocks.setdefault(tuple(k for k in path if isinstance(k, str)), []).append(path)
    return doc, [blocks[name] for name in sorted(blocks)]


@settings(settings.get_profile("cli"), max_examples=120)
@given(data=st.data())
def test_artifact_with_one_bad_leaf_never_escapes(mini_leaves, mini_root, tmp_path, capsys, data):
    doc, blocks = mini_leaves
    path = data.draw(st.sampled_from(data.draw(st.sampled_from(blocks))))
    doc = json.loads(json.dumps(doc))
    _set_path(path, data.draw(st.sampled_from(_BAD_LEAVES)))(doc)
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main(["predict", "--model", str(artifact), str(mini_root / "test_FD001.txt")])
    out = capsys.readouterr().out.lower()
    assert code in (0, 3, 4)
    assert "nan" not in out and "inf" not in out
    assert code == 0 or out == ""


_UNKNOWN_KEYS = ["learning_rte", "condition_epochs", "condition_hidden", "", "seed "]

_JSON_VALUES = st.one_of(
    st.integers(),
    st.sampled_from([2**63, 2**64, -(2**63), 10**30, 10**400, -1, 0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308]),
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(settings.get_profile("cli"), max_examples=150)
@given(
    config=st.dictionaries(
        st.sampled_from([*dataclasses.asdict(cli.ExperimentConfig()), *_UNKNOWN_KEYS]),
        _JSON_VALUES,
        max_size=6,
    )
)
def test_any_flat_config_never_escapes(mini_run, mini_root, tmp_path, capsys, config):
    # The flags keep a drawn data_root or out_dir from pointing anywhere.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    code = cli.main(
        [
            "evaluate", "--config", str(path),
            "--model", str(mini_run / "artifact.json"),
            "--data-root", str(mini_root), "--subset", "FD001", "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code in (0, 2, 3, 4)
    report = out / "report.json"
    assert report.is_file() == (code == 0)
    if code == 0:
        text = report.read_text().lower()
        assert "nan" not in text and "inf" not in text


_TOKENS = st.one_of(
    st.integers().map(str),
    st.sampled_from(["1e20", "nan", "inf", "1e400", "-0", "x", ""]),
    st.text("0123456789", min_size=20, max_size=400),
)


@st.composite
def _damaged_trajectory_file(draw, lines):
    """The lines of a trajectory file with a few fields replaced by drawn
    tokens, lines dropped or duplicated, and raw non-UTF-8 bytes inserted."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["field", "field", "drop", "duplicate", "bytes"]))
        if action == "field":
            fields = lines[i].split(b" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_TOKENS).encode()
            lines[i] = b" ".join(fields)
        elif action == "drop":
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        else:
            cut = draw(st.integers(0, len(lines[i])))
            raw = draw(st.sampled_from([b"\xff", b"\xfe\xff", b"\xc3"]))
            lines[i] = lines[i][:cut] + raw + lines[i][cut:]
        if not lines:
            break
    return b"\n".join(lines) + b"\n"


@settings(settings.get_profile("cli"), max_examples=150)
@given(data=st.data())
def test_damaged_trajectory_file_never_escapes(mini_run, mini_root, tmp_path, capsys, data):
    lines = (mini_root / "test_FD001.txt").read_bytes().splitlines()
    path = tmp_path / "test.txt"
    path.write_bytes(data.draw(_damaged_trajectory_file(lines)))
    capsys.readouterr()
    code = cli.main(["predict", "--model", str(mini_run / "artifact.json"), str(path)])
    out = capsys.readouterr().out.lower()
    assert code in (0, 3, 4)
    assert "nan" not in out and "inf" not in out
    if code:
        assert out.splitlines()[1:] == []
