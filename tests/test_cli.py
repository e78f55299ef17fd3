import json
import re

import numpy as np
import pytest

from cmapss_synth import write_subset

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
    assert doc["schema"] == "fmlp-artifact/2"
    assert doc["subset_id"] == "FD001"
    assert doc["window_length"] == 31
    assert doc["seed"] == 11


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
        ("condition_hidden", 0),
        ("t_cap", 0),
        ("fve_cutoff", float("nan")),
        ("fve_cutoff", 0.0),
        ("fve_cutoff", 1.5),
        ("component_cap", 0),
    ],
)
def test_config_range_checked_before_work(key, value, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"subset": "FD001", key: value}))
    code = cli.main(["train", "--config", str(bad), "--data-root", str(tmp_path)])
    assert code == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("key", ["condition_epochs", "condition_learning_rate"])
def test_removed_condition_keys_are_unknown(key, tmp_path, capsys):
    # The condition fit is one least-squares solve: it has no epochs or rate.
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


def test_predict_rejects_artifact_with_nan_weight(mini_run, mini_root, tmp_path, capsys):
    doc = json.loads((mini_run / "artifact.json").read_text())
    doc["numerical_layers"][0]["weights"][0][0] = float("nan")
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(doc))
    code = cli.main(["predict", "--model", str(artifact), str(mini_root / "test_FD001.txt")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical_layers[0].weights" in captured.err


def _set_nan(path):
    def mutate(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = float("nan")

    return mutate


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


def _float_num_components(doc):
    sensor = doc["basis"]["sensors"][1]
    sensor["num_components"] = float(sensor["num_components"])


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _nest_a(doc):
    # a (K,) block written as (K, 1)
    layer = doc["functional_layer"]
    layer["a"] = [[x] for x in layer["a"]]


@pytest.mark.parametrize(
    "mutate,block",
    [
        (_set_nan(["numerical_layers", 1, "bias", 0]), "numerical_layers[1].bias"),
        (_set_nan(["basis", "grid", 3]), "basis.grid"),
        (_set_nan(["basis", "sensors", 0, "mean", 2]), "mean"),
        (_set_nan(["basis", "sensors", 1, "eigenvalues", 0]), "eigenvalues"),
        (_set_nan(["basis", "sensors", 2, "components", 0, 5]), "components"),
        (_set_nan(["condition_model", "w2", 4, 1]), "condition_model.w2"),
        (_set_nan(["condition_model", "target_mean", 0]), "condition_model.target_mean"),
        (_set_nan(["scaler", "maximum", 7]), "scaler.maximum"),
        (_set("label_scale", float("inf")), "label_scale"),
        (_drop_last(["condition_model", "b2"]), "condition_model.b2"),
        (_drop_last(["condition_model", "w1"]), "condition_model.w1"),
        (lambda d: (_drop_last(["scaler", "minimum"])(d), _drop_last(["scaler", "maximum"])(d)),
         "scaler.minimum"),
        (_make_constant, "scaler retains"),
        (_drop_last(["basis", "grid"]), "mean has shape (31,), expected (30,)"),
        (_truncate_components, "components has shape"),
        (_set("window_length", 30), "window_length 30"),
        (_drop_last(["numerical_layers", 1, "weights", 0]), "numerical_layers[1].weights"),
        (_nest_a, "functional_layer.a has shape (4, 1), expected (4,)"),
        (_set("numerical_layers", []), "numerical_layers"),
        (lambda d: d["numerical_layers"][1].__setitem__("weights", 1.0),
         "numerical_layers must end in a linear layer of width 1"),
        (_set("label_scale", 0), "label_scale is 0.0, expected > 0"),
        (_set("label_scale", -130), "label_scale is -130.0, expected > 0"),
        (_set("condition_model", None), "condition_model is null"),
        (_set("scaler", None), "scaler is null"),
        (_set("window_length", None), "window_length None"),
        (_set("subset_id", ["FD001"]), "subset_id is ['FD001']"),
        (_set("label_scale", True), "label_scale is True, expected a number"),
        (_set("label_scale", "130"), "label_scale is '130', expected a number"),
        (_set_sensor(0, "sensor_id", 2.5), "sensor_id is 2.5, expected an integer"),
        (_float_num_components, "basis.sensors[1].num_components"),
        (_set_sensor(1, "num_components", 3), "num_components 3 does not match"),
        (lambda d: d["basis"].__setitem__("component_cap", "2"),
         "component_cap is '2', expected an integer"),
        (lambda d: d["basis"].__setitem__("fve_cutoff", False), "fve_cutoff is False"),
        (lambda d: d["train_config"].__setitem__("epochs", 40.0),
         "train_config.epochs is 40.0, expected an integer"),
        (_set("seed", FAST_CONFIG["seed"] + 1), "seed 12 does not match train_config.seed 11"),
        (_set("seed", True), "seed True does not match"),
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
    assert "functional_layer.a" in captured.err


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
    # Once a TypeError traceback (exit 1) from hashing the list.
    doc = json.loads((mini_run / "artifact.json").read_text())
    doc["subset_id"] = ["FD001"]
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(doc))
    argv = ["--model", str(artifact), "--data-root", str(mini_root), "--out", str(tmp_path)]
    for command in ("evaluate", "inspect"):
        assert cli.main([command, *argv]) == 3
        assert "subset_id is ['FD001']" in capsys.readouterr().err
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
    # fmlp-artifact/1 held a condition fit with an epoch budget; retrain instead.
    doc = json.loads((mini_run / "artifact.json").read_text())
    doc["schema"] = "fmlp-artifact/1"
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(doc))
    argv = ["--model", str(artifact), "--data-root", str(mini_root), "--out", str(tmp_path)]
    assert cli.main(["evaluate", *argv]) == 3
    err = capsys.readouterr().err
    assert "'fmlp-artifact/1'" in err and "'fmlp-artifact/2'" in err
    assert not (tmp_path / "report.json").exists()
