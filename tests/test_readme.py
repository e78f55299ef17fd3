"""The README's Library snippet runs as written on a small corpus, its
config defaults are the code's, and it names the artifact schema and every
key and network block of the artifact's top level."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np

from cmapss_synth import write_subset

from fmlp_rul import (
    Pipeline,
    TrainConfig,
    fit_basis,
    fit_preprocessing,
    fmlp,
    load_subset,
    train,
    training_instances,
)
from fmlp_rul.cli import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_runs(tmp_path, capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    write_subset(tmp_path, "FD001", n_train=6, n_test=5)
    budget = "TrainConfig(seed=7)"
    assert code.count('"DATA"') == 1 and code.count(budget) == 1
    code = code.replace('"DATA"', repr(str(tmp_path)))
    code = code.replace(budget, "TrainConfig(seed=7, epochs=5)")
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    estimates, report = namespace["estimates"], namespace["report"]
    assert estimates.shape == (5,) and np.isfinite(estimates).all()
    assert capsys.readouterr().out.split() == [repr(report.rmse), repr(report.score)]


def test_readme_config_defaults_are_the_code_defaults():
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert json.loads(block) == dataclasses.asdict(ExperimentConfig())
    # The training defaults have one source; only the seed is the config's own.
    assert ExperimentConfig().train_config() == TrainConfig(seed=7)


def test_readme_names_the_artifact_schema():
    assert fmlp.ARTIFACT_SCHEMA in README.read_text(encoding="utf-8")


def test_readme_names_every_artifact_key(tmp_path):
    write_subset(tmp_path, "FD001", n_train=4, n_test=2)
    subset = load_subset(tmp_path, "FD001", splits=("train",))
    condition_model, scaler = fit_preprocessing(subset.train)
    instances = training_instances(subset, condition_model, scaler)
    basis = fit_basis(instances, sensor_ids=scaler.sensor_ids)
    network = train(instances, basis, TrainConfig(epochs=1)).model
    doc = fmlp.pipeline_to_doc(Pipeline(condition_model, scaler, network, "FD001"))
    text = README.read_text(encoding="utf-8")
    missing = [key for key in [*doc, *fmlp.BLOCKS] if f"`{key}`" not in text]
    assert not missing, f"README.md does not name artifact keys {missing}"
