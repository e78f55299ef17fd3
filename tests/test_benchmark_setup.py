"""The benchmark under perfbench/ calls the program by name. Its sweep set-up
and scoring calls, and the CLI calls of its fit and serve workloads, must
keep working against this checkout, or the benchmark fails before it times
anything."""

import dataclasses
import importlib
import json
from pathlib import Path
from types import SimpleNamespace

from cmapss_synth import write_subset

from fmlp_rul import cli, evaluate, fmlp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_sweep_workload_setup_runs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child = importlib.import_module("child")
    write_subset(tmp_path, "FD001", n_train=4, n_test=3)
    spec = {"data_root": str(tmp_path), "subset": "FD001", "train_seeds": [1, 2]}
    workload = child.SweepWorkload(spec, cli.load_config(None, {}))
    workload.setup()
    assert len(workload.instances) > 0
    assert len(workload.tests) == len(workload.truths) == 3
    assert [c.seed for c in workload.train_configs] == [1, 2]

    # Each seed's scoring calls, made by the sweep's own code, then its checks.
    cfg = dataclasses.replace(workload.train_configs[0], epochs=2)
    model = fmlp.train(workload.instances, workload.basis, cfg, label_scale=130.0).model
    result = child.Pass(importlib.import_module("hostspeed").Sampler(None, enabled=False), None)
    scored = workload._score(result, model)
    assert scored and result.ok, result.problems
    estimates, report = scored
    problems = child.check_estimates(
        [r.unit_id for r in report.records], workload.truths,
        [float(e) for e in estimates], report.rmse, report.score, 130,
    )
    # Two epochs need not beat a constant guess; every other check must pass.
    assert all("does not beat a constant guess" in p for p in problems), problems
    json.dumps(evaluate.report_to_doc(report), indent=1)
    json.dumps(fmlp.model_to_doc(model), indent=1)


def test_cli_workload_trains_evaluates_predicts_and_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    child, hostspeed = importlib.import_module("child"), importlib.import_module("hostspeed")
    write_subset(tmp_path, "FD002", n_train=6, n_test=5)
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps({"epochs": 2, "patience": 300}))
    ops = ["train", "evaluate", "predict"]
    spec = {"subset": "FD002", "data_root": str(tmp_path), "config": str(config), "trace": False,
            "out_dir": str(out), "model": str(out / "artifact.json"), "ops": ops, "fill": 1}
    workload = child.CliWorkload(spec, cli.load_config(str(config), {}))
    workload.setup()
    # Pass.cal() samples the reference loop after each operation: a stub here.
    reference = SimpleNamespace(sample=lambda reps=3: hostspeed.REFERENCE_S)
    result = child.Pass(hostspeed.Sampler(reference, enabled=False), hostspeed.REFERENCE_S)
    workload.run_pass(result, deadline=0.0)  # the ops, then one scoring round as fit-fd002's
    assert [op[0] for op in result.ops] == ops + ops[1:] and all(op[2] for op in result.ops)
    # Two epochs need not beat a constant guess; every other check must pass.
    assert all("does not beat a constant guess" in p for p in result.problems), result.problems
    digests = {"artifact.json", "report.json", "predict.csv"}
    assert len(result.rmse) == 1 and result.digests.keys() == digests
