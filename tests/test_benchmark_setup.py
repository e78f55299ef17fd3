"""The benchmark under perfbench/ calls the program by name. Its sweep set-up
and scoring calls must keep working against this checkout, or the benchmark
fails before it times anything."""

import dataclasses
import importlib
import json
from pathlib import Path

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
