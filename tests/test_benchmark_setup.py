"""The benchmark under perfbench/ calls the program by name. Its sweep set-up
must keep working against this checkout, or the benchmark fails before it
times anything."""

import importlib
from pathlib import Path

from cmapss_synth import write_subset

from fmlp_rul import cli

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
