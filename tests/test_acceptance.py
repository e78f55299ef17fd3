"""Acceptance gates for the whole artifact, one test per criterion.

Each criterion records a PASS/FAIL line that the terminal summary prints,
then asserts. Criteria 5-7 run the full default-config pipeline on the
session corpus through the command-line entry points.
"""

import dataclasses
import io
import json
import math
import time

import numpy as np

from acceptance_log import record
from model_oracles import (
    discrete_integral,
    gradients,
    loss,
    make_instances,
    max_gradient_error,
    random_model_and_batch,
    weight_curve,
)

from fmlp_rul import cli
from fmlp_rul.cmapss import load_subset
from fmlp_rul.evaluate import improvement, rmse, score
from fmlp_rul.fmlp import load_model, pipeline_to_doc
from fmlp_rul.fpca import fit_basis, select_num_components
from fmlp_rul.numerics import seeded_rng
from fmlp_rul.preprocess import piecewise_rul, sliding_windows


def check(num, name, ok, detail=""):
    record(num, name, ok, detail)
    assert ok, f"acceptance criterion {num} ({name}): {detail}"


def test_criterion_1_metric_unit_suite():
    started = time.monotonic()
    checks = [
        abs(rmse([3.0, -4.0]) - math.sqrt(12.5)) < 1e-12,
        abs(score([10.0]) - (math.e - 1.0)) < 1e-12,
        abs(score([-13.0]) - (math.e - 1.0)) < 1e-12,
        abs(improvement(13.36, 16.14) * 100 - 17.22) < 0.01,
    ]
    elapsed = time.monotonic() - started
    check(
        1,
        "metric unit suite",
        all(checks) and elapsed < 1.0,
        f"{sum(checks)}/4 values exact, {elapsed:.2f}s",
    )


def test_criterion_2_gradient_oracle():
    started = time.monotonic()
    worst = 0.0
    for seed in range(100):
        model, batch = random_model_and_batch(1000 + seed, k=4, n_sensors=3, m=10)
        worst = max(worst, max_gradient_error(model, batch))
    elapsed = time.monotonic() - started
    check(
        2,
        "gradient oracle",
        worst < 1e-5 and elapsed < 30.0,
        f"max rel err {worst:.2e} over 100 draws, {elapsed:.1f}s",
    )


def test_criterion_3_fpca_oracle():
    started = time.monotonic()
    m, n = 50, 500
    grid = np.arange(1, m + 1) / m
    mode1 = np.sqrt(2.0) * np.sin(2 * np.pi * grid)
    mode2 = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
    rng = seeded_rng(2)
    curves = (
        np.outer(rng.normal(0.0, 2.0, n), mode1)
        + np.outer(rng.normal(0.0, 1.0, n), mode2)
    )[:, None, :]
    basis = fit_basis(make_instances(curves))
    sensor = basis.sensors[0]
    recovered = sensor.components[0]
    deviation = min(
        np.max(np.abs(recovered - mode1)), np.max(np.abs(recovered + mode1))
    )
    ratio = sensor.eigenvalues[0] / sensor.eigenvalues[1]
    elapsed = time.monotonic() - started
    check(
        3,
        "FPCA oracle",
        deviation < 0.1 and abs(ratio - 4.0) <= 1.0 and elapsed < 10.0,
        f"max dev {deviation:.3f}, eigenvalue ratio {ratio:.2f}, {elapsed:.1f}s",
    )


def test_criterion_4_pipeline_counting(fd001_root):
    started = time.monotonic()
    subset = load_subset(fd001_root, "FD001")
    unit1 = subset.train[0]
    windows = sliding_windows([unit1.sensors], subset.window_length)
    labels = list(windows.labels)
    elapsed = time.monotonic() - started
    ok = (
        unit1.unit_id == 1
        and unit1.n_cycles == 144
        and len(windows) == 114
        and labels[0] == 113.0
        and labels[-1] == 0.0
        and elapsed < 5.0
    )
    check(
        4,
        "pipeline counting",
        ok,
        f"{unit1.n_cycles} cycles -> {len(windows)} windows, labels "
        f"{labels[0]:.0f}..{labels[-1]:.0f}, {elapsed:.1f}s",
    )


def test_criterion_5_fd001_headline(fd001_run):
    report = json.loads((fd001_run.out / "report.json").read_text())
    trace_rows = (fd001_run.out / "trace.csv").read_text().strip().split("\n")
    engine_rows = (fd001_run.out / "report.csv").read_text().strip().split("\n")
    ok = (
        fd001_run.train_code == 0
        and fd001_run.eval_code == 0
        and report["rmse"] <= 18.5
        and report["score"] <= 1.3e3
        and fd001_run.seconds < 900.0
        and len(trace_rows) <= 301  # header + at most the 300-epoch budget
        and len(engine_rows) == 101  # header + one row per test engine
    )
    stretch = "stretch RMSE<=16.14 met" if report["rmse"] <= 16.14 else (
        "stretch RMSE<=16.14 not met (non-gating)"
    )
    check(
        5,
        "FD001 headline",
        ok,
        f"RMSE {report['rmse']:.2f} (gate 18.5), score {report['score']:.0f}"
        f" (gate 1300), {fd001_run.seconds:.0f}s; {stretch}",
    )


def test_criterion_6_fd002_multicondition(fd002_run):
    report = json.loads((fd002_run.out / "report.json").read_text())
    ok = (
        fd002_run.train_code == 0
        and fd002_run.eval_code == 0
        and report["rmse"] <= 26.0
        and fd002_run.seconds < 1800.0
    )
    check(
        6,
        "FD002 multi-condition",
        ok,
        f"RMSE {report['rmse']:.2f} (gate 26), score {report['score']:.0f},"
        f" {fd002_run.seconds:.0f}s",
    )


def test_criterion_7_determinism(fd001_run, fd001_root, tmp_path_factory):
    out = tmp_path_factory.mktemp("fd001_repeat")
    assert cli.main(
        ["train", "--data-root", str(fd001_root), "--subset", "FD001", "--out", str(out)]
    ) == 0
    assert cli.main(
        [
            "evaluate",
            "--model", str(out / "artifact.json"),
            "--data-root", str(fd001_root),
            "--subset", "FD001",
            "--out", str(out),
        ]
    ) == 0
    first = (fd001_run.out / "report.json").read_bytes()
    second = (out / "report.json").read_bytes()
    artifacts_match = (fd001_run.out / "artifact.json").read_bytes() == (
        out / "artifact.json"
    ).read_bytes()
    check(
        7,
        "determinism",
        first == second and artifacts_match,
        f"report bytes equal: {first == second}, artifact bytes equal: {artifacts_match}",
    )


def test_criterion_8_property_suite(fd001_pipeline):
    failures = []
    network = fd001_pipeline.network

    # discrete orthonormality of every fitted eigenfunction set
    for sensor in network.basis.sensors:
        p = sensor.num_components
        for i in range(p):
            for j in range(p):
                target = 1.0 if i == j else 0.0
                value = discrete_integral(sensor.components[i], sensor.components[j])
                if abs(value - target) > 1e-8:
                    failures.append(f"orthonormality sensor {sensor.sensor_id}")

    # FVE cap
    if select_num_components(np.ones(5)) != 2:
        failures.append("FVE cap")
    if any(not 1 <= s.num_components <= 2 for s in network.basis.sensors):
        failures.append("component count bounds")

    # label monotonicity
    labels = [piecewise_rul(c, 200) for c in range(1, 201)]
    drops = all(
        b <= a and (a - b == 1 or a >= 130) for a, b in zip(labels, labels[1:])
    )
    if not drops or labels[-1] != 0:
        failures.append("label monotonicity")

    # forward equivalence of the two functional-layer evaluation orders
    model, batch = random_model_and_batch(555)
    z_fast = model.functional_layer(batch)
    for i, curves in enumerate(batch.curves):
        for k in range(model.n_functional):
            acc = model.b[k]
            for r in range(len(model.basis.sensors)):
                acc += discrete_integral(weight_curve(model, k, r), curves[r])
            if abs(z_fast[i, k] - 1.0 / (1.0 + np.exp(-acc))) > 1e-12:
                failures.append("forward equivalence")

    # monotone full-batch descent with halving on increase
    model, _ = random_model_and_batch(556)
    rng = seeded_rng(557)
    data = make_instances(
        rng.uniform(0, 1, size=(30, 3, 10)), rng.uniform(0, 130, 30)
    )
    lr, losses = 0.5, [loss(model, data)]
    for _ in range(20):
        grad = gradients(model, data)
        while True:
            trial = dataclasses.replace(model)
            trial.params -= lr * grad
            candidate = loss(trial, data)
            if candidate <= losses[-1] or lr < 1e-12:
                model = trial
                losses.append(candidate)
                break
            lr /= 2.0
    if not all(b <= a for a, b in zip(losses, losses[1:])):
        failures.append("descent monotonicity")

    # score asymmetry
    if not score([25.0]) > score([-25.0]):
        failures.append("score asymmetry")

    # serialization round trip on the desk-scale artifact
    reloaded = load_model(io.StringIO(json.dumps(pipeline_to_doc(fd001_pipeline)))).network
    if not (
        np.array_equal(reloaded.beta, network.beta)
        and np.array_equal(reloaded.a, network.a)
        and np.array_equal(
            reloaded.basis.sensors[0].components,
            network.basis.sensors[0].components,
        )
    ):
        failures.append("serialization round trip")

    check(
        8,
        "property suite",
        not failures,
        "all properties hold" if not failures else "; ".join(sorted(set(failures))),
    )
