#!/usr/bin/env python3
"""Pipeline benchmark for fmlp-rul: fit, seed-sweep and serve workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fit-fd002 --seed 7 --seconds 12 --trace 0

The run builds its inputs from ``--seed`` with tests/cmapss_synth.py, then
starts fresh child processes (perfbench/child.py) that import fmlp_rul from
src/ and issue the workload's operations one after another (a closed loop,
one client) for ``--seconds``. ``--trace 0`` reports the end-to-end metrics,
with every time scaled to reference host speed (see perfbench/hostspeed.py);
``--trace 1`` runs an untraced and a traced child for half the time each and
reports the per-layer metrics, in raw seconds. Every output is checked; the
last line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, and the exit code is 0 only when every operation and check
passed. See perfbench/README.md for the workloads, metrics and the recorded
baseline.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REQUIRED = ("src/fmlp_rul/__init__.py", "tests/cmapss_synth.py")

BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0
DEFAULT_SEED = 7
HELD_OUT_SEED = 1904

# Every workload trains with the CLI defaults except patience. At the reduced
# engine counts below, early stopping fires on the initial loss plateau for
# about a third of seeds (measured: 2 of 6 seeds at 20 FD002 engines stopped
# at epoch 28 with RMSE near 40), which the published-size corpora never do;
# with patience at the epoch budget every seed runs the 300 epochs that the
# full-size runs do, so work per model does not depend on the seed.
CONFIG = {"patience": 300}

# Sizes are engine counts passed to cmapss_synth.generate_subset. Fewer than
# 20 training engines gives under-trained models whose RMSE swings with the
# seed; the sweep's FD001 test set is four times the published 100 engines
# for the same reason. setup_samples is the number of fresh children whose
# set-up time is measured. The short scoring operations get more samples than
# passes give: a CLI workload with fill scores again after its pass, at least
# fill times and then until the time is up; the sweep scores each model
# score_repeats more times after each pass.
FIT_CORPUS = {"subset": "FD002", "train_engines": 20, "test_engines": 259}
WORKLOADS = {
    "fit-fd002": {
        "kind": "cli", **FIT_CORPUS, "ops": ["train", "evaluate", "predict"],
        "setup_samples": 3, "fill": 4,
    },
    "sweep-fd001": {
        "kind": "sweep", "subset": "FD001", "train_engines": 20, "test_engines": 400,
        "train_seeds": 2, "setup_samples": 3, "score_repeats": 20,
    },
    "serve-fd002": {
        "kind": "cli", "subset": "FD002", "train_engines": 260, "test_engines": 259,
        "ops": ["evaluate", "predict"], "artifact_corpus": FIT_CORPUS, "setup_samples": 3,
        "fill": 0,
    },
}

# Per-layer counts that describe a property rather than accumulate.
LEVEL_COUNTS = {
    "preprocess.distinct_setting_rows", "preprocess.retained_sensors",
    "fpca.components", "fmlp.artifact_bytes", "evaluate.engines",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest(root: Path, numpy_version: str) -> str:
    """Identity of the code under test, for cross-run output comparison."""
    h = hashlib.sha256(f"{numpy_version} {platform.python_version()} {BLAS_THREADS}".encode())
    files = sorted((root / "src").rglob("*.py")) + [root / "tests/cmapss_synth.py"]
    files += sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision(root: Path):
    if not (root / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() or None


def machine_record(root: Path, np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": min(BLAS_THREADS, os.cpu_count()),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_revision": git_revision(root),
    }


def generate(directory: Path, subset, seed, train_engines, test_engines):
    """Write one synthetic corpus and describe it."""
    import numpy as np
    from cmapss_synth import generate_subset
    from fmlp_rul.cmapss import WINDOW_LENGTHS

    blobs = generate_subset(subset, seed, n_train=train_engines, n_test=test_engines)
    directory.mkdir(parents=True)
    for kind, prefix in (("train", "train"), ("test", "test"), ("rul", "RUL")):
        (directory / f"{prefix}_{subset}.txt").write_text(blobs[kind])
    train = np.array(blobs["train"].split(), dtype=np.float64).reshape(-1, 26)
    test_rows = len(blobs["test"].split()) // 26
    _, lengths = np.unique(train[:, 0], return_counts=True)
    return {
        "subset": subset,
        "corpus_seed": seed,
        "train_engines": train_engines,
        "test_engines": test_engines,
        "train_rows": int(train.shape[0]),
        "test_rows": test_rows,
        "windows": int(np.maximum(lengths - WINDOW_LENGTHS[subset] + 1, 0).sum()),
        "distinct_setting_rows": int(np.unique(train[:, 2:5], axis=0).shape[0]),
    }


class Run:
    """One invocation: spawns children, collects their passes, checks outputs."""

    def __init__(self, root: Path, run_dir: Path, args):
        import hostspeed

        self.root, self.run_dir, self.args = root, run_dir, args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.children = 0
        self.log = []  # per child: role, set-up time, pass walls and op times
        self.reference = hostspeed.Reference()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def child(self, spec, **overrides):
        """Run one child to completion; returns its result document or None."""
        import hostspeed

        self.children += 1
        tag = f"child{self.children}"
        spans = self.root / ".perfbench" / "results" / f"{self.args.workload}-{self.args.seed}-spans.json"
        spec = dict(spec, **overrides, root=str(self.root),
                    result_path=str(self.run_dir / f"{tag}.result.json"), spans_path=str(spans))
        spec_path = self.run_dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            self.attempted += 1
            self.fail(f"{tag}: no time left to start it")
            return None
        command = [sys.executable, str(HERE / "child.py"), str(spec_path)]
        before = self.reference.sample()
        proc = subprocess.Popen(
            command + [repr(time.monotonic())], cwd=self.root, env=self.env,
            stdout=subprocess.DEVNULL,
        )
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            code = "killed at the run time limit"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        result_path = Path(spec["result_path"])
        if code != 0 or not result_path.is_file():
            self.attempted += 1
            self.fail(f"{tag} ({spec['workload']}) exited with code {code}")
            return None
        doc = json.loads(result_path.read_text())
        doc["setup_s"] = hostspeed.scale(doc["raw_setup_s"], [before, *doc["setup_refs_s"]])
        self.log.append({
            "child": tag, "workload": spec["workload"], "setup_only": spec["setup_only"],
            "trace": spec["trace"], "setup_s": doc["setup_s"], "raw_setup_s": doc["raw_setup_s"],
            "setup_refs_s": [before, *doc["setup_refs_s"]], "peak_rss_mb": doc["peak_rss_mb"],
            "passes": [{k: p[k] for k in ("wall_s", "raw_wall_s", "ops", "refs", "op_refs")}
                       for p in doc["passes"]],
        })
        self.attempted += 1  # the set-up
        if doc["setup_error"]:
            self.fail(f"{tag} set-up failed:\n{doc['setup_error']}")
        for p in doc["passes"]:
            self.attempted += len(p["ops"])
            bad_ops = sum(1 for _, _, ok, _ in p["ops"] if not ok)
            self.failed += bad_ops
            if p["problems"]:
                self.problems += [f"{tag}: {m}" for m in p["problems"]]
                if not bad_ops:
                    self.failed += 1
        return doc


def check_repeatability(run: Run, passes, state_dir: Path, digest: str, keys):
    """Outputs must be identical across passes of this run and earlier runs of
    the same code at the same seed (stored under .perfbench/digests/)."""
    seen = {}
    for p in passes:
        if p["problems"]:
            continue
        values = dict(p["digests"], rmse=p["rmse"], score=p["score"])
        for name, value in values.items():
            if value == []:
                continue
            key = keys.get(name, f"{run.args.workload}/{run.args.seed}/{name}")
            if key in seen and seen[key] != value:
                run.fail(f"{name} differs between passes of one run")
            seen.setdefault(key, value)
    store_path = state_dir / "digests" / f"{digest}.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    for key, value in seen.items():
        if key in store and store[key] != value:
            run.fail(f"{key} differs from an earlier run of the same code and seed")
        store.setdefault(key, value)
    store_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)


def op_seconds(passes, name, column):
    return [op[column] for p in passes for op in p["ops"] if op[0] == name and op[2]]


def time_samples(w, setup_docs, main, build, raw):
    """Samples of each end-to-end time metric, at reference speed or, with
    ``raw``, as measured."""
    passes = main["passes"] if main else []
    prefix, column = ("raw_", 1) if raw else ("", 3)
    samples = {
        "setup_s": [d[prefix + "setup_s"] for d in setup_docs],
        "wall_s": [p[prefix + "wall_s"] for p in passes if not p["problems"]],
    }
    if w["kind"] == "sweep":
        samples["train_s"] = op_seconds(passes, "train", column)
        samples["predict_s"] = op_seconds(passes, "predict", column)
        samples["evaluate_s"] = [
            a + b for a, b in zip(samples["predict_s"], op_seconds(passes, "report", column))]
    else:
        samples["train_s"] = op_seconds(build["passes"] if build else passes, "train", column)
        samples["evaluate_s"] = op_seconds(passes, "evaluate", column)
        samples["predict_s"] = op_seconds(passes, "predict", column)
    return samples


def end_to_end(run: Run, w, setup_docs, main, build):
    passes = main["passes"] if main else []
    metrics = {}

    def put(name, values, unit):
        if values:
            metrics[name] = {"value": statistics.median(values), "unit": unit}

    for name, values in time_samples(w, setup_docs, main, build, raw=False).items():
        put(name, values, "s")
    if main:
        put("peak_rss_mb", [main["peak_rss_mb"]], "MB")
    if passes and passes[0]["rmse"]:
        put("rmse", passes[0]["rmse"], "cycles")
    ok = (run.attempted - run.failed) / run.attempted if run.attempted else 0.0
    put("ok_ratio", [max(ok, 0.0)], "ratio")
    return metrics


def merge_phases(summary, pass_index):
    """Set-up phase plus one pass, as one span/count table."""
    merged = {"spans": {}, "counts": {}}
    for phase in ("setup", str(pass_index)):
        part = summary.get(phase, {"spans": {}, "counts": {}})
        for name, entry in part["spans"].items():
            into = merged["spans"].setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            for key in into:
                into[key] += entry[key]
        for key, value in part["counts"].items():
            if isinstance(value, list):
                merged["counts"].setdefault(key, []).extend(value)
            elif key in LEVEL_COUNTS:
                merged["counts"][key] = max(merged["counts"].get(key, 0), value)
            else:
                merged["counts"][key] = merged["counts"].get(key, 0) + value
    return merged


def per_layer(merged, overhead):
    spans, counts = merged["spans"], merged["counts"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    calls_eigh = spans.get("numerics.eigh", {}).get("calls", 0)
    best = counts.get("fmlp.best_epochs", [])
    values = {
        "cmapss.load_subset_s": (total("cmapss.load_subset"), "s"),
        "cmapss.parse_trajectory_file_s": (total("cmapss.parse_trajectory_file"), "s"),
        "cmapss.rows_parsed": (counts.get("cmapss.rows_parsed", 0), "count"),
        "cmapss.rows_per_s": (
            ratio(counts.get("cmapss.rows_parsed", 0), total("cmapss.parse_trajectory_file")),
            "rows/s",
        ),
        "preprocess.fit_condition_regressors_s": (total("preprocess.fit_condition_regressors"), "s"),
        "preprocess.condition_epoch_ms": (
            1000 * ratio(total("preprocess.fit_condition_regressors"),
                         counts.get("preprocess.condition_epochs", 0)),
            "ms",
        ),
        "preprocess.condition_rows": (counts.get("preprocess.condition_rows", 0), "count"),
        "preprocess.distinct_setting_rows": (
            counts.get("preprocess.distinct_setting_rows", 0), "count"),
        "preprocess.transform_s": (total("preprocess.transform_trajectory"), "s"),
        "preprocess.training_instances_s": (total("preprocess.training_instances"), "s"),
        "preprocess.windows": (counts.get("preprocess.windows", 0), "count"),
        "preprocess.test_instances_s": (total("preprocess.test_instances"), "s"),
        "preprocess.retained_sensors": (counts.get("preprocess.retained_sensors", 0), "count"),
        "fpca.fit_basis_s": (total("fpca.fit_basis"), "s"),
        "fpca.components": (counts.get("fpca.components", 0), "count"),
        "fpca.project_s": (total("fpca.project"), "s"),
        "fpca.projected_rows": (counts.get("fpca.projected_rows", 0), "count"),
        "numerics.eigh_calls": (calls_eigh, "count"),
        "numerics.eigh_ms": (1000 * ratio(total("numerics.eigh"), calls_eigh), "ms"),
        "fmlp.train_s": (total("fmlp.train"), "s"),
        "fmlp.epochs_run": (counts.get("fmlp.epochs_run", 0), "count"),
        "fmlp.best_epoch": (statistics.median(best) if best else 0, "count"),
        "fmlp.steps": (counts.get("fmlp.steps", 0), "count"),
        "fmlp.step_us": (1e6 * ratio(total("fmlp.train"), counts.get("fmlp.steps", 0)), "us"),
        "fmlp.predict_s": (total("fmlp.predict"), "s"),
        "fmlp.load_model_s": (total("fmlp.load_model"), "s"),
        "fmlp.artifact_bytes": (counts.get("fmlp.artifact_bytes", 0), "bytes"),
        "evaluate.build_report_s": (total("evaluate.build_report"), "s"),
        "evaluate.engines": (counts.get("evaluate.engines", 0), "count"),
        "cli.self_s": (spans.get("cli.main", {}).get("self_s", 0.0), "s"),
        "cli.bytes_written": (counts.get("cli.bytes_written", 0), "bytes"),
        "trace.overhead_s": (overhead, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def traced_report(run: Run, untraced, traced):
    """Per-layer metrics from the median traced pass, plus the accounting check."""
    walls = [p["raw_wall_s"] for p in traced["passes"]]
    overhead = statistics.median(walls) - statistics.median(
        [p["raw_wall_s"] for p in untraced["passes"]])
    summary = traced["trace"]["phases"]
    for i, p in enumerate(traced["passes"]):
        accounted = sum(e["self_s"] for e in summary.get(str(i), {"spans": {}})["spans"].values())
        gap = p["raw_wall_s"] - accounted
        if abs(gap) > max(abs(overhead), 0.01 * p["raw_wall_s"]):
            run.fail(f"traced pass {i}: self times account for {accounted:.4f} s "
                     f"of {p['raw_wall_s']:.4f} s (overhead {overhead:.4f} s)")
    median_pass = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
    merged = merge_phases(summary, median_pass)
    lines = [f"traced pass {median_pass} wall {walls[median_pass]:.4f} s, untraced median "
             f"{walls[median_pass] - overhead:.4f} s; per-layer values include set-up",
             f"{'span':<40}{'calls':>8}{'total_s':>12}{'self_s':>12}"]
    for name, e in sorted(merged["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<40}{e['calls']:>8}{e['total_s']:>12.4f}{e['self_s']:>12.4f}")
    if traced["trace"]["missing"]:
        lines.append("not traced (absent in this version): " + ", ".join(traced["trace"]["missing"]))
    return per_layer(merged, overhead), merged, lines


def run_benchmark(root: Path, run_dir: Path, args):
    import hostspeed
    import numpy as np

    w = WORKLOADS[args.workload]
    run = Run(root, run_dir, args)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(CONFIG))
    data = run_dir / "data"
    record = {
        "workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds, "trace": args.trace,
        "machine": machine_record(root, np),
        "input": generate(data, w["subset"], args.seed, w["train_engines"], w["test_engines"]),
    }
    digest = source_digest(root, np.__version__)
    record["source_digest"] = digest
    spec = {
        "workload": args.workload, "kind": w["kind"], "subset": w["subset"],
        "data_root": str(data), "config": str(config_path), "out_dir": str(run_dir / "out"),
        "model": str(run_dir / "out" / "artifact.json"), "ops": w.get("ops", []),
        "train_seeds": [args.seed * 100 + i for i in range(w.get("train_seeds", 0))],
        "seconds": args.seconds, "trace": False, "setup_only": False,
        "score_repeats": w.get("score_repeats", 0), "fill": w.get("fill", 0),
    }
    # fit-fd002 and the serve artifact build train on the same corpus, so they
    # share one artifact digest per seed.
    corpus = w.get("artifact_corpus", w)
    keys = {"artifact.json": "artifact/{subset}-{train_engines}-{test_engines}/".format(**corpus)
            + str(args.seed)}

    build = None
    if "artifact_corpus" in w:
        record["artifact_input"] = generate(
            run_dir / "artifact_data", corpus["subset"], args.seed,
            corpus["train_engines"], corpus["test_engines"])
        build = run.child(spec, workload=f"{args.workload} artifact build",
                          data_root=str(run_dir / "artifact_data"),
                          out_dir=str(run_dir / "artifact"),
                          model=str(run_dir / "artifact" / "artifact.json"),
                          ops=["train"], seconds=0)
        spec["model"] = str(run_dir / "artifact" / "artifact.json")
        if build is None or not build["passes"] or build["passes"][0]["problems"]:
            return run, record, {}, []

    checked = [build] if build else []
    if args.trace == 0:
        setup_docs = [run.child(spec, setup_only=True) for _ in range(w["setup_samples"] - 1)]
        main = run.child(spec)
        setup_docs.append(main)
        checked.append(main)
    else:
        untraced = run.child(spec, seconds=args.seconds / 2)
        traced = run.child(spec, seconds=args.seconds / 2, trace=True)
        checked += [untraced, traced]
    checked = [d for d in checked if d]
    check_repeatability(run, [p for d in checked for p in d["passes"]],
                        root / ".perfbench", digest, keys)
    record["config"] = checked[-1]["config"] if checked else None
    scored = [p for d in checked for p in d["passes"] if p["rmse"]]
    if scored:
        record["accuracy"] = {"rmse": statistics.median(scored[0]["rmse"]), "rmse_unit": "cycles",
                              "score": statistics.median(scored[0]["score"]), "score_unit": "score"}
    if args.trace == 0:
        setup_docs = [d for d in setup_docs if d]
        record["host"] = {
            "reference_s": hostspeed.REFERENCE_S,
            "median_reference_s": statistics.median(
                [r for d in checked for p in d["passes"] for r in p["refs"]] or [0.0]),
            "raw": {name: statistics.median(values) for name, values
                    in time_samples(w, setup_docs, main, build, raw=True).items() if values},
        }
        return run, record, end_to_end(run, w, setup_docs, main, build), []
    if not (untraced and traced and untraced["passes"] and traced["passes"]):
        return run, record, {}, []
    metrics, merged, lines = traced_report(run, untraced, traced)
    record["trace"] = {"merged": merged, "phases": traced["trace"]["phases"]}
    return run, record, metrics, lines


def main(argv=None):
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if not (args.seconds >= 0 and math.isfinite(args.seconds)):
        print("error: --seconds must be a non-negative number", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    for var in BLAS_VARS:  # before numpy loads, here and in every child
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count()))
    compileall.compile_dir(root / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    state = root / ".perfbench"
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    run_dir = state / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        run, record, metrics, lines = run_benchmark(root, run_dir, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = run.failed == 0 and not run.problems and bool(metrics)
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    (results / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result, "children": run.log,
                    "problems": run.problems}, indent=1))
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "trace"}}))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
