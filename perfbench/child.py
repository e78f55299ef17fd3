"""One benchmark child: set up, then run passes of a workload until time is up.

Usage (started by perfbench/run.py, not by hand):

    python3 perfbench/child.py SPEC.json SPAWNED_MONOTONIC

The child imports fmlp_rul from the checkout, optionally wraps its public
functions in spans (``"trace": true``), performs the workload's set-up, and
then issues the workload's operations one after another (a closed loop with
one client) until ``seconds`` have passed; at least one pass always runs.
Each operation is timed from outside the program. The host-speed reference
loop (hostspeed.py) is timed after each operation and once a second during
it, so that every operation has reference samples right before, during and
right after it. Output checks run after each pass, outside the timed region. The result goes to the
JSON file named in the spec; nothing is printed to stdout.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed

# Relative tolerance for comparing two float routes to the same value
# (per-engine predict vs batched evaluate; report metrics vs recomputation).
REL_TOL = 1e-9


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _metrics(errors):
    """RMSE and the asymmetric score, recomputed independently of the program."""
    rmse = math.sqrt(sum(h * h for h in errors) / len(errors))
    score = sum(math.expm1(-h / 13.0) if h < 0 else math.expm1(h / 10.0) for h in errors)
    return rmse, score


def check_estimates(units, truths, estimates, rmse, score, t_cap):
    """Problems with one scored test set, as a list of messages."""
    capped = [min(float(t), float(t_cap)) for t in truths]
    if len(estimates) != len(capped):
        return [f"{len(estimates)} estimates for {len(capped)} test engines"]
    problems = []
    if list(units) != list(range(1, len(capped) + 1)):
        problems.append("report unit ids are not the test units in file order")
    if not all(math.isfinite(e) and e >= 0.0 for e in estimates):
        problems.append("an estimate is negative or not finite")
        return problems
    errors = [e - t for e, t in zip(estimates, capped)]
    want_rmse, want_score = _metrics(errors)
    if not (_close(rmse, want_rmse) and _close(score, want_score)):
        problems.append(
            f"reported rmse/score {rmse}/{score} != recomputed {want_rmse}/{want_score}"
        )
    mean = sum(capped) / len(capped)
    constant_rmse = math.sqrt(sum((t - mean) ** 2 for t in capped) / len(capped))
    if not rmse < constant_rmse:
        problems.append(f"rmse {rmse} does not beat a constant guess ({constant_rmse})")
    return problems


def extra_scoring(spec):
    """Whether to score again after the pass's own operations. The extra calls
    add samples of the short scoring operations without changing wall_s;
    traced children make none."""
    return not spec["trace"]


class Pass:
    """Timings, output digests and check results of one pass.

    The ops up to ``end_pass()`` are the pass itself, whose times add up to
    wall_s; later ops are extra samples. ``cal()`` times the reference loop
    and scales every op since the previous sample to reference speed, from
    the sample before it, the samples taken during it and this one.
    """

    def __init__(self, sampler, ref):
        self.sampler = sampler
        self.ops = []  # [name, seconds, ok, seconds at reference speed]
        self.refs = [ref]  # reference-loop samples between ops, oldest first
        self.op_refs = []  # per op: the samples taken during it
        self.unscaled = []  # op indices waiting for the next sample
        self.pass_ops = None
        self.digests = {}
        self.problems = []
        self.rmse = []
        self.score = []

    def op(self, name, fn, *args, **kwargs):
        with self.sampler:
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
                ok = not (isinstance(value, int) and not isinstance(value, bool) and value != 0)
            except Exception:  # a failed operation is counted, not fatal
                value, ok = None, False
                self.problems.append(f"{name} raised:\n{traceback.format_exc()}")
            seconds = time.perf_counter() - start - self.sampler.paused
        self.unscaled.append(len(self.ops))
        self.ops.append([name, seconds, ok, None])
        self.op_refs.append([self.refs[-1], *self.sampler.samples])
        if value is not None and not ok:
            self.problems.append(f"{name} exited with code {value}")
        return value

    def cal(self):
        self.refs.append(self.sampler.reference.sample())
        for i in self.unscaled:
            self.ops[i][3] = hostspeed.scale(self.ops[i][1], self.op_refs[i] + self.refs[-1:])
        self.unscaled = []

    def end_pass(self):
        self.pass_ops = len(self.ops)

    @property
    def ok(self):
        return not self.problems  # every failed operation also records a problem

    def to_doc(self):
        if self.unscaled:
            self.cal()
        own = self.ops[:self.pass_ops]
        return {
            "raw_wall_s": sum(o[1] for o in own), "wall_s": sum(o[3] for o in own),
            "ops": self.ops, "refs": self.refs, "op_refs": self.op_refs,
            "digests": self.digests,
            "problems": self.problems, "rmse": self.rmse, "score": self.score,
        }


class CliWorkload:
    """fit-fd002, serve-fd002 and the serve artifact build: CLI calls in process."""

    def __init__(self, spec, cfg):
        self.spec = spec
        self.cfg = cfg
        self.out = Path(spec["out_dir"])
        self.model = spec["model"]
        self.data = spec["data_root"]
        self.truths = [int(v) for v in Path(self.data, f"RUL_{spec['subset']}.txt").read_text().split()]

    def setup(self):
        from fmlp_rul import cli

        self.cli = cli
        common = ["--config", self.spec["config"], "--data-root", self.data,
                  "--subset", self.spec["subset"], "--out", str(self.out)]
        self.argv = {
            "train": ["train", *common],
            "evaluate": ["evaluate", *common, "--model", self.model],
            "predict": ["predict", "--model", self.model,
                        str(Path(self.data, f"test_{self.spec['subset']}.txt"))],
        }

    def _run_ops(self, result: Pass, names, printed):
        for name in names:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                value = result.op(name, self.cli.main, self.argv[name])
            result.cal()
            printed[name] = buffer.getvalue()
            if value != 0:
                return

    def run_pass(self, result: Pass, deadline):
        """The workload's ops; with ``fill`` > 0, then at least that many
        scoring rounds, and more until the deadline."""
        printed = {}
        self._run_ops(result, self.spec["ops"], printed)
        result.end_pass()
        scoring = [name for name in self.spec["ops"] if name != "train"]
        rounds = 0
        while (self.spec["fill"] and extra_scoring(self.spec) and result.ok
               and (rounds < self.spec["fill"] or time.monotonic() < deadline)):
            self._run_ops(result, scoring, printed)
            rounds += 1
        if result.ok:
            try:
                self.check(result, printed)
            except Exception:  # unreadable output is a failed check
                result.problems.append(f"output check raised:\n{traceback.format_exc()}")

    def check(self, result: Pass, printed):
        ops = self.spec["ops"]
        if "train" in ops:
            result.digests["artifact.json"] = _sha(Path(self.model).read_bytes())
        if "evaluate" not in ops:
            return
        report_json = (self.out / "report.json").read_bytes()
        result.digests["report.json"] = _sha(report_json)
        doc = json.loads(report_json)
        rows = [line.split(",") for line in (self.out / "report.csv").read_text().splitlines()[1:]]
        units = [int(r[0]) for r in rows]
        estimates = [float(r[2]) for r in rows]
        result.rmse.append(doc["rmse"])
        result.score.append(doc["score"])
        result.problems += check_estimates(
            units, self.truths, estimates, doc["rmse"], doc["score"], self.cfg.t_cap
        )
        if "predict" in ops:
            text = printed["predict"]
            result.digests["predict.csv"] = _sha(text.encode("utf-8"))
            lines = text.splitlines()
            predicted = [line.split(",") for line in lines[1:]]
            if lines[:1] != ["unit_id,estimated_rul"] or [int(p[0]) for p in predicted] != units:
                result.problems.append("predict output does not list the test units")
            elif not all(_close(float(p[1]), e) for p, e in zip(predicted, estimates)):
                result.problems.append("predict estimates differ from evaluate's")


class SweepWorkload:
    """sweep-fd001: fit preprocessing and basis once, then train several seeds."""

    def __init__(self, spec, cfg):
        self.spec = spec
        self.cfg = cfg

    def setup(self):
        from fmlp_rul import cmapss, evaluate, fmlp, fpca, preprocess

        self.evaluate, self.fmlp = evaluate, fmlp
        cfg = self.cfg
        subset = cmapss.load_subset(self.spec["data_root"], self.spec["subset"])
        condition_model, scaler = preprocess.fit_preprocessing(
            subset.train, cfg.condition_config()
        )
        self.instances = preprocess.training_instances(subset, condition_model, scaler, cfg.t_cap)
        self.tests = preprocess.test_instances(subset, condition_model, scaler)
        self.basis = fpca.fit_basis(
            self.instances, sensor_ids=scaler.sensor_ids,
            fve_cutoff=cfg.fve_cutoff, component_cap=cfg.component_cap,
        )
        self.truths = subset.test_rul
        self.units = [t.unit_id for t in subset.test]
        self.train_configs = [
            dataclasses.replace(cfg.train_config(), seed=s) for s in self.spec["train_seeds"]
        ]

    def _score(self, result: Pass, model):
        estimates = result.op("predict", model.predict_many, self.tests)
        if estimates is None:
            return None
        report = result.op(
            "report", self.evaluate.build_report, estimates, self.truths,
            unit_ids=self.units, subset_id=self.spec["subset"], t_cap=int(model.label_scale),
        )
        return None if report is None else (estimates, report)

    def run_pass(self, result: Pass, deadline):
        """Train and score each seed; then score each model score_repeats more times."""
        scored = []
        for train_cfg in self.train_configs:
            trained = result.op(
                "train", self.fmlp.train, self.instances, self.basis, train_cfg,
                label_scale=float(self.cfg.t_cap),
            )
            result.cal()
            scoring = trained and self._score(result, trained.model)
            result.cal()
            if not scoring:
                break
            scored.append((train_cfg.seed, trained.model, *scoring))
        result.end_pass()
        if extra_scoring(self.spec):
            for _, model, _, _ in scored:
                for _ in range(self.spec["score_repeats"]):
                    if result.ok:
                        self._score(result, model)
                result.cal()
        if not result.ok:
            return
        for seed, model, estimates, report in scored:
            model_doc = json.dumps(self.fmlp.model_to_doc(model), indent=1)
            report_doc = json.dumps(self.evaluate.report_to_doc(report), indent=1)
            result.digests[f"model-{seed}"] = _sha(model_doc.encode("utf-8"))
            result.digests[f"report-{seed}"] = _sha(report_doc.encode("utf-8"))
            result.rmse.append(report.rmse)
            result.score.append(report.score)
            result.problems += check_estimates(
                [r.unit_id for r in report.records], self.truths,
                [float(e) for e in estimates], report.rmse, report.score, self.cfg.t_cap,
            )


def main(argv):
    spec = json.loads(Path(argv[1]).read_text())
    spawned = float(argv[2])
    sampler = hostspeed.Sampler(hostspeed.Reference(), enabled=not spec["trace"])
    tracer = None
    with sampler:
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        import fmlp_rul
        from fmlp_rul import cli

        if Path(spec["root"]).resolve() not in Path(fmlp_rul.__file__).resolve().parents:
            raise SystemExit(f"fmlp_rul imported from {fmlp_rul.__file__}, outside the checkout")
        cfg = cli.load_config(spec["config"], {})
        workload = (SweepWorkload if spec["kind"] == "sweep" else CliWorkload)(spec, cfg)
        doc = {"config": dataclasses.asdict(cfg), "passes": [], "setup_error": None}
        try:
            workload.setup()
        except Exception:  # reported to the parent as a failed set-up
            doc["setup_error"] = traceback.format_exc()
        doc["raw_setup_s"] = time.monotonic() - spawned - sampler.paused
    ref = sampler.reference.sample()
    doc["setup_refs_s"] = sampler.samples + [ref]

    if doc["setup_error"] is None and not spec["setup_only"]:
        deadline = time.monotonic() + spec["seconds"]
        while True:
            if tracer is not None:
                tracer.phase = len(doc["passes"])
            result = Pass(sampler, ref)
            workload.run_pass(result, deadline)
            doc["passes"].append(result.to_doc())
            ref = result.refs[-1]
            if not result.ok or time.monotonic() >= deadline:
                break

    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        doc["trace"] = {"phases": tracer.summary(), "missing": tracer.missing}
        Path(spec["spans_path"]).write_text(json.dumps(tracer.spans))
    Path(spec["result_path"]).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
