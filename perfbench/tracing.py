"""Spans around the public functions of fmlp_rul, for the traced benchmark run.

Each public function is wrapped at every module attribute it is called
through (``cli.fit_basis`` and ``fpca.fit_basis`` share one wrapper), so a
call records exactly one span whichever path reaches it. A span holds its
name, start, end, parent span and the phase it ran in ("setup" or the pass
index). Spans stay in memory until the child writes them out at the end.

Counts are taken at the same boundaries, from the wrapped call's arguments
and result. A target or counter that a later version of the program no
longer has is skipped and listed in ``Tracer.missing``, so the benchmark
keeps running across refactors and the missing layer reads as zero.
"""

import inspect
import math
import os
import time
from collections import defaultdict


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _count_rows(counts, result, fn, args, kwargs):
    _add(counts, "cmapss.rows_parsed", sum(len(t.cycles) for t in result))


def _count_condition(counts, result, fn, args, kwargs):
    import numpy as np
    from fmlp_rul import preprocess

    arguments = _bound(fn, args, kwargs)
    train = arguments["train"]
    cfg = arguments.get("cfg") or preprocess.ConditionFitConfig()
    settings = np.concatenate([t.op_settings for t in train], axis=0)
    _add(counts, "preprocess.condition_rows", settings.shape[0])
    _add(counts, "preprocess.condition_epochs", cfg.epochs)
    counts["preprocess.distinct_setting_rows"] = np.unique(settings, axis=0).shape[0]


def _count_retained(counts, result, fn, args, kwargs):
    counts["preprocess.retained_sensors"] = len(_bound(fn, args, kwargs)["scaler"].retained)


def _count_windows(counts, result, fn, args, kwargs):
    _add(counts, "preprocess.windows", len(result))
    _count_retained(counts, result, fn, args, kwargs)


def _count_components(counts, result, fn, args, kwargs):
    counts["fpca.components"] = result.total_components


def _count_projected(counts, result, fn, args, kwargs):
    _add(counts, "fpca.projected_rows", result.shape[0])


def _count_training(counts, result, fn, args, kwargs):
    from fmlp_rul import fmlp

    arguments = _bound(fn, args, kwargs)
    cfg = arguments.get("cfg") or fmlp.TrainConfig()
    n = len(arguments["instances"])
    n_fit = n - int(round(cfg.val_fraction * n))
    epochs = len(result.trace)
    val = [row.val_mse for row in result.trace]
    best = epochs if None in val else val.index(min(val)) + 1
    _add(counts, "fmlp.epochs_run", epochs)
    _add(counts, "fmlp.steps", epochs * math.ceil(n_fit / cfg.batch_size))
    counts.setdefault("fmlp.best_epochs", []).append(best)


def _count_artifact(counts, result, fn, args, kwargs):
    stream = _bound(fn, args, kwargs)["stream"]
    counts["fmlp.artifact_bytes"] = os.fstat(stream.fileno()).st_size


def _count_engines(counts, result, fn, args, kwargs):
    counts["evaluate.engines"] = len(result.records)


# (span name, module attributes it is called through, counter)
SPANS = [
    ("cli.main", ["cli.main"], None),
    ("cmapss.load_subset", ["cli.load_subset", "cmapss.load_subset"], None),
    (
        "cmapss.parse_trajectory_file",
        ["cli.parse_trajectory_file", "cmapss.parse_trajectory_file"],
        _count_rows,
    ),
    ("preprocess.fit_preprocessing", ["cli.fit_preprocessing", "preprocess.fit_preprocessing"], None),
    ("preprocess.fit_condition_regressors", ["preprocess.fit_condition_regressors"], _count_condition),
    (
        "preprocess.transform_trajectory",
        ["cli.transform_trajectory", "preprocess.transform_trajectory"],
        None,
    ),
    (
        "preprocess.training_instances",
        ["cli.training_instances", "preprocess.training_instances"],
        _count_windows,
    ),
    ("preprocess.test_instances", ["cli.test_instances", "preprocess.test_instances"], _count_retained),
    ("fpca.fit_basis", ["cli.fit_basis", "fpca.fit_basis"], _count_components),
    ("fpca.project", ["fmlp.project", "fpca.project"], _count_projected),
    ("numerics.eigh", ["fpca.eigh", "numerics.eigh"], None),
    ("fmlp.train", ["fmlp.train"], _count_training),
    ("fmlp.predict", ["fmlp.FmlpModel.predict_many", "fmlp.FmlpModel.predict"], None),
    ("fmlp.load_model", ["fmlp.load_model"], _count_artifact),
    ("evaluate.build_report", ["evaluate.build_report"], _count_engines),
]


class Tracer:
    """Records spans and counts; ``phase`` is set by the caller per pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, phase]
        self.phase = "setup"
        self.counts = defaultdict(dict)
        self.missing = []
        self._stack = []

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.phase]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    counter(self.counts[self.phase], result, fn, args, kwargs)
                except (AttributeError, KeyError, TypeError, ValueError):
                    if f"{name} counts" not in self.missing:
                        self.missing.append(f"{name} counts")
            return result

        return traced

    def _count_bytes(self, fn):
        def counted(path, text, *args, **kwargs):
            _add(self.counts[self.phase], "cli.bytes_written", len(text.encode("utf-8")))
            return fn(path, text, *args, **kwargs)

        return counted

    def install(self):
        """Wrap every target in SPANS, plus a byte counter on cli.atomic_write."""
        from fmlp_rul import cli, cmapss, evaluate, fmlp, fpca, numerics, preprocess

        modules = {
            "cli": cli, "cmapss": cmapss, "evaluate": evaluate, "fmlp": fmlp,
            "fpca": fpca, "numerics": numerics, "preprocess": preprocess,
        }
        for name, paths, counter in SPANS:
            wrappers = {}
            for path in paths:
                module, *owners, attr = path.split(".")
                owner = modules[module]
                try:
                    for part in owners:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except AttributeError:
                    self.missing.append(path)
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, counter)
                setattr(owner, attr, wrappers[id(original)])
        if hasattr(cli, "atomic_write"):
            cli.atomic_write = self._count_bytes(cli.atomic_write)
        else:
            self.missing.append("cli.atomic_write")

    def summary(self):
        """Per phase: total, self time and call count per span name, and counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        phases = defaultdict(lambda: {"spans": {}, "counts": {}})
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            entry = phases[str(phase)]["spans"].setdefault(
                name, {"total_s": 0.0, "self_s": 0.0, "calls": 0}
            )
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
        for phase, counts in self.counts.items():
            phases[str(phase)]["counts"] = counts
        return dict(phases)
