"""RMSE, the asymmetric score, and comparison reports against published
baseline numbers.

The error convention is h = estimate - truth. The score penalizes
over-estimates (denominator 10) more than under-estimates (denominator 13).
True test RULs are capped at the training label cap before metrics are
computed; every emitted report carries the cap so the convention is
visible.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cmapss import SUBSET_IDS
from .errors import NumericError
from .preprocess import DEFAULT_RUL_CAP


class Published(NamedTuple):
    """One method's published results on FD001..FD004, in SUBSET_IDS order.
    score is None where the paper gives no score."""

    citation: str
    rmse: tuple[float, float, float, float]
    score: tuple[float, float, float, float] | None


# Published results of prior methods (baseline version 1; RMSE and score
# tables from the comparison papers), then the FMLP paper's own row, kept for
# side-by-side display (not a gate and not a baseline).
BASELINES_VERSION = 1
PUBLISHED = {
    "MLP": Published("Babu et al. 2016", (37.56, 80.03, 37.39, 77.37), (1.8e4, 7.8e6, 1.7e4, 5.6e6)),
    "SVR": Published("Babu et al. 2016", (20.96, 42.00, 21.05, 45.35), (1.4e3, 5.9e5, 1.6e3, 3.7e5)),
    "RVR": Published("Babu et al. 2016", (23.80, 31.30, 22.37, 34.34), (1.5e3, 1.7e4, 1.4e3, 2.7e4)),
    "CNN": Published("Babu et al. 2016", (18.45, 30.29, 19.82, 29.16), (1.3e3, 1.4e4, 1.6e3, 7.9e3)),
    "DW-RNN": Published("Aggarwal et al. 2018", (22.52, 25.90, 18.75, 24.44), None),
    "MTL-RNN": Published("Aggarwal et al. 2018", (21.47, 25.78, 17.98, 22.82), None),
    "LSTMBS": Published("Liao et al. 2018", (14.89, 26.86, 15.11, 27.11), (4.8e2, 8.0e3, 4.9e2, 5.2e3)),
    "LSTM": Published("Zheng et al. 2017", (16.14, 24.49, 16.18, 28.17), (3.4e2, 4.5e3, 8.5e2, 5.6e3)),
    "FMLP": Published("Wang et al. 2019", (13.36, 16.62, 12.74, 17.76), (2.0e2, 9.0e2, 1.8e2, 1.0e3)),
}

# The baseline the headline improvement is computed against; it has a score.
REFERENCE_BASELINE = "LSTM"


def _metric(name: str, errors, f) -> float:
    """f(h) on the per-engine errors h; NumericError if it overflows."""
    h = np.asarray(errors, dtype=np.float64)
    if h.size == 0:
        raise ValueError("no errors to aggregate")
    with np.errstate(over="ignore"):  # checked below
        value = float(f(h))
    if not np.isfinite(value):
        raise NumericError(f"{name} overflows: an error of {np.max(np.abs(h))} cycles")
    return value


def rmse(errors) -> float:
    """Root mean squared error of per-engine errors h."""
    return _metric("RMSE", errors, lambda h: np.sqrt(np.mean(h**2)))


def score(errors) -> float:
    """Asymmetric exponential score: sum of e^{-h/13}-1 for h < 0 and
    e^{h/10}-1 for h >= 0."""
    return _metric(
        "score", errors, lambda h: np.sum(np.where(h < 0, np.expm1(-h / 13.0), np.expm1(h / 10.0)))
    )


def improvement(fmlp_metric: float, baseline_metric: float) -> float:
    """Fractional improvement 1 - fmlp/baseline (positive is better)."""
    if baseline_metric <= 0:
        raise ValueError("baseline metric must be positive")
    return 1.0 - fmlp_metric / baseline_metric


@dataclass(slots=True)
class EngineRecord:
    unit_id: int
    true_rul: float
    estimated_rul: float

    @property
    def error(self) -> float:
        return self.estimated_rul - self.true_rul


@dataclass
class EvalReport:
    """Per-engine errors; the aggregate metrics and the baseline
    comparisons are derived from them."""

    subset_id: str
    records: list[EngineRecord]
    t_cap: int

    def __post_init__(self):
        if self.subset_id not in SUBSET_IDS:
            raise ValueError(f"subset_id is {self.subset_id!r}, expected one of {SUBSET_IDS}")

    @property
    def rmse(self) -> float:
        return rmse([r.error for r in self.records])

    @property
    def score(self) -> float:
        return score([r.error for r in self.records])

    def published(self, name: str) -> tuple[float, float | None]:
        """Method name's published RMSE and score (None if none) on this subset."""
        row, i = PUBLISHED[name], SUBSET_IDS.index(self.subset_id)
        return row.rmse[i], None if row.score is None else row.score[i]

    @property
    def baselines(self) -> dict:
        """Baseline name -> {"citation", "rmse", "imp_rmse"[, "score", "imp_score"]}."""
        own_rmse, own_score = self.rmse, self.score
        baselines = {}
        for name in PUBLISHED:
            if name == "FMLP":  # the paper's own row, not a baseline
                continue
            rmse_, score_ = self.published(name)
            entry = {
                "citation": PUBLISHED[name].citation,
                "rmse": rmse_,
                "imp_rmse": improvement(own_rmse, rmse_),
            }
            if score_ is not None:
                entry["score"] = score_
                entry["imp_score"] = improvement(own_score, score_)
            baselines[name] = entry
        return baselines


def build_report(
    predictions,
    truths,
    unit_ids=None,
    *,
    subset_id: str,
    t_cap: int = DEFAULT_RUL_CAP,
) -> EvalReport:
    """Assemble an EvalReport from one prediction, truth and unit id (default
    1..N) per engine, each given as a sequence or an array.

    Truths are capped at t_cap before metrics. The subset, one of SUBSET_IDS,
    selects the published baseline table the report compares against.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.minimum(np.asarray(truths, dtype=np.float64), float(t_cap))
    if predictions.ndim != 1 or predictions.shape != truths.shape:
        raise ValueError(f"{predictions.shape} predictions for {truths.shape} true values")
    n = len(predictions)
    unit_ids = range(1, n + 1) if unit_ids is None else list(map(int, unit_ids))
    if len(unit_ids) != n:
        raise ValueError(f"{len(unit_ids)} unit ids for {n} predictions")
    if not n:
        raise ValueError("no errors to aggregate")
    records = list(map(EngineRecord, unit_ids, truths.tolist(), predictions.tolist()))
    return EvalReport(subset_id=subset_id, records=records, t_cap=t_cap)


def report_to_csv(report: EvalReport) -> str:
    """Per-engine rows: unit_id,true,est,h."""
    lines = ["unit_id,true_rul,estimated_rul,error"]
    for r in report.records:
        lines.append(f"{r.unit_id},{r.true_rul!r},{r.estimated_rul!r},{r.error!r}")
    return "\n".join(lines) + "\n"


def report_to_doc(report: EvalReport) -> dict:
    """JSON-ready summary (metrics, baseline table, improvement values)."""
    pub_rmse, pub_score = report.published("FMLP")
    return {
        "subset_id": report.subset_id,
        "n_engines": len(report.records),
        "rmse": report.rmse,
        "score": report.score,
        "true_rul_cap": report.t_cap,
        "baselines_version": BASELINES_VERSION,
        "baselines": report.baselines,
        "published_fmlp": {"rmse": pub_rmse, "score": pub_score},
    }


def format_comparison_table(report: EvalReport) -> str:
    """Human-readable table of this run against the published baselines."""
    lines = [
        f"subset {report.subset_id}: {len(report.records)} engines,"
        f" true RUL capped at {report.t_cap}",
        f"{'model':<10} {'RMSE':>10} {'score':>12} {'IMP(RMSE)':>10} {'IMP(score)':>11}",
    ]
    baselines = report.baselines
    for name, entry in baselines.items():
        score_text, imp_s = "-", "-"
        if "score" in entry:
            score_text, imp_s = f"{entry['score']:.4g}", f"{entry['imp_score'] * 100:.2f}%"
        lines.append(
            f"{name:<10} {entry['rmse']:>10.2f} {score_text:>12}"
            f" {entry['imp_rmse'] * 100:>9.2f}% {imp_s:>11}"
        )
    pub_rmse, pub_score = report.published("FMLP")
    lines.append(f"{'FMLP(run)':<10} {report.rmse:>10.2f} {report.score:>12.4g} {'':>10} {'':>11}")
    lines.append(f"{'FMLP(pub)':<10} {pub_rmse:>10.2f} {pub_score:>12.4g} {'':>10} {'':>11}")
    ref = baselines[REFERENCE_BASELINE]
    lines.append(
        f"improvement over {REFERENCE_BASELINE}: RMSE {ref['imp_rmse'] * 100:.2f}%,"
        f" score {ref['imp_score'] * 100:.2f}%"
    )
    return "\n".join(lines)
