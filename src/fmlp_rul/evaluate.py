"""RMSE, the asymmetric score, and comparison reports against published
baseline numbers.

The error convention is h = estimate - truth. The score penalizes
over-estimates (denominator 10) more than under-estimates (denominator 13).
True test RULs are capped at the training label cap before metrics are
computed; every emitted report carries the cap so the convention is
visible.
"""

from dataclasses import dataclass

import numpy as np

from .cmapss import SUBSET_IDS
from .errors import NumericError
from .preprocess import DEFAULT_RUL_CAP

# Published metric values for prior methods on the four subsets
# (baseline version 1; RMSE and score tables from the comparison papers).
BASELINES_VERSION = 1

BASELINE_RMSE = {
    "MLP": {"FD001": 37.56, "FD002": 80.03, "FD003": 37.39, "FD004": 77.37},
    "SVR": {"FD001": 20.96, "FD002": 42.00, "FD003": 21.05, "FD004": 45.35},
    "RVR": {"FD001": 23.80, "FD002": 31.30, "FD003": 22.37, "FD004": 34.34},
    "CNN": {"FD001": 18.45, "FD002": 30.29, "FD003": 19.82, "FD004": 29.16},
    "DW-RNN": {"FD001": 22.52, "FD002": 25.90, "FD003": 18.75, "FD004": 24.44},
    "MTL-RNN": {"FD001": 21.47, "FD002": 25.78, "FD003": 17.98, "FD004": 22.82},
    "LSTMBS": {"FD001": 14.89, "FD002": 26.86, "FD003": 15.11, "FD004": 27.11},
    "LSTM": {"FD001": 16.14, "FD002": 24.49, "FD003": 16.18, "FD004": 28.17},
}

BASELINE_SCORE = {
    "MLP": {"FD001": 1.8e4, "FD002": 7.8e6, "FD003": 1.7e4, "FD004": 5.6e6},
    "SVR": {"FD001": 1.4e3, "FD002": 5.9e5, "FD003": 1.6e3, "FD004": 3.7e5},
    "RVR": {"FD001": 1.5e3, "FD002": 1.7e4, "FD003": 1.4e3, "FD004": 2.7e4},
    "CNN": {"FD001": 1.3e3, "FD002": 1.4e4, "FD003": 1.6e3, "FD004": 7.9e3},
    "LSTMBS": {"FD001": 4.8e2, "FD002": 8.0e3, "FD003": 4.9e2, "FD004": 5.2e3},
    "LSTM": {"FD001": 3.4e2, "FD002": 4.5e3, "FD003": 8.5e2, "FD004": 5.6e3},
}

# Published FMLP results, kept for side-by-side display (not a gate).
PUBLISHED_FMLP_RMSE = {"FD001": 13.36, "FD002": 16.62, "FD003": 12.74, "FD004": 17.76}
PUBLISHED_FMLP_SCORE = {"FD001": 2.0e2, "FD002": 9.0e2, "FD003": 1.8e2, "FD004": 1.0e3}

BASELINE_CITATIONS = {
    "MLP": "Babu et al. 2016",
    "SVR": "Babu et al. 2016",
    "RVR": "Babu et al. 2016",
    "CNN": "Babu et al. 2016",
    "DW-RNN": "Aggarwal et al. 2018",
    "MTL-RNN": "Aggarwal et al. 2018",
    "LSTMBS": "Liao et al. 2018",
    "LSTM": "Zheng et al. 2017",
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

    @property
    def baselines(self) -> dict:
        """Baseline name -> {"citation", "rmse", "imp_rmse"[, "score", "imp_score"]}."""
        own_rmse, own_score = self.rmse, self.score
        baselines = {}
        for name, table in BASELINE_RMSE.items():
            entry = {
                "citation": BASELINE_CITATIONS[name],
                "rmse": table[self.subset_id],
                "imp_rmse": improvement(own_rmse, table[self.subset_id]),
            }
            if name in BASELINE_SCORE:
                entry["score"] = BASELINE_SCORE[name][self.subset_id]
                entry["imp_score"] = improvement(own_score, entry["score"])
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
    return {
        "subset_id": report.subset_id,
        "n_engines": len(report.records),
        "rmse": report.rmse,
        "score": report.score,
        "true_rul_cap": report.t_cap,
        "baselines_version": BASELINES_VERSION,
        "baselines": report.baselines,
        "published_fmlp": {
            "rmse": PUBLISHED_FMLP_RMSE[report.subset_id],
            "score": PUBLISHED_FMLP_SCORE[report.subset_id],
        },
    }


def format_comparison_table(report: EvalReport) -> str:
    """Human-readable table of this run against the published baselines."""
    lines = [
        f"subset {report.subset_id}: {len(report.records)} engines,"
        f" true RUL capped at {report.t_cap}",
        f"{'model':<10} {'RMSE':>10} {'score':>12} {'IMP(RMSE)':>10} {'IMP(score)':>11}",
    ]
    for name, entry in report.baselines.items():
        score_text = f"{entry['score']:.4g}" if "score" in entry else "-"
        imp_s = f"{entry['imp_score'] * 100:.2f}%" if "imp_score" in entry else "-"
        lines.append(
            f"{name:<10} {entry['rmse']:>10.2f} {score_text:>12}"
            f" {entry['imp_rmse'] * 100:>9.2f}% {imp_s:>11}"
        )
    lines.append(
        f"{'FMLP(run)':<10} {report.rmse:>10.2f} {report.score:>12.4g}"
        f" {'':>10} {'':>11}"
    )
    lines.append(
        f"{'FMLP(pub)':<10} {PUBLISHED_FMLP_RMSE[report.subset_id]:>10.2f}"
        f" {PUBLISHED_FMLP_SCORE[report.subset_id]:>12.4g} {'':>10} {'':>11}"
    )
    ref = report.baselines[REFERENCE_BASELINE]
    lines.append(
        f"improvement over {REFERENCE_BASELINE}: RMSE {ref['imp_rmse'] * 100:.2f}%,"
        f" score {ref['imp_score'] * 100:.2f}%"
    )
    return "\n".join(lines)
