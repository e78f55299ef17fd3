import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmlp_rul.errors import NumericError
from fmlp_rul.evaluate import (
    BASELINE_RMSE,
    BASELINE_SCORE,
    build_report,
    format_comparison_table,
    improvement,
    report_to_csv,
    report_to_doc,
    rmse,
    score,
)


def test_rmse_zero():
    assert rmse([0.0, 0.0, 0.0]) == 0.0


def test_rmse_hand_value():
    assert rmse([3.0, -4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)


@pytest.mark.parametrize(
    "metric,errors",
    [(rmse, [1.0, 1e200]), (score, [8000.0]), (score, [-10000.0]), (score, [7095.0] * 3)],
)
def test_metric_that_overflows_is_numeric_error(metric, errors):
    # Once an overflow RuntimeWarning, or an inf written to report.json.
    with pytest.raises(NumericError, match="overflows"):
        metric(errors)


def test_rmse_permutation_invariant():
    values = [1.5, -2.0, 7.0, 0.25]
    assert rmse(values) == pytest.approx(rmse(values[::-1]), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20), st.floats(-10, 10))
def test_rmse_absolute_homogeneity(errors, c):
    expected = abs(c) * rmse(errors)
    assert rmse([c * e for e in errors]) == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_score_zero_error():
    assert score([0.0]) == 0.0


def test_score_hand_values():
    assert score([10.0]) == pytest.approx(math.e - 1.0, abs=1e-12)
    assert score([-13.0]) == pytest.approx(math.e - 1.0, abs=1e-12)
    assert score([13.0]) == pytest.approx(math.exp(1.3) - 1.0, abs=1e-12)
    assert score([13.0]) > score([-13.0])


def test_score_sums_over_engines():
    assert score([10.0, -13.0]) == pytest.approx(2 * (math.e - 1.0), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 120.0))
def test_score_penalizes_overestimates_more(h):
    assert score([h]) > score([-h])


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 120.0), st.floats(0.1, 20.0))
def test_score_strictly_increasing_in_magnitude(h, delta):
    assert score([h + delta]) > score([h])
    assert score([-(h + delta)]) > score([-h])


def test_improvement_table_anchors():
    assert improvement(13.36, 16.14) * 100 == pytest.approx(17.22, abs=0.01)
    assert improvement(16.62, 24.49) * 100 == pytest.approx(32.14, abs=0.01)
    assert improvement(5.0, 5.0) == 0.0


def test_improvement_requires_positive_baseline():
    with pytest.raises(ValueError):
        improvement(1.0, 0.0)


def test_baseline_tables_match_published_numbers():
    assert BASELINE_RMSE["LSTM"]["FD001"] == 16.14
    assert BASELINE_RMSE["CNN"]["FD001"] == 18.45
    assert BASELINE_SCORE["CNN"]["FD004"] == 7.9e3
    assert BASELINE_SCORE["LSTM"]["FD002"] == 4.5e3
    # DW-RNN and MTL-RNN have published RMSE but no score entries
    assert "DW-RNN" in BASELINE_RMSE and "DW-RNN" not in BASELINE_SCORE


def test_build_report_attaches_baselines_and_imp():
    report = build_report([10.0, 20.0], [12.0, 25.0], subset_id="FD001")
    assert report.baselines["LSTM"]["rmse"] == 16.14
    assert report.baselines["LSTM"]["imp_rmse"] == pytest.approx(
        1.0 - report.rmse / 16.14
    )
    doc = report_to_doc(report)
    assert doc["true_rul_cap"] == 130
    assert doc["n_engines"] == 2


def test_build_report_caps_true_rul():
    report = build_report([120.0], [145.0], subset_id="FD001")
    assert report.records[0].true_rul == 130.0
    assert report.records[0].error == pytest.approx(-10.0)


def test_build_report_without_baselines():
    report = build_report([1.0], [2.0], subset_id=None)
    assert report.baselines == {}
    assert report_to_doc(report)["baselines"] == {}


def test_build_report_alignment_checked():
    with pytest.raises(ValueError):
        build_report([1.0, 2.0], [1.0])


def test_report_csv_layout():
    report = build_report([10.0, 30.0], [12.0, 20.0], unit_ids=[5, 9], subset_id="FD003")
    lines = report_to_csv(report).strip().split("\n")
    assert lines[0] == "unit_id,true_rul,estimated_rul,error"
    assert len(lines) == 3
    assert lines[1].startswith("5,")
    table = format_comparison_table(report)
    assert "LSTM" in table and "FMLP(run)" in table
