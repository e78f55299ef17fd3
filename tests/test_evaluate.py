import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmlp_rul.errors import NumericError
from fmlp_rul.cmapss import SUBSET_IDS
from fmlp_rul.evaluate import (
    PUBLISHED,
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
    fd001, fd002, fd004 = (SUBSET_IDS.index(f"FD00{k}") for k in (1, 2, 4))
    assert PUBLISHED["LSTM"].rmse[fd001] == 16.14
    assert PUBLISHED["CNN"].rmse[fd001] == 18.45
    assert PUBLISHED["CNN"].score[fd004] == 7.9e3
    assert PUBLISHED["LSTM"].score[fd002] == 4.5e3
    # DW-RNN and MTL-RNN have published RMSE but no score entries
    assert PUBLISHED["DW-RNN"].rmse[fd001] == 22.52 and PUBLISHED["DW-RNN"].score is None


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
    # None once built a report without baselines, and "FD009" one whose
    # report_to_doc raised a bare KeyError.
    for subset_id in (None, "FD009"):
        with pytest.raises(ValueError, match=rf"^subset_id is {subset_id!r}, expected one of"):
            build_report([1.0], [2.0], subset_id=subset_id)


def test_build_report_alignment_checked():
    with pytest.raises(ValueError):
        build_report([1.0, 2.0], [1.0], subset_id="FD001")


def test_build_report_rejects_unit_ids_of_another_length():
    # zip once truncated to the unit ids: 2 records with RMSE 2.0, no error.
    with pytest.raises(ValueError, match="2 unit ids for 3 predictions"):
        build_report([10, 20, 30], [12, 18, 35], unit_ids=[1, 2], subset_id="FD001")
    with pytest.raises(ValueError, match="4 unit ids for 3 predictions"):
        build_report([10, 20, 30], [12, 18, 35], unit_ids=[1, 2, 3, 4], subset_id="FD001")


def test_build_report_rejects_predictions_that_are_not_one_per_engine():
    with pytest.raises(ValueError, match=r"\(2, 1\) predictions for \(2,\) true values"):
        build_report([[10.0], [20.0]], [12.0, 25.0], subset_id="FD001")


def test_build_report_from_arrays_equals_from_lists():
    predictions = [10.25, 131.5, 0.0, 47.125]
    truths, units = [12, 145, 3, 130], [7, 8, 9, 11]
    from_lists = build_report(predictions, truths, unit_ids=units, subset_id="FD002")
    from_arrays = build_report(
        np.array(predictions), np.array(truths, dtype=np.int64),
        unit_ids=np.array(units, dtype=np.int32), subset_id="FD002",
    )
    assert from_arrays.records == from_lists.records
    assert [type(r.unit_id) for r in from_arrays.records] == [int] * 4
    assert [type(r.true_rul) for r in from_arrays.records] == [float] * 4
    assert report_to_csv(from_arrays) == report_to_csv(from_lists)
    assert json.dumps(report_to_doc(from_arrays)) == json.dumps(report_to_doc(from_lists))


def test_report_csv_layout():
    report = build_report([10.0, 30.0], [12.0, 20.0], unit_ids=[5, 9], subset_id="FD003")
    lines = report_to_csv(report).strip().split("\n")
    assert lines[0] == "unit_id,true_rul,estimated_rul,error"
    assert len(lines) == 3
    assert lines[1].startswith("5,")
    table = format_comparison_table(report)
    assert "LSTM" in table and "FMLP(run)" in table


def _pinned_report(k, subset_id):
    # Over- and under-estimates, a truth above the cap and a gap in unit ids.
    return build_report(
        [10.25 + k, 131.5, 0.0, 47.125 * k], [12, 145, 3 + k, 130],
        unit_ids=[7, 8, 9, 11 + k], subset_id=subset_id,
    )


# sha256 of report.json's text, report.csv and the comparison table.
PINNED_REPORT_DIGESTS = {
    "FD001": (
        "2ad5579df6a106807b62725a50dcf1bbd2d4fee78795f61ada49dcf7f44646fb",
        "2affb1cf6d30532f63c18f36daeb25e444e4223333f614c4cb6b776e38650bb9",
        "068bac956c1432e7dda46a0c0e6cd6cd6dd2dd331e71acd8d2857712ead3e2bc",
    ),
    "FD002": (
        "109591574533d9e2dc8192e1bcb3ea3ba739a3ea6ddb346b91b97ed527d00ab3",
        "1e755ae380d5ad6eb1694db3991d0fef10a2b058dd8fbaeb279a9622391b94d2",
        "19daf1713b9a9e3f9f5fc783c916bb478c49e2a163ebd190eb9a3d763170b40e",
    ),
    "FD003": (
        "6add5d3481331c0715748f50aceb6157f5801456ef00e8301af0f74578ca9f5d",
        "3569673c47eb303916f793074cc4b88128da2f8af6f990b7b1b0e2567a0c2e38",
        "2d5fd38ad8c24b1b7ab4558ca43e771167a69069ca10f71b9b834984a464d314",
    ),
    "FD004": (
        "5e8abb084484e87ef832a331e329a39248061c1812a78c85f23cdd3a00e0f199",
        "1599d9e0df13e9f6fd39ae5940b43ec72ef7ca967c25fafd8b9256839cd5d608",
        "f508a14d3732d24ec0fb2f674f49c8873d5fd0e9571fcb0a1f8b8e40a8c2af7a",
    ),
}

PINNED_FD001_TABLE = "\n".join([
    "subset FD001: 4 engines, true RUL capped at 130",
    "model            RMSE        score  IMP(RMSE)  IMP(score)",
    "MLP             37.56      1.8e+04    -10.47%      96.74%",
    "SVR             20.96         1400    -97.97%      58.10%",
    "RVR             23.80         1500    -74.35%      60.90%",
    "CNN             18.45         1300   -124.90%      54.88%",
    "DW-RNN          22.52            -    -84.25%           -",
    "MTL-RNN         21.47            -    -93.27%           -",
    "LSTMBS          14.89          480   -178.67%     -22.20%",
    "LSTM            16.14          340   -157.09%     -72.52%",
    "FMLP(run)       41.49        586.6" + " " * 23,
    "FMLP(pub)       13.36          200" + " " * 23,
    "improvement over LSTM: RMSE -157.09%, score -72.52%",
])


@pytest.mark.parametrize("k,subset_id", [(1, "FD001"), (2, "FD002"), (3, "FD003"), (4, "FD004")])
def test_report_renderings_are_pinned(k, subset_id):
    # report.json, report.csv and the evaluate table are outputs: every key,
    # key order, float and column of them is part of the CLI contract.
    report = _pinned_report(k, subset_id)
    table = format_comparison_table(report)
    if subset_id == "FD001":
        assert table == PINNED_FD001_TABLE
    texts = (json.dumps(report_to_doc(report), indent=1), report_to_csv(report), table)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)
    assert digests == PINNED_REPORT_DIGESTS[subset_id]
