import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmapss_synth import generate_subset

from model_oracles import reference_parse_trajectory_file

from fmlp_rul.cmapss import (
    WINDOW_LENGTHS,
    Trajectories,
    _named_file,
    load_subset,
    parse_rul_file,
    parse_trajectory_file,
    read_file,
)
from fmlp_rul.errors import IntegrityError, ParseError
from fmlp_rul.preprocess import sliding_windows


def make_line(unit, cycle, value=1.0):
    fields = [str(unit), str(cycle)] + [f"{value:.4f}"] * 24
    return " ".join(fields)


def test_parse_counts_fd001(fd001_subset):
    assert len(fd001_subset.train) == 100
    assert len(fd001_subset.test) == 100


def test_fd001_unit1_has_144_cycles(fd001_subset):
    assert fd001_subset.train[0].unit_id == 1
    assert len(fd001_subset.train[0].cycles) == 144


def test_parse_empty_stream():
    assert len(parse_trajectory_file(io.StringIO(""))) == 0


def test_parse_rul_counts_fd002(fd002_root):
    with open(fd002_root / "RUL_FD002.txt", encoding="utf-8") as fh:
        values = parse_rul_file(fh)
    assert len(values) == 259
    assert all(v >= 0 for v in values)


def test_parse_rul_simple():
    assert parse_rul_file("0\n7\n") == [0, 7]


def test_parse_rul_skips_blank_lines():
    assert parse_rul_file("0\n\n \n7\n\n") == [0, 7]


def test_parse_rul_negative_rejected():
    with pytest.raises(ParseError) as err:
        parse_rul_file("5\n-3\n")
    assert err.value.line_no == 2


def test_parse_rul_noninteger_rejected():
    with pytest.raises(ParseError):
        parse_rul_file("5\nxy\n")


def test_load_subset_fd003(fd003_root):
    subset = load_subset(fd003_root, "FD003")
    assert len(subset.train) == 100
    assert len(subset.test) == 100
    assert subset.window_length == 38


def test_load_subset_fd004_window_length(fd004_root):
    subset = load_subset(fd004_root, "FD004")
    assert subset.window_length == 19
    assert WINDOW_LENGTHS == {"FD001": 31, "FD002": 21, "FD003": 38, "FD004": 19}


def test_load_subset_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError) as err:
        load_subset(tmp_path, "FD001")
    assert "train_FD001.txt" in str(err.value)


def test_load_subset_rul_count_mismatch(fd001_root, tmp_path):
    for name in ("train_FD001.txt", "test_FD001.txt"):
        (tmp_path / name).write_text((fd001_root / name).read_text())
    rul_lines = (fd001_root / "RUL_FD001.txt").read_text().splitlines()
    (tmp_path / "RUL_FD001.txt").write_text("\n".join(rul_lines[:-1]) + "\n")
    with pytest.raises(IntegrityError):
        load_subset(tmp_path, "FD001")


def test_parse_malformed_field_reports_line():
    text = make_line(1, 1) + "\n" + make_line(1, 2).replace("1.0000", "oops", 1) + "\n"
    with pytest.raises(ParseError) as err:
        parse_trajectory_file(text)
    assert err.value.line_no == 2


def test_parse_error_line_counts_blank_lines():
    bad = make_line(1, 2).replace("1.0000", "oops", 1)
    text = "\n".join(["", make_line(1, 1), "   ", "", bad])
    with pytest.raises(ParseError) as err:
        parse_trajectory_file(text + "\n")
    assert err.value.line_no == 5
    assert "oops" in str(err.value)


@pytest.mark.parametrize(
    "line,bad",
    [
        (make_line(1, 2).replace("1 2", "1.5 2", 1), "'1.5'"),
        (make_line(1, 2).replace("1 2", "1 2.5", 1), "'2.5'"),
        (make_line(1, 2).replace("1 2", "nan 2", 1), "'nan'"),
        # float() reads digit separators, the array reader does not.
        (make_line(1, 2).replace("1.0000", "1_0", 1), "1_0"),
    ],
)
def test_parse_non_integer_id_or_unreadable_field_reports_line(line, bad):
    text = "\n".join([make_line(1, 1), "", line, make_line(1, 3)]) + "\n"
    with pytest.raises(ParseError) as err:
        parse_trajectory_file(text)
    assert err.value.line_no == 3
    assert bad in str(err.value)


@pytest.mark.parametrize("column,value", [(2, "nan"), (5, "inf"), (25, "-inf")])
def test_parse_non_finite_reading_names_unit_and_cycle(column, value):
    rows = [make_line(4, c).split() for c in (1, 2, 3)]
    rows[1][column] = value
    with pytest.raises(IntegrityError) as err:
        parse_trajectory_file("\n".join(" ".join(r) for r in rows) + "\n")
    assert "unit 4" in str(err.value)
    assert "cycle 2" in str(err.value)


def test_parse_rejects_split_unit_blocks():
    lines = [make_line(1, 1), make_line(1, 2), make_line(2, 1), make_line(1, 3)]
    with pytest.raises(IntegrityError) as err:
        parse_trajectory_file("\n".join(lines) + "\n")
    assert "unit 1" in str(err.value)


@pytest.mark.parametrize("subset_id", ["FD001", "FD002", "FD003", "FD004"])
@pytest.mark.parametrize("split", ["train", "test"])
def test_parser_matches_line_reference(subset_id, split, request, tmp_path):
    root = request.getfixturevalue(f"{subset_id.lower()}_root")
    lines = (root / f"{split}_{subset_id}.txt").read_text().splitlines()
    lines[1:1] = ["", " \t "]  # blank lines, which every reader skips
    lines[3] += " 42.0 43.0"  # trailing fields, which every reader ignores
    path = tmp_path / f"{split}_{subset_id}.txt"
    for newline in ("\n", "\r\n"):
        text = newline.join(lines) + newline
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8") as fh:
            assert _named_file(fh) == path  # read by name, in numpy's block reader
        expected = reference_parse_trajectory_file(text)
        for parsed in (parse_trajectory_file(text), read_file(path, parse_trajectory_file)):
            assert [t.unit_id for t in parsed] == [t.unit_id for t in expected]
            for got, want in zip(parsed, expected):
                assert got.cycles.dtype == want.cycles.dtype
                assert np.array_equal(got.cycles, want.cycles)
                assert got.op_settings.tobytes() == want.op_settings.tobytes()
                assert got.sensors.tobytes() == want.sensors.tobytes()


def test_load_subset_reads_only_requested_splits(fd001_root, tmp_path):
    (tmp_path / "train_FD001.txt").write_text((fd001_root / "train_FD001.txt").read_text())
    subset = load_subset(tmp_path, "FD001", splits=("train",))
    assert len(subset.train) == 100
    assert len(subset.test) == 0 and subset.test_rul == []
    with pytest.raises(FileNotFoundError) as err:
        load_subset(tmp_path, "FD001", splits=("test",))
    assert "test_FD001.txt" in str(err.value)


def test_parse_too_few_fields():
    with pytest.raises(ParseError):
        parse_trajectory_file("1 1 0.5 0.5\n")


def test_parse_non_contiguous_cycles_names_unit():
    text = make_line(3, 1) + "\n" + make_line(3, 4) + "\n"
    with pytest.raises(IntegrityError) as err:
        parse_trajectory_file(text)
    assert "3" in str(err.value)


def test_parse_ignores_trailing_fields():
    line = make_line(1, 1) + " 42.0 43.0"
    trajs = parse_trajectory_file(line + "\n")
    assert len(trajs) == 1
    assert trajs[0].sensors.shape == (1, 21)


def test_parse_preserves_file_order():
    text = "\n".join([make_line(9, 1), make_line(9, 2), make_line(2, 1)]) + "\n"
    trajs = parse_trajectory_file(text)
    assert [t.unit_id for t in trajs] == [9, 2]


def format_trajectories(trajectories):
    """Render trajectories back to the line format (round-trips exactly)."""
    lines = [
        " ".join([str(t.unit_id), str(c), *(repr(float(v)) for v in (*s, *x))])
        for t in trajectories
        for c, s, x in zip(t.cycles, t.op_settings, t.sensors)
    ]
    return "\n".join(lines) + "\n"


def test_round_trip(fd001_subset):
    sample = list(fd001_subset.train)[:4]
    reparsed = parse_trajectory_file(format_trajectories(sample))
    assert len(reparsed) == 4
    for before, after in zip(sample, reparsed):
        assert before.unit_id == after.unit_id
        assert np.array_equal(before.cycles, after.cycles)
        assert np.array_equal(before.op_settings, after.op_settings)
        assert np.array_equal(before.sensors, after.sensors)


def test_window_count_identity(fd001_subset):
    m = fd001_subset.window_length
    for traj in list(fd001_subset.train)[:25]:
        expected = max(0, len(traj.cycles) - m + 1)
        assert len(sliding_windows(traj.sensors, [0, len(traj.cycles)], m)) == expected


def test_trajectory_invariants_enforced():
    n = 5
    settings = np.zeros((n, 3))
    sensors = np.zeros((n, 21))
    ones = np.ones(n, dtype=int)
    with pytest.raises(IntegrityError):
        Trajectories(ones, np.arange(2, n + 2), settings, sensors)  # starts at 2
    with pytest.raises(IntegrityError):
        Trajectories(ones, np.arange(1, n + 1), settings, sensors[:, :20])
    with pytest.raises(IntegrityError):
        Trajectories(0 * ones, np.arange(1, n + 1), settings, sensors)


def test_split_units_are_read_only_views_of_its_rows():
    lines = [make_line(7, c, c) for c in (1, 2, 3)] + [make_line(2, 1, 9.0)]
    split = parse_trajectory_file("\n".join(lines) + "\n")
    assert split.unit_ids.tolist() == [7, 2]
    assert split.offsets.tolist() == [0, 3, 4]
    assert split.lengths.tolist() == [3, 1]
    last = split[-1]
    assert last.unit_id == 2 and last.cycles.tolist() == [1]
    assert np.array_equal(last.sensors, split.sensors[3:])
    assert [t.unit_id for t in split] == [7, 2]
    assert sum(len(t.cycles) for t in split) == 4
    with pytest.raises(IndexError):
        split[2]
    for values in (split.sensors, split.op_settings, split.cycles, split[0].sensors):
        with pytest.raises(ValueError):
            values[0] = 0


# Clean FD001 and FD002 test files of six engines each, as tokens per line.
_CLEAN = {
    subset_id: [line.split() for line in text.splitlines()]
    for subset_id in ("FD001", "FD002")
    for text in [generate_subset(subset_id, n_train=1, n_test=6)["test"]]
}


def _damage(clean, rows, kind, unit, at, token):
    """Apply one defect to the rows of unit ``unit`` (0-based) of the clean
    file, whose units are 1, 2, ... in order."""
    starts = [0, *(i for i in range(1, len(clean)) if clean[i][0] != clean[i - 1][0]), len(clean)]
    lo, hi = starts[unit], starts[unit + 1]
    row = lo + at % (hi - lo)
    if kind == "repeat":  # the unit's last rows take the id of the unit two on
        for r in rows[row:hi]:
            r[0] = str(unit + 3)
    elif kind == "id":
        for r in rows[lo:hi]:
            r[0] = token
    elif kind == "cycle":
        rows[row][1] = str(int(rows[row][1]) + int(token))
    else:  # a non-finite setting or reading
        rows[row][2 + at % 24] = token


_DEFECTS = st.one_of(
    st.tuples(st.just("repeat"), st.just("")),
    st.tuples(st.just("id"), st.sampled_from(["0", "-3"])),
    st.tuples(st.just("cycle"), st.sampled_from(["-1", "1", "5"])),
    st.tuples(st.just("reading"), st.sampled_from(["nan", "inf", "-inf"])),
)


@settings(max_examples=80, deadline=None)
@given(
    subset_id=st.sampled_from(sorted(_CLEAN)),
    defects=st.lists(
        st.tuples(_DEFECTS, st.integers(0, 5), st.integers(0, 10**6)),
        min_size=1,
        max_size=4,
        unique_by=lambda d: d[1],
    ),
)
def test_first_error_matches_per_unit_reference(subset_id, defects, tmp_path_factory):
    # Several defects in different units: the split's whole-array checks must
    # name the same first error as checking one unit at a time in file order.
    clean = _CLEAN[subset_id]
    rows = [list(r) for r in clean]
    for (kind, token), unit, at in defects:
        _damage(clean, rows, kind, unit, at, token)
    text = "\n".join(" ".join(r) for r in rows) + "\n"
    try:
        reference_parse_trajectory_file(text)
    except IntegrityError as exc:
        want = str(exc)
    else:
        want = None
    path = tmp_path_factory.getbasetemp() / f"test_{subset_id}.txt"
    path.write_text(text)
    for parse in (
        lambda: parse_trajectory_file(text),  # the lines route
        lambda: read_file(path, parse_trajectory_file),  # the by-name route
    ):
        if want is None:
            parse()
        else:
            with pytest.raises(IntegrityError) as err:
                parse()
            assert str(err.value) == want
