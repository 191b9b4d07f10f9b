"""The CLI's input-file reader against the csv.reader one it replaced.

``reference_read_csv`` and ``reference_numbers`` are the reader as it was
before it split the text itself: csv.reader streams the file, and each
data row's cells go through ``float`` one by one. On Hypothesis-drawn file
bytes (blank and whitespace lines; CR, LF and CRLF line ends; quotes,
NUL and commas inside quotes; short and long rows; padded cells,
underscores, ``inf``/``nan``, non-ASCII digits and bytes that are not
UTF-8) the CLI reader returns the same rows, bit-equal arrays, or the
same error class with the same message. Through ``python -m wcs.cli``
every such file exits 0, 2 or 3 and never prints a traceback. Examples
are derandomized, so every run checks the same cases.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wcs import cli, dro
from wcs.errors import InputFileError, WcsError

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)
PROCESS_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)


def reference_read_csv(path: str, primary: str, schema: str) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeError, csv.Error) as exc:
        raise InputFileError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    if not rows or not rows[0] or rows[0][0].strip() != primary:
        raise WcsError(f"{path}: expected header '{schema}'")
    return rows[0], [row for row in rows[1:] if row]


def reference_numbers(path: str, row: list[str], width: int) -> list[float]:
    try:
        return [float(row[i]) for i in range(width)]
    except (IndexError, ValueError):
        raise InputFileError(f"{path}: expected {width} numbers in row {','.join(row)!r}") from None


def reference_two_column(path: str, primary: str):
    header, rows = reference_read_csv(path, primary, f"{primary}[,prob]")
    has_prob = len(header) > 1 and header[1].strip() == "prob"
    table = [reference_numbers(path, row, 2 if has_prob else 1) for row in rows]
    return [r[0] for r in table], ([r[1] for r in table] if has_prob else None)


def reference_classification(path: str):
    header, rows = reference_read_csv(path, "label", "label,x1,...,xd")
    table = [reference_numbers(path, row, len(header)) for row in rows]
    labels = [r.pop(0) for r in table]
    return dro.labeled_dataset(table, labels)


def outcome(fn, *args):
    """('ok', value) or ('error', class name, message)."""
    try:
        return ("ok", fn(*args))
    except WcsError as exc:
        return ("error", type(exc).__name__, str(exc))


def as_bytes(values) -> tuple | None:
    if values is None:
        return None
    a = np.array(values, dtype=float)
    return a.shape, a.tobytes()


NUMBERS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["1", "-2.5", "0", "-0.0", "1e-300", "1e309", "0.5", "inf", "-inf", "nan", "Infinity",
     " 4 ", "\t5", "6 ", "1_000", "٣", "+7"]
)
ODD_CELLS = st.sampled_from(
    ["", "x", "1__0", "_1", "0x10", '"8"', '"9,1"', '"1\n2"', 'a"b', '"', "\0", "1\0",
     "1\x85", "\x0c3", "cost", "label", "prob"]
)
CELLS = st.one_of(NUMBERS, NUMBERS, NUMBERS, ODD_CELLS)
LABELS = st.sampled_from(["1", "-1", "1.0", "-1.0", " 1", "+1"])
ODD_HEADERS = st.sampled_from(
    ["", " ", "value", "cost,weight", '"cost",prob', " label,x1", '"label"\n,x1', "prob,cost",
     'cost,"prob"', 'label,"x1"']
)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def file_bytes(draw, primary: str) -> bytes:
    """A file whose header and rows mostly fit ``primary``'s schema."""
    if primary == "label":
        width = draw(st.integers(2, 4))
        header = ",".join(["label"] + [f"x{j}" for j in range(1, width)])
    else:
        width = draw(st.integers(1, 3))
        header = ",".join([primary, "prob", "note"][:width])
    if draw(st.integers(0, 4)) == 0:
        header = draw(ODD_HEADERS)
    elif draw(st.booleans()):
        header = header.replace(",", " , ")
    lines = [header]
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.integers(0, 9))
        first = draw(LABELS if primary == "label" else NUMBERS)
        if kind == 0:
            lines.append("")
        elif kind == 1:
            lines.append(draw(st.sampled_from([" ", "\t", " , "])))
        elif kind == 2:  # odd cells, short or long
            cells = draw(st.lists(CELLS, min_size=max(width - 2, 0), max_size=width + 1))
            lines.append(",".join([draw(CELLS)] + cells))
        else:
            cells = draw(st.lists(NUMBERS, min_size=width - 1, max_size=width - 1))
            lines.append(",".join([first] + cells))
    text = "".join(line + draw(LINE_ENDS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last row
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:  # bytes that are not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + data[at:]
    return data


PRIMARIES = ("cost", "demand", "label")
file_inputs = st.sampled_from(PRIMARIES).flatmap(
    lambda primary: st.tuples(st.just(primary), file_bytes(primary))
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("reader") / "input.csv")


@PROPERTY_SETTINGS
@given(case=file_inputs)
def test_reader_matches_the_csv_reader(case, input_path):
    primary, data = case
    with open(input_path, "wb") as fh:
        fh.write(data)
    schema = f"{primary}[,prob]"
    want = outcome(reference_read_csv, input_path, primary, schema)
    assert outcome(cli._read_csv, input_path, primary, schema) == want
    if want[0] == "error":
        return
    if primary == "label":
        want = outcome(reference_classification, input_path)
        got = outcome(cli._read_classification, input_path)
        if want[0] == "ok":
            assert got[0] == "ok"
            for field in ("features", "labels"):
                assert as_bytes(getattr(got[1], field)) == as_bytes(getattr(want[1], field))
            assert got[1].features.flags.c_contiguous
        else:
            assert got == want
    else:
        want = outcome(reference_two_column, input_path, primary)
        got = outcome(cli._read_two_column, input_path, primary)
        if want[0] == "ok":
            assert got[0] == "ok"
            assert [as_bytes(col) for col in got[1]] == [as_bytes(col) for col in want[1]]
        else:
            assert got == want


COMMANDS = {
    "cost": ["sensitivity", "--family", "budgeted", "--cost-file"],
    "demand": ["solve-newsvendor", "--r", "10", "--c", "2", "--s", "4", "--demand-file"],
    "label": ["solve-logreg", "--eps", "0.1", "--data-file"],
}


@PROCESS_SETTINGS
@given(case=file_inputs)
def test_any_file_exits_without_a_traceback(case, input_path):
    primary, data = case
    with open(input_path, "wb") as fh:
        fh.write(data)
    proc = subprocess.run(
        [sys.executable, "-m", "wcs.cli", *COMMANDS[primary], input_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode in (0, 2, 3)
    assert "Traceback" not in proc.stderr
    if proc.returncode == 3:
        assert set(json.loads(proc.stderr)) == {"code", "message"}


PLAIN_TEXTS = {
    "crlf": "cost\r\n1\r\n\r\n5\r\n",
    "cr": "cost,prob\r1,0.5\r3,0.5",
    "blank-and-padded": "cost , prob\n\n 1 ,0.5\n\n3, 0.5 \n",
    "extra-columns": "cost,prob,note\n1,0.5,a,b\n3,0.5\n",
    "inf": "cost\ninf\n1\n",
}
CSV_TEXTS = {
    "quoted-cell": 'cost,prob\n"1",0.5\n3,0.5\n',
    "nul": "cost\n1\0\n",
    "short-row": "cost,prob\n1\n",
    "bad-cell": "cost\n1\nx\n",
}


def read_with_csv_counted(path, monkeypatch):
    """The CLI reader's outcome on ``path``, and how many times it ran csv.reader."""
    calls = []
    reader = csv.reader

    def counting_reader(*args, **kwargs):
        calls.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counting_reader)
    got = outcome(cli._read_two_column, path, "cost")
    monkeypatch.setattr(csv, "reader", reader)
    return got, len(calls)


def two_column_bytes(result):
    return result if result[0] == "error" else ("ok", [as_bytes(col) for col in result[1]])


@pytest.mark.parametrize("case", list(PLAIN_TEXTS))
def test_plain_text_is_split_without_csv(case, input_path, monkeypatch):
    with open(input_path, "w", newline="") as fh:
        fh.write(PLAIN_TEXTS[case])
    want = outcome(reference_two_column, input_path, "cost")
    assert want[0] == "ok"
    got, calls = read_with_csv_counted(input_path, monkeypatch)
    assert calls == 0
    assert two_column_bytes(got) == two_column_bytes(want)


@pytest.mark.parametrize("case", list(CSV_TEXTS))
def test_quotes_and_nul_go_to_csv(case, input_path, monkeypatch):
    # so do a short row and a cell float rejects: csv.reader's rows name the bad row
    with open(input_path, "w", newline="") as fh:
        fh.write(CSV_TEXTS[case])
    want = outcome(reference_two_column, input_path, "cost")
    got, calls = read_with_csv_counted(input_path, monkeypatch)
    assert calls == 1
    assert two_column_bytes(got) == two_column_bytes(want)


def test_a_line_past_the_field_size_limit_goes_to_csv(input_path, monkeypatch):
    # csv.reader raises on a field longer than its limit; float would read it as inf
    previous = csv.field_size_limit(4)
    try:
        with open(input_path, "w", newline="") as fh:
            fh.write("cost\n12345\n")
        got, calls = read_with_csv_counted(input_path, monkeypatch)
        assert (got[:2], calls) == (("error", "InputFileError"), 1)
        assert got == outcome(reference_two_column, input_path, "cost")
        with open(input_path, "w", newline="") as fh:
            fh.write("cost\r\n1234\r\n")
        got, calls = read_with_csv_counted(input_path, monkeypatch)
        assert (two_column_bytes(got), calls) == (("ok", [as_bytes([1234.0]), None]), 0)
    finally:
        csv.field_size_limit(previous)


@pytest.mark.parametrize(
    "text, want",
    [
        ('cost,"prob"\n1,0.25\n3,0.75\n', [[1.0, 3.0], [0.25, 0.75]]),
        ('label,"x1,x2"\n1,0.5,7\n-1,2,8\n', [[0.5, 2.0], [1.0, -1.0]]),
    ],
    ids=["quoted-prob", "comma-in-a-quoted-name"],
)
def test_a_quoted_header_is_read_as_csv_reader_reads_it(text, want, input_path):
    # split at commas, the first header would lose its prob column and the second would gain one
    with open(input_path, "w", newline="") as fh:
        fh.write(text)
    if text.startswith("label"):
        got = cli._read_classification(input_path)
        assert [got.features.ravel().tolist(), got.labels.tolist()] == want
    else:
        assert [col.tolist() for col in cli._read_two_column(input_path, "cost")] == want


@pytest.mark.parametrize(
    "data",
    [b"cost\n1\xc3", b"cost\n" + b"1\n" * 6000 + b"\xff\n"],
    ids=["truncated-at-the-end", "past-the-first-read-chunk"],
)
def test_an_undecodable_file_names_the_position_csv_reader_did(data, input_path):
    # reading the whole text would count from the file's start, and read a
    # truncated last character where csv.reader's stream reads position 0
    with open(input_path, "wb") as fh:
        fh.write(data)
    want = outcome(reference_read_csv, input_path, "cost", "cost")
    assert want[:2] == ("error", "InputFileError")
    assert outcome(cli._read_csv, input_path, "cost", "cost") == want
    # the streaming read meets the bad bytes mid-file, and csv.reader's message still wins
    assert outcome(cli._read_two_column, input_path, "cost") == want


def test_a_classification_read_holds_little_beyond_its_arrays(tmp_path):
    # the file streams: no copy of its text, nor a list of its lines, is held while it parses
    rng = np.random.default_rng(0)
    table = np.column_stack([rng.choice([-1.0, 1.0], 5000), rng.standard_normal((5000, 21))])
    path = tmp_path / "data.csv"
    header = ",".join(["label"] + [f"x{j}" for j in range(1, 22)])
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=header, comments="")
    tracemalloc.start()
    try:
        data = cli._read_classification(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert as_bytes(data.features) == as_bytes(table[:, 1:])
    assert peak <= 3 * (data.features.nbytes + data.labels.nbytes)
