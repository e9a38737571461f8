import io
import json
import os
import re
import signal
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import homsample as hs
from homsample import io_formats
from homsample.errors import DataError
from homsample.io_formats import (
    MetricsReport,
    check_sizes,
    read_edge_list,
    read_features_csv,
    read_labels_csv,
    read_report,
    report_to_text,
    write_edge_list,
    write_features_csv,
    write_labels_csv,
    write_report,
    write_sample,
    write_timings,
)
from homsample.experiments import BenchRow, write_bench_csv, write_summary_csv
from homsample.sampling import SampleSpec

from util import path_graph, random_graph


def test_read_edge_list_basic(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n")
    g = read_edge_list(p)
    assert g.n == 3 and g.m == 2


def test_read_edge_list_comments_dups_header(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# a comment\nn=5\n0 1\n1 0\n0 1\n\n")
    g = read_edge_list(p)
    assert g.n == 5 and g.m == 1


def test_read_edge_list_errors(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        read_edge_list(tmp_path / "missing.txt")
    p = tmp_path / "bad.txt"
    p.write_text("0 1\n1 x\n")
    with pytest.raises(DataError, match="bad.txt:2"):
        read_edge_list(p)
    p.write_text("0 1\n-1 2\n")
    with pytest.raises(DataError, match=":2.*negative"):
        read_edge_list(p)
    p.write_text("0 1 2\n")
    with pytest.raises(DataError, match=":1"):
        read_edge_list(p)
    p.write_text("n=zzz\n0 1\n")
    with pytest.raises(DataError, match="header"):
        read_edge_list(p)
    p.write_text("n=2\n0 5\n")
    with pytest.raises(DataError, match="out of range"):
        read_edge_list(p)


def test_edgeless_graph_round_trips_via_header(tmp_path):
    g = hs.build_graph([], n=4)
    p = tmp_path / "empty.txt"
    write_edge_list(g, p)
    back = read_edge_list(p)
    assert back.n == 4 and back.m == 0


def test_edge_list_round_trip_and_canonical_bytes(tmp_path):
    rng = np.random.default_rng(0)
    g = random_graph(rng, 40, 0.15)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    write_edge_list(g, p1)
    g2 = read_edge_list(p1)
    assert np.array_equal(g.indptr, g2.indptr)
    assert np.array_equal(g.indices, g2.indices)
    write_edge_list(g2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_features_csv_round_trip(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1.0,2.5\n-3,0\n0.125,7\n")
    x = read_features_csv(p)
    assert x.shape == (3, 2)
    rng = np.random.default_rng(1)
    big = rng.standard_normal((50, 7))
    write_features_csv(big, p)
    back = read_features_csv(p)
    assert np.array_equal(big, back)  # 17 significant digits round-trip exactly


def test_features_csv_errors(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_features_csv(p)
    p.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(DataError, match=":2:2"):
        read_features_csv(p)
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="columns"):
        read_features_csv(p)
    with pytest.raises(DataError, match="no such file"):
        read_features_csv(tmp_path / "nope.csv")


def test_labels_csv(tmp_path):
    p = tmp_path / "y.csv"
    write_labels_csv(np.array([0, 2, 1]), p)
    assert read_labels_csv(p).tolist() == [0, 2, 1]
    p.write_text("1\n2.5\n")
    with pytest.raises(DataError, match=":2"):
        read_labels_csv(p)
    p.write_text("1,2\n")
    with pytest.raises(DataError, match="single"):
        read_labels_csv(p)
    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_labels_csv(p)


def test_check_sizes():
    g = path_graph(3)
    check_sizes(g, np.ones((3, 2)), np.zeros(3, dtype=np.int64))
    with pytest.raises(DataError, match="feature rows"):
        check_sizes(g, np.ones((4, 2)), None)
    with pytest.raises(DataError, match="label rows"):
        check_sizes(g, None, np.zeros(5, dtype=np.int64))


def test_write_sample_full_keep(tmp_path):
    g = path_graph(3)
    res = hs.sample(g, SampleSpec(gamma=1.0, method="random", seed=0))
    write_sample(res, tmp_path / "s")
    assert (tmp_path / "s" / "kept.txt").read_text() == "0\n1\n2\n"


def test_sample_reinduction_oracle(tmp_path):
    rng = np.random.default_rng(2)
    g = random_graph(rng, 50, 0.1)
    x = rng.standard_normal((50, 3))
    y = rng.integers(0, 2, size=50)
    res = hs.sample(g, SampleSpec(gamma=0.6), x=x, labels=y)
    outdir = tmp_path / "s"
    write_sample(res, outdir)
    kept = np.loadtxt(outdir / "kept.txt", dtype=np.int64)
    reinduced = hs.induced_subgraph(g, kept)
    stored = read_edge_list(outdir / "edges.txt")
    assert np.array_equal(reinduced.indptr, stored.indptr)
    assert np.array_equal(reinduced.indices, stored.indices)
    id_map = [line.split() for line in (outdir / "id_map.txt").read_text().splitlines()]
    assert [int(old) for _, old in id_map] == kept.tolist()
    assert np.array_equal(read_features_csv(outdir / "features.csv"), x[kept])
    assert np.array_equal(read_labels_csv(outdir / "labels.csv"), y[kept])


def make_report(**over):
    base = dict(
        dataset="demo",
        method="homophily",
        gamma=0.5,
        seed=11,
        h_g=-1.2345678901234567,
        laplacian_trace=42.0,
        adjusted_trace=2.1,
        components=3,
        laplacian_rank=17,
        trace_bound=1.0,
        bound_satisfied=True,
        accuracy=None,
    )
    base.update(over)
    return MetricsReport(**base)


def test_report_round_trip_bit_identical(tmp_path):
    p = tmp_path / "r.json"
    rep = make_report(accuracy=0.875)
    write_report(rep, p)
    first = p.read_bytes()
    back = read_report(p)
    write_report(back, p)
    assert p.read_bytes() == first
    assert back == rep


def test_report_null_accuracy_and_precision(tmp_path):
    p = tmp_path / "r.json"
    write_report(make_report(), p)
    text = p.read_text()
    assert '"accuracy": null' in text
    assert "-1.2345678901234567" in text
    back = read_report(p)
    assert back.accuracy is None
    assert back.h_g == -1.2345678901234567


def test_report_invariant_and_errors(tmp_path):
    with pytest.raises(ValueError, match="bound_satisfied"):
        make_report(bound_satisfied=False)
    # a violated bound may be recorded honestly as False
    rep = make_report(laplacian_trace=0.5, trace_bound=1.0, bound_satisfied=False)
    assert rep.bound_satisfied is False
    with pytest.raises(ValueError, match="non-finite"):
        report_to_text(make_report(h_g=float("nan")))
    p = tmp_path / "r.json"
    with pytest.raises(DataError, match="no such file"):
        read_report(p)
    p.write_text("{not json")
    with pytest.raises(DataError, match="invalid report"):
        read_report(p)
    p.write_text('{"dataset": "x"}')
    with pytest.raises(DataError, match="missing report field"):
        read_report(p)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5),
    ("components", True),
    ("laplacian_rank", "17"),
    ("bound_satisfied", "no"),
    ("bound_satisfied", 1),
    ("accuracy", False),
    ("accuracy", "0.875"),
    ("gamma", None),
    ("h_g", float("nan")),
    ("trace_bound", 10**400),
    ("dataset", 3),
    ("method", None),
])
def test_read_report_rejects_a_field_of_another_type(tmp_path, field, value):
    p = tmp_path / "r.json"
    write_report(make_report(accuracy=0.875), p)
    raw = json.loads(p.read_text())
    raw[field] = value
    p.write_text(json.dumps(raw))
    with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: bad report field '{field}'"):
        read_report(p)


def test_read_report_takes_integral_floats_and_rejects_a_false_bound(tmp_path):
    p = tmp_path / "r.json"
    write_report(make_report(gamma=1.0, accuracy=1.0), p)
    assert '"gamma": 1,' in p.read_text()
    back = read_report(p)
    assert type(back.gamma) is float and type(back.accuracy) is float and back == make_report(gamma=1.0, accuracy=1.0)
    p.write_text(p.read_text().replace('"bound_satisfied": true', '"bound_satisfied": false'))
    with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: invalid report: bound_satisfied"):
        read_report(p)
    p.write_text("[1, 2]")
    with pytest.raises(DataError, match="missing report field 'dataset'"):
        read_report(p)


WHOLE_WRITERS = {
    "report": lambda p: write_report(make_report(), p),
    "timings": lambda p: write_timings({"sample": 0.25, "metrics": 0.5}, p),
    "summary": lambda p: write_summary_csv([{"dataset": "d", "gamma": 0.5, "method": "random"}], p),
    "bench": lambda p: write_bench_csv([BenchRow(10, 9, 8, 2, 0.1, 0.2, 0.3)], p),
}


@pytest.mark.parametrize("name", sorted(WHOLE_WRITERS))
def test_writers_leave_the_old_bytes_or_no_file_when_the_rename_fails(tmp_path, monkeypatch, name):
    write = WHOLE_WRITERS[name]
    old, new = tmp_path / "old", tmp_path / "new"
    old.write_bytes(b"old bytes, no newline")
    write(tmp_path / "ok")
    expected = (tmp_path / "ok").read_bytes()

    def refuse(src, dst):
        raise OSError(f"cannot rename to {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    for p in (old, new):
        with pytest.raises(OSError, match="cannot rename"):
            write(p)
    assert old.read_bytes() == b"old bytes, no newline" and not new.exists()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ok", "old"]  # no temp file left
    monkeypatch.undo()
    write(old)
    assert old.read_bytes() == expected


# ---------------------------------------------------------------------------
# bulk readers and writers against the line-by-line reference

EDGE_CORPUS = [
    "0 1\n1 2\n",
    "0 1\n\n1 2\n",
    "0 1\n   \n1 2\n",
    "0 1\n\t \n1 2\n",
    "0 1\n\x0c\n1 2\n",
    "# head\n0 1\n",
    "0 1\n# c\n1 2\n",
    "0 1 # c\n",
    "n=3\n0 1\nn=5\n1 2\n",
    "0 1\nn=4\n",
    "n=4\n0 1\n",
    "  n=4  \n0 1\n",
    "n=1_0\n0 1\n",
    "n=x\n0 1\n",
    "n=2\n0 5\n",
    "n=5\n",
    "1_0 2\n",
    "\uff11 2\n",
    '"1" 2\n',
    "1.0 2\n",
    "+1 2\n",
    "-0 2\n",
    "0 -1\n",
    "0 1\r\n1 2\r\n",
    "n=3\r\n0 1\r\n",
    "0 1\r1 2\r",
    "0 1,\n",
    "0,1\n",
    "0 1\n1\n",
    "0 1\n1 2 3\n",
    "",
    "\n \n",
    "99999999999999999999 1\n",
    "0\xa01\n",
    "0\u20031\n",
    "\ufeff0 1\n",
    "0 1\x00\n",
]

FEATURE_CORPUS = [
    "1,2\n3,4\n",
    "1,2\n\n3,4\n",
    "1,2\n  \n3,4\n",
    " \n1,2\n",
    "# c\n1,2\n",
    "1,2 # c\n",
    "1_0,2\n",
    "\uff11,2\n",
    '"1",2\n',
    "+1,-0\n",
    " 1.5 , 2\t\n",
    "1,2\r\n3,4\r\n",
    "1,2\r3,4\r",
    "1,2,\n",
    ",\n",
    "1,2\n3\n",
    "",
    "1\n2\n",
    "nan,inf\n",
    "-nan,-inf\n",
    "Infinity,1e400\n",
    "1e-400,5e-324,2.4703282292062328e-324\n",
    "0.1,1e16,1e-7,9007199254740993\n",
    "0x1p3,1\n",
    "1d5,1\n",
    "1,2\x00\n",
    "\ufeff1,2\n",
]

LABEL_CORPUS = [
    "1\n2\n",
    " 3 \n",
    "1,2\n",
    "2.5\n",
    "1.0\n",
    "1\n\n2\n",
    "1\n \n2\n",
    "+3\n-0\n-2\n",
    "1_0\n",
    '"1"\n',
    "1,\n",
    "1\r\n2\r\n",
    "",
    "# c\n1\n",
    "99999999999999999999\n",
    "\uff11\n",
]

def _outcome(read, path):
    try:
        out = read(path)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    if isinstance(out, hs.Graph):
        return "graph", out.n, out.indptr.tobytes(), out.indices.tobytes()
    return "array", out.dtype.str, out.shape, out.tobytes()


def _assert_matches_line_reader(read, path, monkeypatch):
    got = _outcome(read, path)
    with monkeypatch.context() as m:
        m.setattr(io_formats, "_bulk_parse", lambda *a, **k: None)
        want = _outcome(read, path)
    assert got == want


@pytest.mark.parametrize(
    "read, text",
    [(read_edge_list, t) for t in EDGE_CORPUS]
    + [(read_features_csv, t) for t in FEATURE_CORPUS]
    + [(read_labels_csv, t) for t in LABEL_CORPUS],
)
def test_bulk_reader_equals_line_reader(read, text, tmp_path, monkeypatch):
    p = tmp_path / "in.txt"
    p.write_bytes(text.encode("utf-8"))
    _assert_matches_line_reader(read, p, monkeypatch)


LINE_READER_CORPORA = {
    "_read_edge_lines": EDGE_CORPUS,
    "_read_features_lines": FEATURE_CORPUS,
    "_read_labels_lines": LABEL_CORPUS,
}

# What each line reader gave on each corpus file when this test was written:
# ["returns", declared n (edge lists) or null, dtype, shape, the array's bytes
# in hex] or ["raises", exception class, message with the file's path as <path>]
PINNED_LINE_OUTCOMES = json.loads((Path(__file__).parent / "line_reader_outcomes.json").read_text())


def _line_outcome(read, path) -> list:
    try:
        out = read(path)
    except Exception as exc:  # compared by class and message
        name = f"{type(exc).__module__}.{type(exc).__qualname__}"
        return ["raises", name, str(exc).replace(str(path), "<path>")]
    declared_n, a = out if isinstance(out, tuple) else (None, out)
    return ["returns", declared_n, a.dtype.str, list(a.shape), a.tobytes().hex()]


@pytest.mark.parametrize(
    "reader, text", [(name, t) for name, corpus in LINE_READER_CORPORA.items() for t in corpus]
)
def test_line_readers_give_their_pinned_outcomes(reader, text, tmp_path):
    p = tmp_path / "in.txt"
    p.write_bytes(text.encode("utf-8"))
    want = PINNED_LINE_OUTCOMES[reader][text]
    if reader != "_read_edge_lines" and "\x00" in text and sys.version_info < (3, 11):
        want = ["raises", "_csv.Error", "line contains NUL"]  # csv reads NUL from Python 3.11 on
    assert _line_outcome(getattr(io_formats, reader), p) == want


def test_loadtxt_warning_falls_back_to_line_reader(tmp_path, monkeypatch):
    # numpy 1.24-1.26 parse "1.0" as the int 1 and only warn
    def lenient_loadtxt(path, **kw):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array([[1, 2]], dtype=np.int64)

    p = tmp_path / "g.txt"
    p.write_text("1.0 2\n")
    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with pytest.raises(DataError, match=r"g.txt:1: non-integer node id"):
        read_edge_list(p)


def test_canonical_files_take_the_bulk_path(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    g = random_graph(rng, 300, 0.3)
    x = rng.standard_normal((g.n, 5))
    y = rng.integers(0, 4, size=g.n)
    res = hs.sample(g, SampleSpec(gamma=0.5), x=x, labels=y)
    write_sample(res, tmp_path / "s")
    write_edge_list(g, tmp_path / "g.txt")

    def no_line_reader(path):
        raise AssertionError(f"line reader ran on {path}")

    for name in ("_read_edge_lines", "_read_features_lines", "_read_labels_lines"):
        monkeypatch.setattr(io_formats, name, no_line_reader)
    back = read_edge_list(tmp_path / "g.txt")
    assert np.array_equal(back.indices, g.indices) and back.n == g.n
    assert np.array_equal(np.loadtxt(tmp_path / "s" / "kept.txt", dtype=np.int64), res.kept)
    assert np.array_equal(read_features_csv(tmp_path / "s" / "features.csv"), res.features)
    assert np.array_equal(read_labels_csv(tmp_path / "s" / "labels.csv"), res.labels)


def _int_rows(rows) -> str:
    return "".join(" ".join(str(v) for v in row) + "\n" for row in rows)


def test_block_writers_match_per_value_formatting(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3000, 7)) * 10.0 ** rng.integers(-300, 300, size=(3000, 7))
    x[:5, 0] = [-0.0, 5e-324, 1e16, 0.1, 1e-7]
    write_features_csv(x, tmp_path / "x.csv")
    want = "".join(",".join(io_formats._fmt_float(v) for v in row) + "\n" for row in x)
    assert (tmp_path / "x.csv").read_text() == want
    write_features_csv(np.empty((3, 0)), tmp_path / "x0.csv")
    assert (tmp_path / "x0.csv").read_text() == "\n" * 3
    wide = rng.standard_normal((3, 5000))  # one row is more than a write block
    write_features_csv(wide, tmp_path / "wide.csv")
    assert np.array_equal(read_features_csv(tmp_path / "wide.csv"), wide)

    g = random_graph(rng, 300, 0.3)  # more edges than one write block
    write_edge_list(g, tmp_path / "g.txt")
    want = f"n={g.n}\n" + _int_rows(np.column_stack(g.edges()).tolist())
    assert (tmp_path / "g.txt").read_text() == want

    y = rng.integers(0, 5, size=g.n)
    res = hs.sample(g, SampleSpec(gamma=0.6, method="random", seed=1), labels=y)
    write_sample(res, tmp_path / "s")
    kept = res.kept.tolist()
    assert (tmp_path / "s" / "kept.txt").read_text() == _int_rows([[k] for k in kept])
    id_map = _int_rows(enumerate(kept))
    assert (tmp_path / "s" / "id_map.txt").read_text() == id_map
    assert (tmp_path / "s" / "labels.csv").read_text() == _int_rows([[v] for v in y[kept]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_features_raise_the_same_message(bad, tmp_path):
    x = np.ones((2000, 3))
    x[1500, 1] = bad
    message = f"cannot serialize non-finite value {np.float64(bad)!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_features_csv(x, tmp_path / "x.csv")
    # the rows before the bad one are written, as they were row by row
    assert (tmp_path / "x.csv").read_text() == "1,1,1\n" * 1500


# ---------------------------------------------------------------------------
# split writes: one forked child per usable CPU after the first

_SPLIT_AT = 2 * io_formats._SPLIT_VALUES  # fewest values a 2-CPU write splits


def _table(shape, kind):
    """Random values with the extremes of the format on every 7th cell."""
    rng = np.random.default_rng(shape[0])
    if kind == "%d":
        a = rng.integers(-(2**62), 2**62, size=shape)
        special = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1]
    else:
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        special = [-0.0, 5e-324, -2.2250738585072009e-308, 1e308, -1e308, 0.1]
    flat = a.reshape(-1)
    flat[::7] = np.resize(special, flat[::7].size)
    return a


def _write_with_cpus(monkeypatch, cpus, path, row_fmt, a):
    """The file that ``_write_rows`` writes between a buffered header and a trailer."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        m.setattr(os, "fork", counting_fork)
        with open(path, "w") as fh:
            fh.write("head\n")
            io_formats._write_rows(fh, row_fmt, a)
            fh.write("tail\n")
    return path.read_bytes(), len(forks)


@pytest.mark.parametrize("kind", ["%d", "%.17g"])
@pytest.mark.parametrize(
    "shape",
    [(0,), (1,), (_SPLIT_AT - 1,), (_SPLIT_AT,), (_SPLIT_AT + 1,), (2 * _SPLIT_AT + 2,),
     (0, 16), (1, 16), (_SPLIT_AT // 16 - 1, 16), (_SPLIT_AT // 16, 16), (_SPLIT_AT // 16 + 1, 16),
     (20001, 5), (3, 40000)],
)
def test_split_write_equals_one_cpu_write(shape, kind, tmp_path, monkeypatch):
    a = _table(shape, kind)
    width = shape[1] if len(shape) == 2 else 1
    row_fmt = " ".join([kind] * width) + "\n"
    want, forks = _write_with_cpus(monkeypatch, 1, tmp_path / "one.txt", row_fmt, a)
    assert forks == 0
    for cpus in (2, 3):
        got, forks = _write_with_cpus(monkeypatch, cpus, tmp_path / f"cpus{cpus}.txt", row_fmt, a)
        assert got == want
        assert forks == max(0, min(cpus, a.size // io_formats._SPLIT_VALUES, shape[0]) - 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cpus2.txt", "cpus3.txt", "one.txt"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_write_stops_at_a_non_finite_row(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    x = np.ones((10000, 16))
    x[7001, 3] = float("nan")
    message = f"cannot serialize non-finite value {np.float64('nan')!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_features_csv(x, tmp_path / "x.csv")
    assert (tmp_path / "x.csv").read_text() == (",".join(["1"] * 16) + "\n") * 7001


def _patch_blocks(monkeypatch, in_child=None, in_parent=None):
    """Run ``in_child()`` in each forked child, ``in_parent()`` here, before a range is written."""
    parent = os.getpid()
    real = io_formats._write_blocks

    def write_blocks(*args):
        act = in_parent if os.getpid() == parent else in_child
        if act is not None:
            act()
        return real(*args)

    monkeypatch.setattr(io_formats, "_write_blocks", write_blocks)


@pytest.mark.parametrize(
    "act",
    [lambda: os._exit(3), lambda: os.kill(os.getpid(), signal.SIGKILL), lambda: 1 / 0],
    ids=["exits-3", "killed", "raises"],
)
def test_failed_child_range_is_written_by_the_parent(act, tmp_path, monkeypatch):
    x = np.random.default_rng(7).standard_normal((9001, 16))
    write_features_csv(x, tmp_path / "serial.csv")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    _patch_blocks(monkeypatch, in_child=act)
    write_features_csv(x, tmp_path / "split.csv")
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["serial.csv", "split.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_real_copy_file_range = getattr(os, "copy_file_range", None)


def _copy_in_small_pieces(src, dst, count, offset_src):
    return _real_copy_file_range(src, dst, min(count, 4096), offset_src)


def _copy_refused(src, dst, count, offset_src):
    raise OSError(18, "Invalid cross-device link")


@pytest.mark.parametrize("copy", [_copy_in_small_pieces, _copy_refused], ids=["pieces", "refused"])
def test_child_bytes_are_appended_whole_or_formatted_here(copy, tmp_path, monkeypatch):
    x = np.random.default_rng(8).standard_normal((9001, 16))
    write_features_csv(x, tmp_path / "serial.csv")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "copy_file_range", copy)
    write_features_csv(x, tmp_path / "split.csv")
    assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def test_error_in_the_parents_range_reaps_every_child(tmp_path, monkeypatch):
    def disk_full():
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    # the children are still running when the parent fails
    _patch_blocks(monkeypatch, in_child=lambda: time.sleep(60), in_parent=disk_full)
    start = time.monotonic()
    with pytest.raises(OSError, match="No space left"):
        write_features_csv(np.ones((9001, 16)), tmp_path / "x.csv")
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]


@pytest.mark.parametrize("where", ["one-cpu", "small-table", "stringio", "dev-null", "no-O_TMPFILE"])
def test_serial_writes_never_fork(where, tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    a = np.arange(_SPLIT_AT - 1 if where == "small-table" else 3 * _SPLIT_AT)
    want = "".join(f"{v}\n" for v in a.tolist())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0} if where == "one-cpu" else {0, 1})
    if where == "no-O_TMPFILE":
        monkeypatch.delattr(os, "O_TMPFILE")
    monkeypatch.setattr(os, "fork", no_fork)
    if where == "stringio":
        fh = io.StringIO()
        io_formats._write_rows(fh, "%d\n", a)
        assert fh.getvalue() == want
    elif where == "dev-null":
        with open(os.devnull, "w") as fh:
            io_formats._write_rows(fh, "%d\n", a)
    else:
        write_labels_csv(a, tmp_path / "y.csv")
        assert (tmp_path / "y.csv").read_text() == want


def _traced_peak(fn) -> int:
    """Bytes allocated at the peak of ``fn()``, above what was allocated before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cpus", [1, 2])
def test_edge_list_writer_makes_no_edge_table_copy(cpus, tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    n = 50_000
    g = hs.build_graph(rng.integers(0, n, size=(250_000, 2)), n=n)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    view_peak = _traced_peak(g.edges)
    write_peak = _traced_peak(lambda: write_edge_list(g, tmp_path / "g.txt"))
    # an (m, 2) int64 copy of the edges would add 16 bytes per edge
    assert write_peak < view_peak + g.m
    assert read_edge_list(tmp_path / "g.txt").indices.tolist() == g.indices.tolist()
