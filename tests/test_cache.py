"""The parsed-input cache in front of the CLI's reads (``io_formats.read_cached``)."""

import errno
import os
import shutil
import threading

import numpy as np
import pytest

from homsample import _kernels, cli, io_formats
from homsample.cli import main
from homsample.errors import DataError
from homsample.io_formats import CACHE_DIR, read_cached, read_edge_list, read_features_csv, read_labels_csv

READERS = {"edge_list": "read_edge_list", "features_csv": "read_features_csv", "labels_csv": "read_labels_csv"}
FILES = {"edge_list": "graph.txt", "features_csv": "features.csv", "labels_csv": "labels.csv"}


@pytest.fixture
def data(tmp_path):
    d = tmp_path / "data"
    spec = "blocks,n=120,intra=0.15,inter=0.02,fracs=0.4:0.6,d=3,tau=0.3,seed=4"
    assert main(["synth", "--spec", spec, "--out", str(d)]) == 0
    return d


def _files(d):
    return ["--graph", str(d / "graph.txt"), "--features", str(d / "features.csv"), "--labels", str(d / "labels.csv")]


def _entries(d, name=""):
    cache = d / CACHE_DIR
    return sorted(p.name for p in cache.iterdir() if p.name.startswith(name)) if cache.exists() else []


def _tree(root):
    """Relative path -> bytes of every file below ``root``, timing sidecars left out."""
    if root.is_file():
        return {"": root.read_bytes()}
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file() and not p.name.startswith("timings__")
    }


def _count_parses(monkeypatch):
    """Wrap the three readers; the returned dict counts each one's calls."""
    calls = dict.fromkeys(READERS, 0)
    for kind, attr in READERS.items():
        def counted(path, kind=kind, read=getattr(io_formats, attr)):
            calls[kind] += 1
            return read(path)
        monkeypatch.setattr(io_formats, attr, counted)
    return calls


def _count_orders(monkeypatch):
    """Wrap the greedy kernel; the returned list holds each call's budget."""
    budgets = []
    order = _kernels.greedy_min_degree_order

    def counted(indptr, indices, n_remove):
        budgets.append(n_remove)
        return order(indptr, indices, n_remove)

    monkeypatch.setattr(_kernels, "greedy_min_degree_order", counted)
    return budgets


def _run(argv, out, capsys):
    """Exit code, stdout and output bytes of one command."""
    rc = main(argv)
    stdout = capsys.readouterr().out
    return rc, stdout, _tree(out) if out.exists() else None


COMMANDS = {
    "homophily": ["homophily"],
    "metrics": ["metrics", "--out", "{out}"],
    "sample_homophily": ["sample", "--gamma", "0.5", "--method", "homophily", "--seed", "3", "--out", "{out}"],
    "sample_random": ["sample", "--gamma", "0.5", "--method", "random", "--seed", "3", "--out", "{out}"],
    "sample_greedy": ["sample", "--gamma", "0.5", "--method", "degree_greedy", "--seed", "3", "--out", "{out}"],
    "experiment": ["experiment", "--rates", "0.5", "--methods", "homophily,random,degree_greedy",
                   "--reps", "2", "--epochs", "5", "--hidden", "4", "--out", "{out}"],
}


GREEDY_COMMANDS = {"sample_greedy", "experiment"}
SAMPLE_COMMANDS = {"sample_homophily", "sample_random", "sample_greedy"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_warm_run_is_byte_identical_to_cold(data, tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "out"
    argv = [a.replace("{out}", str(out)) for a in COMMANDS[command]] + _files(data)
    calls = _count_parses(monkeypatch)
    orders = _count_orders(monkeypatch)
    cold = _run(argv, out, capsys)
    assert cold[0] == 0 and calls == dict.fromkeys(READERS, 1)
    greedy = command in GREEDY_COMMANDS
    assert len(_entries(data)) == 3 + greedy + (command in SAMPLE_COMMANDS)
    assert len(_entries(data, "features.csv.feature_rows.")) == (command in SAMPLE_COMMANDS)
    assert len(_entries(data, "graph.txt.greedy_order.")) == greedy
    assert len(orders) == greedy
    if out.exists():
        os.replace(out, tmp_path / "cold")
    warm = _run(argv, out, capsys)
    assert calls == dict.fromkeys(READERS, 1)  # the warm run parsed nothing
    assert len(orders) == greedy  # ... and computed no greedy order
    assert warm == cold


def test_hit_equals_the_parse(data, monkeypatch):
    parsed = {}
    for kind, name in FILES.items():
        value, store, _ = read_cached(data / name, kind)
        store()
        parsed[kind] = value
    calls = _count_parses(monkeypatch)
    hit = {kind: read_cached(data / name, kind)[0] for kind, name in FILES.items()}
    assert calls == dict.fromkeys(READERS, 0)
    g, ref = hit["edge_list"], parsed["edge_list"]
    assert (g.n, g.m) == (ref.n, ref.m)
    for a, b in ((g.indptr, ref.indptr), (g.indices, ref.indices)):
        assert a.dtype == np.int64 and a.flags.c_contiguous and not a.flags.writeable
        assert a.tobytes() == b.tobytes()
    for kind, dtype in (("features_csv", np.float64), ("labels_csv", np.int64)):
        assert hit[kind].dtype == dtype and hit[kind].flags.c_contiguous
        assert hit[kind].shape == parsed[kind].shape
        assert hit[kind].tobytes() == parsed[kind].tobytes()


def test_same_size_rewrite_with_old_mtime_misses(data, tmp_path, capsys, monkeypatch):
    argv = ["homophily", *_files(data)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    x = data / "features.csv"
    st = os.stat(x)
    text = x.read_text()
    digit = next(c for c in text if c in "123456789")
    x.write_text(text.replace(digit, "9" if digit != "9" else "8", 1))
    os.utime(x, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(x).st_size == st.st_size
    calls = _count_parses(monkeypatch)
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert calls == {"edge_list": 0, "features_csv": 1, "labels_csv": 0}
    assert second != first
    assert len(_entries(data, "features.csv.")) == 1
    monkeypatch.undo()
    (data / CACHE_DIR / _entries(data, "features.csv.")[0]).unlink()
    assert main(argv) == 0
    assert capsys.readouterr().out == second  # the rewritten file's own parse


def test_file_rewritten_while_parsed_is_not_cached(data, capsys, monkeypatch):
    x = data / "features.csv"
    parse = io_formats.read_features_csv

    def parse_then_rewrite(path):
        value = parse(path)
        x.write_text(x.read_text().replace("1", "2"))
        return value

    monkeypatch.setattr(io_formats, "read_features_csv", parse_then_rewrite)
    assert main(["homophily", *_files(data)]) == 0
    assert _entries(data, "features.csv.") == []
    assert len(_entries(data)) == 2


def _truncate(entry):
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])


def _wrong_arrays(entry):
    np.savez(entry, features=np.arange(6, dtype=np.int64))  # int64 where float64 belongs


def _foreign(entry):
    entry.write_bytes(b"not an npz")


@pytest.mark.parametrize("spoil", [_truncate, _wrong_arrays, _foreign])
def test_bad_entry_is_parsed_again_and_overwritten(data, capsys, monkeypatch, spoil):
    argv = ["homophily", *_files(data)]
    assert main(argv) == 0
    ref = capsys.readouterr().out
    (name,) = _entries(data, "features.csv.")
    entry = data / CACHE_DIR / name
    spoil(entry)
    calls = _count_parses(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().out == ref
    assert calls == {"edge_list": 0, "features_csv": 1, "labels_csv": 0}
    assert _entries(data, "features.csv.") == [name]
    with np.load(entry, allow_pickle=False) as npz:
        assert np.array_equal(npz["features"], read_features_csv(data / "features.csv"))


def _savez_then_fail(fh, **arrays):
    fh.write(b"PK partial")
    raise OSError(errno.ENOSPC, "No space left on device")


def _no_write_access(*args, **kwargs):
    raise PermissionError(errno.EACCES, "Permission denied")


@pytest.mark.parametrize("target, fail", [(np, ("savez", _savez_then_fail)), (os, ("open", _no_write_access))])
def test_failed_store_leaves_exit_0_and_the_same_outputs(data, tmp_path, capsys, monkeypatch, target, fail):
    out = tmp_path / "out"
    argv = ["sample", "--gamma", "0.5", "--seed", "1", "--out", str(out), *_files(data)]
    with monkeypatch.context() as m:
        m.setattr(target, *fail)
        failed = _run(argv, out, capsys)
    assert failed[0] == 0
    assert _entries(data) == []  # no entry and no temp file left behind
    os.replace(out, tmp_path / "failed")
    assert _run(argv, out, capsys) == failed
    assert len(_entries(data)) == 4  # the three parses and the features file's rows


@pytest.mark.parametrize("name, text", [
    ("graph.txt", "n=4\n0 1\n1 x\n"),
    ("features.csv", "1.0\n2.0\nabc\n4.0\n"),
    ("labels.csv", "0\n1\n1.5\n0\n"),
    ("features.csv", None),  # missing file
])
def test_parse_failure_exits_as_before_and_caches_nothing(tmp_path, capsys, name, text):
    d = tmp_path / "data"
    d.mkdir()
    (d / "graph.txt").write_text("n=4\n0 1\n1 2\n2 3\n")
    (d / "features.csv").write_text("1.0\n2.0\n3.0\n4.0\n")
    (d / "labels.csv").write_text("0\n1\n1\n0\n")
    if text is None:
        (d / name).unlink()
    else:
        (d / name).write_text(text)
    reader = {"graph.txt": read_edge_list, "features.csv": read_features_csv, "labels.csv": read_labels_csv}[name]
    with pytest.raises(DataError) as exc:
        reader(d / name)
    out = tmp_path / "out"
    rc = main(["sample", "--gamma", "0.5", "--out", str(out), *_files(d)])
    assert rc == 2
    assert capsys.readouterr().err == f"homsample: data error: {exc.value}\n"
    assert not out.exists()
    assert not (d / CACHE_DIR).exists()


def test_pipe_is_read_once_and_not_cached(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text("n=3\n0 1\n1 2\n")
    (tmp_path / "x.csv").write_text("0.0\n1.0\n0.5\n")
    assert main(["homophily", "--graph", str(graph), "--features", str(tmp_path / "x.csv")]) == 0
    ref = capsys.readouterr().out
    fifo = tmp_path / "features.csv"
    os.mkfifo(fifo)
    done = threading.Event()

    def write_once():
        fifo.write_text("0.0\n1.0\n0.5\n")
        while not done.wait(10):  # a reader opening the pipe again gets EOF, not a hang
            fifo.write_text("")

    threading.Thread(target=write_once, daemon=True).start()
    rc = main(["homophily", "--graph", str(graph), "--features", str(fifo)])
    done.set()
    assert rc == 0
    assert capsys.readouterr().out == ref
    assert _entries(tmp_path, "features.csv.") == []


def _greedy_argv(gamma, out, d):
    return ["sample", "--gamma", str(gamma), "--method", "degree_greedy", "--out", str(out), *_files(d)]


def _order_entry(d):
    (name,) = _entries(d, "graph.txt.greedy_order.")
    return d / CACHE_DIR / name


def _fresh(argv, out, d, capsys):
    """The outputs of ``argv`` run with an empty cache."""
    shutil.rmtree(d / CACHE_DIR, ignore_errors=True)
    return _run(argv, out, capsys)


def test_larger_budget_recomputes_and_replaces_the_order(data, tmp_path, capsys, monkeypatch):
    orders = _count_orders(monkeypatch)
    small = _run(_greedy_argv(0.7, tmp_path / "small", data), tmp_path / "small", capsys)
    large = _run(_greedy_argv(0.2, tmp_path / "large", data), tmp_path / "large", capsys)
    assert small[0] == large[0] == 0
    assert orders == [36, 96]  # floor(0.3 * 120), then floor(0.8 * 120)
    with np.load(_order_entry(data), allow_pickle=False) as npz:
        assert npz["order"].size == 96
    again = _run(_greedy_argv(0.7, tmp_path / "again", data), tmp_path / "again", capsys)
    assert orders == [36, 96]  # the smaller budget takes the longer order's prefix
    assert again[0] == 0 and again[2] == small[2]
    fresh = _fresh(_greedy_argv(0.2, tmp_path / "fresh", data), tmp_path / "fresh", data, capsys)
    assert fresh[::2] == large[::2]  # exit code and output bytes; stdout names the directory


def _spoil_order(how):
    def spoil(entry):
        with np.load(entry, allow_pickle=False) as npz:
            order = npz["order"]
        if how == "dtype":
            order = order.astype(np.int32)
        elif how == "ndim":
            order = order.reshape(1, -1)
        elif how == "negative":
            order[1] -= 120  # the same node under numpy's negative indexing
        elif how == "n":
            order[1] = 120
        elif how == "repeat":
            order[1] = order[0]
        elif how == "over_n":
            order = np.concatenate([order, order, order])  # 180 ids of 120 nodes
        elif how == "truncate":
            return _truncate(entry)
        np.savez(entry, order=order)
    return spoil


@pytest.mark.parametrize("how", ["dtype", "ndim", "negative", "n", "repeat", "over_n", "truncate"])
def test_malformed_order_is_computed_again(data, tmp_path, capsys, monkeypatch, how):
    argv = _greedy_argv(0.5, tmp_path / "out", data)
    ref = _run(argv, tmp_path / "out", capsys)
    entry = _order_entry(data)
    stored = entry.read_bytes()
    _spoil_order(how)(entry)
    orders = _count_orders(monkeypatch)
    assert _run(argv, tmp_path / "out", capsys) == ref
    assert orders == [60]
    assert _order_entry(data).read_bytes() == stored


def test_rewritten_graph_misses_the_order(data, tmp_path, capsys, monkeypatch):
    argv = _greedy_argv(0.5, tmp_path / "out", data)
    assert _run(argv, tmp_path / "out", capsys)[0] == 0
    old = _order_entry(data).name
    graph = data / "graph.txt"
    lines = graph.read_text().splitlines(keepends=True)
    graph.write_text("".join(lines[:-1]))  # one edge fewer
    orders = _count_orders(monkeypatch)
    rewritten = _run(argv, tmp_path / "out", capsys)
    assert orders == [60]
    assert _order_entry(data).name != old  # the old bytes' order is gone
    assert _fresh(argv, tmp_path / "out", data, capsys) == rewritten


def test_synth_experiment_leaves_no_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main([
        "experiment", "--synth", "blocks,n=60,intra=0.2,inter=0.02,d=3,tau=0.2,seed=2",
        "--rates", "0.5", "--methods", "degree_greedy", "--metrics-only", "--out", "out",
    ])
    assert rc == 0
    assert list(tmp_path.rglob(CACHE_DIR)) == []


def _deny_writes(m, d):
    """EACCES from ``os.open`` and ``os.mkdir`` inside ``d``, as without write access to it."""
    def denied(call):
        def guarded(path, *args, **kwargs):
            if str(path).startswith(str(d)):
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return call(path, *args, **kwargs)
        return guarded

    m.setattr(os, "open", denied(os.open))
    m.setattr(os, "mkdir", denied(os.mkdir))


@pytest.mark.parametrize("command", ["sample_greedy", "experiment"])
def test_unwritable_directory_gives_the_same_outputs(data, tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "out"
    argv = [a.replace("{out}", str(out)) for a in COMMANDS[command]] + _files(data)
    ref = _run(argv, out, capsys)
    shutil.rmtree(data / CACHE_DIR)
    os.replace(out, tmp_path / "ref")

    with monkeypatch.context() as m:
        _deny_writes(m, data)
        assert _run(argv, out, capsys) == ref
    assert not (data / CACHE_DIR).exists()


# ---------------------------------------------------------------------------
# feature rows copied from the features file (``feature_rows`` entries)


def _count_feature_rows(monkeypatch):
    """Wrap the block formatter; the returned list holds the feature rows of each call."""
    rows = []
    write_blocks = io_formats._write_blocks

    def counted(fh, row_fmt, cols, n_rows):
        if "%.17g" in row_fmt:
            rows.append(cols[0].shape[0])
        return write_blocks(fh, row_fmt, cols, n_rows)

    monkeypatch.setattr(io_formats, "_write_blocks", counted)
    return rows


def _rows_entry(d):
    """(offsets, checked) of the features file's ``feature_rows`` entry."""
    (name,) = _entries(d, "features.csv.feature_rows.")
    with np.load(d / CACHE_DIR / name, allow_pickle=False) as npz:
        return npz["offsets"], npz["checked"]


def _sample_argv(out, d, method="random", gamma=0.5, seed=3):
    return ["sample", "--gamma", str(gamma), "--method", method, "--seed", str(seed), "--out", str(out), *_files(d)]


def _uncached(argv, out, capsys, monkeypatch):
    """The outputs of ``argv`` with every file read uncached (no digest)."""
    def no_digest(path):
        raise OSError(errno.EIO, "unreadable")

    with monkeypatch.context() as m:
        m.setattr(io_formats, "_file_digest", no_digest)
        return _run(argv, out, capsys)


def _resave(d):
    np.savetxt(d / "features.csv", read_features_csv(d / "features.csv"), delimiter=",")


def _no_final_newline(d):
    f = d / "features.csv"
    f.write_bytes(f.read_bytes()[:-1])


def _crlf(d):
    f = d / "features.csv"
    f.write_bytes(f.read_bytes().replace(b"\n", b"\r\n"))


@pytest.mark.parametrize("form, copyable", [
    (None, True),  # as synth wrote it
    (_resave, False),  # np.savetxt's default "%.18e"
    (_no_final_newline, False),
    (_crlf, False),
])
def test_warm_cold_and_uncached_samples_are_identical(data, tmp_path, capsys, monkeypatch, form, copyable):
    if form is not None:
        form(data)
    runs = [("homophily", 0.5), ("random", 0.5), ("degree_greedy", 0.3), ("random", 0.9)]
    outs = {}
    for i, (method, gamma) in enumerate(runs):
        out = tmp_path / f"s{i}"
        argv = _sample_argv(out, data, method, gamma)
        ref = _uncached(argv, out, capsys, monkeypatch)
        os.replace(out, tmp_path / f"ref{i}")
        assert ref[0] == 0
        outs[i] = ref
        assert _run(argv, out, capsys) == ref  # the first run on these rows
        offsets, checked = _rows_entry(data)
        assert (offsets.size > 0) == copyable
        os.replace(out, tmp_path / f"first{i}")
    for i, (method, gamma) in enumerate(runs):  # every row checked, or the file not copyable
        out = tmp_path / f"s{i}"
        assert _run(_sample_argv(out, data, method, gamma), out, capsys) == outs[i]
    if copyable:
        offsets, checked = _rows_entry(data)
        assert offsets[-1] == (data / "features.csv").stat().st_size and checked.sum() >= 108
        assert _fresh(_sample_argv(out, data, "random", 0.9), out, data, capsys) == outs[3]


def test_second_sample_of_the_same_rows_formats_no_feature_row(data, tmp_path, capsys, monkeypatch):
    rows = _count_feature_rows(monkeypatch)
    argv = _sample_argv(tmp_path / "out", data, "homophily")
    cold = _run(argv, tmp_path / "out", capsys)
    assert sum(rows) == 60  # 60 of 120 kept rows formatted, then compared with the file
    assert _rows_entry(data)[1].sum() == 60
    warm = _run(argv, tmp_path / "out", capsys)
    assert sum(rows) == 60  # ... and copied from it the second time
    assert warm == cold


def _decanonicalize(d, row):
    """Write one more leading zero into the first cell of ``row`` (0-based): same value, other bytes."""
    f = d / "features.csv"
    lines = f.read_bytes().splitlines(keepends=True)
    sign = lines[row][:1] if lines[row][:1] in b"+-" else b""
    lines[row] = sign + b"0" + lines[row][len(sign) :]
    f.write_bytes(b"".join(lines))


def test_first_mismatch_marks_the_file_not_copyable(data, tmp_path, capsys, monkeypatch):
    first = _sample_argv(tmp_path / "first", data, gamma=0.9, seed=1)
    second = _sample_argv(tmp_path / "second", data, gamma=0.5, seed=2)
    assert main(first) == 0 and main(second) == 0
    capsys.readouterr()
    kept1 = np.loadtxt(tmp_path / "first" / "kept.txt", dtype=np.int64)
    kept2 = np.loadtxt(tmp_path / "second" / "kept.txt", dtype=np.int64)
    new = np.setdiff1d(kept2, kept1)  # kept by the second sample only
    row = int(new[0])
    shutil.rmtree(data / CACHE_DIR)
    _decanonicalize(data, row)
    refs = {}
    for name, argv in (("first", first), ("second", second)):
        refs[name] = _uncached(argv, tmp_path / name, capsys, monkeypatch)
        shutil.rmtree(tmp_path / name)
    rows = _count_feature_rows(monkeypatch)
    assert _run(first, tmp_path / "first", capsys) == refs["first"]
    offsets, checked = _rows_entry(data)
    assert offsets.size == 121 and not checked[row]  # copyable: the changed row was not kept
    del rows[:]
    assert _run(second, tmp_path / "second", capsys) == refs["second"]
    # the unchecked rows in one block, then every kept row from the first of them on
    assert rows == [new.size, kept2.size - int(np.searchsorted(kept2, row))]
    offsets, checked = _rows_entry(data)
    assert offsets.size == checked.size == 0  # not copyable
    chunks = []
    monkeypatch.setattr(io_formats, "_row_chunks", lambda *a: chunks.append(a) or iter(()))
    os.replace(tmp_path / "first", tmp_path / "first_ref")
    assert _run(first, tmp_path / "first", capsys) == refs["first"]
    assert chunks == []  # no comparison, and no read of the file
    assert _rows_entry(data)[0].size == 0


@pytest.mark.parametrize("warm", [False, True])
def test_features_rewritten_before_the_copy_pass_are_formatted(data, tmp_path, capsys, monkeypatch, warm):
    argv = _sample_argv(tmp_path / "out", data)
    ref = _uncached(argv, tmp_path / "out", capsys, monkeypatch)
    if warm:
        assert _run(argv, tmp_path / "out", capsys) == ref
    before = {name: (data / CACHE_DIR / name).read_bytes() for name in _entries(data)}
    x = data / "features.csv"
    draw = cli.sample

    def sample_then_rewrite(*args, **kwargs):
        result = draw(*args, **kwargs)
        x.write_text(x.read_text().replace("1", "2"))  # the same size and row lengths
        return result

    monkeypatch.setattr(cli, "sample", sample_then_rewrite)
    assert _run(argv, tmp_path / "out", capsys) == ref
    rows = {name: (data / CACHE_DIR / name).read_bytes() for name in _entries(data, "features.csv.feature_rows.")}
    assert rows == {k: v for k, v in before.items() if ".feature_rows." in k}  # nothing stored


def _spoil_rows(how):
    def spoil(entry):
        with np.load(entry, allow_pickle=False) as npz:
            offsets, checked = npz["offsets"], npz["checked"]
        if how == "dtype":
            offsets = offsets.astype(np.int32)
        elif how == "not_increasing":
            offsets[5] = offsets[4]
        elif how == "size":
            offsets[-1] += 1
        elif how == "mask_length":
            checked = checked[:-1]
        np.savez(entry, offsets=offsets, checked=checked)
    return spoil


@pytest.mark.parametrize("how", ["dtype", "not_increasing", "size", "mask_length"])
def test_malformed_rows_entry_is_rebuilt(data, tmp_path, capsys, monkeypatch, how):
    argv = _sample_argv(tmp_path / "out", data)
    ref = _run(argv, tmp_path / "out", capsys)
    offsets, checked = _rows_entry(data)
    (name,) = _entries(data, "features.csv.feature_rows.")
    _spoil_rows(how)(data / CACHE_DIR / name)
    rows = _count_feature_rows(monkeypatch)
    assert _run(argv, tmp_path / "out", capsys) == ref
    assert sum(rows) == 60  # every kept row formatted and compared again
    assert _entries(data, "features.csv.feature_rows.") == [name]
    rebuilt = _rows_entry(data)
    assert rebuilt[0].dtype == np.int64 and np.array_equal(rebuilt[0], offsets)
    assert np.array_equal(rebuilt[1], checked)


def test_unwritable_directory_gives_the_same_sample(data, tmp_path, capsys, monkeypatch):
    assert _run(_sample_argv(tmp_path / "first", data, seed=1), tmp_path / "first", capsys)[0] == 0
    entries = {name: (data / CACHE_DIR / name).read_bytes() for name in _entries(data)}
    argv = _sample_argv(tmp_path / "out", data, seed=2)  # rows the entry has not checked
    ref = _uncached(argv, tmp_path / "out", capsys, monkeypatch)
    shutil.rmtree(tmp_path / "out")
    with monkeypatch.context() as m:
        _deny_writes(m, data)
        assert _run(argv, tmp_path / "out", capsys) == ref
    assert {name: (data / CACHE_DIR / name).read_bytes() for name in _entries(data)} == entries


def test_copy_pass_across_processes_gives_the_uncached_bytes(tmp_path, capsys, monkeypatch):
    d = tmp_path / "data"
    spec = "blocks,n=12000,intra=0.001,inter=0.0002,fracs=0.4:0.6,d=16,tau=0.3,seed=4"
    assert main(["synth", "--spec", spec, "--out", str(d)]) == 0
    capsys.readouterr()
    inputs = sorted(p.name for p in d.iterdir())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = []
    fork_range = io_formats._fork_range
    monkeypatch.setattr(io_formats, "_fork_range", lambda *a: forks.append(a) or fork_range(*a))

    def check(name, argv, split):
        """The cached run of ``argv`` writes the uncached bytes and leaves no other file."""
        out = tmp_path / name
        ref = _uncached(argv, out, capsys, monkeypatch)
        listing = sorted(os.listdir(out))
        os.replace(out, tmp_path / f"{name}_ref")
        del forks[:]
        assert _run(argv, out, capsys) == ref
        # the unchecked kept rows are formatted across processes
        assert any("%.17g" in row_fmt for _, row_fmt, *_ in forks) == split
        assert sorted(os.listdir(out)) == listing
        assert sorted(p.name for p in d.iterdir()) == sorted([*inputs, CACHE_DIR])
        assert len(_entries(d)) == 4 and all(name.endswith(".npz") for name in _entries(d))

    check("first", _sample_argv(tmp_path / "first", d, gamma=0.5, seed=1), True)
    check("partly", _sample_argv(tmp_path / "partly", d, gamma=0.9, seed=2), True)  # half checked by the first
    assert _rows_entry(d)[1].sum() > 0.9 * 12000
    check("warm", _sample_argv(tmp_path / "warm", d, gamma=0.9, seed=2), False)
    kept = np.loadtxt(tmp_path / "partly" / "kept.txt", dtype=np.int64)
    _decanonicalize(d, int(kept[kept.size // 2]))  # new bytes: a first sample that differs halfway
    check("mismatch", _sample_argv(tmp_path / "mismatch", d, gamma=0.9, seed=2), True)
    assert _rows_entry(d)[0].size == 0  # not copyable
