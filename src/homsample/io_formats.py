"""Plain-text ingestion and canonical serialization.

Formats: whitespace edge lists (optional ``n=<int>`` header, ``#`` comments),
CSV feature/label tables, sample directories (kept ids, relabeled subgraph
edges, id map), and JSON metrics reports. Serialization is canonical: the
same in-memory object always produces byte-identical files, with floats at
17 significant digits. Readers reject malformed input with file/line
positions; nothing is silently coerced.

Each table reader first parses the whole file with one ``np.loadtxt`` call
(``_bulk_parse``). Files it does not parse cleanly (``#`` comments, quoted
cells, ``1_0``, ragged rows, empty files, anything that warns) go to the
line-by-line reader, which alone gives their result or their
``file:line[:col]`` error; on every file the bulk parse accepts, both
readers give identical arrays (but a CSV cell longer than the ``csv``
module's 131072-character field limit parses instead of raising
``csv.Error``). Writers format blocks of rows with one ``%``
operation each (``"%.17g" % v == format(v, ".17g")``); the feature writer
stops at the first row with a non-finite value and raises. A large table
is split into contiguous row ranges formatted by up to one forked process
per usable CPU, and the file is byte-identical to a one-process write.

The readers are pure parsers. ``read_cached`` puts a content-keyed cache in
front of them: each parse is stored once as binary arrays next to the input
and reloaded while the file's bytes stay the same. ``greedy_order_cached``
keeps a graph file's greedy deletion order in the same cache, and
``write_features_csv`` keeps there which rows of a features file are their
own ``%.17g`` rendering: a sample formats only its kept rows not shown so
yet, and copies every kept row from the file in one hashing pass that
checks those, writing the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import re
import signal
import stat
import sys
import warnings
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataError
from .graph import Graph, _freeze, build_graph
from .sampling import SampleResult, deletion_order, greedy_budget

_INT64 = np.iinfo(np.int64)


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {v!r}")
    return format(float(v), ".17g")


# Values formatted by one ``%`` operation: 256 rows of 16 features or 2048
# edge rows. Larger blocks raise peak memory, not speed. Every process of a
# split write (``_write_rows``) formats its range in blocks of this size.
_BLOCK_VALUES = 1 << 12

# Fewest values one process formats in a split write: about 20 ms at "%.17g",
# against about 1 ms to fork a 100 MB process.
_SPLIT_VALUES = 1 << 15


def _write_blocks(fh, row_fmt: str, cols: tuple, rows: int) -> None:
    for lo in range(0, cols[0].shape[0], rows):
        block = np.column_stack([c[lo : lo + rows] for c in cols])
        fh.write(row_fmt * block.shape[0] % tuple(block.ravel().tolist()))


def _write_rows(fh, row_fmt: str, *cols: np.ndarray) -> None:
    """Write row i of the table ``cols`` as ``row_fmt % tuple(row i)``.

    The table's columns are those of ``cols`` side by side: each is 1-d (one
    column) or 2-d, with the same row count. Only one block of rows is ever
    stacked into one array, so columns held apart (an edge view's ``u`` and
    ``v``) are never copied whole.

    A table of at least ``2 * _SPLIT_VALUES`` values bound for a regular file
    is split into contiguous row ranges, one per usable CPU. A forked child
    formats each range after the first into an unnamed temp file beside the
    output, while this process formats the first straight into ``fh``; the
    children's bytes are then appended in order, so the file is the one the
    serial loop writes. A range whose child fails is formatted here instead,
    and no child or temp file outlives the call. ``fh`` may itself be an
    unlinked temp file (``_copy_rows``): only its name's directory is used.
    """
    n_rows = cols[0].shape[0]
    width = sum(c.shape[1] if c.ndim == 2 else 1 for c in cols)
    rows = max(1, _BLOCK_VALUES // max(1, width))
    tmps = _range_files(fh, n_rows, n_rows * width)
    if not tmps:
        return _write_blocks(fh, row_fmt, cols, rows)
    parts = len(tmps) + 1
    bounds = [n_rows * i // parts for i in range(parts + 1)]
    ranges = list(zip(tmps, bounds[1:], bounds[2:]))

    def rows_of(lo: int, hi: int) -> tuple:
        return tuple(c[lo:hi] for c in cols)

    pids: list[int | None] = []
    try:
        for fd, lo, hi in ranges:
            pids.append(_fork_range(fd, row_fmt, rows_of(lo, hi), rows))
        _write_blocks(fh, row_fmt, rows_of(0, bounds[1]), rows)
        fh.flush()
        for i, (fd, lo, hi) in enumerate(ranges):
            ok = pids[i] is not None and os.waitpid(pids[i], 0)[1] == 0
            pids[i] = None
            if not (ok and _append(fh.fileno(), fd)):
                _write_blocks(fh, row_fmt, rows_of(lo, hi), rows)
                fh.flush()
    finally:
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in tmps:
            os.close(fd)


def _range_files(fh, n_rows: int, n_values: int) -> list[int]:
    """An unnamed temp file beside ``fh``'s regular file for each range after the first.

    [] when the write is not split: one usable CPU, a small table, no file
    name, not a regular file, a directory it cannot write to, or no
    ``O_TMPFILE`` (not Linux, or the directory's filesystem lacks it).
    """
    fds: list[int] = []
    try:
        parts = min(len(os.sched_getaffinity(0)), n_values // _SPLIT_VALUES, n_rows)
        if parts > 1 and stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and hasattr(os, "copy_file_range"):
            where = os.path.dirname(os.path.abspath(fh.name))
            for _ in range(parts - 1):
                fds.append(os.open(where, os.O_TMPFILE | os.O_RDWR, 0o600))
    except (AttributeError, OSError, TypeError):
        for fd in fds:
            os.close(fd)
        return []
    return fds


def _fork_range(fd: int, row_fmt: str, cols: tuple, rows: int) -> int | None:
    """Pid of a forked child that writes the rows of ``cols`` to ``fd``; None if fork fails.

    The child inherits ``cols`` copy-on-write and leaves only through
    ``os._exit``, so it flushes no buffer it shares with this process.
    """
    # On Python >= 3.12 os.fork warns (DeprecationWarning) while numpy's
    # OpenBLAS threads are alive, as the experiment pool's fork does; the
    # child makes no BLAS call.
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            with open(fd, "w", closefd=False) as out:
                _write_blocks(out, row_fmt, cols, rows)
            code = 0
        finally:
            os._exit(code)
    return pid


def _append(dst: int, src: int) -> bool:
    """Append ``src``'s bytes at ``dst``'s offset; False, writing nothing, if the kernel cannot."""
    off = 0
    try:
        while n := os.copy_file_range(src, dst, 1 << 30, off):
            off += n
    except OSError:
        if off:
            raise
        return False
    return True


def _bulk_parse(path, skiprows: int = 0, **kw) -> np.ndarray | None:
    """The whole file as a 2-d array from one ``np.loadtxt`` call, or None.

    ``comments=None`` makes ``#`` a parse failure and every warning is an
    error: an empty file warns, and numpy 1.24-1.26 accept ``"1.0"`` as an
    int with only a DeprecationWarning. None (on any failure, or no rows)
    tells the caller to run its line reader instead.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = np.loadtxt(path, comments=None, ndmin=2, skiprows=skiprows, **kw)
    except Exception:  # the line reader gives the result or the positioned error
        return None
    return a if a.size else None


def _one_column(path, **kw) -> np.ndarray | None:
    """``_bulk_parse`` of a 1-column file as a 1-d array, or None."""
    a = _bulk_parse(path, **kw)
    return a.ravel() if a is not None and a.shape[1] == 1 else None


def _read(path, bulk, lines):
    """``bulk(path)``, or ``lines(path)`` where the bulk parse gives None."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    out = bulk(path)
    return out if out is not None else lines(path)


# ---------------------------------------------------------------------------
# edge lists


def read_edge_list(path) -> Graph:
    """Parse a whitespace ``u v`` edge list into a Graph.

    Change the ``edge_list`` tag in ``_CACHE_FORMATS`` whenever what this
    returns for given bytes changes.
    """
    path = Path(path)
    declared_n, pairs = _read(path, _bulk_edges, _read_edge_lines)
    try:
        return build_graph(pairs, n=declared_n)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _bulk_edges(path: Path) -> tuple[int | None, np.ndarray] | None:
    """(declared n, pairs) of an ``n=`` line 1 and ``u v`` rows of non-negative ints."""
    try:
        with open(path) as fh:
            head = fh.readline().strip()
        declared_n = int(head[2:]) if head.startswith("n=") else None
    except ValueError:  # a bad header, or a UnicodeDecodeError
        return None
    pairs = _bulk_parse(path, skiprows=int(declared_n is not None), dtype=np.int64)
    if pairs is None or pairs.shape[1] != 2 or pairs.min() < 0:
        return None
    return declared_n, pairs


def _read_edge_lines(path: Path) -> tuple[int | None, np.ndarray]:
    declared_n: int | None = None
    pairs: list[tuple[int, int]] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("n="):
                try:
                    declared_n = int(line[2:])
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad node-count header {line!r}") from None
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer node id in {line!r}") from None
            if u < 0 or v < 0:
                raise DataError(f"{path}:{lineno}: negative node id in {line!r}")
            if max(u, v) > _INT64.max:
                raise DataError(f"{path}:{lineno}: node id out of int64 range in {line!r}")
            pairs.append((u, v))
    return declared_n, np.array(pairs, dtype=np.int64).reshape(-1, 2)


def write_edge_list(g: Graph, path) -> None:
    """Canonical form: ``n=`` header, one ``u v`` line per undirected edge, u < v."""
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(f"n={g.n}\n")
        _write_rows(fh, "%d %d\n", *g.edges())


# ---------------------------------------------------------------------------
# feature / label tables


def read_features_csv(path) -> np.ndarray:
    """CSV of real-valued features, row i = node i.

    Change the ``features_csv`` tag in ``_CACHE_FORMATS`` whenever what this
    returns for given bytes changes.
    """
    return _read(path, partial(_bulk_parse, dtype=np.float64, delimiter=","), _read_features_lines)


def _read_features_lines(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for rowno, record in enumerate(csv.reader(fh), 1):
            if not record:
                continue
            vals = []
            for colno, cell in enumerate(record, 1):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}:{rowno}:{colno}: non-numeric cell {cell!r}"
                    ) from None
            if rows and len(vals) != len(rows[0]):
                raise DataError(
                    f"{path}:{rowno}: expected {len(rows[0])} columns, got {len(vals)}"
                )
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: empty feature file")
    return np.asarray(rows, dtype=np.float64)


def write_features_csv(x, path, source=None) -> None:
    """One CSV row per node; raises after writing the rows before a non-finite one.

    ``source`` is ``(file, digest, n, ids)`` when row i of ``x`` is row
    ``ids[i]`` (sorted, distinct) of the n-row features ``file`` that
    ``read_cached`` parsed under ``digest``. The file's rows that are their
    own ``%.17g`` rendering are then copied from it rather than formatted
    (``_copy_rows``); the bytes written are the same either way.
    """
    x = np.asarray(x, dtype=np.float64)
    finite = np.isfinite(x).all(axis=1)
    rows = x.shape[0] if finite.all() else int(finite.argmin())
    row_fmt = ",".join(["%.17g"] * x.shape[1]) + "\n"
    with open(Path(path), "w") as fh:
        if source is None or rows < x.shape[0] or not _copy_rows(fh, row_fmt, x, *source):
            fh.seek(0)
            fh.truncate()
            _write_rows(fh, row_fmt, x[:rows])
    for v in x[rows : rows + 1].flat:  # raises on the first non-finite value
        _fmt_float(v)


def read_labels_csv(path) -> np.ndarray:
    """CSV with a single integer label column.

    Change the ``labels_csv`` tag in ``_CACHE_FORMATS`` whenever what this
    returns for given bytes changes.
    """
    return _read(path, partial(_one_column, dtype=np.int64, delimiter=","), _read_labels_lines)


def _read_labels_lines(path: Path) -> np.ndarray:
    labels: list[int] = []
    with open(path, newline="") as fh:
        for rowno, record in enumerate(csv.reader(fh), 1):
            if not record:
                continue
            if len(record) != 1:
                raise DataError(f"{path}:{rowno}: expected a single label column")
            try:
                label = int(record[0])
            except ValueError:
                raise DataError(
                    f"{path}:{rowno}: non-integer label {record[0]!r}"
                ) from None
            if not _INT64.min <= label <= _INT64.max:
                raise DataError(f"{path}:{rowno}: label {record[0]!r} out of int64 range")
            labels.append(label)
    if not labels:
        raise DataError(f"{path}: empty label file")
    return np.asarray(labels, dtype=np.int64)


def write_labels_csv(labels, path) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    with open(Path(path), "w") as fh:
        _write_rows(fh, "%d\n", labels)


def check_sizes(g: Graph, x=None, labels=None) -> None:
    """Cross-check row counts against the graph at assembly time."""
    for name, a in (("feature", x), ("label", labels)):
        if a is not None and (rows := np.asarray(a).shape[0]) != g.n:
            raise DataError(f"{name} rows ({rows}) do not match graph nodes ({g.n})")


# ---------------------------------------------------------------------------
# parsed-input cache

CACHE_DIR = "__homsample_cache__"

# entry kind -> (format tag, stored array name -> (dtype, ndim)). An entry
# is found by its tag, so changing a tag retires every entry of that kind.
_CACHE_FORMATS = {
    "edge_list": ("1", {"n": ("int64", 0), "indptr": ("int64", 1), "indices": ("int64", 1)}),
    "features_csv": ("1", {"features": ("float64", 2)}),
    "labels_csv": ("1", {"labels": ("int64", 1)}),
}
# An order is computed from the parsed graph, so its tag carries the
# edge_list tag after its own: a reader change retires the orders as well.
_CACHE_FORMATS["greedy_order"] = ("1-" + _CACHE_FORMATS["edge_list"][0], {"order": ("int64", 1)})
# Which rows of a features file ``write_features_csv`` may copy; it carries
# the features_csv tag for the same reason. Change its own tag whenever what
# ``write_features_csv`` writes for given values changes.
_CACHE_FORMATS["feature_rows"] = (
    "1-" + _CACHE_FORMATS["features_csv"][0], {"offsets": ("int64", 1), "checked": ("bool", 1)}
)


def _reader(kind: str):
    return {
        "edge_list": read_edge_list, "features_csv": read_features_csv, "labels_csv": read_labels_csv,
    }[kind]


def _file_digest(path: Path) -> str:
    """SHA-256 of the file's bytes, read in blocks (``hashlib.file_digest`` needs 3.11)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


def _to_arrays(kind: str, value) -> dict[str, np.ndarray]:
    if kind == "edge_list":
        return {"n": np.int64(value.n), "indptr": value.indptr, "indices": value.indices}
    (name,) = _CACHE_FORMATS[kind][1]
    return {name: value}


def _entry_path(path: Path, kind: str, digest: str) -> tuple[Path, str]:
    """(entry, stem) of ``path``'s ``kind`` entry for the bytes hashing to ``digest``."""
    stem = f"{path.name}.{kind}"
    return path.parent / CACHE_DIR / f"{stem}.{_CACHE_FORMATS[kind][0]}.{digest}.npz", stem


def _load_entry(entry: Path, kind: str):
    """The value stored in ``entry``, or None when it is missing, unreadable or malformed."""
    schema = _CACHE_FORMATS[kind][1]
    try:
        with np.load(entry, allow_pickle=False) as npz:
            if sorted(npz.files) != sorted(schema):
                return None
            a = {name: npz[name] for name in schema}
    except Exception:  # missing, truncated or not an npz: the reader parses the file
        return None
    if any(a[k].dtype != dt or a[k].ndim != nd for k, (dt, nd) in schema.items()):
        return None
    if kind == "feature_rows":  # checked against the file by _copy_rows
        return a["offsets"], a["checked"]
    if kind != "edge_list":
        (value,) = a.values()
        return value if value.size else None
    n, indptr, indices = int(a["n"]), a["indptr"], a["indices"]
    if n < 1 or indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
        return None
    if indices.size % 2 or (indices.size and (indices.min() < 0 or indices.max() >= n)):
        return None
    return _freeze(Graph(n=n, m=indices.size // 2, indptr=indptr, indices=indices))


def _temp_name(path: Path) -> Path:
    """A hidden name beside ``path`` that no other process or call picks."""
    return path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")


def _write_whole(path, write, mode: str = "w", **open_kw) -> None:
    """Call ``write(fh)`` on a new file beside ``path``, then rename it to ``path``.

    ``path`` appears whole or not at all: a failed or interrupted write
    leaves what was there and removes its temp file. ``mode`` and
    ``open_kw`` are ``open``'s. A ``path`` that exists and is not a regular
    file (a directory, ``/dev/stdout``) is opened in place instead.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, mode, **open_kw) as fh:
            write(fh)
        return
    tmp = _temp_name(path)
    try:
        try:  # O_EXCL: a unique name per writer; mode 0o666 less the umask, as for open()
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:  # named by the path asked for (a missing directory)
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        with os.fdopen(fd, mode, **open_kw) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)  # gone already once the file is in place


def _store_entry(entry: Path, stem: str, source: Path | None, digest: str, arrays: dict) -> None:
    """Write ``entry`` unless ``source`` no longer hashes to ``digest``; drop the other ``stem`` entries.

    A None ``source`` is not hashed again: its caller has just hashed it.
    The entry appears whole or not at all (``_write_whole``).
    Any OSError (a read-only directory, a full disk) leaves the cache as it was.
    """
    try:
        if source is not None and _file_digest(source) != digest:  # rewritten while it was parsed
            return
        entry.parent.mkdir(exist_ok=True)
        _write_whole(entry, lambda fh: np.savez(fh, **arrays), "wb")
        same_input = re.compile(re.escape(stem) + r"\.[^.]+\.[0-9a-f]{64}\.npz")
        for old in entry.parent.iterdir():
            if old.name != entry.name and same_input.fullmatch(old.name):
                old.unlink(missing_ok=True)
    except OSError:
        pass


def _no_store() -> None:
    pass


def read_cached(path, kind: str):
    """``(value, store, digest)``: ``read_<kind>(path)``, through the parsed-input cache.

    ``kind`` is ``edge_list``, ``features_csv`` or ``labels_csv``. Entries
    live in ``__homsample_cache__`` beside the input, one ``.npz`` per input
    file and kind, named ``<file name>.<kind>.<format tag>.<sha256 of the
    bytes>.npz``: the key is the file's content, so an edited file misses
    whatever its name or time stamps. A graph file may also have a
    ``greedy_order`` entry (``greedy_order_cached``), and a features file a
    ``feature_rows`` entry (``write_features_csv`` given the file and its
    ``digest`` as its ``source``). A hit loads the parsed
    arrays and ``store`` does nothing. On a miss the reader parses the file
    and ``store()`` writes the entry, replacing the file's entries of this
    kind for other bytes; call it only once the value has passed the
    caller's checks. ``digest`` is the SHA-256 that keys the file's entries,
    or None when the file is read uncached. A failure to hash, load or store
    falls back silently to the plain read.
    """
    path = Path(path)
    try:
        digest = _file_digest(path) if path.is_file() else None
    except OSError:
        digest = None
    if digest is None:  # missing, unreadable, or a pipe that can be read only once
        return _reader(kind)(path), _no_store, None
    entry, stem = _entry_path(path, kind, digest)
    value = _load_entry(entry, kind)
    if value is not None:
        return value, _no_store, digest
    value = _reader(kind)(path)
    return value, partial(_store_entry, entry, stem, path, digest, _to_arrays(kind, value)), digest


def greedy_order_cached(path, digest: str | None, g: Graph, gammas) -> np.ndarray:
    """``deletion_order(g, "degree_greedy", gammas)``, through the cache entry of the graph file ``path``.

    ``g`` is the graph ``read_cached(path, "edge_list")`` returned, with
    ``digest``; a None digest computes the order uncached. ``experiment``
    passes it to ``run_experiment`` as the ``degree_greedy`` order. The entry,
    ``<file name>.greedy_order.<format tag>.<sha256 of the bytes>.npz``,
    holds the longest order computed so far for these bytes, and its tag
    carries the ``edge_list`` tag. A smaller budget takes the entry's
    prefix, which is the order at that budget. A larger budget, or a
    missing, truncated or malformed entry (wrong dtype or ndim, an id
    outside [0, n), a repeated id, more ids than n) computes the order and
    stores it in the entry's place. A failed store leaves the cache as it
    was.
    """
    if digest is None:
        return deletion_order(g, "degree_greedy", gammas)
    path = Path(path)
    budget = greedy_budget(g.n, gammas)
    entry, stem = _entry_path(path, "greedy_order", digest)
    order = _load_entry(entry, "greedy_order")
    if order is not None and budget <= order.size <= g.n and order.min() >= 0 and order.max() < g.n:
        seen = np.zeros(g.n, dtype=bool)
        seen[order] = True
        if np.count_nonzero(seen) == order.size:  # no id repeats
            return order[:budget]
    order = deletion_order(g, "degree_greedy", gammas)
    _store_entry(entry, stem, path, digest, {"order": order})
    return order


# Bytes of the features file read and hashed at a time by the copy pass.
# Larger chunks save little time, and freed ones can stay in the process's
# heap: five warm samples at n = 80k left RSS 4.0 MB higher with 1 MiB
# chunks, 1.2 MB with these.
_CHUNK_BYTES = 1 << 18


def _row_offsets(src, n: int) -> np.ndarray | None:
    """Where each row of the binary file ``src`` starts, then the file's size; rows end at each ``\\n``.

    None when the file is not exactly n rows with a final ``\\n``.
    """
    ends, size = [np.zeros(1, dtype=np.int64)], 0
    while block := src.read(_CHUNK_BYTES):
        ends.append(np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == 10) + (size + 1))
        size += len(block)
    offsets = np.concatenate(ends)
    return offsets if offsets.size == n + 1 and offsets[-1] == size else None


def _row_chunks(src, h, offsets):
    """Yield ``(r0, buf, starts)``: whole rows r0, r0 + 1, ... of the open binary file ``src``.

    Row r starts at ``offsets[r]``; row r0 + i is ``buf[starts[i]:starts[i + 1]]``,
    newline included, and each ``buf`` holds about ``_CHUNK_BYTES``. Every
    byte of the file is hashed into ``h``, the bytes after the last row
    included; a short read ends the rows.
    """
    cuts = np.searchsorted(offsets, np.arange(_CHUNK_BYTES, offsets[-1], _CHUNK_BYTES))
    bounds = np.unique(np.concatenate(([0], cuts, [offsets.size - 1]))).tolist()
    for r0, r1 in zip(bounds, bounds[1:]):
        buf = src.read(int(offsets[r1] - offsets[r0]))
        h.update(buf)
        if len(buf) < offsets[r1] - offsets[r0]:  # the file shrank: the hash differs
            return
        yield r0, buf, offsets[r0 : r1 + 1] - offsets[r0]
    while block := src.read(_CHUNK_BYTES):
        h.update(block)


def _gather(buf: bytes, starts: np.ndarray, rows: np.ndarray) -> bytes:
    """The local ``rows`` (sorted) of ``buf`` cut at ``starts``, one after another."""
    if not rows.size:
        return b""
    brk = np.flatnonzero(np.diff(rows) != 1) + 1  # runs of consecutive rows are one slice
    lo = starts[rows[np.concatenate(([0], brk))]].tolist()
    hi = starts[rows[np.concatenate((brk - 1, [rows.size - 1]))] + 1].tolist()
    view = memoryview(buf)
    return b"".join([view[a:b] for a, b in zip(lo, hi)])


_NOT_COPYABLE = {"offsets": np.empty(0, dtype=np.int64), "checked": np.empty(0, dtype=bool)}


def _copy_rows(fh, row_fmt: str, x: np.ndarray, source, digest: str | None, n: int, ids) -> bool:
    """Write ``x``, rows ``ids`` of the features file ``source``, to ``fh``, copying the rows it can.

    The ``feature_rows`` entry of ``source`` for ``digest`` holds each row's
    byte offsets and a ``checked`` mask of rows proven equal to their
    ``row_fmt`` rendering, or empty arrays when the file is not copyable.
    A not copyable file, or a None digest, returns False at once: the caller
    formats ``x``. A missing or malformed entry is rebuilt with every row
    unchecked, from one scan for ``\\n`` (``_row_offsets``); a file that is
    not one ``\\n``-terminated row per node is marked not copyable instead.

    The unchecked kept rows are formatted first (``_write_rows``, so across
    processes) into a temp file beside ``fh``, unlinked as soon as it is
    opened. One pass over ``source`` then hashes it and, chunk by chunk,
    compares the chunk's unchecked kept rows with the next bytes of the temp
    file, marking them checked, and copies the chunk's kept rows to ``fh``.
    The first chunk that differs marks the file not copyable: its kept rows
    before the first unchecked one are copied, and ``x`` from that row on
    is formatted.

    False when the pass's SHA-256 is not ``digest`` (the file changed since
    it was parsed): the caller formats ``x`` again and nothing is stored.
    Otherwise the entry is stored when the pass changed it, and True.
    """
    if digest is None:
        return False
    source = Path(source)
    entry, stem = _entry_path(source, "feature_rows", digest)
    ids = np.asarray(ids, dtype=np.int64)
    h = hashlib.sha256()
    with open(source, "rb") as src:
        offsets, checked = _load_entry(entry, "feature_rows") or (None, None)
        if offsets is None or not (
            offsets.shape == (n + 1,) and checked.shape == (n,) and offsets[0] == 0
            and offsets[-1] == os.fstat(src.fileno()).st_size and (offsets[1:] > offsets[:-1]).all()
        ):
            if offsets is not None and offsets.size == checked.size == 0:
                return False
            offsets, checked = _row_offsets(src, n), np.zeros(n, dtype=bool)
            if offsets is None:
                _store_entry(entry, stem, source, digest, _NOT_COPYABLE)
                return False
            src.seek(0)
        todo = ~checked[ids]
        tmp = _temp_name(Path(fh.name))
        with open(tmp, "x+") as made:
            os.unlink(tmp)
            _write_rows(made, row_fmt, x if todo.all() else x[todo])  # x itself: no copy on a first sample
            made.seek(0)
            out = fh.buffer
            for r0, buf, starts in _row_chunks(src, h, offsets):
                if out is None:
                    continue  # hashing the rest
                a, b = np.searchsorted(ids, (r0, r0 + starts.size - 1))
                local, new = ids[a:b] - r0, np.flatnonzero(todo[a:b])
                want = _gather(buf, starts, local[new])
                if made.buffer.read(len(want)) != want:
                    out.write(_gather(buf, starts, local[: new[0]]))
                    fh.flush()
                    _write_rows(fh, row_fmt, x[a + new[0] :])
                    out = None
                else:
                    checked[ids[a:b][new]] = True
                    out.write(want if new.size == local.size else _gather(buf, starts, local))
    if h.hexdigest() != digest:
        return False
    if out is not None and not todo.any():  # nothing newly checked
        return True
    arrays = _NOT_COPYABLE if out is None else {"offsets": offsets, "checked": checked}
    _store_entry(entry, stem, None, digest, arrays)
    return True


# ---------------------------------------------------------------------------
# sample directories


def write_sample(result: SampleResult, outdir, features_from=None) -> None:
    """Write kept ids (original), relabeled subgraph edges, id map, and data.

    A ``features.csv`` or ``labels.csv`` left in ``outdir`` by an earlier
    sample is deleted when this sample has none to write.
    ``features_from`` is ``(file, digest, n)`` when ``result.features`` are
    the kept rows of the n-row features file that ``read_cached`` parsed
    under ``digest``: ``write_features_csv`` then copies the rows it can from
    that file.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    kept = result.kept
    with open(outdir / "kept.txt", "w") as fh:
        _write_rows(fh, "%d\n", kept)
    write_edge_list(result.subgraph, outdir / "edges.txt")
    with open(outdir / "id_map.txt", "w") as fh:
        _write_rows(fh, "%d %d\n", np.arange(kept.size), kept)
    source = None if features_from is None else (*features_from, kept)
    for a, name, write in (
        (result.features, "features.csv", partial(write_features_csv, source=source)),
        (result.labels, "labels.csv", write_labels_csv),
    ):
        if a is not None:
            write(a, outdir / name)
        else:
            (outdir / name).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# metrics reports


@dataclass
class MetricsReport:
    """One measured cell: sampler metrics and optional transfer accuracy."""

    dataset: str
    method: str
    gamma: float
    seed: int
    h_g: float
    laplacian_trace: float
    adjusted_trace: float
    components: int
    laplacian_rank: int
    trace_bound: float
    bound_satisfied: bool
    accuracy: float | None = None

    def __post_init__(self):
        if not self.bound_satisfied and self.laplacian_trace >= self.trace_bound - 1e-9:
            raise ValueError("bound_satisfied must be true when the bound holds")


_REPORT_FLOATS = ("gamma", "h_g", "laplacian_trace", "adjusted_trace", "trace_bound")
_REPORT_INTS = ("seed", "components", "laplacian_rank")


def _report_value_str(name: str, value) -> str:
    if name == "accuracy":
        return "null" if value is None else _fmt_float(value)
    if name in _REPORT_FLOATS:
        return _fmt_float(value)
    if name in _REPORT_INTS:
        return str(int(value))
    if name == "bound_satisfied":
        return "true" if value else "false"
    return json.dumps(str(value))


def report_to_text(report: MetricsReport) -> str:
    lines = ["{"]
    names = [f.name for f in fields(MetricsReport)]
    for i, name in enumerate(names):
        comma = "," if i < len(names) - 1 else ""
        lines.append(f'  "{name}": {_report_value_str(name, getattr(report, name))}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_report(report: MetricsReport, path) -> None:
    _write_whole(path, lambda fh: fh.write(report_to_text(report)))


_REPORT_TYPES = {"dataset": str, "method": str, "bound_satisfied": bool, **dict.fromkeys(_REPORT_INTS, int)}


def read_report(path) -> MetricsReport:
    """The report ``write_report`` wrote; a field of a type it never writes raises DataError."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid report: {exc}") from None
    kw = {}
    for f in fields(MetricsReport):
        if not isinstance(raw, dict) or f.name not in raw:
            raise DataError(f"{path}: missing report field {f.name!r}")
        v = kw[f.name] = raw[f.name]
        if type(v) is _REPORT_TYPES.get(f.name) or f.name == "accuracy" and v is None:
            continue
        if f.name in _REPORT_TYPES or type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
            raise DataError(f"{path}: bad report field {f.name!r}: {v!r}")
        kw[f.name] = float(v)
    try:
        return MetricsReport(**kw)
    except ValueError as exc:  # bound_satisfied false where the bound holds
        raise DataError(f"{path}: invalid report: {exc}") from None


def write_timings(timings: dict[str, float], path) -> None:
    """Wall-clock sidecar; not canonical and excluded from determinism checks."""
    _write_whole(path, lambda fh: fh.write(json.dumps(timings, indent=2, sort_keys=True) + "\n"))
