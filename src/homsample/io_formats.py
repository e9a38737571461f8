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
and reloaded while the file's bytes stay the same.
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
import warnings
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataError
from .graph import Graph, _freeze, build_graph
from .sampling import SampleResult


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


def _write_blocks(fh, row_fmt: str, a: np.ndarray, rows: int) -> None:
    for lo in range(0, a.shape[0], rows):
        block = a[lo : lo + rows]
        fh.write(row_fmt * block.shape[0] % tuple(block.ravel().tolist()))


def _write_rows(fh, row_fmt: str, a: np.ndarray) -> None:
    """Write row i of ``a`` (1-d: one value per row) as ``row_fmt % tuple(a[i])``.

    A table of at least ``2 * _SPLIT_VALUES`` values bound for a regular file
    is split into contiguous row ranges, one per usable CPU. A forked child
    formats each range after the first into an unnamed temp file beside the
    output, while this process formats the first straight into ``fh``; the
    children's bytes are then appended in order, so the file is the one the
    serial loop writes. A range whose child fails is formatted here instead,
    and no child or temp file outlives the call.
    """
    width = a.shape[1] if a.ndim == 2 else 1
    rows = max(1, _BLOCK_VALUES // max(1, width))
    tmps = _range_files(fh, a)
    if not tmps:
        return _write_blocks(fh, row_fmt, a, rows)
    parts = len(tmps) + 1
    bounds = [a.shape[0] * i // parts for i in range(parts + 1)]
    ranges = list(zip(tmps, bounds[1:], bounds[2:]))
    pids: list[int | None] = []
    try:
        for fd, lo, hi in ranges:
            pids.append(_fork_range(fd, row_fmt, a[lo:hi], rows))
        _write_blocks(fh, row_fmt, a[: bounds[1]], rows)
        fh.flush()
        for i, (fd, lo, hi) in enumerate(ranges):
            ok = pids[i] is not None and os.waitpid(pids[i], 0)[1] == 0
            pids[i] = None
            if not (ok and _append(fh.fileno(), fd)):
                _write_blocks(fh, row_fmt, a[lo:hi], rows)
                fh.flush()
    finally:
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for fd in tmps:
            os.close(fd)


def _range_files(fh, a: np.ndarray) -> list[int]:
    """An unnamed temp file beside ``fh``'s regular file for each range after the first.

    [] when the write is not split: one usable CPU, a small table, no file
    name, not a regular file, a directory it cannot write to, or no
    ``O_TMPFILE`` (not Linux, or the directory's filesystem lacks it).
    """
    fds: list[int] = []
    try:
        parts = min(len(os.sched_getaffinity(0)), a.size // _SPLIT_VALUES, a.shape[0])
        if parts > 1 and stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and hasattr(os, "copy_file_range"):
            where = os.path.dirname(os.path.abspath(fh.name))
            for _ in range(parts - 1):
                fds.append(os.open(where, os.O_TMPFILE | os.O_RDWR, 0o600))
    except (AttributeError, OSError, TypeError):
        for fd in fds:
            os.close(fd)
        return []
    return fds


def _fork_range(fd: int, row_fmt: str, a: np.ndarray, rows: int) -> int | None:
    """Pid of a forked child that writes ``a``'s rows to ``fd``; None if fork fails.

    The child inherits ``a`` copy-on-write and leaves only through
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
                _write_blocks(out, row_fmt, a, rows)
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
            pairs.append((u, v))
    return declared_n, np.array(pairs, dtype=np.int64).reshape(-1, 2)


def write_edge_list(g: Graph, path) -> None:
    """Canonical form: ``n=`` header, one ``u v`` line per undirected edge, u < v."""
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(f"n={g.n}\n")
        _write_rows(fh, "%d %d\n", g.edge_array())


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


def write_features_csv(x, path) -> None:
    """One CSV row per node; raises after writing the rows before a non-finite one."""
    x = np.asarray(x, dtype=np.float64)
    finite = np.isfinite(x).all(axis=1)
    rows = x.shape[0] if finite.all() else int(finite.argmin())
    with open(Path(path), "w") as fh:
        _write_rows(fh, ",".join(["%.17g"] * x.shape[1]) + "\n", x[:rows])
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
                labels.append(int(record[0]))
            except ValueError:
                raise DataError(
                    f"{path}:{rowno}: non-integer label {record[0]!r}"
                ) from None
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

# reader kind -> (format tag, stored array name -> (dtype, ndim)). An entry
# is found by its tag, so changing a tag retires every entry of that kind.
_CACHE_FORMATS = {
    "edge_list": ("1", {"n": ("int64", 0), "indptr": ("int64", 1), "indices": ("int64", 1)}),
    "features_csv": ("1", {"features": ("float64", 2)}),
    "labels_csv": ("1", {"labels": ("int64", 1)}),
}


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
    if kind != "edge_list":
        (value,) = a.values()
        return value if value.size else None
    n, indptr, indices = int(a["n"]), a["indptr"], a["indices"]
    if n < 1 or indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
        return None
    if indices.size % 2 or (indices.size and (indices.min() < 0 or indices.max() >= n)):
        return None
    return _freeze(Graph(n=n, m=indices.size // 2, indptr=indptr, indices=indices))


def _store_entry(entry: Path, stem: str, source: Path, digest: str, arrays: dict) -> None:
    """Write ``entry`` if ``source`` still hashes to ``digest``; drop the other ``stem`` entries.

    The entry appears whole or not at all (a temp file and ``os.replace``).
    Any OSError (a read-only directory, a full disk) leaves the cache as it was.
    """
    tmp = entry.parent / f".{entry.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        if _file_digest(source) != digest:  # rewritten while it was parsed
            return
        entry.parent.mkdir(exist_ok=True)
        # O_EXCL: a unique name per writer; mode 0o666 less the umask, as for open()
        with os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, entry)
        same_input = re.compile(re.escape(stem) + r"\.[^.]+\.[0-9a-f]{64}\.npz")
        for old in entry.parent.iterdir():
            if old.name != entry.name and same_input.fullmatch(old.name):
                old.unlink(missing_ok=True)
    except OSError:
        pass
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)  # gone already once the entry is in place


def _no_store() -> None:
    pass


def read_cached(path, kind: str):
    """``(value, store)``: ``read_<kind>(path)``, through the parsed-input cache.

    ``kind`` is ``edge_list``, ``features_csv`` or ``labels_csv``. Entries
    live in ``__homsample_cache__`` beside the input, one ``.npz`` per input
    file, named ``<file name>.<kind>.<format tag>.<sha256 of the bytes>.npz``:
    the key is the file's content, so an edited file misses whatever its
    name or time stamps. A hit loads the parsed arrays and ``store`` does
    nothing. On a miss the reader parses the file and ``store()`` writes the
    entry, replacing the file's entries for other bytes; call it only once
    the value has passed the caller's checks. A failure to hash, load or
    store falls back silently to the plain read.
    """
    path = Path(path)
    try:
        digest = _file_digest(path) if path.is_file() else None
    except OSError:
        digest = None
    if digest is None:  # missing, unreadable, or a pipe that can be read only once
        return _reader(kind)(path), _no_store
    stem = f"{path.name}.{kind}"
    entry = path.parent / CACHE_DIR / f"{stem}.{_CACHE_FORMATS[kind][0]}.{digest}.npz"
    value = _load_entry(entry, kind)
    if value is not None:
        return value, _no_store
    value = _reader(kind)(path)
    return value, partial(_store_entry, entry, stem, path, digest, _to_arrays(kind, value))


# ---------------------------------------------------------------------------
# sample directories


def write_sample(result: SampleResult, outdir) -> None:
    """Write kept ids (original), relabeled subgraph edges, id map, and data.

    A ``features.csv`` or ``labels.csv`` left in ``outdir`` by an earlier
    sample is deleted when this sample has none to write.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    kept = result.kept
    with open(outdir / "kept.txt", "w") as fh:
        _write_rows(fh, "%d\n", kept)
    write_edge_list(result.subgraph, outdir / "edges.txt")
    with open(outdir / "id_map.txt", "w") as fh:
        _write_rows(fh, "%d %d\n", np.column_stack([np.arange(kept.size), kept]))
    for a, name, write in (
        (result.features, "features.csv", write_features_csv),
        (result.labels, "labels.csv", write_labels_csv),
    ):
        if a is not None:
            write(a, outdir / name)
        else:
            (outdir / name).unlink(missing_ok=True)


def read_kept(path) -> np.ndarray:
    """One original node id per line."""
    return _read(path, partial(_one_column, dtype=np.int64), _read_kept_lines)


def _read_kept_lines(path: Path) -> np.ndarray:
    ids = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                ids.append(int(line))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer node id {line!r}") from None
    return np.asarray(ids, dtype=np.int64)


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
    Path(path).write_text(report_to_text(report))


def read_report(path) -> MetricsReport:
    path = Path(path)
    if not path.exists():
        raise DataError(f"{path}: no such file")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid report: {exc}") from None
    kw = {}
    for f in fields(MetricsReport):
        if f.name not in raw:
            raise DataError(f"{path}: missing report field {f.name!r}")
        v = raw[f.name]
        if f.name in _REPORT_FLOATS:
            v = float(v)
        elif f.name in _REPORT_INTS:
            v = int(v)
        elif f.name == "accuracy":
            v = None if v is None else float(v)
        kw[f.name] = v
    return MetricsReport(**kw)


def write_timings(timings: dict[str, float], path) -> None:
    """Wall-clock sidecar; not canonical and excluded from determinism checks."""
    Path(path).write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n")
