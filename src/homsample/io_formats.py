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
stops at the first row with a non-finite value and raises.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataError
from .graph import Graph, build_graph
from .sampling import SampleResult


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {v!r}")
    return format(float(v), ".17g")


# Values formatted by one ``%`` operation in ``_write_rows``: 256 rows of 16
# features or 2048 edge rows. Larger blocks raise peak memory, not speed.
_BLOCK_VALUES = 1 << 12


def _write_rows(fh, row_fmt: str, a: np.ndarray) -> None:
    """Write row i of ``a`` (1-d: one value per row) as ``row_fmt % tuple(a[i])``."""
    width = a.shape[1] if a.ndim == 2 else 1
    rows = max(1, _BLOCK_VALUES // max(1, width))
    for lo in range(0, a.shape[0], rows):
        block = a[lo : lo + rows]
        fh.write(row_fmt * block.shape[0] % tuple(block.ravel().tolist()))


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
    """Parse a whitespace ``u v`` edge list into a Graph."""
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
    """CSV of real-valued features, row i = node i."""
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
    """CSV with a single integer label column."""
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
# sample directories


def write_sample(result: SampleResult, outdir) -> None:
    """Write kept ids (original), relabeled subgraph edges, id map, and data."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    kept = result.kept
    with open(outdir / "kept.txt", "w") as fh:
        _write_rows(fh, "%d\n", kept)
    write_edge_list(result.subgraph, outdir / "edges.txt")
    with open(outdir / "id_map.txt", "w") as fh:
        _write_rows(fh, "%d %d\n", np.column_stack([np.arange(kept.size), kept]))
    if result.features is not None:
        write_features_csv(result.features, outdir / "features.csv")
    if result.labels is not None:
        write_labels_csv(result.labels, outdir / "labels.csv")


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
