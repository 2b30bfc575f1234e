"""Checkpoint sequences and metric tables on disk.

Binary checkpoint layout (all little-endian):

    bytes 0-3    magic ``RNAC``
    bytes 4-5    uint16 version, currently 1
    bytes 6-7    uint16 scalar width in bytes: 8 (f64) or 4 (f32)
    bytes 8-15   uint64 dim, entries per iterate
    bytes 16-23  uint64 count, number of iterates
    payload      count * dim scalars, iterate-major (all of iterate 0,
                 then iterate 1, ...)

The payload length must match the header exactly; trailing bytes are an
error. f64 files round-trip bit-exactly. f32 is offered because deep
learning checkpoints usually are f32; the math still runs in f64 after
loading. Iterate-major order lets a reader stream the last K+1 iterates
without touching the rest of the file.

Metric tables are plain comma-separated text with a header row; scalars
are rendered with 17 significant digits so that parsing the file back
recovers every float64 exactly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import as_iterate_matrix
from .errors import FormatError, NumericalFailure

MAGIC = b"RNAC"
VERSION = 1

_HEADER = struct.Struct("<4sHHQQ")
_DTYPES = {8: np.dtype("<f8"), 4: np.dtype("<f4")}
_WIDTHS = {"f64": 8, "f32": 4}

MANIFEST_NAME = "manifest.txt"

METRIC_COLUMNS = (
    "epoch",
    "objective",
    "grad_norm",
    "objective_rna",
    "grad_norm_rna",
    "lambda_used",
)


def write_checkpoints(path, iterates, precision: str = "f64") -> None:
    """Write an iterate sequence as one binary checkpoint file."""
    if precision not in _WIDTHS:
        raise FormatError(f"precision must be 'f64' or 'f32', got {precision!r}")
    mat = as_iterate_matrix(iterates)
    width = _WIDTHS[precision]
    header = _HEADER.pack(MAGIC, VERSION, width, mat.shape[1], mat.shape[0])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(mat, dtype=_DTYPES[width]).tobytes())


def read_checkpoints(path) -> np.ndarray:
    """Read a checkpoint file back as a (count, dim) float64 matrix.

    Raises FormatError on a bad magic/version/width, on a payload whose
    length disagrees with the header, and NumericalFailure on non-finite
    payload values.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: file shorter than the fixed header")
    magic, version, width, dim, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if width not in _DTYPES:
        raise FormatError(f"{path}: unsupported scalar width {width}")
    if dim == 0 or count == 0:
        raise FormatError(f"{path}: empty dim or count in header")
    expected = _HEADER.size + width * dim * count
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload holds {len(raw) - _HEADER.size} bytes, "
            f"header promises {expected - _HEADER.size}"
        )
    flat = np.frombuffer(raw, dtype=_DTYPES[width], offset=_HEADER.size)
    mat = flat.astype(np.float64).reshape(count, dim)
    if not np.isfinite(mat).all():
        raise NumericalFailure(f"{path}: payload contains NaN or infinite values")
    return mat


def read_checkpoint_dir(path) -> np.ndarray:
    """Concatenate every checkpoint file in a directory, in order.

    Files are taken in lexicographic name order unless a ``manifest.txt``
    (one file name per line, comments with ``#``) pins the order; a name
    that resolves outside the directory is a FormatError. All files must
    share one dim.
    """
    root = Path(path)
    manifest = root / MANIFEST_NAME
    if manifest.is_file():
        names = [
            line.strip()
            for line in manifest.read_text().splitlines()
            if line.strip() and not line.strip().startswith("#")
        ]
        files = [root / name for name in names]
        inside = root.resolve()
        outside = [n for n, f in zip(names, files) if inside not in f.resolve().parents]
        if outside:
            raise FormatError(f"{path}: manifest names files outside the directory {outside}")
        missing = [f.name for f in files if not f.is_file()]
        if missing:
            raise FormatError(f"{path}: manifest names missing files {missing}")
    else:
        files = sorted(
            p for p in root.iterdir() if p.is_file() and p.name != MANIFEST_NAME
        )
    if not files:
        raise FormatError(f"{path}: no checkpoint files found")
    parts = [read_checkpoints(f) for f in files]
    dims = {p.shape[1] for p in parts}
    if len(dims) != 1:
        raise FormatError(f"{path}: files disagree on dimension: {sorted(dims)}")
    return np.vstack(parts)


@dataclass(frozen=True)
class MetricsRow:
    """One epoch of the convergence table: vanilla and accelerated."""

    epoch: int
    objective: float
    grad_norm: float
    objective_rna: float
    grad_norm_rna: float
    lambda_used: float | None


def _render(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _write_table(path, header, rows) -> None:
    """Write rows of rendered fields as comma-separated text under ``header``."""
    lines = [",".join(header), *(",".join(fields) for fields in rows)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metrics(path, rows) -> None:
    """Write metric rows as comma-separated text with a header line."""
    _write_table(
        path,
        METRIC_COLUMNS,
        ((str(r.epoch), *(_render(getattr(r, n)) for n in METRIC_COLUMNS[1:])) for r in rows),
    )
