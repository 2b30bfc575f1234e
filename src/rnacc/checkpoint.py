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
without touching the rest of the file. ``read_checkpoints`` checks every
header of a file or a directory against its file's size before it reads any payload,
and it checks the format only: the core checks the values.

Every file here is written to ``.<name>.<pid>.tmp`` beside its target and then
renamed over it, so a reader sees either the old file or the whole new one;
a directory listing skips names that start with ``.``.

Metric tables are plain comma-separated text with a header row; scalars
are rendered with 17 significant digits so that parsing the file back
recovers every float64 exactly.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
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


@contextmanager
def _replacing(path, mode: str, **kwargs):
    """Open ``.<name>.<pid>.tmp`` beside ``path`` for writing; on success it replaces
    ``path``, on any failure it is removed. Mode ``x`` keeps the umask's file mode."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_checkpoints(path, iterates, precision: str = "f64") -> None:
    """Write an iterate sequence as one binary checkpoint file.

    Values that f32 cannot hold raise NumericalFailure before anything is written.
    """
    if precision not in _WIDTHS:
        raise FormatError(f"precision must be 'f64' or 'f32', got {precision!r}")
    mat = as_iterate_matrix(iterates)
    dtype = _DTYPES[_WIDTHS[precision]]
    try:
        with np.errstate(over="raise"):
            payload = np.ascontiguousarray(mat, dtype=dtype)
    except FloatingPointError:  # only f32 can overflow
        top = np.finfo(dtype).max
        raise NumericalFailure(f"{path}: iterates exceed f32's range of +-{top:.8g}") from None
    with _replacing(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, dtype.itemsize, mat.shape[1], mat.shape[0]))
        fh.write(payload.tobytes())


def _checkpoint_files(path) -> list:
    """``[path]`` for a file, else a directory's files by name, skipping dot-files such
    as a writer's temporary file, or in the order its ``manifest.txt`` (one name per
    line, ``#`` comments) pins; a manifest name that resolves outside the directory is
    a FormatError.
    """
    if not os.path.isdir(path):
        return [path]
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
            p
            for p in root.iterdir()
            if p.is_file() and p.name != MANIFEST_NAME and not p.name.startswith(".")
        )
    if not files:
        raise FormatError(f"{path}: no checkpoint files found")
    return files


def _read_header(path) -> tuple[np.dtype, int, int]:
    """Check one file's header against the file's size; return (dtype, dim, count)."""
    with open(path, "rb", buffering=0) as fh:  # unbuffered: read the 24 bytes, no more
        head = fh.read(_HEADER.size)
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
    if len(head) < _HEADER.size:
        raise FormatError(f"{path}: file shorter than the fixed header")
    magic, version, width, dim, count = _HEADER.unpack(head)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if width not in _DTYPES:
        raise FormatError(f"{path}: unsupported scalar width {width}")
    if dim == 0 or count == 0:
        raise FormatError(f"{path}: empty dim or count in header")
    promised = width * dim * count
    if payload != promised:
        raise FormatError(f"{path}: payload holds {payload} bytes, header promises {promised}")
    return _DTYPES[width], dim, count


def read_checkpoints(path) -> np.ndarray:
    """Read a checkpoint file, or a directory of them, as one (count, dim) float64 matrix.

    Before any payload is read, a bad header or manifest, a file size that disagrees
    with its header or files that disagree on dim raise FormatError. Each payload then
    lands in its rows of the result as stored: NaN and infinities are left for the
    core's one value check, :func:`rnacc.as_iterate_matrix`.
    """
    files = _checkpoint_files(path)
    headers = [_read_header(f) for f in files]
    dims = {dim for _, dim, _ in headers}
    if len(dims) != 1:
        raise FormatError(f"{path}: files disagree on dimension: {sorted(dims)}")
    counts = [count for *_, count in headers]
    mat = np.empty((sum(counts), dims.pop()))
    for f, (dtype, *_), rows in zip(files, headers, np.split(mat, np.cumsum(counts)[:-1])):
        buf = rows if dtype == mat.dtype else np.empty(rows.shape, dtype)  # f64 in place
        with open(f, "rb") as fh:
            fh.seek(_HEADER.size)
            got = fh.readinto(buf)
        if got != buf.nbytes:  # the file changed since its header was checked
            raise FormatError(f"{f}: payload holds {got} bytes, header promises {buf.nbytes}")
        if buf is not rows:
            rows[...] = buf
    return mat


def _render(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _write_table(path, header, rows) -> None:
    """Write rows of rendered fields as comma-separated text under ``header``."""
    lines = [",".join(header), *(",".join(fields) for fields in rows)]
    with _replacing(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metrics(path, vanilla, accelerated) -> None:
    """Write one row per epoch of two equally long traces, vanilla and accelerated.

    ``vanilla`` holds :class:`~rnacc.optimizers.EpochRecord` entries and
    ``accelerated`` :class:`~rnacc.optimizers.AccelRecord` entries; traces of
    different lengths raise ValueError before the file is opened.
    """
    _write_table(
        path,
        METRIC_COLUMNS,
        (
            [str(v.epoch)]
            + [_render(x) for x in (v.objective, v.grad_norm, a.objective, a.grad_norm, a.lam_used)]
            for v, a in zip(vanilla, accelerated, strict=True)
        ),
    )
