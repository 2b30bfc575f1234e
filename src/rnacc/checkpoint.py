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
without touching the rest of the file, and ``rnacc accelerate`` does: it checks
every header of a file or a directory against its file's size before it reads any
payload, then reads the payload of the last K+1 iterates only. The reader checks the
format only: the core checks the values, of the window only.

Every file here is written to a new ``.rnacc-<pid>-<n>.tmp`` beside its target, n
from a process-wide counter, and then renamed over it, so a reader sees either the
old file or the whole new one; a directory listing skips names that start with ``.``.

Metric tables are plain comma-separated text with a header row; scalars
are rendered with 17 significant digits so that parsing the file back
recovers every float64 exactly.
"""

from __future__ import annotations

import itertools
import os
import stat
import struct
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .core import as_iterate_matrix
from .errors import FormatError, InvalidConfig, NumericalFailure

MAGIC = b"RNAC"
VERSION = 1

_HEADER = struct.Struct("<4sHHQQ")
_DTYPES = {8: np.dtype("<f8"), 4: np.dtype("<f4")}
_WIDTHS = {"f64": 8, "f32": 4}

MANIFEST_NAME = "manifest.txt"
_NAMES = itertools.count()  # n of the writers' temporary files, .rnacc-<pid>-<n>.tmp

METRIC_COLUMNS = (
    "epoch",
    "objective",
    "grad_norm",
    "objective_rna",
    "grad_norm_rna",
    "lambda_used",
)


def _split(path) -> tuple[str, str]:
    """``path`` as the directory and the name that the writer opens; a name that is
    empty, ``.`` or ``..`` means the path names no file."""
    head, name = os.path.split(os.fspath(path))
    return head or os.curdir, name


@contextmanager
def _replacing(path, mode: str, **kwargs):
    """Open a new ``.rnacc-<pid>-<n>.tmp`` beside ``path`` for writing; on success it
    replaces ``path``, on any failure it is removed. n comes from a process-wide counter,
    so two writes of one process never share a name; a name that exists (a killed run's
    file, say) is left alone and the next n taken, at most 100 times. Mode ``x`` keeps
    the umask's file mode and makes sure the file is this call's own."""
    for tries_left in reversed(range(100)):
        tmp = os.path.join(_split(path)[0], f".rnacc-{os.getpid()}-{next(_NAMES)}.tmp")
        try:
            fh = open(tmp, mode.replace("w", "x"), **kwargs)
            break
        except FileExistsError:
            if not tries_left:
                raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _preflight(outputs, inputs=(), make=None) -> None:
    """Raise, before any work, for the first output that would not be written.

    ``outputs`` and ``inputs`` hold ``(label, path)`` pairs; an input with an empty
    path is not read. An output that resolves to an input or an earlier output, or lies
    inside one, raises InvalidConfig naming both. Then an OSError names the first output
    whose path names no file (it is empty or ends in a separator, ``.`` or ``..``), that
    is a directory (a link to one is not: the write replaces the link), whose directory
    is missing or is not one, or whose name is longer than that directory allows.
    ``make`` is the ``(label, path)`` of the directory holding every output, made if
    missing: it must not be empty, and its missing parts must fit as names in its
    nearest existing ancestor, which must be a directory. An output path that holds a
    NUL byte, which no file name can, raises OSError before any of these checks.
    """
    for label, path in outputs:
        if "\0" in os.fspath(path):
            raise OSError(f"{label} {os.fspath(path)!r}: a path cannot hold a NUL byte")
    seen = [(label, path, Path(path).resolve()) for label, path in inputs if path]
    for label, path in outputs:
        mine = Path(path).resolve()
        for other, other_path, theirs in seen:
            if mine == theirs or theirs in mine.parents:
                how = "is" if mine == theirs else "lies inside"
                raise InvalidConfig(f"{label} {path} {how} {other} {other_path}")
        seen.append((label, path, mine))
    if make is not None and not make[1]:
        raise FileNotFoundError(f"{make[0]}: an empty path names no directory")
    for label, path in outputs:
        head, name = _split(path)
        if name in ("", os.curdir, os.pardir):
            raise IsADirectoryError(f"{label} {os.fspath(path)!r}: the path names no file")
        if os.path.isdir(path) and not os.path.islink(path):
            raise IsADirectoryError(f"{label} {path}: is a directory")
        sizes = [(f"{label} {path}", len(os.fsencode(name)))]  # (who, bytes) per new name
        while not os.path.lexists(head):  # make's directory, to be made with its parents
            if make is None:
                raise FileNotFoundError(f"{label} {path}: its directory does not exist")
            head, name = _split(head)
            sizes.append((f"{make[0]} {make[1]}", len(os.fsencode(name))))
        if not os.path.isdir(head):
            raise NotADirectoryError(f"{sizes[-1][0]}: {head} is not a directory")
        limit = os.pathconf(head, "PC_NAME_MAX") if hasattr(os, "pathconf") else 255
        for where, size in sizes:
            if size > limit >= 0:
                raise OSError(f"{where}: file name too long ({size} bytes, at most {limit})")


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
        fh.write(payload.data)  # the array's own buffer, not a bytes copy


def _require_regular(label: str, path, directory: bool = False) -> None:
    """Raise OSError for an input that exists and is not a regular file (nor, with
    ``directory``, a directory), before it is opened: opening a FIFO for reading waits
    for a writer. A missing input is left for its ``open`` to report."""
    try:
        mode = os.stat(path).st_mode
    except OSError:
        return
    if not (stat.S_ISREG(mode) or (directory and stat.S_ISDIR(mode))):
        kind = "neither a regular file nor a directory" if directory else "not a regular file"
        raise OSError(f"{label} {os.fspath(path)}: {kind}")


def _placed(inside: Path, name: str, file: Path) -> tuple[Path, bool]:
    """``file.resolve()`` and ``file.is_file()`` for a manifest line ``name`` whose
    directory resolves to ``inside``. A plain name, one component that is no link, is
    both with one ``lstat``; any other name, or one that ``lstat`` fails on, goes
    through ``Path.resolve``."""
    if name not in (os.curdir, os.pardir) and not set(name) & {os.sep, os.altsep}:
        place = inside / name
        try:
            mode = os.lstat(place).st_mode
        except OSError:
            mode = None
        if mode is not None and not stat.S_ISLNK(mode):
            return place, stat.S_ISREG(mode)
    return file.resolve(), file.is_file()


def _checkpoint_files(path) -> list:
    """``[path]`` for a file, else a directory's files by name, skipping dot-files such
    as a writer's temporary file, or in the order its ``manifest.txt`` (one name per
    line, ``#`` comments) pins; a manifest that is not a regular file is an OSError,
    and a manifest name that holds a NUL byte or resolves outside the directory, or
    two names that resolve to one file, are a FormatError.
    """
    _require_regular("the checkpoints", path, directory=True)
    if not os.path.isdir(path):
        return [path]
    root = Path(path)
    manifest = root / MANIFEST_NAME
    if os.path.lexists(manifest):  # a dangling link is a manifest too, not a missing one
        if not manifest.is_file():
            raise OSError(f"the manifest {manifest}: not a regular file")
        try:
            text = manifest.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            msg = f"{manifest}: not UTF-8 text ({exc.reason} at byte {exc.start})"
            raise FormatError(msg) from None
        names = [n for n in map(str.strip, text.splitlines()) if n and not n.startswith("#")]
        nul = [n for n in names if "\0" in n]
        if nul:
            raise FormatError(f"{manifest}: names hold a NUL byte {nul}")
        files = [root / name for name in names]
        inside = root.resolve()
        places = [_placed(inside, name, f) for name, f in zip(names, files)]
        outside = [n for n, (r, _) in zip(names, places) if inside not in r.parents]
        if outside:
            raise FormatError(f"{path}: manifest names files outside the directory {outside}")
        counts = Counter(r for r, _ in places)
        repeated = sorted({n for n, (r, _) in zip(names, places) if counts[r] > 1})
        if repeated:
            raise FormatError(f"{path}: manifest names one file more than once {repeated}")
        missing = [f.name for f, (_, regular) in zip(files, places) if not regular]
        if missing:
            raise FormatError(f"{path}: manifest names missing files {missing}")
    else:
        listed = (p for p in root.iterdir() if not p.name.startswith("."))  # so no temporary file
        files = sorted(p for p in listed if p.name != MANIFEST_NAME and p.is_file())
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
    core's one value check, which looks at the window only.
    """
    return _read_tail(path)[0]


def _read_tail(path, rows: int | None = None) -> tuple[np.ndarray, int]:
    """The last ``rows`` iterates of :func:`read_checkpoints` (every one when None),
    and the number of iterates stored.

    Every header is checked first, as there. Then one float64 matrix of the tail's rows
    is filled: each file that holds part of the tail is read from its first iterate in
    the tail, and a file wholly before the tail is not opened again.
    """
    files = _checkpoint_files(path)
    headers = [_read_header(f) for f in files]
    dims = {dim for _, dim, _ in headers}
    if len(dims) != 1:
        raise FormatError(f"{path}: files disagree on dimension: {sorted(dims)}")
    dim, total = dims.pop(), sum(count for *_, count in headers)
    first = 0 if rows is None else max(total - rows, 0)
    mat = np.empty((total - first, dim))
    end = 0
    for f, (dtype, _, count) in zip(files, headers):
        start, end = end, end + count  # f's iterates, counted in the whole sequence
        if end <= first:
            continue
        lo = max(first, start)  # f's first iterate in the tail
        dest = mat[lo - first:end - first]
        buf = dest if dtype == mat.dtype else np.empty(dest.shape, dtype)  # f64 in place
        with open(f, "rb") as fh:
            fh.seek(_HEADER.size + (lo - start) * dim * dtype.itemsize)
            got = fh.readinto(buf)
            if got != buf.nbytes:  # the file changed since its header was checked
                held = os.fstat(fh.fileno()).st_size - _HEADER.size
                promised = count * dim * dtype.itemsize
                raise FormatError(f"{f}: payload holds {held} bytes, header promises {promised}")
        if buf is not dest:
            dest[...] = buf
    return mat, total


def _render(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _write_table(path, header, rows) -> None:
    """Write rows of rendered fields as comma-separated text under ``header``."""
    lines = [",".join(header), *(",".join(fields) for fields in rows)]
    with _replacing(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _metric_row(v, a) -> list[str]:
    """The rendered metrics row of one epoch's vanilla and accelerated records."""
    fields = (v.objective, v.grad_norm, a.objective, a.grad_norm, a.lam_used)
    return [str(v.epoch)] + [_render(x) for x in fields]


def write_metrics(path, vanilla, accelerated) -> None:
    """Write one row per epoch of two equally long traces, vanilla and accelerated.

    ``vanilla`` holds :class:`~rnacc.optimizers.EpochRecord` entries and
    ``accelerated`` :class:`~rnacc.optimizers.AccelRecord` entries; traces of
    different lengths raise ValueError before the file is opened.
    """
    rows = (_metric_row(v, a) for v, a in zip(vanilla, accelerated, strict=True))
    _write_table(path, METRIC_COLUMNS, rows)
