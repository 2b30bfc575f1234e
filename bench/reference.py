"""Independent readers and reference solves for the benchmark's checks.

Nothing here imports rnacc: the checkpoint layout, the metrics CSV and
the ridge system are decoded and solved from their published
definitions, so a defect in rnacc's own reader or solver cannot hide
behind itself.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

HEADER = struct.Struct("<4sHHQQ")
MAGIC = b"RNAC"
DTYPES = {8: np.dtype("<f8"), 4: np.dtype("<f4")}
WIDTHS = {"f64": 8, "f32": 4}


def write_file(path, rows, precision: str) -> None:
    """Write iterates (one per row) in the binary checkpoint layout."""
    width = WIDTHS[precision]
    rows = [np.asarray(r, dtype=DTYPES[width]) for r in rows]
    with open(path, "wb") as fh:
        fh.write(HEADER.pack(MAGIC, 1, width, rows[0].size, len(rows)))
        for row in rows:
            fh.write(row.tobytes())


def read_header(fh, path) -> tuple[int, int, int]:
    """Return (width, dim, count), checking magic, version and length."""
    raw = fh.read(HEADER.size)
    if len(raw) != HEADER.size:
        raise ValueError(f"{path}: short header")
    magic, version, width, dim, count = HEADER.unpack(raw)
    if magic != MAGIC or version != 1 or width not in DTYPES:
        raise ValueError(f"{path}: bad header {magic!r} v{version} w{width}")
    size = Path(path).stat().st_size
    if size != HEADER.size + width * dim * count:
        raise ValueError(f"{path}: {size} bytes disagree with the header")
    return width, dim, count


def read_tail(path, rows: int) -> np.ndarray:
    """Decode the last ``rows`` iterates of one file as float64."""
    with open(path, "rb") as fh:
        width, dim, count = read_header(fh, path)
        take = min(rows, count)
        fh.seek(HEADER.size + width * dim * (count - take))
        payload = fh.read(width * dim * take)
    return np.frombuffer(payload, dtype=DTYPES[width]).astype(np.float64).reshape(take, dim)


def read_dir_tail(root, rows: int) -> np.ndarray:
    """Decode the last ``rows`` one-iterate files named by ``manifest.txt``."""
    root = Path(root)
    names = [
        line.strip()
        for line in (root / "manifest.txt").read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    return np.vstack([read_tail(root / name, 1) for name in names[-rows:]])


def read_scores(path) -> np.ndarray:
    return np.array([float(line) for line in Path(path).read_text().split()])


def ridge_weights(window: np.ndarray, lam: float) -> np.ndarray:
    """Unit-sum c minimising ||R c||^2 + lam ||c||^2 by a plain LU solve."""
    r = np.diff(window, axis=0).T
    gram = r.T @ r
    z = np.linalg.solve(gram + lam * np.eye(gram.shape[0]), np.ones(gram.shape[0]))
    return z / z.sum()


def residual_norm(window: np.ndarray, weights) -> float:
    """||R c|| for the residual matrix R of consecutive differences."""
    return float(np.linalg.norm(np.diff(window, axis=0).T @ np.asarray(weights)))


def unit_sum_ok(weights) -> bool:
    """Coefficients sum to one within two ulps of the largest of them."""
    w = np.asarray(weights, dtype=np.float64)
    gap = abs(math.fsum(w) - 1.0)
    return gap <= 2.0 * np.finfo(np.float64).eps * max(1.0, float(np.abs(w).max()))


def parse_metrics_csv(path) -> list[tuple]:
    """Rows of a metrics CSV as (epoch, objective, grad_norm,
    objective_rna, grad_norm_rna, lambda_used or None)."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if lines[0] != "epoch,objective,grad_norm,objective_rna,grad_norm_rna,lambda_used":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        epoch, *floats, lam = line.split(",")
        if len(floats) != 4:
            raise ValueError(f"{path}: malformed row {line!r}")
        rows.append((int(epoch), *map(float, floats), float(lam) if lam else None))
    return rows


def parse_summary_csv(path) -> list[list[str]]:
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines[0].startswith("k,lambda,status,"):
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    return [line.split(",") for line in lines[1:]]


def same_float(text: str, value) -> bool:
    """The CSV text parses back to exactly ``value`` (empty means None)."""
    if value is None:
        return text == ""
    return text != "" and float(text) == value
