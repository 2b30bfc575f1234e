"""Binary checkpoint format and the metrics table."""

import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from rnacc import (
    AccelRecord,
    EpochRecord,
    FormatError,
    NumericalFailure,
    RnaConfig,
    read_checkpoints,
    rna,
    write_checkpoints,
    write_metrics,
)
from rnacc import checkpoint
from rnacc.checkpoint import _DTYPES, _HEADER, MAGIC, VERSION
from rnacc.cli import main


def test_f64_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    seq = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-30, 30, size=(5, 3))
    path = tmp_path / "seq.rnac"
    write_checkpoints(path, seq, "f64")
    back = read_checkpoints(path)
    assert back.dtype == np.float64
    np.testing.assert_array_equal(back, seq)


def test_f32_round_trip_within_f32_precision(tmp_path):
    rng = np.random.default_rng(1)
    seq = rng.standard_normal((4, 7))
    path = tmp_path / "seq32.rnac"
    write_checkpoints(path, seq, "f32")
    back = read_checkpoints(path)
    np.testing.assert_array_equal(back, seq.astype(np.float32).astype(np.float64))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.rnac"
    payload = np.zeros(4).tobytes()
    path.write_bytes(_HEADER.pack(b"XXXX", VERSION, 8, 2, 2) + payload)
    with pytest.raises(FormatError, match="magic"):
        read_checkpoints(path)


def test_bad_version_and_width(tmp_path):
    path = tmp_path / "v.rnac"
    path.write_bytes(_HEADER.pack(MAGIC, 9, 8, 1, 1) + np.zeros(1).tobytes())
    with pytest.raises(FormatError, match="version"):
        read_checkpoints(path)
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, 2, 1, 1) + np.zeros(1).tobytes())
    with pytest.raises(FormatError, match="width"):
        read_checkpoints(path)


def test_truncated_payload(tmp_path):
    # Header promises 10 iterates, payload carries 9.
    path = tmp_path / "short.rnac"
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, 8, 3, 10) + np.zeros(27).tobytes())
    with pytest.raises(FormatError, match="payload"):
        read_checkpoints(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.rnac"
    write_checkpoints(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="payload"):
        read_checkpoints(path)


def test_nan_payload_rejected(tmp_path, capsys):
    # The reader checks the format only; the core's one value check rejects the NaN.
    path = tmp_path / "nan.rnac"
    payload = np.array([1.0, np.nan]).tobytes()
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, 8, 2, 1) + payload)
    back = read_checkpoints(path)
    assert back.shape == (1, 2) and back[0, 0] == 1.0 and np.isnan(back[0, 1])
    assert main(["accelerate", str(path), "--out", str(tmp_path / "o.rnac")]) == 3
    assert "NaN" in capsys.readouterr().err
    with pytest.raises(NumericalFailure):
        write_checkpoints(tmp_path / "out.rnac", np.array([[np.inf, 0.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_f32_overflow_raises_before_writing(tmp_path):
    path = tmp_path / "big.rnac"
    with pytest.raises(NumericalFailure, match="f32's range"):
        write_checkpoints(path, [[1e39, 1.0], [2.0, 3.0]], "f32")
    assert list(tmp_path.iterdir()) == []
    # The largest f32 itself is stored as is.
    top = float(np.finfo(np.float32).max)
    write_checkpoints(path, [[top, -top]], "f32")
    np.testing.assert_array_equal(read_checkpoints(path), [[top, -top]])


def _fail(*args, **kwargs):
    raise OSError("injected failure")


@pytest.mark.parametrize("step", ["payload", "replace"])
def test_failed_write_keeps_previous_checkpoint(tmp_path, monkeypatch, step):
    path = tmp_path / "seq.rnac"
    write_checkpoints(path, np.ones((2, 3)))
    before = path.read_bytes()
    if step == "payload":  # the payload's conversion fails
        monkeypatch.setattr(checkpoint.np, "ascontiguousarray", _fail)
    else:  # the rename fails after the whole temporary file was written
        monkeypatch.setattr(checkpoint.os, "replace", _fail)
    with pytest.raises(OSError, match="injected"):
        write_checkpoints(path, np.zeros((3, 3)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["seq.rnac"]


def test_failed_table_write_keeps_previous_metrics(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    write_metrics(path, *_traces())
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint.os, "replace", _fail)
    with pytest.raises(OSError, match="injected"):
        write_metrics(path, [], [])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


def test_write_that_raises_midway_leaves_no_file(tmp_path):
    path = tmp_path / "part.rnac"
    with pytest.raises(RuntimeError):
        with checkpoint._replacing(path, "wb") as fh:
            fh.write(b"RNAC")
            raise RuntimeError("midway")
    assert list(tmp_path.iterdir()) == []


def test_directory_listing_skips_dot_files(tmp_path):
    # A writer's temporary file is never read as a checkpoint; a manifest may name one.
    write_checkpoints(tmp_path / "a.rnac", np.ones((1, 2)))
    (tmp_path / ".a.rnac.123.tmp").write_bytes(b"RNAC")
    write_checkpoints(tmp_path / ".hidden.rnac", np.zeros((1, 2)))
    np.testing.assert_array_equal(read_checkpoints(tmp_path), np.ones((1, 2)))
    (tmp_path / "manifest.txt").write_text("a.rnac\n.hidden.rnac\n")
    np.testing.assert_array_equal(read_checkpoints(tmp_path), [[1.0, 1.0], [0.0, 0.0]])


def test_header_too_short(tmp_path):
    path = tmp_path / "tiny.rnac"
    path.write_bytes(b"RN")
    with pytest.raises(FormatError):
        read_checkpoints(path)


@given(
    hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
        elements=st.floats(
            min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
        ),
    )
)
def test_round_trip_property(tmp_path_factory, seq):
    path = tmp_path_factory.mktemp("rt") / "seq.rnac"
    write_checkpoints(path, seq, "f64")
    np.testing.assert_array_equal(read_checkpoints(path), seq)


def test_directory_loader_lexicographic(tmp_path):
    rng = np.random.default_rng(3)
    parts = [rng.standard_normal((2, 4)) for _ in range(3)]
    for name, part in zip(("b.rnac", "a.rnac", "c.rnac"), parts):
        write_checkpoints(tmp_path / name, part)
    merged = read_checkpoints(tmp_path)
    np.testing.assert_array_equal(merged, np.vstack([parts[1], parts[0], parts[2]]))


def test_directory_loader_manifest_override(tmp_path):
    rng = np.random.default_rng(4)
    parts = [rng.standard_normal((1, 3)) for _ in range(2)]
    write_checkpoints(tmp_path / "a.rnac", parts[0])
    write_checkpoints(tmp_path / "b.rnac", parts[1])
    (tmp_path / "manifest.txt").write_text("# newest first\nb.rnac\na.rnac\n")
    merged = read_checkpoints(tmp_path)
    np.testing.assert_array_equal(merged, np.vstack([parts[1], parts[0]]))


def test_directory_loader_errors(tmp_path):
    with pytest.raises(FormatError, match="no checkpoint files"):
        read_checkpoints(tmp_path)
    write_checkpoints(tmp_path / "a.rnac", np.ones((1, 2)))
    write_checkpoints(tmp_path / "b.rnac", np.ones((1, 3)))
    with pytest.raises(FormatError, match="disagree"):
        read_checkpoints(tmp_path)
    (tmp_path / "manifest.txt").write_text("missing.rnac\n")
    with pytest.raises(FormatError, match="missing"):
        read_checkpoints(tmp_path)


def _mostly(valid, fault):
    """Draws from ``valid`` three times in four, else from ``fault``."""
    return st.integers(0, 3).flatmap(lambda i: fault if i == 0 else valid)


# A faulty dim or count can claim up to 2**60 scalars together, far past any file here.
_SIZE = _mostly(st.integers(1, 8), st.integers(0, 2**30))


@given(
    magic=_mostly(st.just(MAGIC), st.binary(min_size=4, max_size=4)),
    version=_mostly(st.just(VERSION), st.integers(0, 2**16 - 1)),
    width=_mostly(st.sampled_from([8, 4]), st.integers(0, 2**16 - 1)),
    dim=_SIZE,
    count=_SIZE,
    slack=_mostly(st.just(0), st.integers(-3, 3)),
)
def test_any_header_reads_or_raises_format_error(
    tmp_path_factory, magic, version, width, dim, count, slack
):
    small = dim * count <= 128  # the payload then carries dim * count scalars
    values = np.arange(1, 1 + (dim * count if small else 2), dtype=np.float64)
    payload = values.astype(_DTYPES.get(width, "<f8")).tobytes()
    data = _HEADER.pack(magic, version, width, dim, count) + payload
    data = data[: len(data) + slack] if slack < 0 else data + b"\x00" * slack
    path = tmp_path_factory.mktemp("fuzz") / "seq.rnac"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        mat = read_checkpoints(path)
    except FormatError:
        mat = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # The reader allocates what the file holds, never what a header claims.
    assert peak < 64 * 1024
    valid = (magic, version) == (MAGIC, VERSION) and width in _DTYPES and dim and count
    if valid and slack == 0 and small:
        np.testing.assert_array_equal(mat, values.reshape(count, dim))
    else:
        assert mat is None


def test_every_header_is_checked_before_any_payload(tmp_path, capsys):
    # The first file's NaN payload would be a NumericalFailure (exit 3); the
    # last file's bad magic is found first, because no payload is read
    # before every header has passed.
    nan = np.array([1.0, np.nan]).tobytes()
    seq_dir = tmp_path / "parts"
    seq_dir.mkdir()
    (seq_dir / "a.rnac").write_bytes(_HEADER.pack(MAGIC, VERSION, 8, 2, 1) + nan)
    (seq_dir / "b.rnac").write_bytes(_HEADER.pack(b"XXXX", VERSION, 8, 2, 1) + bytes(16))
    with pytest.raises(FormatError, match="b.rnac: bad magic"):
        read_checkpoints(seq_dir)
    assert main(["accelerate", str(seq_dir), "--out", str(tmp_path / "o.rnac")]) == 4
    assert "bad magic" in capsys.readouterr().err


def test_payload_cut_after_its_header_was_checked(tmp_path, monkeypatch, capsys):
    path = tmp_path / "seq.rnac"
    check = checkpoint._read_header

    def check_then_cut(f):
        header = check(f)
        with open(f, "r+b") as fh:
            fh.truncate(_HEADER.size + 8)
        return header

    monkeypatch.setattr(checkpoint, "_read_header", check_then_cut)
    write_checkpoints(path, np.ones((3, 2)))
    with pytest.raises(FormatError, match="payload holds 8 bytes, header promises 48"):
        read_checkpoints(path)
    write_checkpoints(path, np.ones((3, 2)))
    assert main(["accelerate", str(path), "--out", str(tmp_path / "o.rnac")]) == 4
    assert "payload holds 8 bytes" in capsys.readouterr().err


def test_file_and_memory_extrapolation_agree_bitwise(tmp_path):
    rng = np.random.default_rng(6)
    seq = rng.standard_normal((12, 9))
    cfg = RnaConfig(window=10, lam=1e-8)
    in_memory, _ = rna(seq, cfg)
    path = tmp_path / "seq.rnac"
    write_checkpoints(path, seq, "f64")
    from_disk, _ = rna(read_checkpoints(path), cfg)
    np.testing.assert_array_equal(in_memory, from_disk)


# ------------------------------------------------------------------ metrics


def _traces():
    """(vanilla, accelerated) records whose table rows are
    (epoch, objective, grad_norm, objective_rna, grad_norm_rna, lambda_used)."""
    rows = [
        (1, 0.5, 1.25, 0.5, 1.25, None),
        (2, 0.1 + 0.2, 1e-300, -0.25, 3.0, 1e-8),
        (3, np.pi, np.e, 1.0 / 3.0, 2.0 / 3.0, 1.0000000000000002),
    ]
    theta = np.zeros(1)
    vanilla = [EpochRecord(e, theta, f, g, 0.1) for e, f, g, *_ in rows]
    accelerated = [AccelRecord(e, theta, f, g, lam) for e, _, _, f, g, lam in rows]
    return vanilla, accelerated


def test_metrics_line_count(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics(path, *_traces())
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "epoch,objective,grad_norm,objective_rna,grad_norm_rna,lambda_used"


def test_metrics_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_metrics(path, [], [])
    assert path.read_text().splitlines() == [
        "epoch,objective,grad_norm,objective_rna,grad_norm_rna,lambda_used"
    ]


def test_metrics_unequal_traces_write_nothing(tmp_path):
    vanilla, accelerated = _traces()
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError):
        write_metrics(path, vanilla, accelerated[:-1])
    assert not path.exists()


def test_metrics_round_trip_exact(tmp_path):
    # 17 significant digits reproduce every float64 exactly.
    path = tmp_path / "rt.csv"
    vanilla, accelerated = _traces()
    write_metrics(path, vanilla, accelerated)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(vanilla)
    for v, a, rec in zip(vanilla, accelerated, parsed):
        assert int(rec["epoch"]) == v.epoch
        assert float(rec["objective"]) == v.objective
        assert float(rec["grad_norm"]) == v.grad_norm
        assert float(rec["objective_rna"]) == a.objective
        assert float(rec["grad_norm_rna"]) == a.grad_norm
        if a.lam_used is None:
            assert rec["lambda_used"] == ""
        else:
            assert float(rec["lambda_used"]) == a.lam_used
