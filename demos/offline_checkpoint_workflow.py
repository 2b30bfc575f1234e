"""Accelerate checkpoints that some external trainer left on disk.

Nothing in the offline path needs the model, the data, or the training
code: a flat parameter vector per epoch is enough. This script plays the
external trainer (writing the binary checkpoint files), then accelerates
the sequence through the same entry points the ``rnacc accelerate``
command uses (``read_checkpoints`` takes the directory as it would a single
file), and verifies the file layer added no drift.
"""

import tempfile
from pathlib import Path

import numpy as np

from rnacc import (
    RnaConfig,
    gd_step,
    make_quadratic,
    read_checkpoints,
    rna,
    write_checkpoints,
)
from rnacc.experiment import accelerate_checkpoints

workdir = Path(tempfile.mkdtemp(prefix="rnacc_demo_"))
problem = make_quadratic(dim=12, condition=40.0, seed=5)
eta = 1.0 / problem.smoothness

# --- the "external trainer": one checkpoint file per training phase ----
theta = np.random.default_rng(2).standard_normal(12)
trajectory = [theta.copy()]
for _ in range(24):
    theta = gd_step(theta, problem, eta)
    trajectory.append(theta.copy())
trajectory = np.vstack(trajectory)

phase_dir = workdir / "phases"
phase_dir.mkdir()
write_checkpoints(phase_dir / "phase_a.rnac", trajectory[:10])
write_checkpoints(phase_dir / "phase_b.rnac", trajectory[10:])
print(f"external trainer wrote 2 phase files under {phase_dir}")

# --- offline acceleration, file-driven ---------------------------------
sequence = read_checkpoints(phase_dir)  # a file or a directory: lexicographic, or manifest.txt
print(f"loaded {sequence.shape[0]} checkpoints of dimension {sequence.shape[1]}")

theta_hat, lam_used, coeffs = accelerate_checkpoints(sequence, window=10, lam=1e-8)
out_path = workdir / "accelerated.rnac"
write_checkpoints(out_path, [theta_hat])
print(f"ridge used: {lam_used:g}")
print(f"coefficients: {np.array2string(coeffs.weights, precision=3)}")

# --- did the file layer change anything? -------------------------------
in_memory, _ = rna(trajectory, RnaConfig(window=10, lam=1e-8))
round_tripped = read_checkpoints(out_path)[0]
print(f"bit-identical to the pure in-memory result: "
      f"{np.array_equal(round_tripped, in_memory)}")

gap_last = np.linalg.norm(problem.grad(sequence[-1]))
gap_accel = np.linalg.norm(problem.grad(theta_hat))
print(f"gradient norm, last checkpoint : {gap_last:.3e}")
print(f"gradient norm, accelerated     : {gap_accel:.3e}")
print(f"(equivalent command: rnacc accelerate {phase_dir} --k 10 "
      f"--lambda 1e-8 --out {out_path})")
