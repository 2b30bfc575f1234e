"""Check that rnacc accelerate's outputs equal the in-memory extrapolation (C11).

    python .github/check_c11.py DIR

DIR holds the inputs of ``write_trajectory.py`` and three outputs of
``rnacc accelerate ... --k 4``: from_file.rnac (on traj.rnac), from_dir.rnac
(on traj/) and from_grid.rnac (on traj.rnac with ``--lambda-grid 1e-8,1e-6
--scores scores.txt``). Each must equal, byte for byte, ``write_checkpoints``
of the in-memory extrapolation of the same input: ``rna`` for the first two,
``accelerate_checkpoints`` for the grid. Exits 1 naming the first output that
differs.
"""

import os
import sys

import numpy as np

import rnacc

root = sys.argv[1]
config = rnacc.RnaConfig(window=4)


def plain(iterates):
    return rnacc.rna(iterates, config)[0]


def grid(iterates):
    scores = np.loadtxt(os.path.join(root, "scores.txt"))
    return rnacc.accelerate_checkpoints(iterates, 4, config.lam, (1e-8, 1e-6), scores)[0]


expected = os.path.join(root, "expected.rnac")
for out, source, extrapolate in (
    ("from_file.rnac", "traj.rnac", plain),
    ("from_dir.rnac", "traj", plain),
    ("from_grid.rnac", "traj.rnac", grid),
):
    theta = extrapolate(rnacc.read_checkpoints(os.path.join(root, source)))
    rnacc.write_checkpoints(expected, [theta], "f64")
    with open(os.path.join(root, out), "rb") as got, open(expected, "rb") as want:
        if got.read() != want.read():
            sys.exit(f"{out} differs from the in-memory extrapolation of {source}")
