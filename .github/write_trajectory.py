"""Write one 6-iterate gradient-descent trajectory for the CI smoke steps.

    python .github/write_trajectory.py DIR

DIR/traj.rnac holds the trajectory as one f64 file, and DIR/traj/ holds
it as six one-iterate f32 files, 0.rnac to 5.rnac. DIR/nan/ holds the same
six files, but with a NaN in the oldest, 0.rnac. DIR/scores.txt holds the
objective of each iterate, one per line, for ``--scores``.
"""

import os
import shutil
import sys

import numpy as np

import rnacc

out = sys.argv[1]
p = rnacc.make_quadratic(4, 10.0, seed=1)
traj = [np.ones(4)]
for _ in range(5):
    traj.append(rnacc.gd_step(traj[-1], p, 1.0 / p.smoothness))
rnacc.write_checkpoints(os.path.join(out, "traj.rnac"), traj, "f64")
os.makedirs(os.path.join(out, "traj"))
for i, theta in enumerate(traj):
    rnacc.write_checkpoints(os.path.join(out, "traj", f"{i}.rnac"), [theta], "f32")
# The writer refuses NaN, so the first f32 scalar after the 24-byte header is patched.
shutil.copytree(os.path.join(out, "traj"), os.path.join(out, "nan"))
with open(os.path.join(out, "nan", "0.rnac"), "r+b") as fh:
    fh.seek(24)
    fh.write(np.float32(np.nan).tobytes())
with open(os.path.join(out, "scores.txt"), "w", encoding="ascii") as fh:
    fh.write("".join(f"{p.f(theta)!r}\n" for theta in traj))
