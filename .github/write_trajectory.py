"""Write one 6-iterate gradient-descent trajectory for the CI smoke steps.

    python .github/write_trajectory.py DIR

DIR/traj.rnac holds the trajectory as one f64 file, and DIR/traj/ holds
it as six one-iterate f32 files, 0.rnac to 5.rnac. DIR/nan/ holds the same
six files, but with a NaN in the oldest, 0.rnac. DIR/scores.txt holds the
objective of each iterate, one per line, for ``--scores``.

DIR/wide.rnac holds 6 gradient-descent iterates of d = B + 1, B the columns of the
core's blocks, as one f64 file, and DIR/wide/ holds them as six one-iterate f32 files;
DIR/wide_scores.txt holds the objective of each iterate. A window that wide is read,
checked, solved and combined a block at a time.

DIR/tiny.rnac and DIR/huge.rnac hold one 11-iterate window near each end of the
float64 range: gradient descent from zero on ``make_quadratic(100, 100.0, seed=2)``
at step 0.1, times 1e-155 and times 1e145, as one f64 file each. DIR/huge_scores.txt
holds the objective of each unscaled iterate, for ``--scores``.
"""

import os
import shutil
import sys

import numpy as np

import rnacc
from rnacc.core import _BLOCK

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

q = rnacc.make_quadratic(100, 100.0, seed=2)
window = [np.zeros(100)]
for _ in range(10):
    window.append(rnacc.gd_step(window[-1], q, 0.1))
rnacc.write_checkpoints(os.path.join(out, "tiny.rnac"), np.array(window) * 1e-155, "f64")
rnacc.write_checkpoints(os.path.join(out, "huge.rnac"), np.array(window) * 1e145, "f64")
with open(os.path.join(out, "huge_scores.txt"), "w", encoding="ascii") as fh:
    fh.write("".join(f"{q.f(theta)!r}\n" for theta in window))

# A diagonal quadratic's gradient costs O(d), so the wide window is cheap to make.
h = np.random.default_rng(4).uniform(1.0, 100.0, _BLOCK + 1)
wide = [np.ones(_BLOCK + 1)]
for _ in range(5):
    wide.append(wide[-1] - h * wide[-1] / h.max())
rnacc.write_checkpoints(os.path.join(out, "wide.rnac"), wide, "f64")
os.makedirs(os.path.join(out, "wide"))
for i, theta in enumerate(wide):
    rnacc.write_checkpoints(os.path.join(out, "wide", f"{i}.rnac"), [theta], "f32")
with open(os.path.join(out, "wide_scores.txt"), "w", encoding="ascii") as fh:
    fh.write("".join(f"{0.5 * float(np.dot(h * theta, theta))!r}\n" for theta in wide))
