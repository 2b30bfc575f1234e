"""Write one 6-iterate gradient-descent trajectory for the CI smoke steps.

    python .github/write_trajectory.py DIR

DIR/traj.rnac holds the trajectory as one f64 file, and DIR/traj/ holds
it as six one-iterate f32 files, 0.rnac to 5.rnac.
"""

import os
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
