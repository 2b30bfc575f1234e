"""Check that every rnacc sweep cell writes the metrics file rnacc run writes for it.

    python .github/check_sweep.py DIR

Runs two sweeps through the console script, each into DIR/<name>/sweep, then
``rnacc run`` with the same settings and each cell's ``--k`` and ``--lambda``
into DIR/<name>/run_k{K}_lam{lambda}.csv:

- ``flags``: ``--problem logistic --epochs 12 --k-list 3,8,20 --lambda-list
  1e-10,1e-6``, full-batch gradient descent; K=20 is above the 12 epochs.
- ``spec``: DIR/minibatch.spec, mini-batch logistic with momentum 0.9 and drops
  at epochs 5 and 9 with ``flush_on_drop = true``, so each window restarts at a
  drop; ``--k-list 2,4,20 --lambda-list 1e-10,1e-6``.

The sweep trains once for all cells. Exits 1 naming the first cell whose two
files differ.
"""

import os
import subprocess
import sys

MINIBATCH_SPEC = """\
problem = logistic
problem.n_samples = 120
problem.dim = 12
problem.seed = 5
optimizer.eta = 1.0
optimizer.momentum = 0.9
optimizer.schedule = 5:0.1,9:0.1
optimizer.batch_size = 16
optimizer.seed = 3
epochs = 12
flush_on_drop = true
"""


def check(root, common, windows, lams) -> int:
    sweep_dir = os.path.join(root, "sweep")
    subprocess.run(
        ["rnacc", "sweep", *common, "--k-list", ",".join(windows),
         "--lambda-list", ",".join(lams), "--out", sweep_dir],
        check=True,
    )
    for k in windows:
        for lam in lams:
            name = f"metrics_k{k}_lam{float(lam):g}.csv"
            alone = os.path.join(root, f"run_k{k}_lam{lam}.csv")
            subprocess.run(
                ["rnacc", "run", *common, "--k", k, "--lambda", lam, "--out", alone], check=True
            )
            with open(os.path.join(sweep_dir, name), "rb") as got, open(alone, "rb") as want:
                if got.read() != want.read():
                    sys.exit(f"{root}: sweep cell {name} differs from rnacc run --k {k} --lambda {lam}")
    return len(windows) * len(lams)


root = sys.argv[1]
os.makedirs(root, exist_ok=True)
spec = os.path.join(root, "minibatch.spec")
with open(spec, "w", encoding="utf-8") as fh:
    fh.write(MINIBATCH_SPEC)
cells = check(
    os.path.join(root, "flags"), ["--problem", "logistic", "--epochs", "12"], ("3", "8", "20"),
    ("1e-10", "1e-6"),
)
cells += check(os.path.join(root, "spec"), ["--spec", spec], ("2", "4", "20"), ("1e-10", "1e-6"))
print(f"{cells} sweep cells equal their runs")
