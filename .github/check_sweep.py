"""Check that every rnacc sweep cell writes the metrics file rnacc run writes for it.

    python .github/check_sweep.py DIR

Runs ``rnacc sweep --problem logistic --epochs 12 --k-list 3,8,20
--lambda-list 1e-10,1e-6`` into DIR/sweep through the console script, then
``rnacc run`` with the same settings and each cell's ``--k`` and ``--lambda``
into DIR/run_k{K}_lam{lambda}.csv. The sweep replays one training for all
cells, and K=20 is above the 12 epochs. Exits 1 naming the first cell whose two
files differ.
"""

import os
import subprocess
import sys

root = sys.argv[1]
common = ["--problem", "logistic", "--epochs", "12"]
windows, lams = ("3", "8", "20"), ("1e-10", "1e-6")
sweep_dir = os.path.join(root, "sweep")
subprocess.run(
    ["rnacc", "sweep", *common, "--k-list", ",".join(windows), "--lambda-list", ",".join(lams),
     "--out", sweep_dir],
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
                sys.exit(f"sweep cell {name} differs from rnacc run --k {k} --lambda {lam}")
print(f"{len(windows) * len(lams)} sweep cells equal their runs")
