"""Check that every rnacc sweep cell writes the metrics file rnacc run writes for it.

    python .github/check_sweep.py DIR

Runs four sweeps through the console script, each into DIR/<name>/sweep, then
``rnacc run`` with the same settings and each cell's ``--k`` and ``--lambda``
into DIR/<name>/run_k{K}_lam{lambda}.csv:

- ``flags``: ``--problem logistic --epochs 12 --k-list 3,8,20 --lambda-list
  1e-10,1e-6``, full-batch gradient descent; K=20 is above the 12 epochs.
- ``spec``: DIR/minibatch.spec, mini-batch logistic with momentum 0.9 and drops
  at epochs 5 and 9 with ``flush_on_drop = true``, so each window restarts at a
  drop; ``--k-list 2,4,20 --lambda-list 1e-10,1e-6``.
- ``fallback``: DIR/unflushed.spec, the same 12-d problem trained for 20 epochs
  without the flush; ``--k-list 4,16 --lambda-list 0,1e-10,1e-6``. At epoch 16 a
  window of 16 iterates has 15 residuals in 12 dimensions, so the cell k=16
  lambda=0 fails as singular, and its window's other ridges are solved one by one.
- ``longest-dead``: the same spec with ``--k-list 4,16 --lambda-list 0``. Once
  k=16 lambda=0 fails, no cell of the longest window is left, and k=4 goes on alone.

The sweep trains once for all cells. An ok cell's file must equal its run's, which
exits 0; a failed cell's summary error must be the message of its run, which exits
3. Only the cells a case names may fail. Exits 1 naming the first cell that breaks
one of these rules.
"""

import csv
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
UNFLUSHED_SPEC = MINIBATCH_SPEC.replace("epochs = 12\nflush_on_drop = true", "epochs = 20")


def check(root, common, windows, lams, failing=()) -> int:
    sweep_dir = os.path.join(root, "sweep")
    subprocess.run(
        ["rnacc", "sweep", *common, "--k-list", ",".join(windows),
         "--lambda-list", ",".join(lams), "--out", sweep_dir],
        check=True,
    )
    with open(os.path.join(sweep_dir, "summary.csv"), newline="", encoding="utf-8") as fh:
        rows = iter(list(csv.DictReader(fh)))  # in sweep order: each window, then each lambda
    for k in windows:
        for lam in lams:
            row = next(rows)
            name = f"metrics_k{k}_lam{float(lam):g}.csv"
            alone = os.path.join(root, f"run_k{k}_lam{lam}.csv")
            cell = f"{root}: sweep cell k={k} lambda={lam}"
            run = subprocess.run(
                ["rnacc", "run", *common, "--k", k, "--lambda", lam, "--out", alone],
                stderr=subprocess.PIPE, text=True,
            )
            if row["status"] != ("failed" if (k, lam) in failing else "ok"):
                sys.exit(f"{cell} has status {row['status']} {row['error']}")
            if row["status"] == "failed":
                if run.returncode != 3 or run.stderr.replace(",", ";") != f"error: {row['error']}\n":
                    sys.exit(f"{cell} failed with {row['error']!r}; its run exited "
                             f"{run.returncode} with {run.stderr!r}")
                continue
            if run.returncode != 0:
                sys.exit(f"{cell}: its run exited {run.returncode} with {run.stderr!r}")
            with open(os.path.join(sweep_dir, name), "rb") as got, open(alone, "rb") as want:
                if got.read() != want.read():
                    sys.exit(f"{cell}: {name} differs from rnacc run --k {k} --lambda {lam}")
    return len(windows) * len(lams)


root = sys.argv[1]
os.makedirs(root, exist_ok=True)
specs = {}
for name, text in (("minibatch", MINIBATCH_SPEC), ("unflushed", UNFLUSHED_SPEC)):
    specs[name] = os.path.join(root, f"{name}.spec")
    with open(specs[name], "w", encoding="utf-8") as fh:
        fh.write(text)
cells = check(
    os.path.join(root, "flags"), ["--problem", "logistic", "--epochs", "12"], ("3", "8", "20"),
    ("1e-10", "1e-6"),
)
cells += check(
    os.path.join(root, "spec"), ["--spec", specs["minibatch"]], ("2", "4", "20"), ("1e-10", "1e-6")
)
cells += check(
    os.path.join(root, "fallback"), ["--spec", specs["unflushed"]], ("4", "16"),
    ("0", "1e-10", "1e-6"), failing={("16", "0")},
)
cells += check(
    os.path.join(root, "longest-dead"), ["--spec", specs["unflushed"]], ("4", "16"), ("0",),
    failing={("16", "0")},
)
print(f"{cells} sweep cells equal their runs")
