"""How sensitive is the acceleration to the window size and the ridge?

Too little regularization lets nearly collinear residuals blow up the
coefficients; too much collapses the method into plain iterate averaging.
The sweep runner trains once, extrapolates each epoch for every
(window, ridge) cell as it goes and tabulates final suboptimality.
"""

import tempfile
from pathlib import Path

from rnacc import default_spec, sweep

out_dir = Path(tempfile.mkdtemp(prefix="rnacc_sweep_"))
spec = default_spec("quadratic", seed=0)
spec.epochs = 40

cells = sweep(
    spec,
    windows=[5, 10, 20],
    lams=[1e-12, 1e-8, 1e-4, 1e0],
    out_dir=out_dir,
)

print(f"problem: {spec.problem} {spec.problem_params}, {spec.epochs} epochs")
print(f"{'window':>7} {'ridge':>8} {'final f-f* (vanilla)':>21} {'final f-f* (accel)':>20}")
for cell in cells:
    if cell.status == "ok":
        print(
            f"{cell.window:>7} {cell.lam:>8.0e} "
            f"{cell.final_suboptimality:>21.6e} "
            f"{cell.final_suboptimality_rna:>20.6e}"
        )
    else:
        print(f"{cell.window:>7} {cell.lam:>8.0e} {'FAILED: ' + cell.error:>42}")

best = min(
    (c for c in cells if c.status == "ok"),
    key=lambda c: c.final_suboptimality_rna,
)
print(f"\nbest cell: window={best.window}, ridge={best.lam:g} "
      f"(suboptimality {best.final_suboptimality_rna:.3e})")
print(f"per-cell curves and summary.csv under {out_dir}")
