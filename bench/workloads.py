"""The four workloads: inputs from a seed, one operation, and its checks.

Each workload writes its inputs into its own work directory (``generate``,
run in a process of its own), then, in the measuring process, ``load``s
them, runs ``op`` in a closed loop, ``check``s every operation's output
outside the op timing, and ``verify``s once, after the timed phase, that
the first output is right by means independent of rnacc. Every later
operation must reproduce the first one's digest bit for bit.
"""

from __future__ import annotations

import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

import reference as ref

SPEC_NAME = "spec.txt"

GRID = (1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5)
RUN_GRID = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)
SWEEP_WINDOWS = (5, 10, 20)
SWEEP_LAMS = (1e-10, 1e-8, 1e-6, 1e-4)
K = 10
LAM = 1e-8

SIZES = {
    "accel-file": {"full": {"dim": 100_000, "count": 200}, "smoke": {"dim": 1_000, "count": 40}},
    "accel-dir-grid": {"full": {"dim": 200_000, "count": 12}, "smoke": {"dim": 2_000, "count": 12}},
    "run-adaptive": {"full": {"epochs": 200}, "smoke": {"epochs": 30}},
    "sweep-minibatch": {
        "full": {"n_samples": 1000, "dim": 100, "batch_size": 100, "epochs": 25},
        "smoke": {"n_samples": 200, "dim": 10, "batch_size": 50, "epochs": 8},
    },
}

# The reference is a plain LU solve without refinement, so on Gram systems
# conditioned near 1/eps it loses digits that rnacc's refined solve keeps.
# Relative disagreement seen on ten seeds: ||R c|| <= 1e-9, objective <= 7e-10.
NORM_RTOL = 1e-6
OBJECTIVE_RTOL = 1e-7


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _change_digit(path: Path) -> None:
    data = bytearray(path.read_bytes())
    i = next(j for j in range(len(data) // 2, len(data)) if chr(data[j]).isdigit())
    data[i] = ord("0") + (data[i] - ord("0") + 1) % 10
    path.write_bytes(bytes(data))


def _trajectory(rng, dim: int, count: int):
    """Limit and iterates of a linearly converging method, each coordinate at its own rate."""
    x_star = rng.standard_normal(dim)
    error = rng.standard_normal(dim)
    rates = rng.uniform(0.9, 0.999, dim)
    return x_star, (x_star + error * rates**t for t in range(1, count + 1))


class Workload:
    name = ""
    root = ("", "")  # (span name, layer) of one operation
    useful_bytes = 0

    def __init__(self, work: Path, size: str):
        self.work = Path(work)
        self.p = SIZES[self.name][size]
        self.epochs = self.p.get("epochs", 0)


class Accelerate(Workload):
    """``rnacc accelerate`` through ``rnacc.cli.main``, output to one file."""

    precision = "f64"

    def load(self):
        from rnacc.cli import main
        from rnacc.experiment import accelerate_checkpoints

        self._main, self._accelerate = main, accelerate_checkpoints
        self.out = self.work / "out.rnac"
        self.argv = ["accelerate", str(self.source), "--k", str(K), "--out", str(self.out)]
        self.window_shape = (K + 1, self.p["dim"])
        self.useful_bytes = (K + 1) * self.p["dim"] * ref.WIDTHS[self.precision]

    def op(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self._main(self.argv)
        return code, out.getvalue()

    def check(self, result) -> str:
        code, stdout = result
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return _sha(f"{stdout}\0".encode() + self.out.read_bytes())

    def corrupt(self, result) -> None:
        _flip_byte(self.out)

    def window(self) -> np.ndarray:
        return ref.read_tail(self.source, K + 1)

    def verify(self, first) -> tuple[str, float | None]:
        """C11 against the in-memory path, plus unit sum and ||R c||."""
        _, stdout = first
        window = self.window()
        scores = self.scores()
        theta, lam_star, coeffs = self._accelerate(
            window, window=K, lam=LAM, lam_grid=self.grid, scores=scores
        )
        expected = ref.HEADER.pack(ref.MAGIC, 1, 8, window.shape[1], 1)
        expected += np.asarray(theta, dtype="<f8").tobytes()
        lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
        if coeffs is None:
            if lines.get("lambda") != "none" or not np.array_equal(theta, window[-1]):
                raise AssertionError("fallback answer is not the last checkpoint")
            refs = [ref.ridge_weights(window, lam) @ scores[1:] for lam in self.grid]
            if min(refs) < scores[-1] * (1 - NORM_RTOL):
                raise AssertionError("reference ranks a grid candidate above the fallback")
            return _sha(f"{stdout}\0".encode() + expected), None
        weights = [float(w) for w in lines["coefficients"].split()]
        if lines["lambda"] != repr(lam_star) or weights != coeffs.weights.tolist():
            raise AssertionError("printed lambda or coefficients differ from the in-memory path")
        if not ref.unit_sum_ok(weights):
            raise AssertionError(f"coefficients sum to {math.fsum(weights)!r}")
        got = ref.residual_norm(window, weights)
        want = ref.residual_norm(window, ref.ridge_weights(window, coeffs.lam_used))
        if abs(got - want) > NORM_RTOL * want:
            raise AssertionError(f"||R c|| = {got!r}, reference {want!r}")
        if self.grid is not None:
            if lam_star not in self.grid or not float(np.dot(weights, scores[1:])) < scores[-1]:
                raise AssertionError("chosen ridge does not beat the fallback score")
        return _sha(f"{stdout}\0".encode() + expected), None


class AccelFile(Accelerate):
    """One 200-iterate f64 checkpoint at d=1e5 (160 MB) of which the window
    uses 11: reading the file dominates. Its copies and page faults make its
    op time drift with the host's memory traffic by up to a fifth between
    minutes, so BENCHMARK.json leaves it out; its peak RSS and traced run
    still show what a tail read saves."""

    name = "accel-file"
    root = ("cli.main", "cli")
    grid = None

    @property
    def source(self) -> Path:
        return self.work / "in" / "trajectory.rnac"

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        self.source.parent.mkdir(parents=True)
        _, rows = _trajectory(rng, self.p["dim"], self.p["count"])
        ref.write_file(self.source, list(rows), self.precision)

    def scores(self):
        return None


class AccelDirGrid(Accelerate):
    """12 one-iterate f32 files at d=2e5 ranked over 6 ridges: the core's
    memory passes dominate, and nearly every file read is used."""

    name = "accel-dir-grid"
    root = ("cli.main", "cli")
    precision = "f32"
    grid = GRID

    @property
    def source(self) -> Path:
        return self.work / "in" / "ckpts"

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 2])
        self.source.mkdir(parents=True)
        dim = self.p["dim"]
        curvature = rng.uniform(0.5, 2.0, dim)
        x_star, rows = _trajectory(rng, dim, self.p["count"])
        names, scores = [], []
        for t, theta in enumerate(rows, 1):
            # Unpadded names sort wrongly (iter_10 < iter_2): the manifest pins the order.
            names.append(f"iter_{t}.rnac")
            ref.write_file(self.source / names[-1], [theta], self.precision)
            gap = theta.astype(np.float32).astype(np.float64) - x_star
            scores.append(0.5 * float(np.mean(curvature * gap * gap)))
        (self.source / "manifest.txt").write_text("\n".join(names) + "\n")
        (self.work / "in" / "scores.txt").write_text("".join(f"{s!r}\n" for s in scores))

    def load(self):
        super().load()
        self.argv[4:4] = [
            "--lambda-grid", ",".join(repr(g) for g in GRID),
            "--scores", str(self.work / "in" / "scores.txt"),
        ]

    def window(self) -> np.ndarray:
        return ref.read_dir_tail(self.source, K + 1)

    def scores(self):
        return ref.read_scores(self.work / "in" / "scores.txt")[-(K + 1):]


class RunAdaptive(Workload):
    """Full-batch logistic training at d=50 with a 6-ridge grid every epoch:
    tiny K x K solves and per-call core overhead dominate. Its op time swings
    with host contention too much for a bounded end-to-end metric, so
    BENCHMARK.json leaves it out; its traced run still shows the solve layers."""

    name = "run-adaptive"
    root = ("run_experiment", "experiment")

    def generate(self, seed: int) -> None:
        from rnacc import RnaConfig, default_spec

        # The default mlp starts from zeros, a saddle where only the output
        # bias trains: no extrapolation ever beats its last iterate, so its
        # final_obj_rna would check nothing. Logistic accelerates every epoch.
        spec = default_spec("logistic", seed=seed)
        spec = replace(
            spec,
            epochs=self.epochs,
            rna=RnaConfig(window=K, lam=LAM, lam_grid=RUN_GRID),
            metrics_out=str(self.work / "metrics.csv"),
        )
        self.work.mkdir(parents=True, exist_ok=True)
        spec.to_file(self.work / SPEC_NAME)

    def load(self):
        from rnacc.experiment import ExperimentSpec, build_problem, run_experiment
        from rnacc.optimizers import run_with_rna

        self._run, self._train = run_experiment, run_with_rna
        self.spec = ExperimentSpec.from_file(self.work / SPEC_NAME)
        self.problem = build_problem(self.spec)
        self.window_shape = (K + 1, self.problem.dim)

    def op(self):
        vanilla, accelerated, _ = self._run(self.spec, problem=self.problem)
        return vanilla, accelerated

    def check(self, result) -> str:
        """The metrics CSV parses back bit-identical to the returned records."""
        vanilla, accelerated = result
        rows = ref.parse_metrics_csv(self.spec.metrics_out)
        want = [
            (v.epoch, v.objective, v.grad_norm, a.objective, a.grad_norm, a.lam_used)
            for v, a in zip(vanilla, accelerated)
        ]
        if rows != want or len(want) != self.epochs:
            raise AssertionError("metrics CSV does not parse back to the returned records")
        h = hashlib.sha256(repr(want).encode())
        for v, a in zip(vanilla, accelerated):
            h.update(v.theta.tobytes() + a.theta.tobytes())
        return h.hexdigest()

    def corrupt(self, result) -> None:
        _change_digit(Path(self.spec.metrics_out))

    def verify(self, first) -> tuple[str, float]:
        """C07 once, and every epoch's pick against a numpy ridge reference."""
        vanilla, accelerated = first
        plain, _ = self._train(self.problem, self.spec.optimizer, None, self.epochs)
        if [p.theta.tobytes() for p in plain] != [v.theta.tobytes() for v in vanilla]:
            raise AssertionError("C07: vanilla trace changes with acceleration on")
        f = self.problem.f
        for t in range(1, self.epochs):
            window = np.vstack([v.theta for v in vanilla[max(0, t - K):t + 1]])
            want = min([f(window[-1])] + [f(ref.ridge_weights(window, lam) @ window[1:]) for lam in RUN_GRID])
            got = accelerated[t].objective
            if abs(got - want) > OBJECTIVE_RTOL * abs(want):
                raise AssertionError(f"epoch {t + 1}: accelerated objective {got!r}, reference {want!r}")
        return self.check(first), accelerated[-1].objective


class SweepMinibatch(Workload):
    """A 3 x 4 (K, lambda) sweep of mini-batch logistic training: retraining
    every cell dominates, the only workload where optimizers and problems do."""

    name = "sweep-minibatch"
    root = ("sweep", "experiment")

    def generate(self, seed: int) -> None:
        from rnacc import default_spec

        spec = default_spec("logistic", seed=seed)
        params = {"n_samples": self.p["n_samples"], "dim": self.p["dim"], "l2": 1e-3, "seed": seed}
        spec = replace(
            spec,
            problem_params=params,
            optimizer=replace(spec.optimizer, batch_size=self.p["batch_size"], seed=seed),
            epochs=self.epochs,
            metrics_out=None,
        )
        self.work.mkdir(parents=True, exist_ok=True)
        spec.to_file(self.work / SPEC_NAME)

    def load(self):
        from rnacc.experiment import ExperimentSpec, build_problem, sweep
        from rnacc.optimizers import run_with_rna

        self._sweep, self._build, self._train = sweep, build_problem, run_with_rna
        self.spec = ExperimentSpec.from_file(self.work / SPEC_NAME)
        self.out = self.work / "sweep_out"
        self.window_shape = (K + 1, self.p["dim"])

    def op(self):
        return self._sweep(self.spec, SWEEP_WINDOWS, SWEEP_LAMS, str(self.out))

    def check(self, cells) -> str:
        """Every cell ok; summary.csv and each metrics CSV agree with the cells."""
        rows = ref.parse_summary_csv(self.out / "summary.csv")
        if len(rows) != len(cells) or len(cells) != len(SWEEP_WINDOWS) * len(SWEEP_LAMS):
            raise AssertionError("summary.csv row count")
        digest = []
        for row, c in zip(rows, cells):
            fields = (
                c.final_objective, c.final_objective_rna,
                c.final_suboptimality, c.final_suboptimality_rna,
            )
            if c.status != "ok" or row[2] != "ok" or int(row[0]) != c.window:
                raise AssertionError(f"cell k={c.window} lambda={c.lam}: {c.status} {c.error}")
            if float(row[1]) != c.lam or not all(map(ref.same_float, row[3:7], fields)):
                raise AssertionError("summary.csv does not parse back to the returned cells")
            last = ref.parse_metrics_csv(c.metrics_path)[-1]
            if last[0] != self.epochs or last[1] != c.final_objective or last[3] != c.final_objective_rna:
                raise AssertionError(f"{c.metrics_path} disagrees with its cell")
            digest.append((c.window, c.lam, *fields))
        return _sha(repr(digest).encode())

    def corrupt(self, result) -> None:
        _change_digit(self.out / "summary.csv")

    def verify(self, first) -> tuple[str, float]:
        """C07 on every cell's file, and the best cell against a numpy reference."""
        problem = self._build(self.spec)
        f_star = problem.f(problem.optimum)
        plain, _ = self._train(problem, self.spec.optimizer, None, self.epochs)
        trace = [(p.epoch, p.objective, p.grad_norm) for p in plain]
        for c in first:
            if [row[:3] for row in ref.parse_metrics_csv(c.metrics_path)] != trace:
                raise AssertionError(f"C07: vanilla trace of k={c.window} lambda={c.lam:g} differs")
        best = min(first, key=lambda c: c.final_suboptimality_rna)
        window = np.vstack([p.theta for p in plain[-(best.window + 1):]])
        want = problem.f(ref.ridge_weights(window, best.lam) @ window[1:])
        if abs(best.final_objective_rna - want) > OBJECTIVE_RTOL * abs(want):
            raise AssertionError(f"best cell objective {best.final_objective_rna!r}, reference {want!r}")
        if best.final_suboptimality_rna != best.final_objective_rna - f_star:
            raise AssertionError("suboptimality disagrees with the reference optimum")
        return self.check(first), best.final_suboptimality_rna


WORKLOADS = {w.name: w for w in (AccelFile, AccelDirGrid, RunAdaptive, SweepMinibatch)}
