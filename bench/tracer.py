"""Spans around rnacc's public functions, installed from outside the package.

A wrapper is set at each name a caller looks up (``rnacc.cli.read_checkpoints``
is the name ``cli`` calls, ``rnacc.core.refined_spd_solve`` the name ``core``
calls), records ``(id, name, layer, start, end, parent, op)`` in memory, and
calls the original. The layer of a span is the rnacc module that owns the
wrapped function. ``uninstall`` puts every original back, so untraced
operations run the unmodified program.

A span's self time is its duration minus the union of the intervals its
children cover; children started by the sweep's worker threads hang off the
operation's root span.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

import rnacc.buffer
import rnacc.checkpoint
import rnacc.cli
import rnacc.core
import rnacc.experiment
import rnacc.optimizers
import rnacc.problems

LAYERS = ("cli", "checkpoint", "experiment", "optimizers", "core", "linalg", "problems", "buffer")

# (module, attribute, layer). Missing attributes are skipped, so a later
# rnacc that drops a name still traces the rest.
TARGETS = (
    (rnacc.cli, "read_checkpoints", "checkpoint"),
    (rnacc.cli, "read_checkpoint_dir", "checkpoint"),
    (rnacc.cli, "write_checkpoints", "checkpoint"),
    (rnacc.cli, "accelerate_checkpoints", "experiment"),
    (rnacc.checkpoint, "read_checkpoints", "checkpoint"),
    (rnacc.experiment, "rna", "core"),
    (rnacc.experiment, "run_experiment", "experiment"),
    (rnacc.experiment, "run_with_rna", "optimizers"),
    (rnacc.experiment, "write_metrics", "checkpoint"),
    (rnacc.experiment, "write_checkpoints", "checkpoint"),
    (rnacc.experiment, "_write_summary", "experiment"),
    (rnacc.optimizers, "rna", "core"),
    (rnacc.optimizers, "adaptive_rna", "core"),
    (rnacc.optimizers, "sgd_momentum_epoch", "optimizers"),
    (rnacc.core, "rna", "core"),
    (rnacc.core, "refined_spd_solve", "linalg"),
    (rnacc.buffer.SlidingBuffer, "as_matrix", "buffer"),
)
READS = {"read_checkpoints", "read_checkpoint_dir"}

# Unit of every per-layer metric; times and counts are per operation.
UNITS = {
    "checkpoint.read_s": "s", "checkpoint.bytes_read": "bytes",
    "checkpoint.files_opened": "count", "checkpoint.read_gbps": "GB/s",
    "checkpoint.useful_frac": "ratio", "checkpoint.write_s": "s",
    "checkpoint.metrics_write_s": "s", "core.calls": "count",
    "mem.stream_gbps": "GB/s", "core.stream_passes": "count",
    "linalg.solves": "count", "linalg.solve_s": "s", "linalg.solve_us_p50": "us",
    "optimizers.epochs": "count", "optimizers.epoch_s": "s",
    "problems.evals": "count", "problems.eval_s": "s", "problems.optimum_s": "s",
    "buffer.as_matrix_s": "s", "experiment.cells": "count",
    "experiment.trainings_per_sweep": "count", "experiment.pool_parallelism": "ratio",
    "experiment.summary_write_s": "s", "trace.overhead_frac": "ratio",
    "numerics.final_obj_rna": "objective",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_frac": "ratio" for layer in LAYERS},
}
PROBLEM_ORACLES = ("f", "grad", "batch_grad")


def _rchar() -> int:
    """Bytes this process has received from read-like system calls."""
    with open("/proc/self/io", "rb") as fh:
        for line in fh:
            if line.startswith(b"rchar:"):
                return int(line.split()[1])
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.io: dict[int, tuple[int, int]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._opens = 0
        self._hooked = False
        self._root = None
        self._op = None
        self._op_start = 0.0

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.reading = 0
        return stack

    def _audit(self, event, args):
        if event == "open" and getattr(self._local, "reading", 0):
            self._opens += 1

    def wrap(self, fn, name: str, layer: str):
        tracer, is_read = self, name in READS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            outer_read = is_read and tracer._local.reading == 0
            if outer_read:
                rchar0, opens0 = _rchar(), tracer._opens
            if is_read:
                tracer._local.reading += 1
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if is_read:
                    tracer._local.reading -= 1
                if outer_read:
                    tracer.io[sid] = (_rchar() - rchar0 - tracer._rchar_bias, tracer._opens - opens0)
                tracer.spans.append((sid, name, layer, t0, t1, parent, tracer._op))

        return traced

    def begin_op(self, op: int) -> None:
        self._op, self._root = op, next(self._ids)
        self._op_start = perf_counter()

    def end_op(self, name: str, layer: str) -> None:
        self.spans.append((self._root, name, layer, self._op_start, perf_counter(), None, self._op))
        self._op = self._root = None

    # -- installing --------------------------------------------------------
    def _patch(self, owner, attr, value) -> None:
        # A class attribute is read from __dict__ so that a property is restored as itself.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def wrap_problem(self, problem) -> None:
        for attr in PROBLEM_ORACLES:
            fn = getattr(problem, attr, None)
            if fn is not None:
                self._patch(problem, attr, self.wrap(fn, attr, "problems"))

    def install(self, problem=None) -> None:
        if not self._hooked:
            sys.addaudithook(self._audit)
            self._hooked = True
            a = _rchar()
            self._rchar_bias = _rchar() - a
        for owner, attr, layer in TARGETS:
            fn = getattr(owner, attr, None)
            if fn is not None:
                self._patch(owner, attr, self.wrap(fn, attr, layer))
        build = rnacc.experiment.build_problem
        traced_build = self.wrap(build, "build_problem", "experiment")

        def build_and_wrap(*args, **kwargs):
            built = traced_build(*args, **kwargs)
            self.wrap_problem(built)
            return built

        self._patch(rnacc.experiment, "build_problem", build_and_wrap)
        prop = rnacc.problems.Problem.__dict__["optimum"]
        self._patch(rnacc.problems.Problem, "optimum", property(self.wrap(prop.fget, "optimum", "problems")))
        if problem is not None:
            self.wrap_problem(problem)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        children = defaultdict(list)
        for span in self.spans:
            if span[5] is not None:
                children[span[5]].append((span[3], span[4]))
        out = {}
        for sid, _, _, t0, t1, _, _ in self.spans:
            covered, reach = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = (t1 - t0) - covered
        return out

    def summary(self, ops: int, epochs: int, useful_bytes: int, pass_s: float) -> dict[str, float]:
        """Per-layer metrics, averaged over ``ops`` traced operations."""
        own = self.self_times()
        total = defaultdict(float)
        count = defaultdict(int)
        layer_self = defaultdict(float)
        solves = []
        cell_busy = sweep_wall = 0.0
        for sid, name, layer, t0, t1, parent, _ in self.spans:
            total[name] += t1 - t0
            count[name] += 1
            layer_self[layer] += own[sid]
            if name == "refined_spd_solve":
                solves.append(t1 - t0)
            if name == "sweep":
                sweep_wall += t1 - t0
            elif name == "run_experiment" and parent is not None:
                cell_busy += t1 - t0
        read_s = sum(own[s[0]] for s in self.spans if s[1] in READS)
        bytes_read = sum(b for b, _ in self.io.values())
        opened = sum(n for _, n in self.io.values())
        evals = sum(count[n] for n in PROBLEM_ORACLES)
        busy = sum(layer_self.values())
        per = 1.0 / ops
        m = {
            "checkpoint.read_s": read_s * per,
            "checkpoint.bytes_read": bytes_read * per,
            "checkpoint.files_opened": opened * per,
            "checkpoint.read_gbps": bytes_read / read_s / 1e9 if read_s else 0.0,
            "checkpoint.useful_frac": useful_bytes * ops / bytes_read if bytes_read else 0.0,
            "checkpoint.write_s": total["write_checkpoints"] * per,
            "checkpoint.metrics_write_s": total["write_metrics"] * per,
            "core.calls": count["rna"] * per,
            "core.stream_passes": layer_self["core"] * per / pass_s,
            "linalg.solves": len(solves) * per,
            "linalg.solve_s": sum(solves) * per,
            "linalg.solve_us_p50": statistics.median(solves) * 1e6 if solves else 0.0,
            "optimizers.epochs": count["sgd_momentum_epoch"] * per,
            "optimizers.epoch_s": total["sgd_momentum_epoch"] * per,
            "problems.evals": evals * per,
            "problems.eval_s": sum(total[n] for n in PROBLEM_ORACLES) * per,
            "problems.optimum_s": total["optimum"] * per,
            "buffer.as_matrix_s": total["as_matrix"] * per,
            "experiment.cells": count["run_experiment"] * per,
            "experiment.trainings_per_sweep": count["sgd_momentum_epoch"] * per / epochs if epochs else 0.0,
            "experiment.pool_parallelism": cell_busy / sweep_wall if sweep_wall else 0.0,
            "experiment.summary_write_s": total["_write_summary"] * per,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer] * per
            m[f"{layer}.self_frac"] = layer_self[layer] / busy if busy else 0.0
        return m

    def dump(self, path) -> None:
        """Write the spans as JSON lines: id, name, layer, start, end, parent, op."""
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
