"""Processes the benchmark starts: ``gen``, ``setup`` and ``run``.

    python3 bench/child.py gen   WORKLOAD SIZE WORK SEED
    python3 bench/child.py setup WORKLOAD SIZE WORK
    python3 bench/child.py run   WORKLOAD SIZE WORK SECONDS TRACE CORRUPT

Only the standard library is imported at module level, so ``setup`` times
a fresh interpreter's ``import rnacc.cli`` (plus ``build_problem`` where
the workload trains) and nothing else. ``run`` writes ``result.json`` in
WORK; its peak RSS is this process's own ``VmHWM``, read right after the
timed phase, before any verification allocates.
"""

from __future__ import annotations

import json
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Enough operations that the tail percentile has ten samples beyond it.
MIN_OPS = 11
PASS_SECONDS = 0.3


def vmhwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(work: Path) -> None:
    t0 = perf_counter()
    import rnacc.cli

    spec = work / "spec.txt"  # written by the workloads that train
    if spec.exists():
        from rnacc.experiment import ExperimentSpec, build_problem

        build_problem(ExperimentSpec.from_file(spec))
    print(repr(perf_counter() - t0))


def stream_pass_seconds(shape) -> float:
    """Median time of one read pass over a window-sized float64 array."""
    import numpy as np

    arr = np.ones(shape)
    times = []
    while sum(times) < PASS_SECONDS or len(times) < 5:
        t0 = perf_counter()
        arr.sum()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np
    import scipy

    import rnacc

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "rnacc_file": rnacc.__file__,
    }


def run(wl, seconds: float, trace: bool, corrupt: int) -> dict:
    tracer = None
    if trace:
        from tracer import UNITS, Tracer

        tracer = Tracer()
    wl.load()
    first = wl.op()  # warm-up: lazy set-up finishes before timing
    first_digest = wl.check(first)
    times, traced, untraced, digests, errors = [], [], [], [], []
    i = 0
    while sum(times) < seconds or i < MIN_OPS:
        on = trace and i % 2 == 1
        if on:
            tracer.install(getattr(wl, "problem", None))
            tracer.begin_op(i)
        t0 = perf_counter()
        try:
            result, error = wl.op(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"op {i}: {exc!r}"
        dt = perf_counter() - t0
        if on:
            tracer.end_op(*wl.root)
            tracer.uninstall()
        times.append(dt)
        (traced if on else untraced).append(dt)
        if error is None:
            try:
                if i == corrupt:
                    wl.corrupt(result)
                digests.append(wl.check(result))
            except Exception as exc:
                error = f"op {i}: check failed: {exc!r}"
        if error is not None:
            digests.append(None)
            errors.append(error)
        i += 1
    hwm = vmhwm_kb()
    out = {"times": times, "vmhwm_kb": hwm, "final_obj_rna": None,
           "window_bytes": 8 * wl.window_shape[0] * wl.window_shape[1]}
    try:
        expected, out["final_obj_rna"] = wl.verify(first)
        if expected != first_digest:
            raise AssertionError("verified output differs from the first operation's")
    except Exception as exc:
        expected = None
        out["verify_error"] = "".join(traceback.format_exception_only(exc)).strip()
    wrong = [i for i, d in enumerate(digests) if expected and d not in (None, expected)]
    errors += [f"op {i}: output differs from the verified one" for i in wrong]
    out["errors"] = errors[:5]
    out["failed"] = sum(d != expected for d in digests) if expected else len(digests)
    out["attempted"] = len(digests)
    if trace:
        pass_s = stream_pass_seconds(wl.window_shape)
        layers = tracer.summary(len(traced), wl.epochs, wl.useful_bytes, pass_s)
        layers["mem.stream_gbps"] = out["window_bytes"] / pass_s / 1e9
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
        layers["numerics.final_obj_rna"] = out["final_obj_rna"] or 0.0
        out["layers"] = {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
        tracer.dump(wl.work / "spans.jsonl")
    out["env"] = environment()
    return out


def main(argv) -> int:
    cmd, name, size, work = argv[0], argv[1], argv[2], Path(argv[3])
    if cmd == "setup":
        setup(work)
        return 0
    from workloads import WORKLOADS

    wl = WORKLOADS[name](work, size)
    if cmd == "gen":
        wl.generate(int(argv[4]))
        return 0
    result = run(wl, float(argv[4]), argv[5] == "1", int(argv[6]))
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
