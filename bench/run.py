"""rnacc benchmark: four closed-loop workloads and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout that holds ``src/rnacc``. One client, one
thread: each operation is an in-process call into rnacc's public API (one
``rnacc.cli.main`` accelerate call, one ``run_experiment`` or one
``sweep``), and the next starts when it returns. Per run the benchmark

1. writes the workload's inputs from ``--seed`` into ``.bench_work/NAME``
   (a process of its own, so its memory is not the workload's);
2. times ``import rnacc.cli`` (plus ``build_problem`` for the training
   workloads) in nine fresh interpreters; ``setup_s`` is their median;
3. starts the measuring process, which runs one untimed warm-up operation,
   then operations until their summed wall time reaches ``--seconds``
   (at least 11), checks each output outside the op timing, and verifies
   the first one independently of rnacc (see ``workloads.py``);
4. prints every metric with its unit, writes the full record with the
   environment to ``.bench_work/results/``, and prints one JSON line last.

With ``--trace 1`` every other operation runs with spans around rnacc's
public functions (``tracer.py``) and the JSON line carries the per-layer
metrics instead of the end-to-end ones; the other operations give the
untraced baseline for ``trace.overhead_frac``.

Every timing is warm-cache: the inputs are written just before the run,
and the page cache is not dropped. Bytes per second figures are computed
bytes over time, not DRAM bandwidth. The program's threading is left as
found (``RNACC_MAX_WORKERS`` and BLAS thread variables are recorded, never
set), so a change to it shows in the numbers.

``--smoke`` runs every workload at small sizes for one second, traced and
untraced, with one deliberately corrupted output, and exits 0 only if that
output, and nothing else, is counted as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NAMES = ("accel-file", "accel-dir-grid", "run-adaptive", "sweep-minibatch")
SETUP_REPEATS = 9
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    "RNACC_MAX_WORKERS",
)
END_TO_END_UNITS = {
    "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s",
}


class BenchError(Exception):
    pass


def child(args, timeout: float) -> str:
    """Run bench/child.py to completion against the checkout's own rnacc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *map(str, args)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} failed:\n{proc.stderr.strip()}")
    return proc.stdout


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    ordered, n = sorted(times), len(times)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def lscpu_caches() -> dict:
    exe = shutil.which("lscpu")
    if exe is None:
        return {}
    out = subprocess.run([exe], capture_output=True, text=True, timeout=10).stdout
    return {
        key.strip().removesuffix(" cache"): value.strip()
        for key, _, value in (line.partition(":") for line in out.splitlines())
        if key.strip().startswith(("L1d", "L2", "L3"))
    }


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rnacc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "rnacc_source_sha256": digest.hexdigest(),
        "caches": lscpu_caches(),
    }


def notes(result: dict) -> list[str]:
    window_mib = result["window_bytes"] / 2**20
    l3 = result["env"]["caches"].get("L3", "not reported")
    size = l3.split()[:2]
    fits = ""
    if len(size) == 2 and size[1] == "MiB":
        fits = f" ({'below' if window_mib < 4 * float(size[0]) else 'at least'} 4x L3)"
    return [
        f"window of K+1 iterates as float64: {window_mib:.1f} MiB; L3 reported: {l3}{fits}",
        "GB/s figures are computed bytes over time, not measured DRAM bandwidth",
        "timings are warm-cache: inputs are written just before the run and the page cache is not dropped",
    ]


def measure(name: str, seed: int, seconds: float, trace: bool, size: str, corrupt: int = -1) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        child(["gen", name, size, work, seed], timeout=120)
        setups = [
            float(child(["setup", name, size, work], timeout=60))
            for _ in range(SETUP_REPEATS)
        ]
        child(["run", name, size, work, seconds, int(trace), corrupt], timeout=seconds + 120)
        result = json.loads((work / "result.json").read_text())
        if trace:
            spans = WORK / "results" / f"{name}-seed{seed}-spans.jsonl"
            spans.parent.mkdir(exist_ok=True)
            shutil.move(work / "spans.jsonl", spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    times = result["times"]
    value, pct, n = tail(times)
    ok_ops = result["attempted"] - result["failed"]
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=trace, size=size,
        setup_times=setups,
        metrics={
            "op_p50_s": statistics.median(times),
            "op_tail_s": value,
            "ops_per_s": ok_ops / sum(times),
            "peak_rss_mb": result["vmhwm_kb"] / 1024,
            "setup_s": statistics.median(setups),
        },
        op_tail={"percentile": pct, "samples": n},
        error_rate=result["failed"] / result["attempted"],
    )
    return result


def report(result: dict) -> dict:
    """Print every metric by name and unit; return the final JSON object."""
    r = result
    print(f"rnacc benchmark: {r['workload']} seed={r['seed']} seconds={r['seconds']} "
          f"trace={int(r['trace'])} size={r['size']} (closed loop, 1 client, 1 thread)")
    for key, value in r["metrics"].items():
        print(f"  {key:<32} {value:.6g} {END_TO_END_UNITS[key]}")
    print(f"  {'op_tail_s percentile':<32} p{r['op_tail']['percentile']:.1f} of {r['op_tail']['samples']} ops")
    print(f"  {'error_rate':<32} {r['error_rate']:.6g} ({r['failed']}/{r['attempted']})")
    if r["final_obj_rna"] is not None:
        print(f"  {'final_obj_rna':<32} {r['final_obj_rna']!r}")
    for error in r["errors"]:
        print(f"  failure: {error}")
    if "verify_error" in r:
        print(f"  verification failed: {r['verify_error']}")
    if r["trace"]:
        metrics = r["layers"]
        for key, m in metrics.items():
            print(f"  {key:<32} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {key: {"value": v, "unit": END_TO_END_UNITS[key]} for key, v in r["metrics"].items()}
    return {
        "correct": r["failed"] == 0 and "verify_error" not in r,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }


def smoke() -> int:
    """Every workload small, once corrupted and once traced; names match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    ok = True
    for name in NAMES:
        plain = measure(name, seed=1, seconds=1, trace=False, size="smoke", corrupt=1)
        traced = measure(name, seed=1, seconds=1, trace=True, size="smoke")
        good = (
            plain["failed"] == 1 and not report(plain)["correct"]
            and traced["failed"] == 0 and report(traced)["correct"]
            and set(plain["metrics"]) == end_to_end and set(traced["layers"]) == per_layer
        )
        print(f"smoke {name}: {'ok' if good else 'FAILED'} "
              f"(corrupted run failed {plain['failed']}/{plain['attempted']}, "
              f"traced run failed {traced['failed']}/{traced['attempted']})")
        ok &= good
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "rnacc" / "__init__.py").is_file():
        print(f"error: no rnacc sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), "full")
        result["env"].update(environment())
        result["notes"] = notes(result)
        line = report(result)
        out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
