#!/usr/bin/env python3
"""lmpcirc benchmark: one workload, one run; the last stdout line is the result.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_cases, opf_dense, opf_grid, circuit_large (see README.md).
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run. The end-to-end
timings are in reference time: each op and each set-up is scaled by the speed
of a calibration kernel timed right around it (see refspeed.py), so that the
host's speed swings cancel. The line before the result records the
environment, the SHA-256 of every input document, the failure counts by
category, the percentile behind ``ref_op_tail_ms`` and the same timings in
plain wall time.

Set-up (outside every timed region): write the seed's input documents, compute
a reference answer for each (HiGHS via scipy for OPF inputs, a sparse LU for
circuits), and time several fresh interpreters that import lmpcirc and parse
the inputs. The timed loop then runs in a worker process of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_out"
SETUP_RUNS = 11
DEADLINE_S = 170.0   # the whole run, set-up included, ends well inside 180 s

END_TO_END_UNITS = {
    "setup_s": "s", "ref_ops_per_s": "1/s", "ref_op_p50_ms": "ms", "ref_op_tail_ms": "ms",
    "correct_share": "ratio", "peak_rss_mb": "MB",
}


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest sample with at least ten samples above it, and its percentile."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def timings(samples: list[float], setup: list[float]) -> dict:
    """Op rate, median and tail, and the median set-up time, from times in seconds."""
    return {
        "ops_per_s": len(samples) / sum(samples),
        "op_p50_ms": 1e3 * statistics.median(samples),
        "op_tail_ms": 1e3 * tail(samples)[0],
        "setup_s": statistics.median(setup),
    }


def end_to_end(worker: dict, setup: dict) -> dict:
    """The bounded metrics: timings in reference time (see refspeed.py)."""
    ref = timings(worker["ref_samples"], setup["ref"])
    return {
        "setup_s": ref["setup_s"],
        "ref_ops_per_s": ref["ops_per_s"],
        "ref_op_p50_ms": ref["op_p50_ms"],
        "ref_op_tail_ms": ref["op_tail_ms"],
        "correct_share": worker["categories"].get("ok", 0) / len(worker["samples"]),
        "peak_rss_mb": worker["peak_rss_mb"],
    }


def time_setup(W, plan_path: Path) -> dict:
    """Wall and reference times of SETUP_RUNS fresh interpreters that set up the workload."""
    import refspeed

    wall, ref = [], []
    for _ in range(SETUP_RUNS):
        before = refspeed.kernel("spawn")
        t0 = time.perf_counter()
        W.run_child([sys.executable, str(HERE / "probe.py"), str(plan_path)], 60.0, check=True)
        wall.append(time.perf_counter() - t0)
        ref.append(refspeed.to_ref("spawn", wall[-1], before, refspeed.kernel("spawn")))
    return {"wall": wall, "ref": ref}


def run(workload: str, seed: int, seconds: float, trace: int, sizes: dict | None = None) -> tuple[dict, dict]:
    """One run: set-up, the worker's timed loop, and the metrics. Returns (info, result)."""
    import tracing
    import workloads as W

    started = time.perf_counter()
    work = WORK_ROOT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    sizes = W.SIZES[workload] if sizes is None else sizes
    inputs = W.make_inputs(workload, seed, work, sizes)
    plan = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": sizes, "work": str(work), "inputs": inputs,
        "refs": W.references(workload, inputs),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    setup = time_setup(W, plan_path)

    proc = W.run_child([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                       max(DEADLINE_S - (time.perf_counter() - started), 1.0), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    worker = json.loads(proc.stdout.strip().splitlines()[-1])

    samples = worker["samples"]
    categories = worker["categories"]
    if trace:
        values = dict(worker["layers"])
        values["fail.attempted"] = len(samples)
        values.update({f"fail.{c}": categories.get(c, 0) for c in W.FAILURES})
        units = tracing.LAYER_UNITS
    else:
        values = end_to_end(worker, setup)
        units = END_TO_END_UNITS
    info = {
        "workload": workload, "seed": seed, "trace": trace, "env": worker["env"],
        "inputs": [{"path": str(Path(d["path"]).relative_to(ROOT)), "sha256": d["sha256"]} for d in inputs],
        "categories": categories,
        "op_tail": {"percentile": tail(samples)[1], "samples": len(samples)},
        "setup_runs_s": setup, "sizes": sizes, "cap_s": W.CAP_S[workload],
        # the same timings in plain wall time, unbounded: they swing with the host's speed
        "wall": timings(samples, setup["wall"]),
        "ref_kernel": {"ops": W.REF_KERNEL[workload], "setup": "spawn"},
        "wall_over_ref": sum(samples) / sum(worker["ref_samples"]),
    }
    result = {
        # every op's answer was checked against its reference and classified;
        # how many were wrong or failed is in "failed" and the fail.* metrics
        "correct": sum(categories.values()) == len(samples) > 0,
        "attempted": len(samples),
        "failed": sum(categories.get(c, 0) for c in W.FAILURES),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "result.json").write_text(json.dumps({"info": info, "result": result, "samples": samples,
                                                  "ref_samples": worker["ref_samples"]}))
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lmpcirc" / "__init__.py").is_file():
        print(f"error: no lmpcirc package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts. The calibration
    # kernel then runs on the CPU the op runs on (the host slows each CPU on its
    # own), and no op pays for a wake-up sent to the other CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(HERE))
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        info, result = run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.SubprocessError, W.OpTimeout) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
