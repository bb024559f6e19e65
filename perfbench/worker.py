"""Runs one workload's ops in a closed loop with one client and prints one JSON object.

Usage: python3 perfbench/worker.py PLAN_JSON

The plan (written by run.py) names the workload, its input documents and
their references. The worker parses the inputs, runs one untimed warm-up op,
then times whole passes over the items in a seeded order until one more pass
would overrun the measuring time. Each op is timed in wall time and in
reference time (``refspeed.py``: the calibration kernel runs right before and
right after it) and checked right after it ends, outside its timed interval.
With ``trace`` set, half the time is an untraced loop and half a traced one,
and the output carries per-layer metrics instead of op samples.

This process imports lmpcirc and numpy but not scipy, so its peak resident
memory is the workload's own.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import refspeed
import tracing
import workloads as W


class InProcess:
    """An op is a call into the package; the per-op cap is a SIGALRM timer."""

    def __init__(self, workload: str, inputs: list[dict], refs: list[dict], cap: float):
        self.kind = W.REF_KERNEL[workload]
        self.items = W.parse_inputs(inputs)
        self.refs = refs
        self.cap = cap
        if workload == "circuit_large":
            self.op, self.check_fn = W.circuit_op, W.check_circuit
        else:
            self.op, self.check_fn = W.opf_op, W.check_opf

    def warmup(self) -> None:
        # a small input, so lazy set-up in numpy and the package is done before timing
        if self.op is W.opf_op:
            self.op(W.L.generate_random_network(1, 6, 0.5))
        else:
            self.op(self.items[0])

    def timed(self, i: int, tracer: tracing.Tracer | None):
        out = exc = None
        root = None
        before = refspeed.kernel(self.kind)
        if tracer is not None:
            tracer.active = True
            root = tracer.open("op")
        t0 = time.perf_counter()
        try:
            with W.op_deadline(self.cap):
                out = self.op(self.items[i])
        except (Exception, W.OpTimeout) as e:
            exc = e
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            tracer.active = False
        return out, exc, dt, refspeed.to_ref(self.kind, dt, before, refspeed.kernel(self.kind)), root

    def check(self, i: int, out, exc) -> str:
        return self.check_fn(self.items[i], self.refs[i], out, exc)


class CliProcess:
    """An op is one fresh ``python -m lmpcirc.cli`` process."""

    def __init__(self, inputs: list[dict], refs: list[dict], cap: float, work: Path):
        self.kind = W.REF_KERNEL["cli_cases"]
        self.inputs = inputs
        self.refs = refs
        self.cap = cap
        self.items = W.cli_items(inputs)
        self.spans_path = work / "cli_spans.json"

    def warmup(self) -> None:
        W.cli_op(W.cli_argv("solve", self.inputs[0]["path"]), self.cap)

    def timed(self, i: int, tracer: tracing.Tracer | None):
        command, k = self.items[i]
        path = self.inputs[k]["path"]
        out = exc = None
        root = None
        if tracer is not None:
            self.spans_path.unlink(missing_ok=True)
        before = refspeed.kernel(self.kind)
        if tracer is not None:
            root = tracer.open("op")
        t0 = time.perf_counter()
        try:
            out = W.cli_op(W.cli_argv(command, path, str(self.spans_path) if tracer else None), self.cap)
        except (OSError, W.OpTimeout) as e:
            exc = e
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
        ref = refspeed.to_ref(self.kind, dt, before, refspeed.kernel(self.kind))
        if tracer is not None:
            self._merge_child_spans(tracer, root, dt)
        return out, exc, dt, ref, root

    def _merge_child_spans(self, tracer: tracing.Tracer, root: int, wall: float) -> None:
        """Child spans go under the op; what the child did not time is interpreter start and exit."""
        try:
            child = json.loads(self.spans_path.read_text())
        except (OSError, ValueError):
            return  # the child was killed at the cap before writing its spans
        base = len(tracer.spans)
        inside = 0.0
        for name, parent, t0, t1, extra in child["spans"]:
            tracer.add(name, root if parent < 0 else base + parent, t0, t1, extra)
            if parent < 0:
                inside += t1 - t0
        t0, t1 = child["import"]
        tracer.add("cli.import", root, t0, t1)
        tracer.add("cli.interp", root, 0.0, max(wall - (t1 - t0) - inside, 0.0))

    def check(self, i: int, out, exc) -> str:
        command, k = self.items[i]
        return W.check_cli(command, self.refs[k], out, exc)


def run_loop(runner, seconds: float, passes_min: int, rng: random.Random, tracer=None) -> dict:
    samples, ref_samples, categories, roots = [], [], Counter(), []
    order = list(range(len(runner.items)))
    start = time.perf_counter()
    passes = 0
    while True:
        rng.shuffle(order)
        for i in order:
            out, exc, dt, ref, root = runner.timed(i, tracer)
            samples.append(dt)
            ref_samples.append(ref)
            categories[runner.check(i, out, exc)] += 1
            if root is not None:
                roots.append(root)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= passes_min and elapsed * (passes + 1) / passes > seconds:
            break
    return {"samples": samples, "ref_samples": ref_samples, "categories": dict(categories), "roots": roots}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked through its own C API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = [line.split()[-1] for line in fh if "openblas" in line.lower()]
    if not paths:
        return None
    lib = ctypes.CDLL(paths[0])
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            return int(fn())
    return None


def environment() -> dict:
    return {
        "backend": W.L.BACKEND,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": W.np.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    workload, seconds, sizes = plan["workload"], plan["seconds"], plan["sizes"]
    cap = W.CAP_S[workload]
    if workload == "cli_cases":
        runner = CliProcess(plan["inputs"], plan["refs"], cap, Path(plan["work"]))
    else:
        runner = InProcess(workload, plan["inputs"], plan["refs"], cap)
    runner.warmup()
    rng = random.Random(plan["seed"])
    result = {"env": environment()}

    if not plan["trace"]:
        result.update(run_loop(runner, seconds, sizes["passes_min"], rng))
        who = resource.RUSAGE_CHILDREN if workload == "cli_cases" else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        del result["roots"]
    else:
        plain = run_loop(runner, seconds / 2, 1, rng)
        tracer = tracing.Tracer()
        tracer.install()
        traced = run_loop(runner, seconds / 2, 1, rng, tracer)
        tracer.uninstall()
        layers = tracing.layer_metrics(tracer.spans, traced["roots"])
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        layers["trace.overhead_share"] = mean(traced["ref_samples"]) / mean(plain["ref_samples"]) - 1.0
        categories = Counter(plain["categories"]) + Counter(traced["categories"])
        result.update(categories=dict(categories), layers=layers,
                      samples=plain["samples"] + traced["samples"],
                      ref_samples=plain["ref_samples"] + traced["ref_samples"])
        with open(Path(plan["work"]) / "spans.json", "w", encoding="utf-8") as fh:
            json.dump({"roots": traced["roots"], "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
