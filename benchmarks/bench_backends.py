#!/usr/bin/env python3
"""Benchmark the simplex pivot kernels: compiled extension vs numpy fallback.

Times full OPF solves (standard-form sizes grow with bus count) and the raw
pivot loop on synthetic tableaus. Both kernels make identical pivots, so the
comparison is pure per-pivot cost. Beside each OPF timing it prints how many
solves came back non-optimal and how many raised ArithmeticError (the
iteration cap), as "non-optimal/errors"; a failing size is reported, not fatal.

Usage: python3 benchmarks/bench_backends.py [--sizes 10,20,30] [--repeats 5]
"""

import argparse
import time

import numpy as np

import lmpcirc._kernels as kernels
from lmpcirc import assemble_lp, generate_random_network, solve_lp
from lmpcirc.dcopf import opf_lp_problem


def time_opf_batch(impl, problems, repeats):
    """Best batch time, with the non-optimal and ArithmeticError counts of a batch."""
    kernels.run_simplex = impl.run_simplex
    best = float("inf")
    for _ in range(repeats):
        non_optimal = errors = 0
        t0 = time.perf_counter()
        for prob in problems:
            try:
                non_optimal += solve_lp(prob).status != "optimal"
            except ArithmeticError:
                errors += 1
        best = min(best, time.perf_counter() - t0)
    return best, non_optimal, errors


def time_raw_kernel(impl, tableau, basis, n_eligible, repeats):
    best = float("inf")
    iters = None
    for _ in range(repeats):
        t, b = tableau.copy(), basis.copy()
        t0 = time.perf_counter()
        _, iters = impl.run_simplex(t, b, n_eligible, 1e-9, 1e-9, 60, 100000)
        best = min(best, time.perf_counter() - t0)
    return best, iters


def synthetic_tableau(m, n, seed):
    """Feasible standard-form tableau: random rows, identity crash basis."""
    rng = np.random.default_rng(seed)
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = rng.normal(size=(m, n))
    tableau[:m, n:n + m] = np.eye(m)
    tableau[:m, -1] = rng.uniform(1.0, 10.0, size=m)
    tableau[m, :n] = rng.normal(size=n)
    basis = np.arange(n, n + m, dtype=np.intp)
    return tableau, basis


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="10,20,30", help="bus counts, comma separated")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--per-size", type=int, default=8, help="networks per size")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    backends = kernels.available_backends()
    print(f"available backends: {', '.join(backends)} (default: {kernels.BACKEND})")
    if len(backends) < 2:
        print("compiled kernel not built; nothing to compare")

    original = kernels.run_simplex
    try:
        print("\nfull OPF solves (best of repeats)")
        print(f"{'buses':>6} {'problems':>9} " + "".join(f"{name:>12} {'fails':>7}" for name in backends)
              + ("   speedup" if len(backends) == 2 else ""))
        for n in sizes:
            problems = []
            for seed in range(args.per_size):
                net = generate_random_network(1000 + seed, n, 0.35)
                problems.append(opf_lp_problem(assemble_lp(net), ref_bus=0))
            runs = {name: time_opf_batch(impl, problems, args.repeats)
                    for name, impl in backends.items()}
            row = f"{n:>6} {len(problems):>9} " + "".join(
                f"{t * 1e3:>10.1f}ms {f'{bad}/{err}':>7}" for t, bad, err in runs.values())
            if len(backends) == 2:
                row += f"   {runs['python'][0] / runs['cython'][0]:>6.2f}x"
            print(row)

        print("\nraw pivot loop on synthetic tableaus (best of repeats)")
        print(f"{'rows':>6} {'cols':>6} {'pivots':>7} " + "".join(f"{name:>12}" for name in backends))
        for m, n in ((40, 80), (120, 240), (250, 500)):
            tableau, basis = synthetic_tableau(m, n, seed=7)
            times, iters = {}, None
            for name, impl in backends.items():
                times[name], iters = time_raw_kernel(impl, tableau, basis, n, args.repeats)
            row = f"{m:>6} {n:>6} {iters:>7} " + "".join(f"{times[k]*1e3:>10.2f}ms" for k in backends)
            if len(backends) == 2:
                row += f"   {times['python'] / times['cython']:>6.2f}x"
            print(row)
    finally:
        kernels.run_simplex = original


if __name__ == "__main__":
    main()
