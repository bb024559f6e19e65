"""Reference speed: a fixed calibration kernel timed around every measured interval.

The machine the benchmark was written on is a 2-vCPU VM on a shared host whose
CPU speed swings by up to 1.8x, in spells from seconds to minutes long. A
spell often covers a whole run, so plain wall times of the same code differ
by more than the bounds allow between runs. The benchmark therefore reports
its timing metrics in *reference time*: each measured interval is scaled by
``REF_S / k``, where ``k`` is the mean time of this kernel run right before
and right after the interval. Reference time is the time the interval would
have taken at the speed at which the kernel takes ``REF_S``.

Each workload has the kernel that slows like its ops do:

- ``spawn``, a bare interpreter started and stopped (``python -I -S -c pass``),
  for ``cli_cases`` and for set-up, whose intervals are fresh processes that
  start an interpreter and import lmpcirc;
- ``python``, an interpreted loop of dict updates, for ``circuit_large``
  (dense solves and JSON output);
- ``pivot``, the simplex's rank-1 tableau update on a 400x700 array (2.2 MB),
  for ``opf_dense`` and ``opf_grid``, whose ops are over 90% pivots.

Each was chosen from kernels tried as divisors of recorded op times (those
three, numpy arithmetic on 0.3 MB and 8 MB arrays, a 300x300 LU solve,
``json.dumps`` of a list, reading files and touching fresh pages): per
workload, the chosen one left the smallest spread of each input's op time.
The ``python`` kernel slows by as much as a ``circuit_large`` op (1.7x between
their 10th and 90th percentiles) but at times by more than a CLI process, and
the OPF ops slow less than either. The kernels are benchmark code, so no
change to lmpcirc changes them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Each kernel's time at the reference speed, about its time on the reference
# machine (2-vCPU Intel Xeon VM, Python 3.11) when the host is quiet: the
# python kernel takes 2.2-2.8 ms there (up to 4.6 ms on a contended host), the
# pivot kernel 2.8-3.1 ms (up to 4 ms), the spawn kernel 30-35 ms (up to 55 ms).
REF_S = {"python": 0.0025, "pivot": 0.003, "spawn": 0.03}

_T = np.linspace(0.0, 1.0, 400 * 700).reshape(400, 700)
_F = np.linspace(0.0, 1.0, 400)
_R = np.full(700, 1e-12)  # tiny, so a million updates barely move the tableau


def _python_chunk() -> float:
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(4000):
        d[i & 255] = d.get(i & 255, 0) + i * 3
    return time.perf_counter() - t0


def _pivot_chunk() -> float:
    t0 = time.perf_counter()
    np.subtract(_T, _F[:, None] * _R[None, :], out=_T)
    return time.perf_counter() - t0


def _spawn_chunk() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return time.perf_counter() - t0


# kind: (chunk, how many chunks one kernel run takes)
_KERNELS = {"python": (_python_chunk, 5), "pivot": (_pivot_chunk, 5), "spawn": (_spawn_chunk, 3)}


def kernel(kind: str) -> float:
    """The calibration kernel's time in seconds: the number of chunks times their median.

    The median drops a chunk that the host preempted (an outlier of 10 ms or
    more) or that ran on a CPU just woken from a wait.
    """
    chunk, n = _KERNELS[kind]
    return n * statistics.median(chunk() for _ in range(n))


def to_ref(kind: str, wall: float, before: float, after: float) -> float:
    """An interval's wall time in reference time, given the kernel's times right before and after it."""
    return wall * REF_S[kind] / (0.5 * (before + after))
