"""Simplex pivot loop on a dense tableau.

A pivot eliminates only the block where both the pivot column and the pivot
row are nonzero, computing each of those entries as ``t - f * p`` exactly as
the dense rank-1 update does. Every skipped entry would have had
``f * p == ±0`` subtracted from it, which leaves a nonzero entry unchanged and
at most flips the sign of a zero. Nothing downstream can tell ``-0.0`` from
``0.0``: every comparison, argmin, argmax and ratio treats them alike, and no
tableau entry that may be zero is ever a divisor. So the pivot choices, the
iteration counts and every nonzero entry are those of the dense update.

Tableau layout: rows 0..m-1 are constraints, the last row is the reduced-cost
row; the last column is the right-hand side, with tableau[-1, -1] holding the
negated objective. ``basis[i]`` is the column basic in row i. Columns with
index >= n_eligible never enter.
"""

import numpy as np

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2


def _pivot(tableau, pr, pc):
    """Gauss-Jordan pivot on (pr, pc) in place: the pivot row is scaled to a
    unit pivot and eliminated from every other row, cost row included.

    The tableau must be C-contiguous: the block update writes through a flat
    view, which for any other layout would be a copy that is silently lost."""
    if not tableau.flags.c_contiguous:
        raise ValueError("simplex tableau must be C-contiguous")
    ncols = tableau.shape[1]
    tableau[pr, :] /= tableau[pr, pc]
    rows = np.flatnonzero(tableau[:, pc])
    rows = rows[rows != pr]
    cols = np.flatnonzero(tableau[pr])
    idx = rows[:, None] * ncols + cols
    flat = tableau.reshape(-1)
    flat[idx] -= tableau[rows, pc][:, None] * tableau[pr, cols]
    tableau[:, pc] = 0.0
    tableau[pr, pc] = 1.0


def run_simplex(tableau, basis, n_eligible, tol_entering, tol_pivot, stall_limit, max_iter):
    """Pivot the tableau to optimality in place.

    Entering rule is most-negative reduced cost with lowest-index ties,
    switching permanently to Bland's rule after ``stall_limit`` pivots without
    objective progress. Returns (status, iterations).
    """
    m = tableau.shape[0] - 1
    bland = False
    stall = 0
    last_obj = tableau[-1, -1]
    iters = 0

    while True:
        cost = tableau[-1, :n_eligible]
        if bland:
            candidates = np.nonzero(cost < -tol_entering)[0]
            if candidates.size == 0:
                return STATUS_OPTIMAL, iters
            pc = int(candidates[0])
        else:
            pc = int(np.argmin(cost))
            if cost[pc] >= -tol_entering:
                return STATUS_OPTIMAL, iters

        col = tableau[:m, pc]
        eligible = np.flatnonzero(col > tol_pivot)
        if eligible.size == 0:
            return STATUS_UNBOUNDED, iters
        ratios = tableau[eligible, -1] / col[eligible]
        tied = eligible[ratios == ratios.min()]
        if bland and tied.size > 1:
            pr = int(tied[np.argmin(basis[tied])])
        else:
            pr = int(tied[0])

        _pivot(tableau, pr, pc)
        basis[pr] = pc
        iters += 1
        if iters >= max_iter:
            return STATUS_ITER_LIMIT, iters

        obj = tableau[-1, -1]
        if not bland:
            if obj <= last_obj + 1e-12 * (1.0 + abs(last_obj)):
                stall += 1
                if stall >= stall_limit:
                    bland = True
            else:
                stall = 0
        last_obj = obj
