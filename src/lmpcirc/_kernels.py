"""The simplex pivot kernel: a pivot loop on a dense numpy tableau.

``lp`` calls ``run_simplex`` and ``_pivot`` through this module, so a caller
can swap or wrap either here.

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
negated objective. ``basis[i]`` is the column basic in row i. Every column
but the rhs may enter.
"""

import numpy as np

BACKEND = "python"

STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2

TOL_ENTERING = 1e-9    # a reduced cost below -this enters
TOL_PIVOT = 1e-9       # smallest column entry the ratio test accepts
STALL_LIMIT = 60       # pivots without progress before Bland's rule


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


def run_simplex(tableau, basis):
    """Pivot the tableau to optimality in place.

    Entering rule is most-negative reduced cost with lowest-index ties,
    switching permanently to Bland's rule after ``STALL_LIMIT`` pivots without
    objective progress. The loop stops after ``200 + 40 * (rows + columns)``
    pivots. Returns (status, iterations).
    """
    m, n = tableau.shape[0] - 1, tableau.shape[1] - 1
    if not n:    # with no column left there is nothing to price
        return STATUS_OPTIMAL, 0
    max_iter = 200 + 40 * (m + n)
    bland = False
    stall = 0
    last_obj = tableau[-1, -1]
    iters = 0

    while True:
        cost = tableau[-1, :n]
        if bland:
            candidates = np.nonzero(cost < -TOL_ENTERING)[0]
            if candidates.size == 0:
                return STATUS_OPTIMAL, iters
            pc = int(candidates[0])
        else:
            pc = int(np.argmin(cost))
            if cost[pc] >= -TOL_ENTERING:
                return STATUS_OPTIMAL, iters

        col = tableau[:m, pc]
        eligible = np.flatnonzero(col > TOL_PIVOT)
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
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall = 0
        last_obj = obj
