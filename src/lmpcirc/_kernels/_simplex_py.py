"""Dense simplex pivot loop, numpy backend.

Mirrors ``_simplex_cy.pyx`` operation for operation; both backends must make
identical pivot choices and produce identical tableaus (the extension is built
without FMA contraction for this reason).

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
    unit pivot and eliminated from every other row, cost row included."""
    tableau[pr, :] /= tableau[pr, pc]
    factors = tableau[:, pc].copy()
    factors[pr] = 0.0
    tableau -= factors[:, None] * tableau[pr, None, :]
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
        eligible = col > tol_pivot
        if not eligible.any():
            return STATUS_UNBOUNDED, iters
        ratios = np.full(m, np.inf)
        np.divide(tableau[:m, -1], col, out=ratios, where=eligible)
        best = ratios.min()
        tied = np.nonzero(ratios == best)[0]
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
