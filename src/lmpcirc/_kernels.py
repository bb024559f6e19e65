"""The simplex pivot kernel: a bounded-variable dual simplex on a dense numpy
tableau.

``lp`` calls ``run_simplex`` and ``_pivot`` through this module, so a caller
can swap or wrap either here.

Tableau layout: rows 0..m-1 are constraints, the last row is the reduced-cost
row; the last column is the right-hand side, with tableau[-1, -1] holding the
negated objective. ``basis[i]`` is the column basic in row i. Column j lies in
``[0, |upper[j]|]`` (``inf`` when unbounded above, 0 when fixed).

Upper bounding (Dantzig, *Econometrica* 23, 1955): a nonbasic column sits at
one of its bounds. One at its upper bound is stored flipped, as
``x_j -> u_j - x_j``: its column is negated, the rhs shifted by ``u_j`` times
the column, and ``upper[j]`` negated to mark it. So every nonbasic value is 0
in the tableau, the rhs column holds the basic values, and the Gauss-Jordan
pivot is the plain one. A basic variable keeps its box ``[0, |upper[j]|]``
flipped or not.

Dual simplex (Lemke 1954; Bertsimas & Tsitsiklis, *Introduction to Linear
Optimization*, 1997, §4.5) with the bound-flipping ratio test (Maros,
*Computational Techniques of the Simplex Method*, 2003, §10; Koberstein &
Suhl, *Comput. Optim. Appl.* 37, 2007). The start must be dual feasible: no
nonbasic column that can move has a negative reduced cost. Each iteration
takes the basic variable furthest outside its bounds, lowest row on ties,
out to the bound it violates. The ratio test passes the breakpoints
``d_j / |alpha_j|`` in ratio order, lowest column on ties: while the slope of
the dual objective, the violation the row has left, stays above
``TOL_PRIMAL`` past a boxed candidate, that candidate is flipped to its other
bound instead of entering. A row that no candidate can repair proves the LP
infeasible: its row of ``B^-1`` is a Farkas ray.

A pivot eliminates only the block where both the pivot column and the pivot
row are nonzero, computing each of those entries as ``t - f * p`` exactly as
the dense rank-1 update does. Every skipped entry would have had
``f * p == ±0`` subtracted from it, which leaves a nonzero entry unchanged and
at most flips the sign of a zero. Nothing downstream can tell ``-0.0`` from
``0.0``: every comparison, argmin, argmax and ratio treats them alike, and no
tableau entry that may be zero is ever a divisor. So the pivot choices, the
iteration counts and every nonzero entry are those of the dense update.
"""

import numpy as np

BACKEND = "python"

STATUS_OPTIMAL = 0
STATUS_INFEASIBLE = 1
STATUS_ITER_LIMIT = 2

TOL_PRIMAL = 1e-9      # a basic value further than this outside its bounds leaves
TOL_PIVOT = 1e-9       # smallest row entry the ratio test accepts
STALL_LIMIT = 60       # pivots without progress before lowest-index rules


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


def flip(tableau, cols, upper):
    """Move the nonbasic columns ``cols`` to their other bound: ``x_j ->
    |u_j| - x_j`` in every row, cost row included."""
    if len(cols):
        tableau[:, -1] -= (tableau[:, cols] * np.abs(upper[cols])).sum(axis=1)
        tableau[:, cols] *= -1.0
        upper[cols] *= -1.0


def infeasible_row(tableau, basis, upper):
    """The row that proves the LP infeasible once ``run_simplex`` returned
    ``STATUS_INFEASIBLE``, and its shortfall: the row whose basic variable
    stays furthest outside its bounds however far the nonbasic columns move
    within theirs."""
    m = basis.size
    bound = np.abs(upper)
    movable = bound > 0.0
    movable[basis] = False
    beta = tableau[:m, -1]
    top = bound[basis]
    viol = np.maximum(-beta, beta - top)
    gain = np.where((beta > top)[:, None], tableau[:m, :-1], -tableau[:m, :-1])
    helps = movable & (gain > TOL_PIVOT)
    left = viol - np.where(helps, gain * np.where(bound < np.inf, bound, 0.0), 0.0).sum(axis=1)
    left[(helps & (bound == np.inf)).any(axis=1) | (viol <= TOL_PRIMAL)] = -np.inf
    r = int(np.argmax(left))
    return r, float(left[r])


def run_simplex(tableau, basis, upper):
    """Pivot a dual-feasible tableau to optimality in place.

    The leaving row is the largest bound violation, lowest row on ties; after
    ``STALL_LIMIT`` pivots without dual-objective progress the rules switch
    permanently to the violated row with the lowest basic column. The loop
    stops after ``200 + 40 * (rows + columns)`` pivots. Bound flips are not
    pivots. Returns (status, iterations).
    """
    m, n = tableau.shape[0] - 1, tableau.shape[1] - 1
    if not m:
        return STATUS_OPTIMAL, 0
    max_iter = 200 + 40 * (m + n)
    bound = np.abs(upper)
    movable = bound > 0.0    # a fixed column never enters
    movable[basis] = False
    bland = False
    stall = 0
    last_obj = tableau[-1, -1]
    iters = 0

    while True:
        beta = tableau[:m, -1]
        top = bound[basis]
        viol = np.maximum(-beta, beta - top)
        if bland:
            rows = np.flatnonzero(viol > TOL_PRIMAL)
            if rows.size == 0:
                return STATUS_OPTIMAL, iters
            pr = int(rows[np.argmin(basis[rows])])
        else:
            pr = int(np.argmax(viol))
            if viol[pr] <= TOL_PRIMAL:
                return STATUS_OPTIMAL, iters
        above = beta[pr] > top[pr]

        # breakpoints: columns whose move toward their other bound repairs the row
        gain = tableau[pr, :n] if above else -tableau[pr, :n]
        cand = np.flatnonzero(movable & (gain > TOL_PIVOT))
        ratios = np.maximum(tableau[-1, cand], 0.0) / gain[cand]
        order = cand[np.lexsort((cand, ratios))]
        # the violation left after passing each breakpoint; an unbounded column
        # stops the pass, and so does one that leaves less than the tolerance
        slope = viol[pr] - np.cumsum(gain[order] * bound[order])
        stop = np.flatnonzero(slope <= TOL_PRIMAL)
        if stop.size == 0:
            return STATUS_INFEASIBLE, iters
        pc = int(order[stop[0]])

        flip(tableau, order[:stop[0]], upper)
        _pivot(tableau, pr, pc)
        leaving = int(basis[pr])
        basis[pr] = pc
        movable[pc] = False
        movable[leaving] = bound[leaving] > 0.0
        if above and movable[leaving]:
            flip(tableau, [leaving], upper)
        iters += 1
        if iters >= max_iter:
            return STATUS_ITER_LIMIT, iters

        obj = tableau[-1, -1]    # the negated objective falls as the dual rises
        if not bland:
            if obj >= last_obj - 1e-12 * (1.0 + abs(last_obj)):
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall = 0
        last_obj = obj
