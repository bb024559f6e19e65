"""The simplex pivot kernel: a bounded-variable dual simplex on a dense numpy
tableau.

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
Suhl, *Comput. Optim. Appl.* 37, 2007). The start is part of the method:
before its first iteration ``run_simplex`` puts every nonbasic column with a
finite positive upper bound and a reduced cost below ``-TOL_DUAL`` at that
bound. From the basis of all logicals on the OPF, where every column is
boxed, that is the merit-order dispatch. At a basis that is already optimal
it moves nothing, since a reduced cost that rounding has left just below 0 is
not below ``-TOL_DUAL``. The start must then be dual feasible: no nonbasic
column that can move has a reduced cost below ``-TOL_DUAL``.

Each iteration takes the basic variable furthest outside its bounds, lowest
row on ties, out to the bound it violates. The ratio test passes the
breakpoints ``d_j / |alpha_j|`` in ratio order, lowest column on ties: while
the slope of the dual objective, the violation the row has left, stays above
``TOL_PRIMAL`` past a boxed candidate, that candidate is flipped to its other
bound instead of entering. A row that no candidate can repair proves the LP
infeasible: its row of ``B^-1`` is a Farkas ray.

A pivot is the dense rank-1 Gauss-Jordan update of every row, cost row
included, applied one block of rows at a time.
"""

import numpy as np

BACKEND = "python"

STATUS_OPTIMAL = 0
STATUS_INFEASIBLE = 1
STATUS_ITER_LIMIT = 2

TOL_PRIMAL = 1e-9      # a basic value further than this outside its bounds leaves
TOL_PIVOT = 1e-9       # smallest row entry the ratio test accepts
TOL_DUAL = 1e-9        # a reduced cost below -this is dual infeasible at the column's lower bound
STALL_LIMIT = 60       # pivots without progress before lowest-index rules
# rows per block of the pivot's update: the update's temporary then stays a
# small slice of the tableau instead of a second copy of it
_BLOCK_ROWS = 256


def _pivot(tableau, pr, pc):
    """Gauss-Jordan pivot on (pr, pc) in place: the pivot row is scaled to a
    unit pivot and eliminated from every other row, cost row included."""
    tableau[pr] /= tableau[pr, pc]
    # the pivot row's own update turns a -0.0 in it into 0.0, so the blocks
    # after it read a copy, as a one-shot update over every row would
    row, factors = tableau[pr].copy(), tableau[:, pc].copy()
    factors[pr] = 0.0
    for start in range(0, tableau.shape[0], _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        tableau[block] -= factors[block, None] * row
    tableau[:, pc] = 0.0
    tableau[pr, pc] = 1.0


def _flip(tableau, cols, upper):
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
    within theirs, lowest row on ties. The rows are scanned one block at a
    time, as the pivot updates them."""
    m = basis.size
    bound = np.abs(upper)
    movable = bound > 0.0
    movable[basis] = False
    finite = np.where(bound < np.inf, bound, 0.0)
    beta = tableau[:m, -1]
    top = bound[basis]
    viol = np.maximum(-beta, beta - top)
    left = np.empty(m)
    for start in range(0, m, _BLOCK_ROWS):
        block = slice(start, min(start + _BLOCK_ROWS, m))
        gain = np.where((beta[block] > top[block])[:, None], tableau[block, :-1], -tableau[block, :-1])
        helps = movable & (gain > TOL_PIVOT)
        left[block] = viol[block] - np.where(helps, gain * finite, 0.0).sum(axis=1)
        left[block][(helps & (bound == np.inf)).any(axis=1)] = -np.inf
    left[viol <= TOL_PRIMAL] = -np.inf
    r = int(np.argmax(left))
    return r, float(left[r])


def run_simplex(tableau, basis, upper):
    """Put each nonbasic column with a finite positive upper bound and a
    reduced cost below ``-TOL_DUAL`` at that bound, then pivot the tableau,
    which must now be dual feasible, to optimality in place.

    The leaving row is the largest bound violation, lowest row on ties; after
    ``STALL_LIMIT`` pivots without dual-objective progress the rules switch
    permanently to the violated row with the lowest basic column. The loop
    stops after ``200 + 40 * (rows + columns)`` pivots. Bound flips are not
    pivots. Returns (status, iterations).
    """
    m, n = tableau.shape[0] - 1, tableau.shape[1] - 1
    bound = np.abs(upper)
    movable = bound > 0.0    # a fixed column never enters
    movable[basis] = False
    pushed_up = movable & (tableau[-1, :n] < -TOL_DUAL) & (upper > 0.0) & (upper < np.inf)
    _flip(tableau, np.flatnonzero(pushed_up), upper)
    if not m:
        return STATUS_OPTIMAL, 0
    max_iter = 200 + 40 * (m + n)
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

        _flip(tableau, order[:stop[0]], upper)
        _pivot(tableau, pr, pc)
        leaving = int(basis[pr])
        basis[pr] = pc
        movable[pc] = False
        movable[leaving] = bound[leaving] > 0.0
        if above and movable[leaving]:
            _flip(tableau, [leaving], upper)
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
