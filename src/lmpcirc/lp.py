"""Self-contained dense linear-program solver with exact basis duals.

Solves ``min c'x  s.t.  A_eq x = b_eq,  A_ge x >= b_ge`` with free variables;
a bound on a variable is a row with one nonzero. A presolve reads those
singleton rows as bounds, the first step of standard LP presolve (Andersen &
Andersen, Math. Programming 71, 1995):

- the tightest lower bound ``l`` on a variable (lowest row on ties) makes it
  ``l + x'`` with one column ``x' >= 0``, and its row leaves the LP;
- the tightest upper bound ``u`` of such a variable bounds its column,
  ``x' <= u - l``, and its row leaves the LP too; a variable with no lower
  bound keeps its upper bounds as rows;
- an equality singleton, or a tightest lower and upper bound that are equal,
  fixes the variable: its column and those rows leave, and its other rows
  become empty rows, infeasible if they demand anything;
- a lower bound above an upper bound is infeasible, naming both rows;
- two ``>=`` rows whose coefficients are exact negatives, ``a x >= b1`` and
  ``-a x >= b2``, become one ranged row ``a x - s = b1`` with its slack
  boxed in ``[0, -(b1 + b2)]``, infeasible, naming both rows, when
  ``b1 + b2`` is positive. On the OPF these are each limited line's two rows.

A row that left is priced afterwards from its variable's reduced cost over
the kept rows, so every dual and ``infeasible_rows`` use the problem's row
numbering.

The standard form gives every kept row a logical column, ``a x - s = b``:
``s`` lies in ``[0, inf)`` on a ``>=`` row, in ``[0, range]`` on a ranged row
and in ``[0, 0]`` on an equality row. Each free variable is split into
``x' - v``, so an LP made mostly of free variables takes many pivots; the OPF
hands the solver none (``dcopf`` solves it in the injections alone).

The rest is the bounded dual simplex of ``_kernels``. It starts from the
basis of all logicals, with each column whose reduced cost is negative at its
upper bound; on the OPF, where every column is boxed, that is the merit-order
dispatch and the start is dual feasible. A column with a negative cost and no
upper bound makes the start dual infeasible. Then a dual phase 1 solves
Fourer's auxiliary problem through the same kernel (Koberstein & Suhl,
*Comput. Optim. Appl.* 37, 2007, §3): the original costs, a zero rhs, every
column with no upper bound boxed in ``[0, 1]`` and every other column fixed
at 0. An optimum of 0 leaves a dual-feasible basis for phase 2; a negative
one proves the dual infeasible, and one more kernel call with zero costs
tells an unbounded LP from an infeasible one. An infeasible LP names, in
``infeasible_rows``, the rows in the support of the row of ``B^-1`` that
proves it (a Farkas ray), with the shortfall that row cannot close.

Vertex solutions give exact basis duals: after the pivot loop terminates, the
primal point and the row duals are recomputed from a fresh partial-pivot
factorization of the final basis (one step of iterative refinement), so the
reported solution does not carry accumulated tableau drift. Only the rows
whose logical is nonbasic are factored, against the basic structural
columns, with each column held at its upper bound moved to the rhs. A row
whose logical is basic is loose: its dual is 0 and its logical is ``a x - b``
(complementary slackness; Bertsimas & Tsitsiklis 1997, §4.3). A ranged row's
dual goes to its first row when positive and, negated, to its partner when
negative. A singular final basis raises ``ArithmeticError``, as does the
iteration cap; a vertex whose residuals exceed their limits gets status
``numerical``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL = "numerical"

_DEGENERACY_EPS = 1e-9
_CERT_RTOL = 1e-7       # residual limit relative to 1 + the data (gap: + |objective|)
_TOL_RHS = 1e-9         # largest demand an empty row or a bound conflict may leave unmet
_TOL_DUAL = 1e-9        # a reduced cost below -this on a column with no upper bound is dual infeasible


@dataclass(frozen=True)
class LpProblem:
    """min c'x over free x subject to a_eq x = b_eq and a_ge x >= b_ge."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ge: np.ndarray
    b_ge: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        nv = c.size
        a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, nv) if np.size(self.a_eq) else np.zeros((0, nv))
        a_ge = np.asarray(self.a_ge, dtype=float).reshape(-1, nv) if np.size(self.a_ge) else np.zeros((0, nv))
        b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=float)) if np.size(self.b_eq) else np.zeros(0)
        b_ge = np.atleast_1d(np.asarray(self.b_ge, dtype=float)) if np.size(self.b_ge) else np.zeros(0)
        if b_eq.size != a_eq.shape[0] or b_ge.size != a_ge.shape[0]:
            raise ValueError("constraint matrix/rhs dimensions disagree")
        for name, arr in (("c", c), ("a_eq", a_eq), ("b_eq", b_eq), ("a_ge", a_ge), ("b_ge", b_ge)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        for name, arr in (("c", c), ("a_eq", a_eq), ("b_eq", b_eq), ("a_ge", a_ge), ("b_ge", b_ge)):
            object.__setattr__(self, name, arr)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: np.ndarray | None = None
    objective: float | None = None
    eq_duals: np.ndarray | None = None
    ge_duals: np.ndarray | None = None
    degenerate: bool = False
    iterations: int = 0
    residuals: dict | None = None
    infeasible_rows: tuple = ()


def _inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of a square matrix by Gauss-Jordan elimination with partial
    pivoting, lowest row on ties; raises LinAlgError on a singular matrix.

    It uses elementwise numpy operations only, never BLAS or LAPACK, whose
    blocking, and with it the last bits of an answer, changes with the BLAS
    thread count; so the reported vertex has the same bits on any thread
    count. Each elimination step touches only the rows with a nonzero in the
    pivot column, which keeps sparse bases cheap."""
    n = a.shape[0]
    t = np.hstack([a, np.eye(n)])
    for k in range(n):
        p = k + int(np.abs(t[k:, k]).argmax())
        if t[p, k] == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        row = t[p, k:] / t[p, k]
        t[p, k:] = t[k, k:]
        t[k, k:] = row
        rows = k + 1 + np.flatnonzero(t[k + 1:, k])
        t[rows, k:] -= np.multiply.outer(t[rows, k], row)
    for k in range(n - 1, 0, -1):
        rows = np.flatnonzero(t[:k, k])
        t[rows, n:] -= np.multiply.outer(t[rows, k], t[k, n:])
    return t[:, n:]


def _refined_solve(a: np.ndarray, inv: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b from ``inv``, the inverse of ``a``, with one step of
    iterative refinement; every product is an elementwise sum."""
    x = (inv * b).sum(axis=1)
    return x + (inv * (b - (a * x).sum(axis=1))).sum(axis=1)


def _tightest(rows: np.ndarray, var: np.ndarray, bound: np.ndarray, nv: int, largest: bool) -> np.ndarray:
    """Per variable, the row holding its largest (or smallest) bound, the lowest
    row on ties; -1 for a variable with no such row."""
    order = np.lexsort((rows, -bound if largest else bound, var))
    var = var[order]
    first = np.ones(var.size, dtype=bool)
    first[1:] = var[1:] != var[:-1]
    best = np.full(nv, -1, dtype=np.intp)
    best[var[first]] = rows[order[first]]
    return best


def _pair_opposite_rows(a_ge: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per row of ``a_ge``, the later row among ``rows`` whose coefficients
    are its exact negatives, or -1. Rows pair in order, each with the first
    unpaired earlier row it negates."""
    partner = np.full(a_ge.shape[0], -1, dtype=np.intp)
    unpaired: dict[bytes, list[int]] = {}
    for i in rows:
        row = a_ge[i] + 0.0     # -0.0 -> 0.0
        mates = unpaired.get((0.0 - row).tobytes())
        if mates:
            partner[mates.pop(0)] = i
        else:
            unpaired.setdefault(row.tobytes(), []).append(int(i))
    return partner


@dataclass(frozen=True)
class _Presolved:
    """Singleton rows read as bounds and opposite rows read as ranges.
    Variable j is ``shift[j] + x'`` with ``0 <= x' <= upper[j]`` when its
    lower bound is absorbed, ``shift[j]`` when fixed and free otherwise; the
    rows behind those bounds leave the LP. Rows are numbered as in the
    problem, with -1 where a variable or row has no such row."""

    low_row: np.ndarray    # tightest lower bound (a > 0 in a >= row)
    up_row: np.ndarray     # tightest upper bound (a < 0 in a >= row)
    fix_row: np.ndarray    # first equality singleton
    absorbed: np.ndarray   # lower bound absorbed into x'
    bounded: np.ndarray    # absorbed, with its upper bound on the column
    pinned: np.ndarray     # fixed by equal tightest lower and upper bounds
    fixed: np.ndarray      # pinned or fixed by an equality singleton
    shift: np.ndarray
    upper: np.ndarray      # bound on x' (inf when none)
    b_eq: np.ndarray       # right-hand sides once x is shift + x'
    b_ge: np.ndarray
    eq_keep: np.ndarray    # rows that stay, each with a nonzero on a column that stays
    ge_keep: np.ndarray
    partner: np.ndarray    # per kept >= row, the row it is ranged with
    ge_range: np.ndarray   # per kept >= row, its slack's upper bound (inf unless ranged)


def _presolve(problem: LpProblem) -> _Presolved | LpSolution:
    """Read singleton rows as bounds, pair opposite rows into ranges and drop
    empty rows; an ``INFEASIBLE`` solution when the bounds or a pair conflict
    or an empty row demands anything."""
    nv = problem.n_vars
    a_eq, b_eq, a_ge, b_ge = problem.a_eq, problem.b_eq, problem.a_ge, problem.b_ge
    nz_eq = np.count_nonzero(a_eq, axis=1)
    nz_ge = np.count_nonzero(a_ge, axis=1)

    rows = np.flatnonzero(nz_eq == 1)
    var = np.argmax(a_eq[rows] != 0.0, axis=1)
    fix_row = np.full(nv, -1, dtype=np.intp)
    first_var, first = np.unique(var, return_index=True)
    fix_row[first_var] = rows[first]

    rows = np.flatnonzero(nz_ge == 1)
    var = np.argmax(a_ge[rows] != 0.0, axis=1)
    bound = b_ge[rows] / a_ge[rows, var]
    up = a_ge[rows, var] < 0.0
    low_row = _tightest(rows[~up], var[~up], bound[~up], nv, largest=True)
    up_row = _tightest(rows[up], var[up], bound[up], nv, largest=False)

    lo, hi = np.full(nv, -np.inf), np.full(nv, np.inf)
    for row, value in ((low_row, lo), (up_row, hi)):
        j = np.flatnonzero(row >= 0)
        value[j] = b_ge[row[j]] / a_ge[row[j], j]
    conflicts = []
    for j in np.flatnonzero(lo - hi > _TOL_RHS):
        # each row's violation where the other bound holds
        conflicts += [("ge", int(low_row[j]), float(b_ge[low_row[j]] - a_ge[low_row[j], j] * hi[j])),
                      ("ge", int(up_row[j]), float(b_ge[up_row[j]] - a_ge[up_row[j], j] * lo[j]))]
    if conflicts:
        return LpSolution(status=INFEASIBLE, infeasible_rows=tuple(conflicts))

    pinned = (fix_row < 0) & (lo == hi)
    fixed = pinned | (fix_row >= 0)
    absorbed = ~fixed & (low_row >= 0)
    bounded = absorbed & (up_row >= 0)
    shift = np.where(absorbed | pinned, lo, 0.0)
    j = np.flatnonzero(fix_row >= 0)
    shift[j] = b_eq[fix_row[j]] / a_eq[fix_row[j], j]
    upper = np.where(bounded, hi - lo, np.inf)
    b_eq, b_ge = b_eq - a_eq @ shift, b_ge - a_ge @ shift

    eq_gone = np.zeros(nz_eq.size, dtype=bool)
    eq_gone[fix_row[fix_row >= 0]] = True
    ge_gone = np.zeros(nz_ge.size, dtype=bool)
    ge_gone[low_row[absorbed | pinned]] = True
    ge_gone[up_row[bounded | pinned]] = True
    # a row whose variables are all fixed is empty: infeasible if its rhs demands anything
    eq_kept = nz_eq > np.count_nonzero(a_eq[:, fixed], axis=1)
    ge_kept = nz_ge > np.count_nonzero(a_ge[:, fixed], axis=1)
    for kind, gone, kept, rhs, demand in (("eq", eq_gone, eq_kept, b_eq, np.abs(b_eq)),
                                          ("ge", ge_gone, ge_kept, b_ge, b_ge)):
        bad = np.flatnonzero(~gone & ~kept & (demand > _TOL_RHS))
        if bad.size:
            i = int(bad[0])
            return LpSolution(status=INFEASIBLE, infeasible_rows=((kind, i, float(rhs[i])),))

    partner = _pair_opposite_rows(a_ge, np.flatnonzero(~ge_gone & ge_kept))
    first = np.flatnonzero(partner >= 0)
    gap = b_ge[first] + b_ge[partner[first]]
    # both rows of a pair fall short by the same amount where the other one holds
    conflicts = tuple(("ge", int(r), float(g)) for i, g in zip(first, gap) if g > _TOL_RHS for r in (i, partner[i]))
    if conflicts:
        return LpSolution(status=INFEASIBLE, infeasible_rows=conflicts)
    ge_gone[partner[first]] = True
    ge_range = np.full(nz_ge.size, np.inf)
    ge_range[first] = np.maximum(-gap, 0.0)

    ge_keep = np.flatnonzero(~ge_gone & ge_kept)
    return _Presolved(low_row=low_row, up_row=up_row, fix_row=fix_row, absorbed=absorbed, bounded=bounded,
                      pinned=pinned, fixed=fixed, shift=shift, upper=upper, b_eq=b_eq, b_ge=b_ge,
                      eq_keep=np.flatnonzero(~eq_gone & eq_kept), ge_keep=ge_keep,
                      partner=partner[ge_keep], ge_range=ge_range[ge_keep])


def _kernel_tableau(a_std: np.ndarray, rhs: np.ndarray, c_std: np.ndarray) -> np.ndarray:
    """The simplex tableau ``[-a_std | I | -rhs ; c_std | 0 | 0]``: each row
    ``i`` reads ``s_i = a_i x - b_i`` with its logical ``s_i`` basic, and the
    last row holds the reduced costs and the negated objective offset."""
    m, n = a_std.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:-1, :n] = -a_std
    tableau[np.arange(m), n + np.arange(m)] = 1.0
    tableau[:-1, -1] = -rhs
    tableau[-1, :n] = c_std
    return tableau


def _basic_solution(a_std: np.ndarray, rhs: np.ndarray, c_std: np.ndarray, basis_col: np.ndarray,
                    x_nonbasic: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of every column and the row duals of the final basis.

    ``a_std`` holds the kept rows over the structural columns (``n`` of them);
    column ``n + i`` is row ``i``'s logical, ``a_i x - s_i = b_i``. Every row
    has a basic column ``basis_col[i]``; ``x_nonbasic`` holds the nonbasic
    columns' values (their upper bounds, or 0). A row whose logical is basic
    is loose: its dual is 0 and its logical is ``a x - b`` (complementary
    slackness). So only the other rows are factored, against the basic
    structural columns, with the nonbasic columns moved to the rhs; each loose
    row's logical takes one basis column, so that system is square."""
    n = a_std.shape[1]
    struct = basis_col < n
    loose = np.zeros(basis_col.size, dtype=bool)
    loose[basis_col[~struct] - n] = True
    tight = np.flatnonzero(~loose)
    col = basis_col[struct]
    basis_mat = a_std[np.ix_(tight, col)]
    up = np.flatnonzero(x_nonbasic[:n])
    b_tight = rhs[tight] + x_nonbasic[n + tight] - (a_std[np.ix_(tight, up)] * x_nonbasic[up]).sum(axis=1)
    try:
        inv = _inverse(basis_mat)
    except np.linalg.LinAlgError:
        raise ArithmeticError("singular final basis") from None
    x_struct = _refined_solve(basis_mat, inv, b_tight)
    y_tight = _refined_solve(basis_mat.T, inv.T, c_std[col])
    x_std = x_nonbasic.copy()
    x_std[col] = x_struct
    x_std[n + np.flatnonzero(loose)] = a_std[loose] @ x_std[:n] - rhs[loose]
    y_rows = np.zeros(basis_col.size)
    y_rows[tight] = y_tight
    return x_std, y_rows


def _start(tableau: np.ndarray, upper: np.ndarray) -> None:
    """Put each column whose reduced cost is negative at its finite upper bound."""
    cost = tableau[-1, :-1]
    _kernels.flip(tableau, np.flatnonzero((cost < 0.0) & (upper > 0.0) & (upper < np.inf)), upper)


def _run(tableau: np.ndarray, basis: np.ndarray, upper: np.ndarray, phase: int) -> tuple[int, int]:
    status, iters = _kernels.run_simplex(tableau, basis, upper)
    if status == _kernels.STATUS_ITER_LIMIT:
        raise ArithmeticError(f"simplex iteration limit in phase {phase}")
    return status, iters


def _dual_phase1(tableau: np.ndarray, basis: np.ndarray, upper: np.ndarray) -> tuple[bool, int]:
    """Fourer's auxiliary problem on ``tableau``: the same costs, a zero rhs,
    columns with no upper bound in ``[0, 1]`` and the others fixed. Returns
    whether its optimum is 0 and the pivots taken. When it is, the tableau
    is left at the auxiliary's final basis with the rhs of the original
    problem and every column back at its lower bound, dual feasible but for
    the columns ``_start`` puts at their upper bound."""
    mk = basis.size
    logicals = slice(tableau.shape[1] - 1 - mk, tableau.shape[1] - 1)
    rhs = tableau[:, -1].copy()
    scale = 1.0 + float(np.max(np.abs(tableau[-1, :-1])))
    tableau[:, -1] = 0.0
    aux = np.where(upper == np.inf, 1.0, 0.0)
    _start(tableau, aux)
    status, iters = _run(tableau, basis, aux, 1)
    if status != _kernels.STATUS_OPTIMAL:
        # the auxiliary problem has the point 0, so a row the kernel cannot fix
        # is a dual ray along which the phase-1 objective grows without bound
        raise ArithmeticError("phase-1 objective unbounded (numerical failure)")
    if tableau[-1, -1] > _TOL_DUAL * scale:
        return False, iters
    # back to the original orientation; the logicals then hold B^-1
    flipped = np.flatnonzero(aux < 0.0)
    row_of = np.full(aux.size, -1, dtype=np.intp)
    row_of[basis] = np.arange(mk)
    _kernels.flip(tableau, flipped[row_of[flipped] < 0], aux)
    for j in flipped[row_of[flipped] >= 0]:
        tableau[row_of[j]] *= -1.0
        tableau[row_of[j], j] = 1.0
    tableau[:, -1] = (tableau[:, logicals] * rhs[:mk]).sum(axis=1)
    tableau[-1, -1] += rhs[-1]
    return True, iters


def _infeasible(tableau, basis, upper, me, row_orig, iters) -> LpSolution:
    """The rows in the support of the proving row of ``B^-1`` (held in the
    logical columns), each with the shortfall that row cannot close. A ranged
    row is named by its first row."""
    r, shortfall = _kernels.infeasible_row(tableau, basis, upper)
    ray = np.abs(tableau[r, tableau.shape[1] - 1 - basis.size:-1])
    support = np.flatnonzero(ray > 1e-9 * ray.max())
    rows = tuple(("eq" if i < me else "ge", int(row_orig[i]), shortfall) for i in support)
    return LpSolution(status=INFEASIBLE, iterations=iters, infeasible_rows=rows)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP; never silent on infeasible/unbounded (reported in status)."""
    pre = _presolve(problem)
    if isinstance(pre, LpSolution):
        return pre
    c = problem.c
    me, mg = pre.eq_keep.size, pre.ge_keep.size
    m = me + mg

    # standard form: columns [x', v, logicals]. A kept variable is shift + x' - v,
    # with a v column only when it is free; row i is a_i x - s_i = b_i
    cols = np.flatnonzero(~pre.fixed)
    split = np.flatnonzero(~pre.fixed & ~pre.absorbed)
    n_var = cols.size + split.size
    var_cols = np.concatenate([cols, split])
    a_std = np.vstack([problem.a_eq[pre.eq_keep], problem.a_ge[pre.ge_keep]]).take(var_cols, axis=1)
    a_std[:, cols.size:] *= -1.0
    rhs = np.concatenate([pre.b_eq[pre.eq_keep], pre.b_ge[pre.ge_keep]])
    row_orig = np.concatenate([pre.eq_keep, pre.ge_keep])
    c_std = np.concatenate([c[cols], -c[split]])
    upper_std = np.concatenate([pre.upper[cols], np.full(split.size, np.inf), np.zeros(me), pre.ge_range])
    free_std = np.concatenate([np.searchsorted(cols, split), cols.size + np.arange(split.size)])

    tableau = _kernel_tableau(a_std, rhs, c_std)
    n_std = n_var + m
    upper = upper_std.copy()
    basis = np.arange(n_var, n_std)

    total_iters = 0
    if np.any((tableau[-1, :n_std] < -_TOL_DUAL) & (upper == np.inf)):
        start = tableau.copy()
        dual_feasible, total_iters = _dual_phase1(tableau, basis, upper)
        if not dual_feasible:
            # the dual is infeasible: the LP is unbounded if it has a point at all
            start[-1] = 0.0
            basis = np.arange(n_var, n_std)
            status, iters = _run(start, basis, upper, 1)
            if status == _kernels.STATUS_INFEASIBLE:
                return _infeasible(start, basis, upper, me, row_orig, total_iters + iters)
            return LpSolution(status=UNBOUNDED, iterations=total_iters + iters)

    _start(tableau, upper)
    status, iters = _run(tableau, basis, upper, 2)
    total_iters += iters
    if status == _kernels.STATUS_INFEASIBLE:
        return _infeasible(tableau, basis, upper, me, row_orig, total_iters)

    # recompute the vertex and its duals from a fresh factorization of the
    # final basis's tight rows, with each column stored flipped and nonbasic
    # at its upper bound
    at_upper = np.flatnonzero(upper < 0.0)
    at_upper = at_upper[~np.isin(at_upper, basis)]
    x_nonbasic = np.zeros(n_std)
    x_nonbasic[at_upper] = -upper[at_upper]
    x_std, y_rows = _basic_solution(a_std, rhs, c_std, basis, x_nonbasic)

    x = pre.shift.copy()
    x[cols] += x_std[:cols.size]
    x[split] -= x_std[cols.size:n_var]

    eq_duals = np.zeros(problem.a_eq.shape[0])
    ge_duals = np.zeros(problem.a_ge.shape[0])
    eq_duals[pre.eq_keep] = y_rows[:me]
    # a ranged row's dual goes to its first row when positive, else to its partner
    y_ge = y_rows[me:]
    other = (y_ge < 0.0) & (pre.partner >= 0)
    ge_duals[np.where(other, pre.partner, pre.ge_keep)] = np.where(other, -y_ge, y_ge)
    # a row that left the LP prices its variable's reduced cost over the kept rows
    d = c - problem.a_eq.T @ eq_duals - problem.a_ge.T @ ge_duals
    j = np.flatnonzero(pre.fix_row >= 0)
    eq_duals[pre.fix_row[j]] = d[j] / problem.a_eq[pre.fix_row[j], j]
    # an absorbed lower row; of a bounded or pinned variable's two rows, the
    # lower one when d_j >= 0, else the upper one
    j = np.flatnonzero(pre.absorbed | pre.pinned)
    rows = np.where((pre.bounded | pre.pinned)[j] & (d[j] < 0.0), pre.up_row[j], pre.low_row[j])
    ge_duals[rows] = d[j] / problem.a_ge[rows, j]

    objective = float(problem.c @ x)
    # a basic variable at either bound; a split free variable has none, and an
    # equality row's logical has no other value
    basic = basis[~np.isin(basis, free_std) & (upper_std[basis] > 0.0)]
    near = np.minimum(np.abs(x_std[basic]), np.abs(upper_std[basic] - x_std[basic]))
    degenerate = bool(np.any(near <= _DEGENERACY_EPS))

    slack = problem.a_ge @ x - problem.b_ge
    residuals = {
        "primal_eq": float(np.max(np.abs(problem.a_eq @ x - problem.b_eq), initial=0.0)),
        "primal_ge": float(np.max(-slack, initial=0.0)) if slack.size else 0.0,
        "stationarity": float(np.max(np.abs(problem.a_eq.T @ eq_duals + problem.a_ge.T @ ge_duals - problem.c), initial=0.0)),
        "complementarity": float(np.max(np.abs(ge_duals * slack), initial=0.0)) if slack.size else 0.0,
        "dual_sign": float(max(0.0, -np.min(ge_duals, initial=0.0))),
        "gap": float(abs(objective - (problem.b_eq @ eq_duals + problem.b_ge @ ge_duals))),
    }
    data_scale = max(float(np.max(np.abs(v), initial=0.0)) for v in (problem.c, problem.b_eq, problem.b_ge))
    certified = all(
        value <= _CERT_RTOL * (1.0 + (abs(objective) if name == "gap" else data_scale))
        for name, value in residuals.items()
    )

    return LpSolution(
        status=OPTIMAL if certified else NUMERICAL, x=x, objective=objective,
        eq_duals=eq_duals, ge_duals=ge_duals,
        degenerate=degenerate, iterations=total_iters, residuals=residuals,
    )
