"""Self-contained dense linear-program solver with exact basis duals.

Solves ``min c'x  s.t.  A_eq x = b_eq,  A_ge x >= b_ge`` with free variables;
a bound on a variable is a row with one nonzero. A presolve reads those
singleton rows as bounds, the first step of standard LP presolve (Andersen &
Andersen, Math. Programming 71, 1995):

- the tightest lower bound ``l`` on a variable (lowest row on ties) makes it
  ``l + x'`` with one column ``x' >= 0``, and its row leaves the LP;
- an equality singleton, or a tightest lower and upper bound that are equal,
  fixes the variable: its column and those rows leave, and its other rows
  become empty rows, infeasible if they demand anything;
- a lower bound above an upper bound is infeasible, naming both rows;
- upper bounds stay rows; their slacks start basic.

A row that left is priced afterwards from its variable's reduced cost over
the kept rows, so every dual and ``infeasible_rows`` use the problem's row
numbering.

The standard form adds slacks and splits each free variable into
``x' - v``. A free variable with an entry on an equality row is then
eliminated there: in index order, each takes the unused equality row with the
largest absolute entry in its column, picked by Gauss-Jordan pivots on the
equality rows' block of free ``x'`` columns only. One solve against ``E``, the
picked rows over the free variables' columns, substitutes them out of the
other rows, the rhs and the phase-2 costs; the simplex tableau is built from
the result, the Schur complement of ``E`` next to the slack block. The picked
rows and both columns of each eliminated variable stay out of it: a free basic
variable meets no ratio test, so it never has to leave the basis (Maros,
*Computational Techniques of the Simplex Method*, 2003, §9; Bertsimas &
Tsitsiklis, *Introduction to Linear Optimization*, 1997, §3.8). On the OPF,
``E`` is the ground-reduced susceptance Laplacian. A free variable left with
no entry above the pivot tolerance on an unused equality row stays split. The
rest is primal simplex, Dantzig entering rule with a permanent switch to
Bland's rule after a stall window, lowest-index tie breaking throughout, so
results are reproducible.

Vertex solutions give exact basis duals: after the pivot loop terminates, the
primal point and the row duals are recomputed from a fresh partial-pivot
factorization of the final basis, the eliminated pairs together with the
simplex basis (one step of iterative refinement), so the reported solution
does not carry accumulated tableau drift. Only the equality rows and the tight
``>=`` rows are factored, against the basic structural columns: a ``>=`` row
whose own slack is basic is loose, its dual is zero and its slack is
``a x - b`` (complementary slackness; Bertsimas & Tsitsiklis 1997, §4.3).
A singular elimination block or final basis raises ``ArithmeticError``, as
does the iteration cap; a vertex whose residuals exceed their limits gets
status ``numerical``. Artificial variables exist only as basis markers
(``basis[i]`` at or past the number of tableau columns), never as tableau
columns.
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


def _refined_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b (b may hold several columns) with one refinement step;
    raises LinAlgError on a singular a."""
    x = np.linalg.solve(a, b)
    return x + np.linalg.solve(a, b - a @ x)


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


@dataclass(frozen=True)
class _Presolved:
    """Singleton rows read as bounds. Variable j is ``shift[j] + x'`` with
    ``x' >= 0`` when its lower bound is absorbed, ``shift[j]`` when fixed and
    free otherwise; the rows behind those bounds leave the LP. Rows are numbered
    as in the problem, with -1 where a variable has no such row."""

    low_row: np.ndarray    # tightest lower bound (a > 0 in a >= row)
    up_row: np.ndarray     # tightest upper bound (a < 0 in a >= row); stays a row
    fix_row: np.ndarray    # first equality singleton
    absorbed: np.ndarray   # lower bound absorbed into x'
    pinned: np.ndarray     # fixed by equal tightest lower and upper bounds
    fixed: np.ndarray      # pinned or fixed by an equality singleton
    shift: np.ndarray
    b_eq: np.ndarray       # right-hand sides once x is shift + x'
    b_ge: np.ndarray
    eq_keep: np.ndarray    # rows that stay, each with a nonzero on a column that stays
    ge_keep: np.ndarray


def _presolve(problem: LpProblem) -> _Presolved | LpSolution:
    """Read singleton rows as bounds and drop empty rows; an ``INFEASIBLE``
    solution when the bounds conflict or an empty row demands anything."""
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
    shift = np.where(absorbed | pinned, lo, 0.0)
    j = np.flatnonzero(fix_row >= 0)
    shift[j] = b_eq[fix_row[j]] / a_eq[fix_row[j], j]
    b_eq, b_ge = b_eq - a_eq @ shift, b_ge - a_ge @ shift

    eq_gone = np.zeros(nz_eq.size, dtype=bool)
    eq_gone[fix_row[fix_row >= 0]] = True
    ge_gone = np.zeros(nz_ge.size, dtype=bool)
    ge_gone[low_row[absorbed | pinned]] = True
    ge_gone[up_row[pinned]] = True
    # a row whose variables are all fixed is empty: infeasible if its rhs demands anything
    eq_kept = nz_eq > np.count_nonzero(a_eq[:, fixed], axis=1)
    ge_kept = nz_ge > np.count_nonzero(a_ge[:, fixed], axis=1)
    for kind, gone, kept, rhs, demand in (("eq", eq_gone, eq_kept, b_eq, np.abs(b_eq)),
                                          ("ge", ge_gone, ge_kept, b_ge, b_ge)):
        bad = np.flatnonzero(~gone & ~kept & (demand > _TOL_RHS))
        if bad.size:
            i = int(bad[0])
            return LpSolution(status=INFEASIBLE, infeasible_rows=((kind, i, float(rhs[i])),))
    return _Presolved(low_row=low_row, up_row=up_row, fix_row=fix_row, absorbed=absorbed, pinned=pinned,
                      fixed=fixed, shift=shift, b_eq=b_eq, b_ge=b_ge,
                      eq_keep=np.flatnonzero(~eq_gone & eq_kept), ge_keep=np.flatnonzero(~ge_gone & ge_kept))


def _eliminate_free(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivot each free variable, in index order, onto the unused equality row
    with the largest absolute entry in its ``x'`` column ``k`` of ``block`` (the
    equality rows over the free ``x'`` columns, C-contiguous, overwritten),
    lowest row on ties; a variable with no entry above the kernel's pivot
    tolerance stays split. A pivot on the full tableau updates this block as it
    does here, so these are the rows it would pick. Returns the rows pivoted on
    and the ``k`` of their variables."""
    me = block.shape[0]
    used = np.zeros(me, dtype=bool)
    rows, pivoted = [], []
    for k in range(block.shape[1] if me else 0):
        col = np.abs(block[:, k])
        col[used] = 0.0
        pr = int(np.argmax(col))
        if col[pr] > _kernels.TOL_PIVOT:
            _kernels._pivot(block, pr, k)
            used[pr] = True
            rows.append(pr)
            pivoted.append(k)
    return np.array(rows, dtype=np.intp), np.array(pivoted, dtype=np.intp)


def _kernel_tableau(a_std: np.ndarray, rhs: np.ndarray, c_std: np.ndarray, me: int, x_cols: np.ndarray):
    """The simplex tableau once the rows ``_eliminate_free`` picks have
    substituted the free variables out by one solve against ``E``. ``a_std``
    holds the kept rows, equality rows first, over the ``x'`` columns and then
    the ``v`` columns of the free variables, whose ``x'`` columns are ``x_cols``.

    Returns the tableau (zero cost row), the reduced phase-2 costs with the
    objective offset last, the eliminated rows and ``x'`` columns, and the
    tableau's rows and columns in ``a_std``'s numbering (a column past
    ``a_std``'s is a slack)."""
    m, n_var = a_std.shape
    mg = m - me
    rows, k = _eliminate_free(a_std[:me].take(x_cols, axis=1))
    elim_cols = x_cols[k]
    kvar = np.delete(np.arange(n_var), np.concatenate([elim_cols, n_var - x_cols.size + k]))
    krows = np.delete(np.arange(m), rows)
    a_elim = a_std[rows]
    try:
        sub = np.linalg.solve(a_elim[:, elim_cols], np.column_stack([a_elim[:, kvar], rhs[rows]]))
    except np.linalg.LinAlgError:
        raise ArithmeticError("singular elimination block") from None
    nk = kvar.size + mg
    lhs = np.append(np.arange(kvar.size), nk)    # the variables' columns and the rhs
    tableau = np.zeros((krows.size + 1, nk + 1))
    tableau[:-1, lhs] = (np.column_stack([a_std[np.ix_(krows, kvar)], rhs[krows]])
                         - a_std[np.ix_(krows, elim_cols)] @ sub)
    tableau[me - rows.size + np.arange(mg), kvar.size + np.arange(mg)] = -1.0
    cost = np.zeros(nk + 1)
    cost[lhs] = np.append(c_std[kvar], 0.0) - c_std[elim_cols] @ sub
    return tableau, cost, rows, elim_cols, krows, np.concatenate([kvar, n_var + np.arange(mg)])


def _basic_solution(a_std: np.ndarray, rhs: np.ndarray, c_std: np.ndarray, basis_col: np.ndarray,
                    me: int) -> tuple[np.ndarray, np.ndarray]:
    """Values of the basic variables and row duals of the final basis, both over
    the rows with ``basis_col >= 0`` in order.

    ``a_std`` holds the kept rows over the structural columns (``n`` of them);
    a basis column ``n + i`` is the slack of row ``me + i``. A ``>=`` row whose
    own slack is basic is loose: its dual is 0 and its slack is ``a x - b``
    (complementary slackness). So only the equality and tight rows are factored,
    against the basic structural columns; each loose row's slack takes one
    basis column, so that system is square."""
    n = a_std.shape[1]
    kept = np.flatnonzero(basis_col >= 0)
    col = basis_col[kept]
    struct = col < n
    slack_rows = me + col[~struct] - n
    loose = np.zeros(basis_col.size, dtype=bool)
    loose[slack_rows] = True
    tight = kept[~loose[kept]]
    basis_mat = a_std[np.ix_(tight, col[struct])]
    try:
        x_struct = _refined_solve(basis_mat, rhs[tight])
        y_tight = _refined_solve(basis_mat.T, c_std[col[struct]])
    except np.linalg.LinAlgError:
        raise ArithmeticError("singular final basis") from None
    x_std = np.zeros(n)
    x_std[col[struct]] = x_struct
    x_basic = np.empty(kept.size)
    x_basic[struct] = x_struct
    x_basic[~struct] = a_std[slack_rows] @ x_std - rhs[slack_rows]
    y_rows = np.zeros(kept.size)
    y_rows[~loose[kept]] = y_tight
    return x_basic, y_rows


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP; never silent on infeasible/unbounded (reported in status)."""
    pre = _presolve(problem)
    if isinstance(pre, LpSolution):
        return pre
    c = problem.c
    me, mg = pre.eq_keep.size, pre.ge_keep.size
    m = me + mg

    # standard form: columns [x', v, slacks]. A kept variable is shift + x' - v,
    # with a v column only when it is free; A_ge x - s = b_ge
    cols = np.flatnonzero(~pre.fixed)
    split = np.flatnonzero(~pre.fixed & ~pre.absorbed)
    n_var = cols.size + split.size
    var_cols = np.concatenate([cols, split])
    a_std = np.vstack([problem.a_eq[pre.eq_keep], problem.a_ge[pre.ge_keep]]).take(var_cols, axis=1)
    a_std[:, cols.size:] *= -1.0
    rhs = np.concatenate([pre.b_eq[pre.eq_keep], pre.b_ge[pre.ge_keep]])
    row_orig = np.concatenate([pre.eq_keep, pre.ge_keep])
    c_std = np.concatenate([c[cols], -c[split]])

    tableau, cost, elim_rows, elim_cols, krows, kcols = _kernel_tableau(
        a_std, rhs, c_std, me, np.searchsorted(cols, split))
    mk, nk, me_k = krows.size, kcols.size, me - elim_rows.size
    n_var_k = nk - mg

    sigma = np.where(tableau[:mk, -1] < 0, -1.0, 1.0)
    tableau[:mk] *= sigma[:, None]

    # crash basis: flipped ge-rows have a +1 slack; everything else gets an artificial
    basis = np.empty(mk, dtype=np.intp)
    art_rows = []
    for i in range(mk):
        if i >= me_k and sigma[i] < 0:
            basis[i] = n_var_k + (i - me_k)
        else:
            basis[i] = nk + len(art_rows)
            art_rows.append(i)

    total_iters = 0
    if art_rows:
        # phase 1: reduced costs for min(sum of artificials) under the crash basis
        for i in art_rows:
            tableau[mk, :] -= tableau[i, :]
        status, iters = _kernels.run_simplex(tableau, basis)
        total_iters += iters
        if status == _kernels.STATUS_ITER_LIMIT:
            raise ArithmeticError("simplex iteration limit in phase 1")
        if status == _kernels.STATUS_UNBOUNDED:
            raise ArithmeticError("phase-1 objective unbounded (numerical failure)")
        phase1_obj = -tableau[mk, -1]
        if phase1_obj > 1e-7 * (1.0 + float(np.max(np.abs(tableau[:mk, -1]), initial=0.0))):
            bad = tuple(
                ("eq" if krows[i] < me else "ge", int(row_orig[krows[i]]), float(tableau[i, -1]))
                for i in range(mk)
                if basis[i] >= nk and tableau[i, -1] > 1e-9
            )
            return LpSolution(status=INFEASIBLE, iterations=total_iters, infeasible_rows=bad)

        # drive leftover artificials out of the basis; rows with no structural
        # pivot are redundant and dropped (their duals are reported as zero)
        drop = []
        for i in range(mk):
            if basis[i] >= nk:
                row = np.abs(tableau[i, :nk])
                if row.size and row.max() > 1e-7:
                    pc = int(np.argmax(row))
                    _kernels._pivot(tableau, i, pc)
                    basis[i] = pc
                else:
                    drop.append(i)
        if drop:
            keep = np.delete(np.arange(mk), drop)
            tableau = tableau[np.append(keep, mk)]
            basis, krows = basis[keep], krows[keep]
            mk = keep.size

    # phase 2 cost row
    costrow = cost.copy()
    for i in range(mk):
        cb = cost[basis[i]]
        if cb != 0.0:
            costrow -= cb * tableau[i, :]
    tableau[mk, :] = costrow

    status, iters = _kernels.run_simplex(tableau, basis)
    total_iters += iters
    if status == _kernels.STATUS_ITER_LIMIT:
        raise ArithmeticError("simplex iteration limit in phase 2")
    if status == _kernels.STATUS_UNBOUNDED:
        return LpSolution(status=UNBOUNDED, iterations=total_iters)

    # the final basis is the eliminated pairs plus the kernel's; recompute the
    # vertex and its duals from a fresh factorization of its tight rows
    basis_col = np.full(m, -1, dtype=np.intp)
    basis_col[elim_rows] = elim_cols
    basis_col[krows] = kcols[basis]
    kept = np.flatnonzero(basis_col >= 0)
    x_basic, y_rows = _basic_solution(a_std, rhs, c_std, basis_col, me)

    x_std = np.zeros(n_var + mg)
    x_std[basis_col[kept]] = x_basic
    x = pre.shift.copy()
    x[cols] += x_std[:cols.size]
    x[split] -= x_std[cols.size:n_var]

    eq_duals = np.zeros(problem.a_eq.shape[0])
    ge_duals = np.zeros(problem.a_ge.shape[0])
    is_eq = kept < me
    eq_duals[row_orig[kept[is_eq]]] = y_rows[is_eq]
    ge_duals[row_orig[kept[~is_eq]]] = y_rows[~is_eq]
    # a row that left the LP prices its variable's reduced cost over the kept rows
    d = c - problem.a_eq.T @ eq_duals - problem.a_ge.T @ ge_duals
    j = np.flatnonzero(pre.fix_row >= 0)
    eq_duals[pre.fix_row[j]] = d[j] / problem.a_eq[pre.fix_row[j], j]
    # an absorbed lower row; of a pinned variable's two rows, the lower one when
    # d_j >= 0, else the upper one
    j = np.flatnonzero(pre.absorbed | pre.pinned)
    rows = np.where(pre.pinned[j] & (d[j] < 0.0), pre.up_row[j], pre.low_row[j])
    ge_duals[rows] = d[j] / problem.a_ge[rows, j]

    objective = float(problem.c @ x)
    # a free basic variable has no bound to sit at
    degenerate = bool(np.any(np.abs(x_basic[~np.isin(kept, elim_rows)]) <= _DEGENERACY_EPS))

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
