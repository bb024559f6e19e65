"""Self-contained dense linear-program solver with exact basis duals.

Solves ``min c'x  s.t.  A_eq x = b_eq,  b_ge <= A_ge x <= b_ge + range_ge,
lower <= x <= upper``. A bound may be infinite, and a ``>=`` row whose range
is ``inf`` is one-sided. The standard form is built straight from what the
problem states:

- a variable with a finite lower bound ``l`` is ``l + x'`` with one column
  ``x' >= 0``, boxed by ``x' <= u - l`` when its upper bound ``u`` is finite;
- a variable with only an upper bound is ``u - x'``;
- a variable with equal bounds is fixed and has no column;
- a free variable is split into ``x' - v``, so an LP made mostly of free
  variables takes many pivots. The OPF hands the solver none: ``dcopf``
  states the injector limits as bounds and solves it in the injections alone.

Every row gets a logical column, ``a x - s = b``: ``s`` lies in ``[0, 0]`` on
an equality row and in ``[0, range]`` on a ``>=`` row. A row or a bound is
written once as what it is, so nothing is read back out of the rows.

The rest is the bounded dual simplex of ``_kernels``, which makes its own
start: it puts each nonbasic column whose reduced cost is below
``-_kernels.TOL_DUAL`` at its finite upper bound, so every call here hands it
the tableau as built. From
the basis of all logicals on the OPF, where every column is boxed, that start
is the merit-order dispatch and it is dual feasible. A column with a negative
cost and no upper bound makes the start dual infeasible. Then a dual phase 1
solves Fourer's auxiliary problem through the same kernel (Koberstein & Suhl,
*Comput. Optim. Appl.* 37, 2007, §3): the original costs, a zero rhs, every
column with no upper bound boxed in ``[0, 1]`` and every other column fixed
at 0. An optimum of 0 leaves a basis for phase 2 that is dual feasible once
the kernel has made its start; a negative one proves the dual infeasible, and
one more kernel call with zero costs tells an unbounded LP from an infeasible
one. An infeasible LP names, in ``infeasible_rows``, the rows in the support
of the row of ``B^-1`` that proves it (a Farkas ray), with the shortfall that
row cannot close.

Vertex solutions give exact basis duals: after the pivot loop terminates, the
primal point and the row duals are recomputed from a fresh partial-pivot
factorization of the final basis (one step of iterative refinement), so the
reported solution does not carry accumulated tableau drift. Only the rows
whose logical is nonbasic are factored, against the basic structural
columns, with each column held at its upper bound moved to the rhs. A row
whose logical is basic is loose: its dual is 0 and its logical is ``a x - b``
(complementary slackness; Bertsimas & Tsitsiklis 1997, §4.3). A ranged row's
dual is positive when its lower side binds and negative when its upper side
does. ``reduced_costs``, ``c - A_eq' y_eq - A_ge' y_ge``, are the duals of
the bounds: positive ones price a lower bound, negative ones an upper bound.
A singular final basis raises ``ArithmeticError``, as does the iteration cap;
a vertex whose residuals (rows, ranges and bounds, the reduced costs' signs,
complementarity, the rows' dual signs and the gap) exceed their limits gets
status ``numerical``.
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


def _stated(value, size: int, default: float) -> np.ndarray:
    return np.full(size, default) if value is None else np.atleast_1d(np.asarray(value, dtype=float))


@dataclass(frozen=True)
class LpProblem:
    """min c'x subject to a_eq x = b_eq, b_ge <= a_ge x <= b_ge + range_ge and
    lower <= x <= upper. Bounds left out are infinite (the variables are
    free) and ranges left out are ``inf`` (the rows are one-sided)."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ge: np.ndarray
    b_ge: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    range_ge: np.ndarray | None = None

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
        lower, upper = _stated(self.lower, nv, -np.inf), _stated(self.upper, nv, np.inf)
        range_ge = _stated(self.range_ge, b_ge.size, np.inf)
        if lower.shape != (nv,) or upper.shape != (nv,) or range_ge.shape != b_ge.shape:
            raise ValueError("bound/range dimensions disagree")
        # every comparison with NaN is false, so these refuse NaN too
        if not (np.all(lower <= upper) and np.all(lower < np.inf) and np.all(upper > -np.inf)):
            raise ValueError("bounds need lower <= upper, lower < inf and upper > -inf")
        if not np.all(range_ge >= 0.0):
            raise ValueError("range_ge entries must be nonnegative")
        for name, arr in (("c", c), ("a_eq", a_eq), ("b_eq", b_eq), ("a_ge", a_ge), ("b_ge", b_ge),
                          ("lower", lower), ("upper", upper), ("range_ge", range_ge)):
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
    reduced_costs: np.ndarray | None = None
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
    the columns the kernel's start puts at their upper bound."""
    mk = basis.size
    logicals = slice(tableau.shape[1] - 1 - mk, tableau.shape[1] - 1)
    rhs = tableau[:, -1].copy()
    scale = 1.0 + float(np.max(np.abs(tableau[-1, :-1])))
    tableau[:, -1] = 0.0
    aux = np.where(upper == np.inf, 1.0, 0.0)
    status, iters = _run(tableau, basis, aux, 1)
    if status != _kernels.STATUS_OPTIMAL:
        # the auxiliary problem has the point 0, so a row the kernel cannot fix
        # is a dual ray along which the phase-1 objective grows without bound
        raise ArithmeticError("phase-1 objective unbounded (numerical failure)")
    if tableau[-1, -1] > _kernels.TOL_DUAL * scale:
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


def _infeasible(tableau, basis, upper, me, iters) -> LpSolution:
    """The rows in the support of the proving row of ``B^-1`` (held in the
    logical columns), each with the shortfall that row cannot close."""
    r, shortfall = _kernels.infeasible_row(tableau, basis, upper)
    ray = np.abs(tableau[r, tableau.shape[1] - 1 - basis.size:-1])
    support = np.flatnonzero(ray > 1e-9 * ray.max())
    rows = tuple(("eq", int(i), shortfall) if i < me else ("ge", int(i - me), shortfall) for i in support)
    return LpSolution(status=INFEASIBLE, iterations=iters, infeasible_rows=rows)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP; never silent on infeasible/unbounded (reported in status)."""
    c, lower, range_ge = problem.c, problem.lower, problem.range_ge
    has_lower, has_upper = lower > -np.inf, problem.upper < np.inf
    me = problem.a_eq.shape[0]
    m = me + problem.a_ge.shape[0]

    # standard form: columns [x', v, logicals]. A variable is origin + x' with
    # its origin at its lower bound, or origin - x' at its upper bound when it
    # has no lower one; a free one is x' - v, and a fixed one has no column.
    # Row i is a_i x - s_i = b_i
    origin = np.where(has_lower, lower, np.where(has_upper, problem.upper, 0.0))
    cols = np.flatnonzero(lower < problem.upper)
    split = np.flatnonzero(~has_lower & ~has_upper)
    var_cols = np.concatenate([cols, split])
    sign = np.concatenate([np.where(has_lower | ~has_upper, 1.0, -1.0)[cols], np.full(split.size, -1.0)])
    n_var = var_cols.size
    a_std = np.vstack([problem.a_eq, problem.a_ge]).take(var_cols, axis=1)
    a_std[:, sign < 0.0] *= -1.0
    rhs = np.concatenate([problem.b_eq - problem.a_eq @ origin, problem.b_ge - problem.a_ge @ origin])
    c_std = c[var_cols] * sign
    box = np.where(has_lower & has_upper, problem.upper - lower, np.inf)
    upper_std = np.concatenate([box[cols], np.full(split.size, np.inf), np.zeros(me), range_ge])
    free_std = np.concatenate([np.searchsorted(cols, split), cols.size + np.arange(split.size)])

    tableau = _kernel_tableau(a_std, rhs, c_std)
    n_std = n_var + m
    upper = upper_std.copy()
    basis = np.arange(n_var, n_std)

    total_iters = 0
    if np.any((tableau[-1, :n_std] < -_kernels.TOL_DUAL) & (upper == np.inf)):
        start = tableau.copy()
        dual_feasible, total_iters = _dual_phase1(tableau, basis, upper)
        if not dual_feasible:
            # the dual is infeasible: the LP is unbounded if it has a point at all
            start[-1] = 0.0
            basis = np.arange(n_var, n_std)
            status, iters = _run(start, basis, upper, 1)
            if status == _kernels.STATUS_INFEASIBLE:
                return _infeasible(start, basis, upper, me, total_iters + iters)
            return LpSolution(status=UNBOUNDED, iterations=total_iters + iters)

    status, iters = _run(tableau, basis, upper, 2)
    total_iters += iters
    if status == _kernels.STATUS_INFEASIBLE:
        return _infeasible(tableau, basis, upper, me, total_iters)

    # recompute the vertex and its duals from a fresh factorization of the
    # final basis's tight rows, with each column stored flipped and nonbasic
    # at its upper bound
    at_upper = np.flatnonzero(upper < 0.0)
    at_upper = at_upper[~np.isin(at_upper, basis)]
    x_nonbasic = np.zeros(n_std)
    x_nonbasic[at_upper] = -upper[at_upper]
    x_std, y_rows = _basic_solution(a_std, rhs, c_std, basis, x_nonbasic)

    x = origin.copy()
    x[cols] += x_std[:cols.size] * sign[:cols.size]
    x[split] -= x_std[cols.size:n_var]
    eq_duals, ge_duals = y_rows[:me], y_rows[me:]
    d = c - problem.a_eq.T @ eq_duals - problem.a_ge.T @ ge_duals

    objective = float(c @ x)
    # a basic variable at either bound; a split free variable has none, and an
    # equality row's logical has no other value
    basic = basis[~np.isin(basis, free_std) & (upper_std[basis] > 0.0)]
    near = np.minimum(np.abs(x_std[basic]), np.abs(upper_std[basic] - x_std[basic]))
    degenerate = bool(np.any(near <= _DEGENERACY_EPS))

    residuals = _residuals(problem, x, eq_duals, ge_duals, d, objective)
    data = (c, problem.b_eq, problem.b_ge, lower[has_lower], problem.upper[has_upper], range_ge[range_ge < np.inf])
    data_scale = max(float(np.max(np.abs(v), initial=0.0)) for v in data)
    certified = all(
        value <= _CERT_RTOL * (1.0 + (abs(objective) if name == "gap" else data_scale))
        for name, value in residuals.items()
    )

    return LpSolution(
        status=OPTIMAL if certified else NUMERICAL, x=x, objective=objective,
        eq_duals=eq_duals, ge_duals=ge_duals, reduced_costs=d,
        degenerate=degenerate, iterations=total_iters, residuals=residuals,
    )


def _worst(*arrays) -> float:
    """The largest entry of any of ``arrays``, or 0 when none is positive."""
    return float(max(0.0, *(np.max(v, initial=0.0) for v in arrays)))


def _residuals(problem: LpProblem, x, eq_duals, ge_duals, d, objective) -> dict:
    """The optimality certificate of ``x`` with row duals ``eq_duals`` and
    ``ge_duals`` and bound duals ``d`` over every stated row, range and bound.
    A positive dual prices a lower side (of a row or a bound) and a negative
    one an upper side, which must then be finite: on a one-sided row that is
    the dual sign, on a variable stationarity."""
    lower, upper, range_ge = problem.lower, problem.upper, problem.range_ge
    has_lower, has_upper, ranged = lower > -np.inf, upper < np.inf, range_ge < np.inf
    slack = problem.a_ge @ x - problem.b_ge
    room = np.where(ranged, range_ge - slack, 0.0)      # a ranged row's slack below its upper side
    over, under = np.where(has_lower, x - lower, 0.0), np.where(has_upper, upper - x, 0.0)
    y_low, y_up = np.maximum(ge_duals, 0.0), np.minimum(ge_duals, 0.0)
    d_low, d_up = np.maximum(d, 0.0), np.minimum(d, 0.0)
    dual_objective = (problem.b_eq @ eq_duals + problem.b_ge @ ge_duals
                      + np.where(ranged, range_ge, 0.0) @ y_up
                      + np.where(has_lower, lower, 0.0) @ d_low + np.where(has_upper, upper, 0.0) @ d_up)
    return {
        "primal_eq": _worst(np.abs(problem.a_eq @ x - problem.b_eq)),
        "primal_ge": _worst(-slack, -room),
        "primal_bounds": _worst(-over, -under),
        "stationarity": _worst(d_low[~has_lower], -d_up[~has_upper]),
        "complementarity": _worst(np.abs(y_low * slack), np.abs(y_up * room),
                                  np.abs(d_low * over), np.abs(d_up * under)),
        "dual_sign": _worst(-ge_duals[~ranged]),
        "gap": float(abs(objective - dual_objective)),
    }
