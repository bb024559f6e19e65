"""Self-contained dense solver for boxed linear programs, with exact basis duals.

Solves ``min c'x  s.t.  A_eq x = b_eq,  b_ge <= A_ge x <= b_ge + range_ge,
lower <= x <= upper`` where every bound is finite; ``LpProblem`` refuses an
infinite one. A ``>=`` row whose range is ``inf`` is one-sided. The standard
form is built straight from what the problem states: a variable is ``l +
x'`` with one column ``x'`` in ``[0, u - l]``, and a variable with equal
bounds is fixed and has no column. Every row gets a logical column, ``a x -
s = b``: ``s`` lies in ``[0, 0]`` on an equality row and in ``[0, range]``
on a ``>=`` row. A row or a bound is written once as what it is, so nothing
is read back out of the rows.

The rest is one call of the bounded dual simplex of ``_kernels``, which makes
its own start: it puts each nonbasic column whose reduced cost is below
``-_kernels.TOL_DUAL`` at its upper bound, so every call here hands it the
tableau as built. Every column is boxed, so that start is dual feasible; on
the OPF it is the merit-order dispatch. An infeasible LP names, in
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
dual is positive when its lower side binds and negative when its upper side
does. ``reduced_costs``, ``c - A_eq' y_eq - A_ge' y_ge``, are the duals of
the bounds: positive ones price a lower bound, negative ones an upper bound.
A singular final basis raises ``ArithmeticError``, as does the iteration cap;
a vertex whose residuals (rows, ranges and bounds, complementarity, the rows'
dual signs and the gap) exceed their limits gets status ``numerical``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
NUMERICAL = "numerical"

_DEGENERACY_EPS = 1e-9
_CERT_RTOL = 1e-7       # residual limit relative to 1 + the data (gap: + |objective|)


@dataclass(frozen=True)
class LpProblem:
    """min c'x subject to a_eq x = b_eq, b_ge <= a_ge x <= b_ge + range_ge and
    lower <= x <= upper, every bound finite. Ranges left out are ``inf`` (the
    rows are one-sided)."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ge: np.ndarray
    b_ge: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
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
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        range_ge = (np.full(b_ge.size, np.inf) if self.range_ge is None
                    else np.atleast_1d(np.asarray(self.range_ge, dtype=float)))
        if lower.shape != (nv,) or upper.shape != (nv,) or range_ge.shape != b_ge.shape:
            raise ValueError("bound/range dimensions disagree")
        for name, arr in (("c", c), ("a_eq", a_eq), ("b_eq", b_eq), ("a_ge", a_ge), ("b_ge", b_ge),
                          ("lower", lower), ("upper", upper)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if not np.all(lower <= upper):
            raise ValueError("bounds need lower <= upper")
        # every comparison with NaN is false, so this refuses NaN too
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
    t = np.zeros((n, 2 * n))
    t[:, :n] = a
    t[np.arange(n), n + np.arange(n)] = 1.0
    for k in range(n):
        p = k + int(np.abs(t[k:, k]).argmax())
        pivot = t[p, k]
        if pivot == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        row = t[p, k:] / pivot
        if p != k:
            t[p, k:] = t[k, k:]
        t[k, k:] = row
        rows = k + 1 + (t[k + 1:, k] != 0.0).nonzero()[0]
        if rows.size:
            t[rows, k:] -= np.multiply.outer(t[rows, k], row)
    for k in range(n - 1, 0, -1):
        rows = (t[:k, k] != 0.0).nonzero()[0]
        if rows.size:
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


def _infeasible(tableau, basis, upper, me, iters) -> LpSolution:
    """The rows in the support of the proving row of ``B^-1`` (held in the
    logical columns), each with the shortfall that row cannot close."""
    r, shortfall = _kernels.infeasible_row(tableau, basis, upper)
    ray = np.abs(tableau[r, tableau.shape[1] - 1 - basis.size:-1])
    support = np.flatnonzero(ray > 1e-9 * ray.max())
    rows = tuple(("eq", int(i), shortfall) if i < me else ("ge", int(i - me), shortfall) for i in support)
    return LpSolution(status=INFEASIBLE, iterations=iters, infeasible_rows=rows)


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the boxed LP; an infeasible one is reported in status."""
    c, lower, range_ge = problem.c, problem.lower, problem.range_ge
    me = problem.a_eq.shape[0]
    m = me + problem.a_ge.shape[0]

    # standard form: variable j is lower_j + x'_j with x'_j in [0, upper_j -
    # lower_j], and a fixed one has no column. Row i is a_i x - s_i = b_i
    cols = np.flatnonzero(lower < problem.upper)
    n_var = cols.size
    a_std = np.vstack([problem.a_eq, problem.a_ge]).take(cols, axis=1)
    rhs = np.concatenate([problem.b_eq - problem.a_eq @ lower, problem.b_ge - problem.a_ge @ lower])
    c_std = c[cols]
    upper_std = np.concatenate([(problem.upper - lower)[cols], np.zeros(me), range_ge])

    tableau = _kernel_tableau(a_std, rhs, c_std)
    n_std = n_var + m
    upper = upper_std.copy()
    basis = np.arange(n_var, n_std)
    status, iters = _kernels.run_simplex(tableau, basis, upper)
    if status == _kernels.STATUS_ITER_LIMIT:
        raise ArithmeticError("simplex iteration limit")
    if status == _kernels.STATUS_INFEASIBLE:
        return _infeasible(tableau, basis, upper, me, iters)

    # recompute the vertex and its duals from a fresh factorization of the
    # final basis's tight rows, with each column stored flipped and nonbasic
    # at its upper bound
    at_upper = np.flatnonzero(upper < 0.0)
    at_upper = at_upper[~np.isin(at_upper, basis)]
    x_nonbasic = np.zeros(n_std)
    x_nonbasic[at_upper] = -upper[at_upper]
    x_std, y_rows = _basic_solution(a_std, rhs, c_std, basis, x_nonbasic)

    x = lower.copy()
    x[cols] += x_std[:n_var]
    eq_duals, ge_duals = y_rows[:me], y_rows[me:]
    d = c - problem.a_eq.T @ eq_duals - problem.a_ge.T @ ge_duals

    objective = float(c @ x)
    # a basic variable at either bound; an equality row's logical has no other value
    basic = basis[upper_std[basis] > 0.0]
    near = np.minimum(np.abs(x_std[basic]), np.abs(upper_std[basic] - x_std[basic]))
    degenerate = bool(np.any(near <= _DEGENERACY_EPS))

    residuals = _residuals(problem, x, eq_duals, ge_duals, d, objective)
    data = (c, problem.b_eq, problem.b_ge, lower, problem.upper, range_ge[range_ge < np.inf])
    data_scale = max(float(np.max(np.abs(v), initial=0.0)) for v in data)
    certified = all(
        value <= _CERT_RTOL * (1.0 + (abs(objective) if name == "gap" else data_scale))
        for name, value in residuals.items()
    )

    return LpSolution(
        status=OPTIMAL if certified else NUMERICAL, x=x, objective=objective,
        eq_duals=eq_duals, ge_duals=ge_duals, reduced_costs=d,
        degenerate=degenerate, iterations=iters, residuals=residuals,
    )


def _worst(*arrays) -> float:
    """The largest entry of any of ``arrays``, or 0 when none is positive."""
    return float(max(0.0, *(np.max(v, initial=0.0) for v in arrays)))


def _residuals(problem: LpProblem, x, eq_duals, ge_duals, d, objective) -> dict:
    """The optimality certificate of ``x`` with row duals ``eq_duals`` and
    ``ge_duals`` and bound duals ``d`` over every stated row, range and bound.
    A positive dual prices a lower side (of a row or a bound) and a negative
    one an upper side, which on a one-sided row must not be priced: that is
    the dual sign. Every bound is finite, so a reduced cost on the wrong side
    of one shows in the complementarity."""
    lower, upper, range_ge = problem.lower, problem.upper, problem.range_ge
    ranged = range_ge < np.inf
    slack = problem.a_ge @ x - problem.b_ge
    room = np.where(ranged, range_ge - slack, 0.0)      # a ranged row's slack below its upper side
    over, under = x - lower, upper - x
    y_low, y_up = np.maximum(ge_duals, 0.0), np.minimum(ge_duals, 0.0)
    d_low, d_up = np.maximum(d, 0.0), np.minimum(d, 0.0)
    dual_objective = (problem.b_eq @ eq_duals + problem.b_ge @ ge_duals
                      + np.where(ranged, range_ge, 0.0) @ y_up + lower @ d_low + upper @ d_up)
    return {
        "primal_eq": _worst(np.abs(problem.a_eq @ x - problem.b_eq)),
        "primal_ge": _worst(-slack, -room),
        "primal_bounds": _worst(-over, -under),
        "complementarity": _worst(np.abs(y_low * slack), np.abs(y_up * room),
                                  np.abs(d_low * over), np.abs(d_up * under)),
        "dual_sign": _worst(-ge_duals[~ranged]),
        "gap": float(abs(objective - dual_objective)),
    }
