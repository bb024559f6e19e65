"""Self-contained dense linear-program solver with exact basis duals.

Solves ``min c'x  s.t.  A_eq x = b_eq,  A_ge x >= b_ge`` with free variables
(all bounds belong in the inequality block). Primal simplex on the standard
form (free variables split, slacks added), Dantzig entering rule with a
permanent switch to Bland's rule after a stall window, lowest-index tie
breaking throughout, so results are reproducible.

Vertex solutions give exact basis duals: after the pivot loop terminates, the
primal point and the row duals are recomputed from a fresh partial-pivot
factorization of the final basis (one step of iterative refinement), so the
reported solution does not carry accumulated tableau drift. A singular final
basis has no such solution and raises ``ArithmeticError``, as does the
iteration cap; a vertex whose residuals exceed their limits gets status
``numerical``. Artificial variables exist only as basis markers
(``basis[i] >= n_struct``), never as tableau columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels._simplex_py import _pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL = "numerical"

_DEGENERACY_EPS = 1e-9
_TOL_ENTERING = 1e-9    # a reduced cost below -this enters
_TOL_PIVOT = 1e-9       # smallest column entry the ratio test accepts
_STALL_LIMIT = 60       # pivots without progress before Bland's rule
_CERT_RTOL = 1e-7       # residual limit relative to 1 + the data (gap: + |objective|)


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


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve the LP; never silent on infeasible/unbounded (reported in status)."""
    nv = problem.n_vars
    c = problem.c

    # presolve: drop empty rows (infeasible if their rhs demands anything)
    eq_keep, ge_keep = [], []
    for i in range(problem.a_eq.shape[0]):
        if np.any(problem.a_eq[i] != 0.0):
            eq_keep.append(i)
        elif abs(problem.b_eq[i]) > 1e-9:
            return LpSolution(status=INFEASIBLE, infeasible_rows=(("eq", i, float(problem.b_eq[i])),))
    for i in range(problem.a_ge.shape[0]):
        if np.any(problem.a_ge[i] != 0.0):
            ge_keep.append(i)
        elif problem.b_ge[i] > 1e-9:
            return LpSolution(status=INFEASIBLE, infeasible_rows=(("ge", i, float(problem.b_ge[i])),))

    a_eq, b_eq = problem.a_eq[eq_keep], problem.b_eq[eq_keep]
    a_ge, b_ge = problem.a_ge[ge_keep], problem.b_ge[ge_keep]
    me, mg = a_eq.shape[0], a_ge.shape[0]
    m = me + mg

    # standard form: columns [u, v, slacks]; x = u - v, A_ge x - s = b_ge
    n_struct = 2 * nv + mg
    m_std = np.zeros((m, n_struct))
    m_std[:me, :nv] = a_eq
    m_std[:me, nv:2 * nv] = -a_eq
    m_std[me:, :nv] = a_ge
    m_std[me:, nv:2 * nv] = -a_ge
    m_std[me:, 2 * nv:] = -np.eye(mg)
    rhs = np.concatenate([b_eq, b_ge])
    row_kind = ["eq"] * me + ["ge"] * mg
    row_orig = eq_keep + ge_keep

    sigma = np.where(rhs < 0, -1.0, 1.0)
    m_std *= sigma[:, None]
    rhs = rhs * sigma

    # crash basis: flipped ge-rows have a +1 slack; everything else gets an artificial
    basis = np.empty(m, dtype=np.intp)
    art_rows = []
    for i in range(m):
        if i >= me and sigma[i] < 0:
            basis[i] = 2 * nv + (i - me)
        else:
            basis[i] = n_struct + len(art_rows)
            art_rows.append(i)

    tableau = np.zeros((m + 1, n_struct + 1))
    tableau[:m, :n_struct] = m_std
    tableau[:m, -1] = rhs

    c_struct = np.concatenate([c, -c, np.zeros(mg)])
    max_iter = 200 + 40 * (m + n_struct)

    total_iters = 0
    if art_rows:
        # phase 1: reduced costs for min(sum of artificials) under the crash basis
        for i in art_rows:
            tableau[m, :] -= tableau[i, :]
        status, iters = _kernels.run_simplex(tableau, basis, n_struct, _TOL_ENTERING,
                                             _TOL_PIVOT, _STALL_LIMIT, max_iter)
        total_iters += iters
        if status == _kernels.STATUS_ITER_LIMIT:
            raise ArithmeticError("simplex iteration limit in phase 1")
        if status == _kernels.STATUS_UNBOUNDED:
            raise ArithmeticError("phase-1 objective unbounded (numerical failure)")
        phase1_obj = -tableau[m, -1]
        if phase1_obj > 1e-7 * (1.0 + float(np.max(np.abs(rhs), initial=0.0))):
            bad = tuple(
                (row_kind[i], row_orig[i], float(tableau[i, -1]))
                for i in range(m)
                if basis[i] >= n_struct and tableau[i, -1] > 1e-9
            )
            return LpSolution(status=INFEASIBLE, iterations=total_iters, infeasible_rows=bad)

        # drive leftover artificials out of the basis; rows with no structural
        # pivot are redundant and dropped (their duals are reported as zero)
        drop = []
        for i in range(m):
            if basis[i] >= n_struct:
                row = np.abs(tableau[i, :n_struct])
                pc = int(np.argmax(row))
                if row[pc] > 1e-7:
                    _pivot(tableau, i, pc)
                    basis[i] = pc
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(m) if i not in set(drop)]
            tableau = np.ascontiguousarray(np.delete(tableau, drop, axis=0))
            basis = basis[keep]
            m_std = m_std[keep]
            rhs = rhs[keep]
            sigma = sigma[keep]
            row_kind = [row_kind[i] for i in keep]
            row_orig = [row_orig[i] for i in keep]
            m = len(keep)

    # phase 2 cost row
    costrow = np.concatenate([c_struct, [0.0]])
    for i in range(m):
        cb = c_struct[basis[i]]
        if cb != 0.0:
            costrow -= cb * tableau[i, :]
    tableau[m, :] = costrow

    status, iters = _kernels.run_simplex(tableau, basis, n_struct, _TOL_ENTERING,
                                         _TOL_PIVOT, _STALL_LIMIT, max_iter)
    total_iters += iters
    if status == _kernels.STATUS_ITER_LIMIT:
        raise ArithmeticError("simplex iteration limit in phase 2")
    if status == _kernels.STATUS_UNBOUNDED:
        return LpSolution(status=UNBOUNDED, iterations=total_iters)

    # recompute the vertex and its duals from a fresh factorization of the basis
    basis_mat = m_std[:, basis]
    try:
        x_basic = _refined_solve(basis_mat, rhs)
        y_rows = sigma * _refined_solve(basis_mat.T, c_struct[basis])
    except np.linalg.LinAlgError:
        raise ArithmeticError("singular final basis") from None

    x_std = np.zeros(n_struct)
    x_std[basis] = x_basic
    x = x_std[:nv] - x_std[nv:2 * nv]

    eq_duals = np.zeros(problem.a_eq.shape[0])
    ge_duals = np.zeros(problem.a_ge.shape[0])
    for i in range(m):
        if row_kind[i] == "eq":
            eq_duals[row_orig[i]] = y_rows[i]
        else:
            ge_duals[row_orig[i]] = y_rows[i]

    objective = float(problem.c @ x)
    degenerate = bool(np.any(np.abs(x_basic) <= _DEGENERACY_EPS))

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
