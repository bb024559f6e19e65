"""DC optimal power flow: solve, classify marginal injectors, verify optimality.

The OPF LP is the assembled network problem plus one equality row pinning bus
0's angle to zero; ``solve_opf`` re-references the angles to the chosen bus
afterwards, so that bus changes nothing but the angles. The LP presolve reads
the pinning row as a fixed variable, whose multiplier is its reduced cost.
That cost is zero up to rounding (the susceptance matrix and the
angle-constraint rows both annihilate the all-ones vector, and every other
angle is free, so its reduced cost is zero), so the reported duals satisfy the
angle-stationarity block without it.

The other angles are basic through the balance rows: the LP solver eliminates
the free angles before the simplex with one solve against the ground-reduced
susceptance Laplacian, which is KCL fixing ``theta = X (d - A p)`` once the
injections are known. The presolve makes each injector's limits bounds on its
column and each limited line's two flow rows one ranged row. The simplex
therefore sees one system-balance row and one ranged row per limited line, in
injection (PTDF) form, and never prices an angle column. Its dual simplex
starts from the merit-order dispatch, every injector at its cheaper limit,
which is dual feasible, and pivots until the balance and every flow limit
hold. A ranged row's dual goes to the side of the limit that binds, so
``mu_rows[2r]`` and ``mu_rows[2r + 1]`` keep their meaning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .network import KIND_GENERATOR, Network, OpfLp, _slot, assemble_lp, balance_residual

MARGINAL_EPS = 1e-6


class OpfError(Exception):
    """Base class for OPF failures."""


class OpfInfeasible(OpfError):
    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class OpfNumerical(OpfError, ArithmeticError):
    """The simplex failed numerically: the iteration cap, an unbounded ray, a
    singular elimination block or final basis, or a solution that fails its
    optimality certificate."""


class NoMarginalInjector(OpfError):
    """Every injector sits at a bound; ground placement is undefined."""


@dataclass(frozen=True)
class LineDual:
    """Congestion price of one limited line.

    ``flow_sign`` records which side of the two-sided limit binds: +1 when
    power flows from_bus -> to_bus at the limit, -1 for the reverse. That sign,
    not the price ordering of the endpoints, fixes the circuit source
    orientation (with several congestions, power can bind toward the
    lower-priced end).
    """

    line_index: int
    from_bus: int
    to_bus: int
    value: float      # angle-basis multiplier (source amps)
    mw_basis: float   # value / susceptance: $ per MW of limit relief
    flow_sign: int = 1

    @property
    def export_bus(self) -> int:
        return self.from_bus if self.flow_sign >= 0 else self.to_bus

    @property
    def import_bus(self) -> int:
        return self.to_bus if self.flow_sign >= 0 else self.from_bus


@dataclass(frozen=True)
class DcopfSolution:
    p: np.ndarray                 # dense injector slots, generators then loads
    theta: np.ndarray             # rad, reference bus pinned to 0
    objective: float
    lmp: np.ndarray               # $/MWh per bus
    mu: tuple[LineDual, ...]      # one entry per limited line
    mu_rows: np.ndarray           # per angle-constraint row, aligned with OpfLp.D
    gamma: np.ndarray             # per bound row, aligned with OpfLp.C
    marginal_slots: tuple[int, ...]
    degenerate: bool

    def marginal_buses(self, net: Network) -> tuple[int, ...]:
        n = net.n
        return tuple(sorted({s % n for s in self.marginal_slots}))


@dataclass(frozen=True)
class ResidualCheck:
    name: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tol


@dataclass(frozen=True)
class CheckReport:
    checks: tuple[ResidualCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> ResidualCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def opf_lp_problem(opf: OpfLp, ref_bus: int) -> lp.LpProblem:
    """Generic LP over variables [p, theta] with a row pinning theta[ref_bus]
    to zero appended."""
    n = opf.n
    nv = 2 * n + n
    a_eq = np.zeros((n + 1, nv))
    a_eq[:n, :2 * n] = opf.A
    a_eq[:n, 2 * n:] = opf.B
    a_eq[n, 2 * n + ref_bus] = 1.0
    b_eq = np.concatenate([opf.a, [0.0]])

    mg = opf.C.shape[0] + opf.D.shape[0]
    a_ge = np.zeros((mg, nv))
    a_ge[:opf.C.shape[0], :2 * n] = opf.C
    a_ge[opf.C.shape[0]:, 2 * n:] = opf.D
    b_ge = np.concatenate([opf.b, opf.d])

    c = np.concatenate([opf.c, np.zeros(n)])
    return lp.LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ge=a_ge, b_ge=b_ge)


def solve_opf(net: Network, ref_bus: int = 0) -> DcopfSolution:
    """Solve the network's OPF; raises OpfInfeasible with diagnostics, or
    OpfNumerical when the simplex fails.

    Every injection lies between finite bounds and the angles cost nothing, so
    the OPF of a valid network has no unbounded ray: a simplex that finds one,
    hits its iteration cap, meets a singular elimination block or final basis,
    or ends on an uncertified vertex has failed numerically.

    The LP always pins bus 0's angle; ``ref_bus`` only re-references the
    returned angles, so the dispatch and every dual do not depend on it."""
    if not 0 <= ref_bus < net.n:
        raise ValueError(f"reference bus {ref_bus} out of range")
    opf = assemble_lp(net)
    problem = opf_lp_problem(opf, 0)
    try:
        sol = lp.solve_lp(problem)
    except ArithmeticError as exc:
        raise OpfNumerical(str(exc)) from exc

    if sol.status == lp.INFEASIBLE:
        raise OpfInfeasible(*_infeasibility_details(net, sol))
    if sol.status == lp.UNBOUNDED:
        raise OpfNumerical("numerical failure: the simplex found an unbounded ray, "
                           "which a DC-OPF with finite injection bounds cannot have")
    if sol.status == lp.NUMERICAL:
        residuals = ", ".join(f"{name} {value:.3g}" for name, value in sol.residuals.items())
        raise OpfNumerical(f"numerical failure: the LP solution fails its optimality certificate "
                           f"(residuals: {residuals})")

    n = net.n
    p = sol.x[:2 * n]
    theta = sol.x[2 * n:] - sol.x[2 * n + ref_bus]
    lmp = sol.eq_duals[:n]
    gamma = sol.ge_duals[:opf.C.shape[0]]
    mu_rows = sol.ge_duals[opf.C.shape[0]:]

    mu = []
    for r, k in enumerate(opf.limited_lines):
        ln = net.lines[k]
        value = float(mu_rows[2 * r] + mu_rows[2 * r + 1])
        # row 2r is (e_from - e_to) >= -limit/b, tight exactly when the flow
        # binds in the from -> to direction
        sign = 1 if mu_rows[2 * r] >= mu_rows[2 * r + 1] else -1
        mu.append(LineDual(k, ln.from_bus, ln.to_bus, value, value / ln.susceptance, sign))

    p_min = opf.b[:2 * n]
    p_max = -opf.b[2 * n:]
    margin = np.minimum(p - p_min, p_max - p)
    marginal = tuple(int(j) for j in np.nonzero(margin > MARGINAL_EPS)[0])

    for arr in (p, theta, lmp, gamma, mu_rows):
        arr.flags.writeable = False
    return DcopfSolution(
        p=p, theta=theta, objective=sol.objective, lmp=lmp, mu=tuple(mu),
        mu_rows=mu_rows, gamma=gamma, marginal_slots=marginal,
        degenerate=sol.degenerate,
    )


def _infeasibility_details(net: Network, sol: lp.LpSolution):
    total_cap = sum(i.p_max for i in net.injectors if i.kind == KIND_GENERATOR)
    total_demand = float(net.fixed_demand.sum())
    deficit_buses = sorted({orig for kind, orig, _ in sol.infeasible_rows if kind == "eq" and orig < net.n})
    cut_lines = [
        {"from": ln.from_bus, "to": ln.to_bus, "flow_limit": ln.flow_limit}
        for ln in net.lines
        if ln.flow_limit is not None and ((ln.from_bus in deficit_buses) != (ln.to_bus in deficit_buses))
    ]
    diag = {
        "total_generation_capacity": total_cap,
        "total_fixed_demand": total_demand,
        "deficit_buses": deficit_buses,
        "cut_lines": cut_lines,
    }
    if total_cap < total_demand:
        msg = (f"infeasible: total generation capacity {total_cap:g} MW cannot cover "
               f"fixed demand {total_demand:g} MW")
    elif deficit_buses:
        msg = (f"infeasible: demand at bus(es) {deficit_buses} cannot be served; "
               f"limited boundary lines: {[(c['from'], c['to']) for c in cut_lines]}")
    else:
        msg = "infeasible: no feasible dispatch under the given bounds and flow limits"
    return msg, diag


def verify_optimality(net: Network, sol: DcopfSolution, tol: float = 1e-7) -> CheckReport:
    """Residuals of the six optimality blocks plus the duality gap."""
    opf = assemble_lp(net)
    n = net.n
    if sol.p.size != 2 * n or sol.lmp.size != n or sol.gamma.size != opf.C.shape[0] \
            or sol.mu_rows.size != opf.D.shape[0]:
        raise ValueError("solution dimensions do not match the network")

    balance = balance_residual(opf, sol.p, sol.theta)
    bound_slack = opf.C @ sol.p - opf.b
    angle_slack = opf.D @ sol.theta - opf.d
    primal = max(
        float(np.max(np.abs(balance))),
        float(np.max(-bound_slack, initial=0.0)),
        float(np.max(-angle_slack, initial=0.0)),
    )
    stat_p = float(np.max(np.abs(opf.A.T @ sol.lmp + opf.C.T @ sol.gamma - opf.c)))
    stat_theta = float(np.max(np.abs(opf.B.T @ sol.lmp + opf.D.T @ sol.mu_rows)))
    comp_bounds = float(np.max(np.abs(sol.gamma * bound_slack), initial=0.0))
    comp_angles = float(np.max(np.abs(sol.mu_rows * angle_slack), initial=0.0))
    sign = float(max(0.0, -np.min(sol.gamma, initial=0.0), -np.min(sol.mu_rows, initial=0.0)))
    dual_obj = float(opf.a @ sol.lmp + opf.b @ sol.gamma + opf.d @ sol.mu_rows)
    gap = abs(sol.objective - dual_obj)

    return CheckReport(checks=(
        ResidualCheck("primal_feasibility", primal, tol),
        ResidualCheck("stationarity_injections", stat_p, tol),
        ResidualCheck("stationarity_angles", stat_theta, tol),
        ResidualCheck("complementarity_bounds", comp_bounds, tol),
        ResidualCheck("complementarity_flow_limits", comp_angles, tol),
        ResidualCheck("dual_sign", sign, tol),
        ResidualCheck("duality_gap", gap, tol * (1.0 + abs(sol.objective))),
    ))


def cheapest_marginal(sol: DcopfSolution, net: Network) -> tuple[int, float]:
    """Bus and quoted cost of the cheapest marginal injector (lowest bus id on ties)."""
    marginal = set(sol.marginal_slots)
    candidates = [(inj.cost, inj.bus, 0 if inj.kind == KIND_GENERATOR else 1)
                  for inj in net.injectors if _slot(net.n, inj) in marginal]
    if not candidates:
        raise NoMarginalInjector("every injector is at a bound; no marginal price setter")
    cost, bus, _ = min(candidates)
    return bus, cost
