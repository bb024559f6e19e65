"""DC optimal power flow: solve, classify marginal injectors, verify optimality.

``solve_opf`` solves the OPF in the injections ``p`` alone, from ``X``, the
inverse of the susceptance Laplacian grounded at bus 0, kept read-only with
the OPF data (``OpfLp.X``) from a network's first solve. The balance is
``p_gen - p_load + B theta = a``, so KCL fixes the angles once the
injections are known, ``theta = X (a - p_gen + p_load)`` with ``theta_0 =
0``, and each limited line's flow limits become one ranged row over ``p``
(the PTDF form). The LP states the system-balance row, the injector limits
as bounds on ``p`` and one ranged row per limited line, and its dual simplex
starts from the merit-order dispatch, which is dual feasible. The bound
duals are the reduced costs, which give ``gamma``; a ranged row's dual is
positive when the line binds from -> to and negative when it binds the
other way, which gives ``mu_rows[2r]`` and ``mu_rows[2r + 1]``.

The prices obey DC circuit laws: angle stationarity, ``B lmp = -D' mu_rows``,
makes the LMPs ``lambda``, the balance row's dual, plus the node voltages of
the price circuit grounded at bus 0, whose current sources ``D' mu_rows``
sit across the ends of the limited lines. The angles and the voltages are
both solved from ``X``, and the solution is certified on the angle form's
every row, bound and limit before it is returned. ``D``, the +-1 rows of
the angle limits, is written out only by ``opf_lp_problem``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lp
from .network import (KIND_GENERATOR, Network, OpfLp, _inject, _slot, _spanning_forest, assemble_lp,
                      balance_residual)

MARGINAL_EPS = 1e-6


class OpfError(Exception):
    """Base class for OPF failures."""


class OpfInfeasible(OpfError):
    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class OpfNumerical(OpfError, ArithmeticError):
    """The solve failed numerically: the iteration cap, a singular reduced
    Laplacian or final basis, or a solution that fails its optimality
    certificate."""


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
    mu_rows: np.ndarray           # per limited line r: rows 2r (from -> to) and 2r + 1, as OpfLp.d
    gamma: np.ndarray             # per bound: the 2n lower bounds, then the 2n upper bounds
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


class DenseLp(NamedTuple):
    """min c'x s.t. a_eq x = b_eq and a_ge x >= b_ge, every variable free."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ge: np.ndarray
    b_ge: np.ndarray


def opf_lp_problem(opf: OpfLp, ref_bus: int) -> DenseLp:
    """The reference form of the OPF: the generic LP over ``[p, theta]`` in
    dense rows, the location matrix ``[I, -I]``, the bound rows ``[I; -I]``
    and the +-1 angle rows ``D``, with a row pinning ``theta[ref_bus]`` to
    zero appended. Its angles are free, so it is no ``LpProblem`` and
    ``solve_opf`` does not use it; it is what an independent LP solver checks
    the OPF against."""
    n, eye = opf.n, np.eye(opf.n)
    a_eq = np.zeros((n + 1, 3 * n))
    a_eq[:n, :2 * n] = np.hstack([eye, -eye])
    a_eq[:n, 2 * n:] = opf.B
    a_eq[n, 2 * n + ref_bus] = 1.0
    b_eq = np.concatenate([opf.a, [0.0]])

    a_ge = np.zeros((4 * n + opf.d.size, 3 * n))
    a_ge[:4 * n, :2 * n] = np.vstack([np.eye(2 * n), -np.eye(2 * n)])
    angles, rows = a_ge[4 * n:, 2 * n:], np.arange(0, opf.d.size, 2)
    for row, sign in ((rows, 1.0), (rows + 1, -1.0)):
        angles[row, opf.ends[0]], angles[row, opf.ends[1]] = sign, -sign
    b_ge = np.concatenate([opf.lower, -opf.upper, opf.d])

    c = np.concatenate([opf.c, np.zeros(n)])
    return DenseLp(c, a_eq, b_eq, a_ge, b_ge)


def _injection_problem(opf: OpfLp) -> lp.LpProblem:
    """The OPF LP over ``p``. With ``ptdf_r = X[from_r] - X[to_r]``, read off
    ``opf.X``, which is padded for bus 0, limited line ``r`` is the ranged row
    ``-[ptdf_r, -ptdf_r] p >= d_2r - ptdf_r a``, up to ``-(d_2r+1 + ptdf_r
    a)``, the balance row is ``p_gen - p_load = sum(a)`` and the injector
    limits are the bounds. Every entry comes from elementwise operations, so
    none passes through BLAS."""
    ptdf = opf.X[opf.ends[0]] - opf.X[opf.ends[1]]
    shift = (ptdf * opf.a).sum(axis=1)
    b_from, b_to = opf.d[0::2] - shift, opf.d[1::2] + shift     # binding from -> to, and back
    balance = np.repeat([1.0, -1.0], opf.n)
    return lp.LpProblem(c=opf.c, a_eq=balance[None, :], b_eq=[opf.a.sum()],
                        a_ge=-np.hstack([ptdf, -ptdf]), b_ge=b_from, range_ge=-(b_from + b_to),
                        lower=opf.lower, upper=opf.upper)


def _source_currents(opf: OpfLp, mu_rows: np.ndarray) -> np.ndarray:
    """``D' mu_rows``, the price circuit's source currents: row 2r drives
    ``mu_rows[2r]`` into line r's from end and out of its to end, row 2r + 1
    drives ``mu_rows[2r + 1]`` the other way, in the row order of ``D``."""
    return _inject(opf.n, np.stack(opf.ends, 1).ravel(), np.stack(opf.ends[::-1], 1).ravel(), mu_rows)


def solve_opf(net: Network, ref_bus: int = 0) -> DcopfSolution:
    """Solve the network's OPF; raises OpfInfeasible with diagnostics, or
    OpfNumerical when the solve fails.

    ``ref_bus`` only re-references the returned angles, so the dispatch and
    every dual do not depend on it."""
    if not 0 <= ref_bus < net.n:
        raise ValueError(f"reference bus {ref_bus} out of range")
    opf = assemble_lp(net)
    n = net.n
    try:
        x_red = opf.X[1:, 1:]
    except np.linalg.LinAlgError:
        raise OpfNumerical("singular reduced susceptance Laplacian") from None
    lap = opf.B[1:, 1:]
    try:
        sol = lp.solve_lp(_injection_problem(opf))
    except ArithmeticError as exc:
        raise OpfNumerical(str(exc)) from exc

    if sol.status == lp.INFEASIBLE:
        raise OpfInfeasible(*_infeasibility_details(net, opf, sol))
    if sol.status == lp.NUMERICAL:
        raise OpfNumerical(f"numerical failure: the LP solution fails its optimality certificate "
                           f"(residuals: {_listing(sol.residuals.items())})")

    p = sol.x[:2 * n]
    # a positive reduced cost prices the injector's p_min row and a negative one
    # its p_max row; a line's positive dual prices row 2r and a negative one 2r + 1
    gamma = np.concatenate(_sides(sol.reduced_costs))
    mu_rows = np.stack(_sides(sol.ge_duals), axis=1).ravel()
    # KCL fixes the angles once the injections are known, and the prices are
    # lambda plus the voltages of the price circuit: B v = -D' mu_rows, v_0 = 0
    theta = np.zeros(n)
    theta[1:] = lp._refined_solve(lap, x_red, (opf.a - (p[:n] - p[n:]))[1:])
    theta -= theta[ref_bus]
    v = np.zeros(n)
    v[1:] = lp._refined_solve(lap, x_red, -_source_currents(opf, mu_rows)[1:])
    lmp = sol.eq_duals[0] + v

    mu = []
    for r, k in enumerate(opf.limited_lines):
        ln = net.lines[k]
        value = float(mu_rows[2 * r] + mu_rows[2 * r + 1])
        # row 2r is (e_from - e_to) >= -limit/b, tight exactly when the flow
        # binds in the from -> to direction
        sign = 1 if mu_rows[2 * r] >= mu_rows[2 * r + 1] else -1
        mu.append(LineDual(k, ln.from_bus, ln.to_bus, value, value / ln.susceptance, sign))

    margin = np.minimum(p - opf.lower, opf.upper - p)    # above p_min, below p_max
    marginal = tuple(int(j) for j in np.nonzero(margin > MARGINAL_EPS)[0])

    for arr in (p, theta, lmp, gamma, mu_rows):
        arr.flags.writeable = False
    out = DcopfSolution(
        p=p, theta=theta, objective=sol.objective, lmp=lmp, mu=tuple(mu),
        mu_rows=mu_rows, gamma=gamma, marginal_slots=marginal,
        degenerate=sol.degenerate,
    )
    report = verify_optimality(net, out)
    if not report.all_passed:
        raise OpfNumerical(f"numerical failure: the solution fails its optimality certificate on the full "
                           f"OPF blocks (residuals: {_listing((c.name, c.value) for c in report.checks)})")
    return out


def _sides(dual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A signed dual as the nonnegative duals of its lower and upper side."""
    return np.where(dual < 0.0, 0.0, dual), np.where(dual < 0.0, -dual, 0.0)


def _listing(residuals) -> str:
    return ", ".join(f"{name} {value:.3g}" for name, value in residuals)


def _zones(net: Network) -> list[int]:
    """Per bus, the label of its zone: its component once every limited line
    is removed, named by the root of its tree in the spanning forest."""
    forest = _spanning_forest(net.n, [(ln.from_bus, ln.to_bus) for ln in net.lines if ln.flow_limit is None])
    root: dict[int, int] = {}
    for x, p in forest.items():               # breadth-first: every parent comes first
        root[x] = x if p is None else root[p]
    return [root[i] for i in range(net.n)]


def _infeasibility_details(net: Network, opf: OpfLp, sol: lp.LpSolution):
    gens = [i for i in net.injectors if i.kind == KIND_GENERATOR]
    loads = [i for i in net.injectors if i.kind != KIND_GENERATOR]
    total_cap = sum(i.p_max for i in gens)
    total_demand = float(net.fixed_demand.sum())
    # the balance needs generation minus load equal to the fixed demand
    min_load, max_load = sum(i.p_min for i in loads), sum(i.p_max for i in loads)
    must_run = sum(i.p_min for i in gens)
    # each flow row the Farkas ray names is a limited line; a zone at one of
    # its ends whose fixed demand exceeds its generation capacity is short
    named = {opf.limited_lines[i] for kind, i, _ in sol.infeasible_rows if kind == "ge"}
    zone = _zones(net)
    demand, capacity = np.zeros(net.n), np.zeros(net.n)
    np.add.at(demand, zone, net.fixed_demand)
    for inj in gens:
        capacity[zone[inj.bus]] += inj.p_max
    short = {z for k in named for z in (zone[net.lines[k].from_bus], zone[net.lines[k].to_bus])
             if demand[z] > capacity[z]}
    deficit_buses = [bus for bus in range(net.n) if zone[bus] in short]
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
    if total_cap < total_demand + min_load:
        msg = (f"infeasible: total generation capacity {total_cap:g} MW cannot cover "
               f"fixed demand {total_demand:g} MW" + (f" plus minimum load {min_load:g} MW" if min_load else ""))
    elif must_run > total_demand + max_load:
        msg = (f"infeasible: must-run generation {must_run:g} MW exceeds "
               f"fixed demand {total_demand:g} MW" + (f" plus maximum load {max_load:g} MW" if max_load else ""))
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
    if sol.p.size != 2 * n or sol.lmp.size != n or sol.gamma.size != 4 * n or sol.mu_rows.size != opf.d.size:
        raise ValueError("solution dimensions do not match the network")

    balance = balance_residual(opf, sol.p, sol.theta)
    bound_slack = np.concatenate([sol.p - opf.lower, opf.upper - sol.p])
    spread = sol.theta[opf.ends[0]] - sol.theta[opf.ends[1]]        # across each limited line
    angle_slack = np.stack([spread - opf.d[0::2], -spread - opf.d[1::2]], 1).ravel()
    primal = max(
        float(np.max(np.abs(balance))),
        float(np.max(-bound_slack, initial=0.0)),
        float(np.max(-angle_slack, initial=0.0)),
    )
    injection_prices = np.concatenate([sol.lmp, -sol.lmp]) + (sol.gamma[:2 * n] - sol.gamma[2 * n:])
    stat_p = float(np.max(np.abs(injection_prices - opf.c)))
    stat_theta = float(np.max(np.abs(opf.B.T @ sol.lmp + _source_currents(opf, sol.mu_rows))))
    comp_bounds = float(np.max(np.abs(sol.gamma * bound_slack), initial=0.0))
    comp_angles = float(np.max(np.abs(sol.mu_rows * angle_slack), initial=0.0))
    sign = float(max(0.0, -np.min(sol.gamma, initial=0.0), -np.min(sol.mu_rows, initial=0.0)))
    dual_obj = float(opf.a @ sol.lmp + np.concatenate([opf.lower, -opf.upper]) @ sol.gamma + opf.d @ sol.mu_rows)
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
