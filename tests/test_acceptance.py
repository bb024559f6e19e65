"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any assertion failure marks its criterion as failed.
"""

import time

import numpy as np
import pytest

from lmpcirc import (
    LimitedInfo,
    LpProblem,
    assemble_lp,
    build_circuit,
    cheapest_marginal,
    circuit_from_parts,
    kcl_residuals,
    loop_sum_along,
    predict_negative_prices,
    recover_lmps,
    solve_circuit,
    solve_lp,
    solve_opf,
    superpose,
    verify_optimality,
)
from lmpcirc.dcopf import opf_lp_problem

import oracles


def _report(k, name):
    print(f"\nACCEPTANCE {k} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. 7-bus ledger, circuit constructed directly from the published duals
# ---------------------------------------------------------------------------

KCL_LEDGER = {
    0: ([112.5], [45.0, 22.5, 45.0]),
    1: ([45.0, 90.0, 45.0], [180.0]),
    2: ([45.0], [45.0]),
    3: ([180.0], [45.0, 90.0, 45.0]),
    4: ([45.0], [45.0]),
    5: ([45.0, 45.0, 22.5], [112.5]),
    6: ([22.5], [22.5]),
}

KVL_LOOPS = {
    "lower_left": ([0, 6, 5], [22.5, 22.5, -45.0]),
    "center": ([0, 5, 4, 3, 1], [45.0, -45.0, -45.0, 90.0, -45.0]),
    "upper_right": ([1, 3, 2], [-90.0, 45.0, 45.0]),
    "outer": ([1, 0, 6, 5, 4, 3, 2], [-45.0, 22.5, 22.5, -45.0, -45.0, 45.0, 45.0]),
}


def test_criterion_1_seven_bus_ledger():
    t0 = time.perf_counter()
    lines = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0),
             (0, 5, 1.0), (0, 6, 1.0), (5, 6, 1.0), (1, 3, 1.0)]
    circ = circuit_from_parts(7, lines, [(5, 0, 112.5), (1, 3, 180.0)], ground=1, offset=0.0)
    sol = solve_circuit(circ)
    prices = sol.voltages + circ.offset

    assert np.abs(kcl_residuals(circ, sol)).max() <= 1e-9

    inflow = {i: [] for i in range(7)}
    outflow = {i: [] for i in range(7)}
    for f, t, amps in sol.branch_currents:
        if amps > 1e-9:
            outflow[f].append(amps)
            inflow[t].append(amps)
        elif amps < -1e-9:
            outflow[t].append(-amps)
            inflow[f].append(-amps)
    for src in circ.current_sources:
        inflow[src.to_node].append(src.amps)
        outflow[src.from_node].append(src.amps)
    for node, (want_in, want_out) in KCL_LEDGER.items():
        assert sorted(inflow[node]) == pytest.approx(sorted(want_in), abs=1e-9), f"node {node}"
        assert sorted(outflow[node]) == pytest.approx(sorted(want_out), abs=1e-9), f"node {node}"
        assert abs(sum(inflow[node]) - sum(outflow[node])) <= 1e-9

    for name, (loop, want_terms) in KVL_LOOPS.items():
        got = loop_sum_along(loop, prices)
        assert got.terms == pytest.approx(want_terms, abs=1e-9), name
        assert abs(got.total) <= 1e-9, name

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "7-bus KCL/KVL ledger")


# ---------------------------------------------------------------------------
# 2. negative-price instance: published duals, oracle-checked completion
# ---------------------------------------------------------------------------

def test_criterion_2_negative_price_case(fig4_net):
    sol = solve_opf(fig4_net)
    assert sol.lmp[0] == pytest.approx(-60.0, abs=1e-6)
    bus, cost = cheapest_marginal(sol, fig4_net)
    assert (bus, cost) == (1, 20.0)

    circ = build_circuit(fig4_net, sol)
    cs = solve_circuit(circ)
    assert cs.voltages[0] == pytest.approx(-80.0, abs=1e-6)
    rep = predict_negative_prices(circ, cs)
    assert rep.negative and rep.witnesses == (0,)

    # independent enumeration oracle for the remaining duals
    prob = opf_lp_problem(assemble_lp(fig4_net), ref_bus=0)
    verts = oracles._candidate_vertices(prob.a_eq, prob.b_eq, prob.a_ge, prob.b_ge, box=None)
    values = verts @ prob.c
    assert values.min() == pytest.approx(sol.objective, abs=1e-6)
    lam, ge, resid = oracles.kkt_duals(
        prob.c, prob.a_eq, prob.b_eq, prob.a_ge, prob.b_ge, verts[int(np.argmin(values))])
    assert resid < 1e-6
    assert lam[2] == pytest.approx(100.0, abs=1e-6)
    assert sol.lmp[2] == pytest.approx(100.0, abs=1e-6)
    assert ge[12] == pytest.approx(240.0, abs=1e-6)      # hand nodal solve value
    assert sol.mu[0].value == pytest.approx(240.0, abs=1e-6)
    _report(2, "negative-price 3-bus case")


# ---------------------------------------------------------------------------
# 3. round-trip identity on 200 congested random networks
# ---------------------------------------------------------------------------

def test_criterion_3_roundtrip_and_superposition(corpus200):
    t0 = time.perf_counter()
    assert len(corpus200) == 200
    for net, _ in corpus200:
        sol = solve_opf(net)
        circ = build_circuit(net, sol)
        sup = superpose(circ)
        assert np.abs(sup.voltages + circ.offset - sol.lmp).max() <= 1e-6
        assert np.abs(sum(sup.per_source_voltages) - sup.voltages).max() <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    _report(3, f"round-trip + superposition on 200 networks in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. optimality certificate on the same corpus
# ---------------------------------------------------------------------------

def test_criterion_4_optimality_certificates(corpus200):
    for net, sol in corpus200:
        report = verify_optimality(net, sol, tol=1e-7)
        for check in report.checks:
            assert check.passed, f"{check.name}={check.value:.3e}"
    _report(4, "optimality residuals + duality gap on 200 networks")


# ---------------------------------------------------------------------------
# 5. negative-price criterion on 500 congested instances
# ---------------------------------------------------------------------------

def test_criterion_5_negative_price_criterion(corpus500):
    assert len(corpus500) == 500
    n_negative = n_zero_offset = 0
    for net, sol in corpus500:
        circ = build_circuit(net, sol)
        rep = predict_negative_prices(circ, solve_circuit(circ))
        scan = bool((sol.lmp < -1e-9).any())
        assert rep.negative == scan
        assert set(rep.witnesses) == set(np.nonzero(sol.lmp < -1e-9)[0])
        n_negative += scan
        if circ.offset == 0.0:
            n_zero_offset += 1
            assert rep.negative == (not rep.ground_is_minimum)
    # the corpus must exercise both outcomes and the zero-offset form
    assert 0 < n_negative < 500
    assert n_zero_offset > 0
    _report(5, f"negative-price agreement on 500 instances "
               f"({n_negative} negative, {n_zero_offset} zero-offset)")


# ---------------------------------------------------------------------------
# 6. limited-information recovery on every congested corpus instance
# ---------------------------------------------------------------------------

def test_criterion_6_limited_information_recovery(corpus200):
    for net, sol in corpus200:
        circ = build_circuit(net, sol)
        lines = tuple((l.from_bus, l.to_bus, l.susceptance) for l in net.lines)
        sources = tuple((s.from_node, s.to_node, s.amps) for s in circ.current_sources)
        full = recover_lmps(LimitedInfo(net.n, lines, sources,
                                        ground=circ.ground, offset=circ.offset))
        assert np.abs(full.lmp - sol.lmp).max() <= 1e-6
        anon = recover_lmps(LimitedInfo(net.n, lines, sources))
        want = sol.lmp[:, None] - sol.lmp[None, :]
        assert np.abs(anon.delta - want).max() <= 1e-6
    _report(6, "price recovery with and without ground on 200 networks")


# ---------------------------------------------------------------------------
# 7. LP solver vs brute-force vertex enumeration on 1000 boxed random LPs
# ---------------------------------------------------------------------------

def test_criterion_7_lp_oracle_equivalence():
    # every variable in [-box, box]: a boxed LP is infeasible or has an optimum,
    # inside the box or on it (the draws whose rows alone leave it unbounded)
    box = 1e3
    statuses = {"inside": 0, "on the box": 0, "infeasible": 0}
    for seed in range(1000):
        c, a_eq, b_eq, a_ge, b_ge = oracles.random_small_lp(seed)
        lower, upper = np.full(c.size, -box), np.full(c.size, box)
        want_status, want_value, _ = oracles.brute_force_lp(c, a_eq, b_eq, a_ge, b_ge, lower, upper)
        sol = solve_lp(LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ge=a_ge, b_ge=b_ge, lower=lower, upper=upper))
        assert sol.status == want_status, f"seed {seed}"
        if want_status == "optimal":
            assert abs(sol.objective - want_value) <= 1e-6 * (1 + abs(want_value)), f"seed {seed}"
            statuses["on the box" if np.max(np.abs(sol.x)) >= box - 1e-6 else "inside"] += 1
        else:
            statuses[want_status] += 1
    assert min(statuses.values()) >= 50, statuses
    _report(7, f"LP oracle equivalence on 1000 boxed LPs {statuses}")
