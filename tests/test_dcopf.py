import dataclasses

import numpy as np
import pytest

from lmpcirc import (
    Bus,
    Injector,
    Line,
    Network,
    NoMarginalInjector,
    OpfError,
    OpfInfeasible,
    OpfNumerical,
    assemble_lp,
    cheapest_marginal,
    generate_random_network,
    line_flows,
    lp,
    solve_opf,
    verify_optimality,
)

from lmpcirc.circuit import build_circuit
from lmpcirc.dcopf import opf_lp_problem

import oracles


def strip_limits(net):
    return Network(net.buses, [Line(l.from_bus, l.to_bus, l.susceptance) for l in net.lines],
                   net.injectors)


# ---------------------------------------------------------------------------
# paper-anchored instances
# ---------------------------------------------------------------------------

def test_fig1_prices_and_congestion(fig1_net, fig1_sol):
    sol = fig1_sol
    assert sol.lmp == pytest.approx([0.0, 40.0, 20.0], abs=1e-7)
    assert len(sol.mu) == 1
    d = sol.mu[0]
    assert (d.from_bus, d.to_bus) == (0, 1)
    assert d.value == pytest.approx(60.0, abs=1e-7)
    assert d.mw_basis == pytest.approx(60.0, abs=1e-7)
    assert abs(line_flows(fig1_net, sol.theta)[0]) == pytest.approx(20.0, abs=1e-9)
    assert cheapest_marginal(sol, fig1_net) == (0, 0.0)


def test_fig4_negative_price_case(fig4_net, fig4_sol):
    sol = fig4_sol
    assert sol.lmp[0] == pytest.approx(-60.0, abs=1e-6)
    assert sol.lmp[1] == pytest.approx(20.0, abs=1e-6)
    assert sol.lmp[2] == pytest.approx(100.0, abs=1e-6)
    assert len(sol.mu) == 1
    assert sol.mu[0].value == pytest.approx(240.0, abs=1e-6)
    assert cheapest_marginal(sol, fig4_net) == (1, 20.0)
    # the cheap generator is walled off entirely; the priced load is half served
    assert sol.p[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.p[1] == pytest.approx(30.0, abs=1e-7)
    assert sol.p[5] == pytest.approx(30.0, abs=1e-7)


def test_fig4_against_enumeration_oracle(fig4_net):
    prob = opf_lp_problem(assemble_lp(fig4_net), ref_bus=0)
    verts = oracles._candidate_vertices(prob.a_eq, prob.b_eq, prob.a_ge, prob.b_ge, box=None)
    values = verts @ prob.c
    assert values.min() == pytest.approx(-2400.0, abs=1e-6)
    lam, ge, resid = oracles.kkt_duals(
        prob.c, prob.a_eq, prob.b_eq, prob.a_ge, prob.b_ge, verts[int(np.argmin(values))])
    assert resid < 1e-6
    assert lam[:3] == pytest.approx([-60.0, 20.0, 100.0], abs=1e-6)
    # binding row: flow 0->2 at +10 MW makes row (e0 - e2) tight; it is the
    # first angle row after the 12 bound rows
    assert ge[12] == pytest.approx(240.0, abs=1e-6)


def test_case7_reconstruction(case7_net, case7_sol):
    sol = case7_sol
    assert sol.lmp == pytest.approx([45.0, 0.0, 45.0, 90.0, 45.0, 0.0, 22.5], abs=1e-7)
    by_line = {(d.from_bus, d.to_bus): d.value for d in sol.mu}
    assert by_line[(0, 5)] == pytest.approx(112.5, abs=1e-7)
    assert by_line[(1, 3)] == pytest.approx(180.0, abs=1e-7)
    assert sol.objective == pytest.approx(950.0, abs=1e-6)
    assert sol.marginal_buses(case7_net) == (0, 1, 5)
    # $0 tie between the marginal generators at buses 1 and 5: lowest id wins
    assert cheapest_marginal(sol, case7_net) == (1, 0.0)
    # capped units stay capped
    assert sol.p[2] == pytest.approx(20.0, abs=1e-7)
    assert sol.p[4] == pytest.approx(10.0, abs=1e-7)


# ---------------------------------------------------------------------------
# optimality verification
# ---------------------------------------------------------------------------

def test_verify_all_blocks_pass(fig1_net, fig1_sol):
    report = verify_optimality(fig1_net, fig1_sol)
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert names == [
        "primal_feasibility", "stationarity_injections", "stationarity_angles",
        "complementarity_bounds", "complementarity_flow_limits", "dual_sign",
        "duality_gap",
    ]


def test_verify_detects_perturbed_price(fig1_net, fig1_sol):
    lmp = fig1_sol.lmp.copy()
    lmp[1] += 1.0
    tampered = dataclasses.replace(fig1_sol, lmp=lmp)
    report = verify_optimality(fig1_net, tampered)
    assert not report["stationarity_angles"].passed
    assert not report.all_passed


def test_verify_dimension_mismatch(fig1_net, case7_sol):
    with pytest.raises(ValueError):
        verify_optimality(fig1_net, case7_sol)


def test_verify_complementarity_binding_line(fig1_net, fig1_sol):
    # binding line: mu * slack stays at zero
    assert fig1_sol.mu_rows[0] == pytest.approx(60.0, abs=1e-7)
    report = verify_optimality(fig1_net, fig1_sol)
    assert report["complementarity_flow_limits"].value <= 1e-9


# ---------------------------------------------------------------------------
# marginal classification
# ---------------------------------------------------------------------------

def test_cheapest_marginal_tie_breaks_to_lowest_bus():
    net = Network(
        buses=[Bus(0, 60.0), Bus(1), Bus(2), Bus(3), Bus(4), Bus(5)],
        lines=[Line(0, 3, 1.0, 40.0), Line(0, 5, 1.0, 50.0),
               Line(0, 1, 1.0), Line(1, 2, 1.0), Line(2, 4, 1.0)],
        injectors=[Injector(3, "generator", 20.0, 0.0, 100.0),
                   Injector(5, "generator", 20.0, 0.0, 100.0)],
    )
    sol = solve_opf(net)
    buses = sol.marginal_buses(net)
    assert set(buses) == {3, 5}
    assert cheapest_marginal(sol, net) == (3, 20.0)


def test_no_marginal_injector():
    net = Network(
        buses=[Bus(0), Bus(1, 50.0)],
        lines=[Line(0, 1, 1.0)],
        injectors=[Injector(0, "generator", 5.0, 0.0, 50.0)],
    )
    sol = solve_opf(net)
    assert sol.marginal_slots == ()
    with pytest.raises(NoMarginalInjector):
        cheapest_marginal(sol, net)


def test_marginal_price_equals_cost(corpus200):
    for net, sol in corpus200[:60]:
        n = net.n
        by_slot = {inj.bus if inj.kind == "generator" else n + inj.bus: inj for inj in net.injectors}
        for slot in sol.marginal_slots:
            inj = by_slot.get(slot)
            assert inj is not None
            assert abs(sol.lmp[inj.bus] - inj.cost) <= 1e-7
            # marginal injectors carry no bound duals
            assert sol.gamma[slot] <= 1e-7
            assert sol.gamma[2 * n + slot] <= 1e-7


def test_positive_mu_only_on_lines_at_their_limit(corpus200):
    for net, sol in corpus200[:60]:
        flows = line_flows(net, sol.theta)
        for d in sol.mu:
            if d.value > 1e-7:
                assert abs(abs(flows[d.line_index]) - net.lines[d.line_index].flow_limit) <= 1e-7
        assert min((d.value for d in sol.mu), default=0.0) >= -1e-9
        assert sol.gamma.min(initial=0.0) >= -1e-9


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_uncongested_prices_uniform():
    count = 0
    for seed in range(40):
        net = strip_limits(generate_random_network(seed, 5 + seed % 8, 0.4))
        sol = solve_opf(net)
        assert not sol.mu
        assert sol.lmp.max() - sol.lmp.min() <= 1e-6
        count += 1
    assert count == 40


def _assert_rereferenced(base, other, ref_bus):
    # the same LP solve, with only the angles shifted to the new reference
    for field in ("p", "lmp", "mu_rows", "gamma"):
        assert np.array_equal(getattr(other, field), getattr(base, field)), field
    assert other.objective == base.objective and other.mu == base.mu
    assert other.marginal_slots == base.marginal_slots
    assert other.theta[ref_bus] == 0.0
    assert np.array_equal(other.theta, base.theta - base.theta[ref_bus])


def test_reference_bus_invariance(corpus200):
    # the LP always pins bus 0's angle, so the reference bus moves nothing but
    # the angles: the dispatch and every dual are bit-equal for every reference
    for seed in (1, 4, 9, 11):
        net = generate_random_network(seed, 6, 0.5)
        base = solve_opf(net)
        for r in range(1, net.n):
            _assert_rereferenced(base, solve_opf(net, ref_bus=r), r)
    for net, sol in corpus200:
        _assert_rereferenced(sol, solve_opf(net, ref_bus=net.n // 2), net.n // 2)
    # a degenerate optimum, where an LP pinning bus 5 instead of bus 0 ends on
    # another dispatch that makes bus 5 marginal and grounds the circuit there
    net = generate_random_network(22, 10, 0.35)
    base = solve_opf(net)
    assert base.marginal_buses(net) == (7, 8) and build_circuit(net, base).ground == 7
    _assert_rereferenced(base, solve_opf(net, ref_bus=5), 5)


def test_theta_reference_pinned(case7_sol):
    assert case7_sol.theta[0] == 0.0


def test_infeasible_with_cut_diagnostics():
    net = Network(
        buses=[Bus(0), Bus(1, 100.0)],
        lines=[Line(0, 1, 1.0, 10.0)],
        injectors=[Injector(0, "generator", 5.0, 0.0, 500.0)],
    )
    with pytest.raises(OpfInfeasible) as exc:
        solve_opf(net)
    diag = exc.value.diagnostics
    assert diag["total_generation_capacity"] == 500.0
    assert diag["total_fixed_demand"] == 100.0
    assert 1 in diag["deficit_buses"]
    assert {"from": 0, "to": 1, "flow_limit": 10.0} in diag["cut_lines"]


def test_infeasible_capacity_shortfall():
    net = Network(
        buses=[Bus(0), Bus(1, 100.0)],
        lines=[Line(0, 1, 1.0)],
        injectors=[Injector(0, "generator", 5.0, 0.0, 20.0)],
    )
    with pytest.raises(OpfInfeasible, match="capacity"):
        solve_opf(net)


# every network is feasible by construction: seeds 0-19 at 40 and 50 buses,
# perfbench's 17 opf_dense networks, three grid-like networks each at 100
# and at 200 buses, and two dense networks at 100 buses
SCALE_CORPUS = ([(seed, n, 0.35) for n in (40, 50) for seed in range(20)]
                + [(seed, 35, 0.35) for seed in range(17)]
                + [(seed, 100, 0.035) for seed in range(3)]
                + [(seed, 200, 0.005) for seed in range(3)]
                + [(seed, 100, 0.35) for seed in range(2)])


def test_scale_corpus_is_certified():
    from scipy.optimize import linprog

    failures = []
    for spec in SCALE_CORPUS:
        net = generate_random_network(*spec)
        try:
            sol = solve_opf(net)
        except OpfError as exc:
            failures.append((spec, repr(exc)))
            continue
        if not verify_optimality(net, sol).all_passed:
            failures.append((spec, "verify_optimality fails"))
        prob = opf_lp_problem(assemble_lp(net), ref_bus=0)
        ref = linprog(prob.c, A_ub=-prob.a_ge, b_ub=-prob.b_ge, A_eq=prob.a_eq, b_eq=prob.b_eq,
                      bounds=(None, None), method="highs")
        if ref.status != 0 or abs(sol.objective - ref.fun) > 1e-6 * (1.0 + abs(ref.fun)):
            failures.append((spec, f"objective {sol.objective!r}, HiGHS {ref.fun!r} ({ref.message})"))
    assert not failures


@pytest.mark.parametrize("seed", [13, 15])
def test_uncertified_optimum_raises_numerical(monkeypatch, seed):
    # no generated network is known to fail the certificate, so the refined
    # solve is perturbed to give a factored vertex that fails it
    refined = lp._refined_solve
    monkeypatch.setattr("lmpcirc.lp._refined_solve", lambda a, b: refined(a, b) + 1e-3)
    with pytest.raises(OpfNumerical, match="fails its optimality certificate") as exc:
        solve_opf(generate_random_network(seed, 35, 0.35))
    assert isinstance(exc.value, OpfError) and isinstance(exc.value, ArithmeticError)
