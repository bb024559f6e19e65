import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lmpcirc
from lmpcirc import (
    Bus,
    Injector,
    LimitedInfo,
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
    predict_negative_prices,
    recover_lmps,
    solve_circuit,
    solve_opf,
    superpose,
    verify_optimality,
)

from lmpcirc.circuit import build_circuit, kcl_residuals, kvl_loop_sums
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


def _moved(sol, rng):
    """The solution with p, theta, lmp, gamma and mu_rows each moved, so that
    every residual of the certificate is nonzero."""
    def move(x, size):
        return x + rng.normal(0.0, size, x.size)
    return dataclasses.replace(sol, p=move(sol.p, 1.0), theta=move(sol.theta, 0.01), lmp=move(sol.lmp, 1.0),
                               gamma=move(sol.gamma, 1.0), mu_rows=move(sol.mu_rows, 1.0))


def test_verify_matches_dense_block_oracle(corpus200):
    # verify_optimality reads the bounds and the limited lines' ends; the
    # oracle multiplies dense blocks written out row by row. They agree at
    # the solution and at a moved copy, where no residual is zero and both
    # sides of some line's mu_rows pair are nonzero
    perfbench = [generate_random_network(s, 35, 0.35) for s in range(17)]
    perfbench += [generate_random_network(s, 50, 0.022) for s in range(17)]
    rng = np.random.default_rng(25)
    for net, sol in corpus200 + [(net, solve_opf(net)) for net in perfbench]:
        moved = _moved(sol, rng)
        pairs = moved.mu_rows.reshape(-1, 2)
        assert (pairs != 0.0).all(axis=1).any()
        for point in (sol, moved):
            want, scale = oracles.dense_certificate(net, point)
            got = {c.name: c.value for c in verify_optimality(net, point).checks}
            assert got.keys() == want.keys()
            for name, value in got.items():
                assert abs(value - want[name]) <= 1e-12 * (1.0 + scale), (name, value, want[name])
        assert all(value > 0.0 for value in want.values())


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
    # the solve always grounds bus 0, so the reference bus moves nothing but
    # the angles: the dispatch and every dual are bit-equal for every reference
    for seed in (1, 4, 9, 11):
        net = generate_random_network(seed, 6, 0.5)
        base = solve_opf(net)
        for r in range(1, net.n):
            _assert_rereferenced(base, solve_opf(net, ref_bus=r), r)
    for net, sol in corpus200:
        _assert_rereferenced(sol, solve_opf(net, ref_bus=net.n // 2), net.n // 2)
    # a degenerate optimum, where a solve grounding bus 5 instead of bus 0 could
    # end on another dispatch that makes bus 5 marginal and grounds the circuit there
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


def test_infeasible_names_every_deficit_bus():
    # two zones joined by the limited lines 1-2 (30 MW) and 0-3 (20 MW): the
    # zone holding both loads, 50 MW each, can import at most 50 MW, in the
    # network and in its mirror, whose loads and generators swap sides
    def network(load_buses, gen_buses, double_b):
        return Network(
            buses=[Bus(i, 50.0 if i in load_buses else 0.0) for i in range(4)],
            lines=[Line(0, 1, 2.0 if double_b == (0, 1) else 1.0), Line(1, 2, 1.0, 30.0),
                   Line(2, 3, 2.0 if double_b == (2, 3) else 1.0), Line(0, 3, 1.0, 20.0)],
            injectors=[Injector(bus, "generator", 10.0 + bus, 0.0, 200.0) for bus in gen_buses],
        )

    for net, deficit in ((network((2, 3), (0, 1), (2, 3)), [2, 3]), (network((0, 1), (2, 3), (0, 1)), [0, 1])):
        with pytest.raises(OpfInfeasible, match="cannot be served") as exc:
            solve_opf(net)
        diag = exc.value.diagnostics
        assert diag["deficit_buses"] == deficit
        assert [(c["from"], c["to"]) for c in diag["cut_lines"]] == [(1, 2), (0, 3)]


def test_infeasible_capacity_shortfall():
    net = Network(
        buses=[Bus(0), Bus(1, 100.0)],
        lines=[Line(0, 1, 1.0)],
        injectors=[Injector(0, "generator", 5.0, 0.0, 20.0)],
    )
    with pytest.raises(OpfInfeasible, match="capacity"):
        solve_opf(net)


def _two_bus_with_load(gen_range, load_range):
    # 50 MW of fixed demand at bus 0, a generator at bus 1, a load at bus 0 and
    # an unlimited line between them
    return Network(
        buses=[Bus(0, 50.0), Bus(1)],
        lines=[Line(0, 1, 1.0)],
        injectors=[Injector(1, "generator", 10.0, *gen_range), Injector(0, "load", 30.0, *load_range)],
    )


def test_infeasible_names_minimum_load():
    # 60 MW of capacity covers the fixed demand, but not the 20 MW the load must take on top
    with pytest.raises(OpfInfeasible) as exc:
        solve_opf(_two_bus_with_load((0.0, 60.0), (20.0, 30.0)))
    assert str(exc.value) == ("infeasible: total generation capacity 60 MW cannot cover "
                              "fixed demand 50 MW plus minimum load 20 MW")
    assert set(exc.value.diagnostics) == {"total_generation_capacity", "total_fixed_demand",
                                          "deficit_buses", "cut_lines"}


def test_infeasible_names_must_run_surplus():
    # the generator must run at 59 MW, more than the fixed demand and the load's 5 MW can take
    with pytest.raises(OpfInfeasible) as exc:
        solve_opf(_two_bus_with_load((59.0, 60.0), (0.0, 5.0)))
    assert str(exc.value) == ("infeasible: must-run generation 59 MW exceeds "
                              "fixed demand 50 MW plus maximum load 5 MW")
    assert set(exc.value.diagnostics) == {"total_generation_capacity", "total_fixed_demand",
                                          "deficit_buses", "cut_lines"}


# every network is feasible by construction: seeds 0-19 at 40 and 50 buses,
# perfbench's 17 opf_dense networks, seven grid-like networks at 100 buses and
# three at 200, and two dense networks at 100 buses
SCALE_CORPUS = ([(seed, n, 0.35) for n in (40, 50) for seed in range(20)]
                + [(seed, 35, 0.35) for seed in range(17)]
                + [(seed, 100, 0.035) for seed in range(7)]
                + [(seed, 200, 0.005) for seed in range(3)]
                + [(seed, 100, 0.35) for seed in range(2)])


@pytest.fixture(scope="module")
def scale_solves():
    """Each SCALE_CORPUS network with its solution, or the OpfError it raised."""
    out = []
    for spec in SCALE_CORPUS:
        net = generate_random_network(*spec)
        try:
            out.append((spec, net, solve_opf(net)))
        except OpfError as exc:
            out.append((spec, net, exc))
    return out


def test_scale_corpus_is_certified(scale_solves):
    from scipy.optimize import linprog

    failures = []
    for spec, net, sol in scale_solves:
        if isinstance(sol, OpfError):
            failures.append((spec, repr(sol)))
            continue
        if not verify_optimality(net, sol).all_passed:
            failures.append((spec, "verify_optimality fails"))
        prob = opf_lp_problem(assemble_lp(net), ref_bus=0)
        ref = linprog(prob.c, A_ub=-prob.a_ge, b_ub=-prob.b_ge, A_eq=prob.a_eq, b_eq=prob.b_eq,
                      bounds=(None, None), method="highs")
        if ref.status != 0 or abs(sol.objective - ref.fun) > 1e-6 * (1.0 + abs(ref.fun)):
            failures.append((spec, f"objective {sol.objective!r}, HiGHS {ref.fun!r} ({ref.message})"))
    assert not failures


def test_scale_corpus_prices_obey_circuit_laws(scale_solves):
    # the paper's criteria on every congested network of the corpus: the price
    # circuit's round trip and superposition, KCL at every node and KVL around
    # every fundamental cycle, the negative-price criterion, and price recovery
    # from the circuit with and without its ground, each within 1e-9 relative
    skipped, large = 0, 0
    for spec, net, sol in scale_solves:
        assert not isinstance(sol, OpfError), spec
        if not any(d.value > 1e-7 for d in sol.mu):
            skipped += 1    # no binding line, so no circuit source
            continue
        large += net.n >= 100
        tol = 1e-9 * (1.0 + np.abs(sol.lmp).max())
        circ = build_circuit(net, sol)
        sup = superpose(circ)
        assert np.abs(sup.voltages + circ.offset - sol.lmp).max() <= tol, spec
        assert np.abs(sum(sup.per_source_voltages) - sup.voltages).max() <= tol, spec
        cs = solve_circuit(circ)
        amps = max(abs(s.amps) for s in circ.current_sources)
        assert np.abs(kcl_residuals(circ, cs)).max() <= 1e-9 * (1.0 + amps), spec
        loops = kvl_loop_sums([(ln.from_bus, ln.to_bus) for ln in net.lines], sol.lmp)
        assert loops and max(abs(loop.total) for loop in loops) <= tol, spec
        rep = predict_negative_prices(circ, cs)
        assert rep.negative == bool((sol.lmp < -1e-9).any()), spec
        assert set(rep.witnesses) == set(np.flatnonzero(sol.lmp < -1e-9)), spec
        lines = tuple((ln.from_bus, ln.to_bus, ln.susceptance) for ln in net.lines)
        sources = tuple((s.from_node, s.to_node, s.amps) for s in circ.current_sources)
        full = recover_lmps(LimitedInfo(net.n, lines, sources, ground=circ.ground, offset=circ.offset))
        assert np.abs(full.lmp - sol.lmp).max() <= tol, spec
        anon = recover_lmps(LimitedInfo(net.n, lines, sources))
        assert np.abs(anon.delta - (sol.lmp[:, None] - sol.lmp[None, :])).max() <= 2 * tol, spec
    print(f"\nscale corpus: {len(scale_solves) - skipped} congested networks checked, "
          f"{large} of 100 buses or more; {skipped} skipped with no binding line")
    assert large >= 10


def test_vertex_does_not_depend_on_blas_threads():
    # the same OPF solves in two child processes, one and two BLAS threads set
    # in each child's own environment: the kernel's pivots and every bit of the
    # dispatch, the angles, the prices and the duals agree
    specs = [spec for spec in SCALE_CORPUS if spec[1:] == (200, 0.005)]
    code = (
        "import json\n"
        "import lmpcirc._kernels as kernels\n"
        "from lmpcirc import generate_random_network, solve_opf\n"
        "run, pivots = kernels.run_simplex, []\n"
        "kernels.run_simplex = lambda *args: pivots.append(run(*args)) or pivots[-1]\n"
        f"specs = {specs!r}\n"
        "sols = [solve_opf(generate_random_network(*s)) for s in specs]\n"
        "print(json.dumps([pivots] + [[a.tobytes().hex() for a in (sol.p, sol.theta, sol.lmp, sol.mu_rows, sol.gamma)]\n"
        "                             for sol in sols]))\n"
    )
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(Path(lmpcirc.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        runs.append(json.loads(done.stdout))
    assert len(runs[0]) == 4 and [status for status, _ in runs[0][0]] == [0, 0, 0]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seed", [13, 15])
def test_uncertified_optimum_raises_numerical(monkeypatch, seed):
    # no generated network is known to fail the certificate, so the refined
    # solve is perturbed to give a factored vertex that fails it
    refined = lp._refined_solve
    monkeypatch.setattr("lmpcirc.lp._refined_solve", lambda *args: refined(*args) + 1e-3)
    with pytest.raises(OpfNumerical, match="fails its optimality certificate") as exc:
        solve_opf(generate_random_network(seed, 35, 0.35))
    assert isinstance(exc.value, OpfError) and isinstance(exc.value, ArithmeticError)
