import numpy as np
import pytest

import lmpcirc._kernels as kernels
from lmpcirc import (INFEASIBLE, NUMERICAL, OPTIMAL, UNBOUNDED, LpProblem, assemble_lp, generate_random_network,
                     lp, solve_lp, solve_opf)
from lmpcirc.dcopf import opf_lp_problem

import oracles


def _lp(c, a_eq=None, b_eq=None, a_ge=None, b_ge=None, **stated):
    nv = len(c)
    return LpProblem(
        c=np.asarray(c, float),
        a_eq=np.zeros((0, nv)) if a_eq is None else np.asarray(a_eq, float),
        b_eq=np.zeros(0) if b_eq is None else np.asarray(b_eq, float),
        a_ge=np.zeros((0, nv)) if a_ge is None else np.asarray(a_ge, float),
        b_ge=np.zeros(0) if b_ge is None else np.asarray(b_ge, float),
        **stated,
    )


INF = np.inf


# ---------------------------------------------------------------------------
# elementary cases
# ---------------------------------------------------------------------------

def test_single_bound():
    sol = solve_lp(_lp([1.0], a_ge=[[1.0]], b_ge=[3.0]))
    assert sol.status == OPTIMAL
    assert sol.x[0] == pytest.approx(3.0, abs=1e-12)
    assert sol.ge_duals[0] == pytest.approx(1.0, abs=1e-12)


def test_unbounded_ray():
    sol = solve_lp(_lp([-1.0], a_ge=[[1.0]], b_ge=[0.0]))
    assert sol.status == UNBOUNDED


def test_infeasible_band():
    sol = solve_lp(_lp([1.0], a_ge=[[1.0], [-1.0]], b_ge=[3.0, -1.0]))
    assert sol.status == INFEASIBLE
    assert sol.infeasible_rows


def test_equality_and_duals():
    sol = solve_lp(_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[4.0], a_ge=np.eye(2), b_ge=[0.0, 0.0]))
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([4.0, 0.0])
    assert sol.eq_duals[0] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(4.0)


def test_empty_row_presolve():
    sol = solve_lp(_lp([1.0], a_eq=[[0.0]], b_eq=[0.0], a_ge=[[1.0]], b_ge=[2.0]))
    assert sol.status == OPTIMAL and sol.x[0] == pytest.approx(2.0)
    sol = solve_lp(_lp([1.0], a_eq=[[0.0]], b_eq=[1.0], a_ge=[[1.0]], b_ge=[2.0]))
    assert sol.status == INFEASIBLE


@pytest.mark.parametrize("stated, message", [
    (dict(lower=[1.0, 0.0], upper=[0.0, 1.0]), "lower <= upper"),
    (dict(lower=[INF, 0.0]), "lower < inf"),
    (dict(upper=[1.0, -INF]), "upper > -inf"),
    (dict(lower=[np.nan, 0.0]), "lower <= upper"),
    (dict(upper=[1.0, np.nan]), "lower <= upper"),
    (dict(range_ge=[-1.0]), "nonnegative"),
    (dict(range_ge=[np.nan]), "nonnegative"),
    (dict(lower=[0.0, 0.0, 0.0]), "dimensions"),
    (dict(upper=[1.0]), "dimensions"),
    (dict(range_ge=[1.0, 1.0]), "dimensions"),
], ids=["lower-above-upper", "lower-plus-inf", "upper-minus-inf", "lower-nan", "upper-nan",
        "negative-range", "nan-range", "lower-length", "upper-length", "range-length"])
def test_stated_bounds_and_ranges_are_validated(stated, message):
    with pytest.raises(ValueError, match=message):
        _lp([1.0, 1.0], a_ge=[[1.0, 1.0]], b_ge=[0.0], **stated)


def test_stated_bounds_and_ranges_default_to_free_and_one_sided():
    prob = _lp([1.0, 1.0], a_ge=[[1.0, 1.0]], b_ge=[0.0])
    assert list(prob.lower) == [-INF, -INF] and list(prob.upper) == [INF, INF] and list(prob.range_ge) == [INF]
    # infinite bounds may be stated, and equal bounds and an empty range are allowed
    prob = _lp([1.0, 1.0], a_ge=[[1.0, 1.0]], b_ge=[0.0], lower=[-INF, 2.0], upper=[INF, 2.0], range_ge=[0.0])
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL and sol.x == pytest.approx([-2.0, 2.0]) and sol.ge_duals == pytest.approx([1.0])


def test_singular_final_basis_raises(monkeypatch):
    # no least-squares stand-in: a basis that cannot be factored is a numerical failure
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("lmpcirc.lp._inverse", singular)
    with pytest.raises(ArithmeticError, match="^singular final basis$"):
        solve_lp(_lp([1.0, 2.0], a_ge=[[1.0, 1.0], [0.0, 1.0]], b_ge=[3.0, 0.0]))


def test_uncertified_vertex_is_numerical(monkeypatch):
    # a factored vertex whose residuals fail the certificate is never labelled optimal
    refined = lp._refined_solve
    monkeypatch.setattr("lmpcirc.lp._refined_solve", lambda *args: refined(*args) + 1e-3)
    sol = solve_lp(_lp([1.0, 2.0], a_ge=[[1.0, 1.0], [0.0, 1.0]], b_ge=[3.0, 0.0]))
    assert sol.status == NUMERICAL
    assert sol.residuals["stationarity"] > 1e-7


def test_certificate_checks_rows_ranges_and_bounds():
    # min x + 2y with x + y = 2, 0 <= x - y <= 2 (a ranged row), x >= -10 (a
    # one-sided row), x in [0, 4] and y >= 0: the optimum x = 2, y = 0 has
    # every residual 0, and each violation below shows in its own residual
    prob = _lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[2.0], a_ge=[[1.0, -1.0], [1.0, 0.0]], b_ge=[0.0, -10.0],
               range_ge=[2.0, INF], lower=[0.0, 0.0], upper=[4.0, INF])
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL and sol.x == pytest.approx([2.0, 0.0])
    assert sol.ge_duals == pytest.approx([0.0, 0.0]) and sol.reduced_costs == pytest.approx([0.0, 1.0])
    assert all(value == 0.0 for value in sol.residuals.values())
    x, eq, ge, d, obj = sol.x, sol.eq_duals, sol.ge_duals, sol.reduced_costs, sol.objective
    for name, args, value in (
        ("primal_bounds", ([2.0, -0.5], eq, ge, d, obj), 0.5),                   # below y's lower bound
        ("primal_ge", ([2.5, 0.0], eq, ge, d, obj), 0.5),                        # above the row's range
        ("stationarity", (x, eq, ge, np.array([0.0, -1.0]), obj), 1.0),        # y has no upper bound to price
        ("complementarity", (x, eq, np.array([0.0, 1.0]), d, obj), 12.0),      # a loose row priced
        ("complementarity", (x, eq, np.array([1.0, 0.0]), d, obj), 2.0),       # the range's loose lower side
        ("complementarity", (x, eq, ge, np.array([1.0, 1.0]), obj), 2.0),      # x off its lower bound priced
        ("dual_sign", (x, eq, np.array([0.0, -1.0]), d, obj), 1.0),            # a one-sided row priced below
        ("gap", (x, eq, ge, d, obj + 1.0), 1.0),
    ):
        residuals = lp._residuals(prob, np.asarray(args[0]), *args[1:])
        assert residuals[name] == pytest.approx(value), name


def test_tableau_has_one_logical_per_row(monkeypatch, fig1_net):
    # every kernel call sees an x' column per variable with unequal bounds, a
    # v column per free one, one logical per row and the rhs; the logicals
    # start as the identity, so they are the starting basis and carry B^-1
    problems = _lp_problems(monkeypatch)
    solve_opf(fig1_net)
    seen = _kernel_tableaus(monkeypatch)
    c, a_eq, b_eq, a_ge, b_ge = oracles.random_small_lp(0)
    # bounded below only, free, boxed, above only, fixed, above only, free
    bounds = dict(lower=[0.0, -INF, 10.0, -INF, 6.5, -INF, -INF], upper=[INF, INF, 20.0, 6.0, 6.5, 0.0, INF])
    for prob in (problems[0], _lp(c, a_eq, b_eq, a_ge, b_ge), _lp(c, a_eq, b_eq, a_ge, b_ge, **bounds)):
        assert prob.a_eq.shape[0] > 0
        free = (prob.lower == -INF) & (prob.upper == INF)
        n_var = np.count_nonzero(prob.lower < prob.upper) + np.count_nonzero(free)
        seen.clear()
        assert solve_lp(prob).status == OPTIMAL
        rows = prob.a_eq.shape[0] + prob.a_ge.shape[0]
        assert all(t.shape == (rows + 1, n_var + rows + 1) for t, _ in seen)
        assert np.array_equal(seen[0][0][:rows, -rows - 1:-1], np.eye(rows))


def test_opf_states_injector_limits_as_bounds(monkeypatch, fig1_net):
    # fig1's injection-form LP has 6 variables (the injector slots), the
    # system-balance row and one ranged row for its one limited line, and
    # states the injector limits as bounds. The 3 absent load slots have equal
    # bounds and no column; the generators' columns are boxed by p_max
    seen = _kernel_tableaus(monkeypatch)
    problems = _lp_problems(monkeypatch)
    solve_opf(fig1_net)
    (prob,), ((tableau, upper),) = problems, seen
    assert (prob.a_eq.shape[0], prob.a_ge.shape[0], prob.n_vars) == (1, 1, 6)
    assert np.all(np.isfinite(prob.lower)) and np.all(np.isfinite(prob.upper)) and np.isfinite(prob.range_ge[0])
    # rows: 1 system-balance row, 1 ranged flow-limit row; columns: 3
    # generators, 2 logicals
    assert tableau.shape == (3, 6)
    # every constraint row holds a generator column
    assert np.count_nonzero(tableau[:2, :3], axis=1).min() >= 1
    # generators up to p_max = 200, the balance row's logical fixed at 0, the
    # flow row's slack up to twice the 20 MW limit over the unit susceptance
    assert upper == pytest.approx([200.0, 200.0, 200.0, 0.0, 40.0])


def _kernel_tableaus(monkeypatch, bases=None):
    """Record a copy of the tableau and bounds every kernel call starts from,
    and each call's basis array, which the kernel leaves final, in ``bases``."""
    seen = []
    run = kernels.run_simplex

    def spy(tableau, basis, upper):
        seen.append((tableau.copy(), upper.copy()))
        if bases is not None:
            bases.append(basis)
        return run(tableau, basis, upper)

    monkeypatch.setattr(kernels, "run_simplex", spy)
    return seen


def _lp_problems(monkeypatch):
    """Record every LP that ``solve_opf`` hands the solver."""
    problems = []
    solve = lp.solve_lp
    monkeypatch.setattr(lp, "solve_lp", lambda prob: problems.append(prob) or solve(prob))
    return problems


def _expanded_duals(prob, sol):
    """``sol``'s duals on the rows ``oracles.expand_rows`` writes for ``prob``."""
    y, d = sol.ge_duals, sol.reduced_costs
    ranged = np.isfinite(prob.range_ge)
    return np.concatenate([np.where(ranged, np.maximum(y, 0.0), y), -np.minimum(y, 0.0)[ranged],
                           np.maximum(d, 0.0)[np.isfinite(prob.lower)], -np.minimum(d, 0.0)[np.isfinite(prob.upper)]])


def _assert_matches_oracle(prob, sol):
    stated = dict(lower=prob.lower, upper=prob.upper, range_ge=prob.range_ge)
    status, value, x = oracles.brute_force_lp(prob.c, prob.a_eq, prob.b_eq, prob.a_ge, prob.b_ge, **stated)
    assert status == sol.status == OPTIMAL
    assert sol.objective == pytest.approx(value, abs=1e-9)
    assert sol.x == pytest.approx(x, abs=1e-9)
    a_ge, b_ge = oracles.expand_rows(prob.n_vars, prob.a_ge, prob.b_ge, **stated)
    eq_duals, ge_duals, resid = oracles.kkt_duals(prob.c, prob.a_eq, prob.b_eq, a_ge, b_ge, x)
    assert resid < 1e-9
    assert sol.eq_duals == pytest.approx(eq_duals, abs=1e-9)
    assert _expanded_duals(prob, sol) == pytest.approx(ge_duals, abs=1e-9)


def test_free_variables_on_equality_rows_are_split(monkeypatch):
    # min 2x + z  s.t.  x + z + y = 1,  x - z = 2,  0 <= y <= 5 with x and z free:
    # each stays split into x' - v, so the kernel sees both rows over x', z', y',
    # v_x, v_z and two logicals. v_x and v_z cost -2 and -1 with no upper bound,
    # so a dual phase 1 runs first. At the optimum y = 5 and both free
    # variables are negative: x = -1, z = -3
    seen = _kernel_tableaus(monkeypatch)
    prob = _lp([2.0, 1.0, 0.0], a_eq=[[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]], b_eq=[1.0, 2.0],
               lower=[-INF, -INF, 0.0], upper=[INF, INF, 5.0])
    sol = solve_lp(prob)
    assert [t.shape for t, _ in seen] == [(3, 8)] * 2
    assert sol.x == pytest.approx([-1.0, -3.0, 5.0])
    assert sol.eq_duals == pytest.approx([1.5, 0.5]) and sol.reduced_costs == pytest.approx([0.0, 0.0, -1.5])
    _assert_matches_oracle(prob, sol)


def test_free_variable_only_in_ge_rows_stays_split(monkeypatch):
    # min x + 2y  s.t.  x + y >= -1,  x - y >= -3,  y + w = 4,  y >= 0,  w >= 0
    # with x free: the equality row holds no x, so x keeps its x' and v columns
    # next to y', w' and the three rows' logicals. v's cost is negative with no
    # upper bound, so a dual phase 1 runs first. At the optimum x = -1 < 0
    seen = _kernel_tableaus(monkeypatch)
    prob = _lp([1.0, 2.0, 0.0], a_eq=[[0.0, 1.0, 1.0]], b_eq=[4.0],
               a_ge=[[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]], b_ge=[-1.0, -3.0], lower=[-INF, 0.0, 0.0])
    sol = solve_lp(prob)
    assert len(seen) == 2 and all(t.shape == (4, 8) for t, _ in seen)
    assert sol.x == pytest.approx([-1.0, 0.0, 4.0])
    assert sol.ge_duals == pytest.approx([1.0, 0.0]) and sol.reduced_costs == pytest.approx([0.0, 1.0, 0.0])
    _assert_matches_oracle(prob, sol)


def test_free_variables_on_surplus_equality_rows():
    # x and y free on three equality rows: when the third row contradicts the
    # other two, the Farkas ray that proves it combines all three
    rows = [[1.0, 1.0], [1.0, -1.0], [1.0, 2.0]]
    sol = solve_lp(_lp([1.0, 1.0], a_eq=rows, b_eq=[1.0, 0.0, 3.0]))
    assert sol.status == INFEASIBLE
    assert [(kind, i) for kind, i, _ in sol.infeasible_rows] == [("eq", 0), ("eq", 1), ("eq", 2)]
    # and redundant otherwise
    sol = solve_lp(_lp([1.0, 1.0], a_eq=[[1.0, 1.0], [1.0, -1.0], [2.0, 2.0]], b_eq=[1.0, 0.0, 2.0]))
    assert sol.status == OPTIMAL and sol.x == pytest.approx([0.5, 0.5])
    assert sol.objective == pytest.approx(1.0) and sol.residuals["stationarity"] <= 1e-12


def test_opf_tableau_holds_no_angle_column(monkeypatch):
    # the OPF is solved in the injections alone, and the injector limits are
    # column bounds: on perfbench's opf_grid networks the kernel sees the
    # system-balance row and one ranged row per limited line, over the
    # injector columns and one logical per row, in one call. A line whose
    # flow row holds no movable injector (a bridge to buses with fixed demand
    # alone) keeps its row, whose logical stays basic
    bases = []
    seen = _kernel_tableaus(monkeypatch, bases)
    problems = _lp_problems(monkeypatch)
    empty = 0
    for seed in range(17):
        net = generate_random_network(seed, 50, 0.022)
        slots = [inj.bus if inj.kind == "generator" else net.n + inj.bus
                 for inj in net.injectors if inj.p_min < inj.p_max]
        seen.clear()
        problems.clear()
        bases.clear()
        solve_opf(net)
        (prob,), ((tableau, upper),), (basis,) = problems, seen, bases
        empty_rows = np.flatnonzero(np.all(prob.a_ge[:, slots] == 0.0, axis=1))
        empty += empty_rows.size
        rows = 1 + len(net.limited_lines())
        assert tableau.shape == (rows + 1, len(slots) + rows + 1)
        assert np.all(upper[:len(slots)] != 0.0) and np.all(np.abs(upper) < np.inf)
        # the logical of flow row k is column len(slots) + 1 + k
        assert np.all(np.isin(len(slots) + 1 + empty_rows, basis))
    assert empty == 1


def test_conflicting_bounds_name_both_rows():
    # x >= 3 (row 1) above x <= 2 (row 2): the Farkas ray names both rows,
    # each with the shortfall 1
    sol = solve_lp(_lp([1.0, 1.0], a_ge=[[1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]], b_ge=[0.0, 3.0, -2.0]))
    assert sol.status == INFEASIBLE
    assert sol.infeasible_rows == (("ge", 1, 1.0), ("ge", 2, 1.0))
    # stated as a bound, x <= 2 leaves row 1 alone to name
    sol = solve_lp(_lp([1.0, 1.0], a_ge=[[1.0, 1.0], [1.0, 0.0]], b_ge=[0.0, 3.0], upper=[2.0, INF]))
    assert sol.status == INFEASIBLE and sol.infeasible_rows == (("ge", 1, 1.0),)
    # 2x = 4 against x >= 3 names both rows; x fixed at 2 by equal bounds has no
    # column, so its row is empty and names itself
    sol = solve_lp(_lp([1.0], a_eq=[[2.0]], b_eq=[4.0], a_ge=[[1.0]], b_ge=[3.0]))
    assert sol.status == INFEASIBLE and sol.infeasible_rows == (("eq", 0, 1.0), ("ge", 0, 1.0))
    sol = solve_lp(_lp([1.0], a_ge=[[1.0]], b_ge=[3.0], lower=[2.0], upper=[2.0]))
    assert sol.status == INFEASIBLE and sol.infeasible_rows == (("ge", 0, 1.0),)


def test_singleton_rows_price_their_variable():
    # a singleton row is a row like any other; stated as a bound it prices
    # its variable through the reduced cost, d_j = coefficient * row dual.
    # The tightest lower bound (x >= 3, row 1) prices d / a; the looser one
    # and the upper bound price at zero
    rows = dict(a_ge=[[2.0, 0.0], [0.5, 0.0], [-1.0, 0.0]], b_ge=[2.0, 1.5, -5.0])
    sol = solve_lp(_lp([1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[10.0], **rows))
    assert sol.status == OPTIMAL
    assert sol.x == pytest.approx([3.0, 7.0])
    assert sol.ge_duals == pytest.approx([0.0, 2.0, 0.0])
    sol = solve_lp(_lp([1.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[10.0], lower=[3.0, -INF], upper=[5.0, INF]))
    assert sol.status == OPTIMAL and sol.x == pytest.approx([3.0, 7.0])
    assert sol.reduced_costs == pytest.approx([1.0, 0.0])
    # x >= 1, x >= 3 twice and x <= 3 meet at x = 3, where the first tight
    # lower row prices it; stated, x is fixed at 3 and prices its cost
    sol = solve_lp(_lp([1.0], a_ge=[[1.0], [1.0], [1.0], [-1.0]], b_ge=[1.0, 3.0, 3.0, -3.0]))
    assert sol.status == OPTIMAL and sol.x == pytest.approx([3.0])
    assert sol.ge_duals == pytest.approx([0.0, 1.0, 0.0, 0.0])
    sol = solve_lp(_lp([1.0], lower=[3.0], upper=[3.0]))
    assert sol.status == OPTIMAL and sol.iterations == 0 and sol.x == pytest.approx([3.0])
    assert sol.reduced_costs == pytest.approx([1.0])
    # equal bounds fix x: c goes to the lower row when >= 0, else to the upper row
    for cost, duals in ((3.0, [3.0, 0.0]), (-3.0, [0.0, 1.5])):
        sol = solve_lp(_lp([cost], a_ge=[[1.0], [-2.0]], b_ge=[4.0, -8.0]))
        assert sol.status == OPTIMAL and sol.x == pytest.approx([4.0])
        assert sol.ge_duals == pytest.approx(duals)
        sol = solve_lp(_lp([cost], lower=[4.0], upper=[4.0]))
        assert sol.status == OPTIMAL and sol.x == pytest.approx([4.0]) and sol.reduced_costs == pytest.approx([cost])
    # an equality singleton prices d / a
    sol = solve_lp(_lp([3.0, 1.0], a_eq=[[2.0, 0.0]], b_eq=[4.0], a_ge=[[1.0, 1.0], [0.0, 1.0]], b_ge=[5.0, 0.0]))
    assert sol.status == OPTIMAL and sol.x == pytest.approx([2.0, 3.0])
    assert sol.eq_duals == pytest.approx([1.0]) and sol.ge_duals == pytest.approx([1.0, 0.0])


def test_conflicting_pair_names_both_rows():
    # x + y >= 3 (row 0) and -x - y >= -2 (row 1) are exact negatives that no
    # point meets: the Farkas ray names both, each with the shortfall 1
    sol = solve_lp(_lp([1.0, 1.0], a_ge=[[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0]], b_ge=[3.0, -2.0, 0.0]))
    assert sol.status == INFEASIBLE
    assert sol.infeasible_rows == (("ge", 0, 1.0), ("ge", 1, 1.0))


def test_ranged_row_dual_lands_on_the_binding_side(monkeypatch):
    # 1 <= x - y <= 3 as one ranged row, its slack in [0, 2], with x and y in
    # [0, 10] as bounds; its dual is positive when the lower side binds and
    # negative when the upper side does
    seen = _kernel_tableaus(monkeypatch)
    stated = dict(a_ge=[[1.0, -1.0]], b_ge=[1.0], range_ge=[2.0], lower=[0.0, 0.0], upper=[10.0, 10.0])
    # min -x + 2y pushes x - y up to 3, at x = 3, y = 0: the upper side binds
    prob = _lp([-1.0, 2.0], **stated)
    sol = solve_lp(prob)
    assert sol.x == pytest.approx([3.0, 0.0])
    assert sol.ge_duals == pytest.approx([-1.0]) and sol.reduced_costs == pytest.approx([0.0, 1.0])
    _assert_matches_oracle(prob, sol)
    # min x - 2y pushes it down to 1, at x = 10, y = 9: the lower side binds
    prob = _lp([1.0, -2.0], **stated)
    sol = solve_lp(prob)
    assert sol.x == pytest.approx([10.0, 9.0])
    assert sol.ge_duals == pytest.approx([2.0]) and sol.reduced_costs == pytest.approx([-1.0, 0.0])
    _assert_matches_oracle(prob, sol)
    assert [t.shape for t, _ in seen] == [(2, 4)] * 2
    assert all(abs(u[-1]) == 2.0 for _, u in seen)


def test_variable_at_its_upper_bound_prices_its_upper_row(monkeypatch):
    # x in [1, 4] and y >= 0 are column bounds; the kernel sees only the row
    # x + y >= 0. min -x + y puts x at its upper bound, so its reduced cost -1
    # prices the upper bound: as the row -2x >= -8 that is -1 / -2 = 0.5
    seen = _kernel_tableaus(monkeypatch)
    prob = _lp([-1.0, 1.0], a_ge=[[1.0, 1.0]], b_ge=[0.0], lower=[1.0, 0.0], upper=[4.0, INF])
    sol = solve_lp(prob)
    assert sol.x == pytest.approx([4.0, 0.0])
    assert sol.ge_duals == pytest.approx([0.0]) and sol.reduced_costs == pytest.approx([-1.0, 1.0])
    _assert_matches_oracle(prob, sol)
    # x' is handed to the kernel at its lower bound, boxed by 3, and the
    # kernel's start puts it at that upper bound; y' has none
    (tableau, upper), = seen
    assert tableau.shape == (2, 4) and list(upper) == [3.0, np.inf, np.inf]


def test_dual_phase1_failures_raise(monkeypatch):
    # x free with only x <= 1 (row 0): its x' column costs -1 and has no upper
    # bound, so a dual phase 1 runs first
    prob = _lp([-1.0], a_ge=[[-1.0]], b_ge=[-1.0])
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL and sol.x == pytest.approx([1.0]) and sol.ge_duals == pytest.approx([1.0])
    with monkeypatch.context() as mp:
        mp.setattr(kernels, "run_simplex", lambda tableau, basis, upper: (kernels.STATUS_ITER_LIMIT, 0))
        with pytest.raises(ArithmeticError, match="^simplex iteration limit in phase 1$"):
            solve_lp(prob)
    # the auxiliary problem always has the point 0, so an infeasible one is a numerical failure
    with monkeypatch.context() as mp:
        mp.setattr(kernels, "run_simplex", lambda tableau, basis, upper: (kernels.STATUS_INFEASIBLE, 0))
        with pytest.raises(ArithmeticError, match=r"^phase-1 objective unbounded \(numerical failure\)$"):
            solve_lp(prob)


def test_dual_infeasible_lp_is_unbounded_or_infeasible():
    # min -x - y over x, y >= 0: the costs fall without bound, so phase 1 finds
    # no dual-feasible basis and a zero-cost solve asks whether any point exists
    sol = solve_lp(_lp([-1.0, -1.0], a_ge=[[1.0, -1.0]], b_ge=[-1.0], lower=[0.0, 0.0]))
    assert sol.status == UNBOUNDED
    # with x + y <= -1 (row 0) there is none: row 0 falls short by 1 and proves it
    sol = solve_lp(_lp([-1.0, -1.0], a_ge=[[-1.0, -1.0]], b_ge=[1.0], lower=[0.0, 0.0]))
    assert sol.status == INFEASIBLE and sol.infeasible_rows == (("ge", 0, 1.0),)


def test_perfbench_networks_take_one_kernel_call():
    # the merit-order start of every opf_grid and opf_dense network is dual
    # feasible: one kernel call each, and few pivots in all (the two-phase
    # primal simplex took 2,429 and 1,151)
    run = kernels.run_simplex
    for family, limit in (((50, 0.022), 600), ((35, 0.35), 200)):
        total = 0
        for seed in range(17):
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "run_simplex", lambda *args: calls.append(run(*args)) or calls[-1])
                solve_opf(generate_random_network(seed, *family))
            assert len(calls) == 1 and calls[0][0] == kernels.STATUS_OPTIMAL, (seed, family)
            total += calls[0][1]
        assert total < limit, (family, total)


def test_deterministic_repeat():
    prob = _lp([1.0, -2.0, 0.5],
               a_eq=[[1.0, 1.0, 1.0]], b_eq=[3.0],
               a_ge=np.vstack([np.eye(3), [[-1.0, -1.0, 0.0]]]), b_ge=[0.0, 0.0, 0.0, -5.0])
    a, b = solve_lp(prob), solve_lp(prob)
    assert np.array_equal(a.x, b.x)
    assert a.objective == b.objective
    assert np.array_equal(a.eq_duals, b.eq_duals)
    assert np.array_equal(a.ge_duals, b.ge_duals)


# ---------------------------------------------------------------------------
# the final basis: only its equality and tight rows are factored
# ---------------------------------------------------------------------------

def _full_basis_solution(a_std, rhs, c_std, basis_col, x_nonbasic):
    """Oracle: the whole final basis factored over every kept row, logical
    columns included, with every nonbasic column moved to the rhs."""
    m, n = a_std.shape
    m_std = np.hstack([a_std, -np.eye(m)])
    c_struct = np.concatenate([c_std, np.zeros(m)])
    basis_mat = m_std[:, basis_col]
    x_std = x_nonbasic.copy()
    x_std[basis_col] = np.linalg.solve(basis_mat, rhs - m_std @ x_nonbasic)
    y_rows = np.linalg.solve(basis_mat.T, c_struct[basis_col])
    return x_std, y_rows


def _assert_close(got, want):
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want), initial=0.0))


def _assert_matches_full_basis(monkeypatch, prob):
    sol = solve_lp(prob)
    with monkeypatch.context() as mp:
        mp.setattr(lp, "_basic_solution", _full_basis_solution)
        want = solve_lp(prob)
    assert sol.status == want.status and sol.iterations == want.iterations
    if want.x is not None:
        for got, ref in ((sol.x, want.x), (sol.eq_duals, want.eq_duals), (sol.ge_duals, want.ge_duals)):
            _assert_close(got, ref)
        assert sol.degenerate == want.degenerate


def test_partitioned_solve_matches_full_basis_on_random_lps(monkeypatch):
    for seed in range(60):
        for gen in (oracles.random_small_lp, oracles.random_bounded_lp):
            c, a_eq, b_eq, a_ge, b_ge = gen(seed)
            _assert_matches_full_basis(monkeypatch, _lp(c, a_eq, b_eq, a_ge, b_ge))


def test_partitioned_solve_matches_full_basis_on_perfbench_networks(monkeypatch):
    # the opf_dense and opf_grid corpora, generator seeds 0-16, in two forms:
    # the B-theta reference LP, and the injection LP that solve_opf solves
    specs = [(seed, 35, 0.35) for seed in range(17)] + [(seed, 50, 0.022) for seed in range(17)]
    nets = [generate_random_network(*spec) for spec in specs]
    with monkeypatch.context() as mp:
        injection = _lp_problems(mp)
        for net in nets:
            solve_opf(net)
    assert len(injection) == len(specs)
    for prob in [opf_lp_problem(assemble_lp(net), ref_bus=0) for net in nets] + injection:
        _assert_matches_full_basis(monkeypatch, prob)


def _spy_final_solve(monkeypatch):
    """Record each final basis (``basis_col``, structural width) and the shape
    of every matrix handed to ``_refined_solve``."""
    bases, shapes = [], []
    basic_solution, refined = lp._basic_solution, lp._refined_solve

    def basic_spy(a_std, rhs, c_std, basis_col, x_nonbasic):
        bases.append((basis_col.copy(), a_std.shape[1]))
        return basic_solution(a_std, rhs, c_std, basis_col, x_nonbasic)

    def refined_spy(a, inv, b):
        shapes.append(a.shape)
        return refined(a, inv, b)

    monkeypatch.setattr(lp, "_basic_solution", basic_spy)
    monkeypatch.setattr(lp, "_refined_solve", refined_spy)
    return bases, shapes


def _tight_rows(basis_col, n):
    """Kept rows whose own logical is not basic."""
    return np.setdiff1d(np.arange(basis_col.size), basis_col[basis_col >= n] - n)


def test_only_equality_and_tight_rows_are_factored(monkeypatch):
    # a 35-bus dense OPF binds few of its lines: the ranged flow rows of the
    # others are loose, while its 35 balance rows and the binding lines' rows
    # are factored
    bases, shapes = _spy_final_solve(monkeypatch)
    sol = solve_lp(opf_lp_problem(assemble_lp(generate_random_network(0, 35, 0.35)), ref_bus=0))
    assert sol.status == OPTIMAL
    (basis_col, n), = bases
    tight = _tight_rows(basis_col, n)
    assert shapes == [(tight.size, tight.size)] * 2
    assert 35 < tight.size < basis_col.size


def test_every_kept_row_loose_factors_nothing(monkeypatch):
    # min x + y with the bounds x >= 1 and y >= 2; the one row, x + y >= 0,
    # has slack 3, so the factored system is 0 x 0
    bases, shapes = _spy_final_solve(monkeypatch)
    sol = solve_lp(_lp([1.0, 1.0], a_ge=[[1.0, 1.0]], b_ge=[0.0], lower=[1.0, 2.0]))
    assert sol.status == OPTIMAL
    assert shapes == [(0, 0), (0, 0)]
    assert sol.x == pytest.approx([1.0, 2.0]) and sol.ge_duals == pytest.approx([0.0])
    assert sol.reduced_costs == pytest.approx([1.0, 1.0])
    assert sol.residuals["stationarity"] == 0.0 and not sol.degenerate


def test_slack_basic_at_zero_is_degenerate(monkeypatch):
    # min x + y over free x, y with x + y >= 2, x - y >= 0 and 3x + y >= 4: all
    # three rows meet at (1, 1), so two structural columns and one logical at
    # 0 are basic; that logical is evaluated as a x - b, not factored
    bases, shapes = _spy_final_solve(monkeypatch)
    prob = _lp([1.0, 1.0], a_ge=[[1.0, 1.0], [1.0, -1.0], [3.0, 1.0]], b_ge=[2.0, 0.0, 4.0])
    sol = solve_lp(prob)
    assert sol.status == OPTIMAL and sol.x == pytest.approx([1.0, 1.0])
    (basis_col, n), = bases
    assert np.count_nonzero(basis_col >= n) == 1
    assert shapes == [(2, 2), (2, 2)]
    assert sol.degenerate
    _assert_matches_full_basis(monkeypatch, prob)


# ---------------------------------------------------------------------------
# anti-cycling: classic degenerate instances terminate at the right optimum
# ---------------------------------------------------------------------------

def test_beale_cycling_example():
    # min -0.75a + 150b - 0.02c + 6d with the classic degenerate rows; the
    # textbook Dantzig pivot sequence cycles without a safeguard
    c = [-0.75, 150.0, -0.02, 6.0]
    a_ge = [
        [-0.25, 60.0, 0.04, -9.0],
        [-0.5, 90.0, 0.02, -3.0],
        [0.0, 0.0, -1.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
    b_ge = [0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0]
    sol = solve_lp(_lp(c, a_ge=a_ge, b_ge=b_ge))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)
    assert sol.residuals["stationarity"] < 1e-8
    assert sol.residuals["gap"] < 1e-7


def test_fully_degenerate_origin():
    # every rhs zero: all bases are degenerate; must still terminate
    rng = np.random.default_rng(3)
    a_ge = np.vstack([rng.normal(size=(6, 4)), np.eye(4)])
    b_ge = np.zeros(10)
    c = np.abs(rng.normal(size=4))  # bounded: x = 0 optimal
    sol = solve_lp(_lp(c, a_ge=a_ge, b_ge=b_ge))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert sol.degenerate


# ---------------------------------------------------------------------------
# degeneracy flag
# ---------------------------------------------------------------------------

def test_degenerate_flag_set_and_clear():
    # nondegenerate: unique vertex strictly away from redundant bounds
    clean = solve_lp(_lp([1.0, 1.0], a_ge=[[1.0, 0.0], [0.0, 1.0]], b_ge=[1.0, 2.0]))
    assert clean.status == OPTIMAL and not clean.degenerate
    # degenerate: three active constraints at a 2-d vertex
    deg = solve_lp(_lp([1.0, 1.0],
                       a_ge=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b_ge=[1.0, 1.0, 2.0]))
    assert deg.status == OPTIMAL and deg.degenerate
    # a free basic variable at zero sits at no bound: min y, x + y = 1, y >= 1
    # has two active rows in two variables, with the split x at 0
    free_zero = solve_lp(_lp([0.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], a_ge=[[0.0, 1.0]], b_ge=[1.0]))
    assert free_zero.status == OPTIMAL and free_zero.x == pytest.approx([0.0, 1.0])
    assert not free_zero.degenerate


# ---------------------------------------------------------------------------
# oracle equivalence (module-level slice; the acceptance suite runs 1000)
# ---------------------------------------------------------------------------

def test_matches_vertex_enumeration_oracle(monkeypatch):
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    ranged = dict(statuses)
    # the outcome of every dual phase 1: a dual-feasible basis, or a proof of none
    phase1 = []
    dual_phase1 = lp._dual_phase1
    monkeypatch.setattr(lp, "_dual_phase1", lambda *args: phase1.append(dual_phase1(*args)) or phase1[-1])
    lps = [(seed, oracles.random_small_lp(seed)) for seed in range(300)]
    lps += [(f"bounded {seed}", oracles.random_bounded_lp(seed)) for seed in range(100)]
    lps += [(f"ranged {seed}", oracles.random_ranged_lp(seed)) for seed in range(100)]
    stated = np.zeros(3, dtype=int)
    for seed, (c, a_eq, b_eq, a_ge, b_ge) in lps:
        want_status, want_value, _ = oracles.brute_force_lp(c, a_eq, b_eq, a_ge, b_ge)
        sol = solve_lp(_lp(c, a_eq=a_eq, b_eq=b_eq, a_ge=a_ge, b_ge=b_ge))
        assert sol.status == want_status, f"seed {seed}: {sol.status} != {want_status}"
        statuses[want_status] += 1
        if str(seed).startswith("ranged"):
            ranged[want_status] += 1
        if want_status == "optimal":
            assert sol.objective == pytest.approx(want_value, abs=1e-6 * (1 + abs(want_value))), f"seed {seed}"
            assert sol.residuals["stationarity"] <= 1e-8
            assert sol.residuals["primal_eq"] <= 1e-8
            assert sol.residuals["primal_ge"] <= 1e-8
            assert sol.residuals["complementarity"] <= 1e-8
            assert sol.residuals["gap"] <= 1e-7 * (1 + abs(sol.objective))
            assert sol.ge_duals.min(initial=0.0) >= -1e-9
        if isinstance(seed, str):
            stated += _assert_stated_encoding_agrees(seed, c, a_eq, b_eq, a_ge, b_ge, sol)
    # each generator must exercise every status
    assert min(statuses.values()) >= 15, statuses
    assert min(ranged.values()) >= 15, ranged
    assert sum(ok for ok, _ in phase1) >= 15 and sum(not ok for ok, _ in phase1) >= 15
    # the stated encodings hold bounds and ranges, and many optima have unique
    # duals to compare
    assert np.all(stated >= [600, 80, 40]), stated


def _assert_stated_encoding_agrees(seed, c, a_eq, b_eq, a_ge, b_ge, sol):
    """Solve the LP once more with its singleton rows stated as bounds and its
    opposite rows as ranges (``oracles.stated_form``): the status and the
    objective agree with the rows' run and with the oracle, which expands the
    bounds and ranges to rows itself. At an optimum the reduced costs and the
    signed ranged duals, read back onto the rows, satisfy the rows' KKT
    conditions, and equal ``kkt_duals`` wherever its multipliers are unique.
    Returns the counts of stated bounds, ranges and unique comparisons."""
    fields, where = oracles.stated_form(c, a_eq, b_eq, a_ge, b_ge)
    prob = LpProblem(**fields)
    got = solve_lp(prob)
    want_status, want_value, _ = oracles.brute_force_lp(**fields)
    assert got.status == want_status == sol.status, f"seed {seed}"
    counts = np.array([np.isfinite(prob.lower).sum() + np.isfinite(prob.upper).sum(),
                       np.isfinite(prob.range_ge).sum(), 0])
    if got.status != OPTIMAL:
        return counts
    tol = 1e-6 * (1 + abs(want_value))
    assert got.objective == pytest.approx(want_value, abs=tol) and got.objective == pytest.approx(sol.objective, abs=tol)
    for name, value in got.residuals.items():
        assert value <= (1e-7 * (1 + abs(got.objective)) if name == "gap" else 1e-8), (seed, name)
    y = oracles.row_duals(where, prob.range_ge, got.ge_duals, got.reduced_costs)
    slack = a_ge @ got.x - b_ge
    assert np.max(np.abs(a_eq.T @ got.eq_duals + a_ge.T @ y - c)) <= 1e-8, f"seed {seed}"
    assert y.min() >= -1e-9 and np.max(np.abs(y * slack)) <= 1e-8, f"seed {seed}"
    eq_duals, ge_duals, resid = oracles.kkt_duals(c, a_eq, b_eq, a_ge, b_ge, got.x)
    active = np.flatnonzero(slack <= 1e-6 * (1.0 + np.abs(b_ge)))
    stacked = np.vstack([a_eq, a_ge[active]]).T
    if resid < 1e-9 and np.linalg.matrix_rank(stacked) == stacked.shape[1]:
        assert got.eq_duals == pytest.approx(eq_duals, abs=1e-8) and y == pytest.approx(ge_duals, abs=1e-8), seed
        counts[2] = 1
    return counts


# ---------------------------------------------------------------------------
# assembled OPF duals against the enumeration + KKT oracle
# ---------------------------------------------------------------------------

def test_fig1_opf_duals_match_oracle(fig1_net):
    prob = opf_lp_problem(assemble_lp(fig1_net), ref_bus=0)
    verts = oracles._candidate_vertices(prob.a_eq, prob.b_eq, prob.a_ge, prob.b_ge, box=None)
    assert verts.shape[0] > 0
    values = verts @ prob.c
    best = verts[int(np.argmin(values))]
    assert values.min() == pytest.approx(600.0, abs=1e-6)

    lam_oracle, ge_oracle, resid = oracles.kkt_duals(
        prob.c, prob.a_eq, prob.b_eq, prob.a_ge, prob.b_ge, best)
    assert resid < 1e-6

    sol = solve_lp(prob)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(600.0, abs=1e-8)
    # balance prices: lmp = (0, 40, 20); reference-row dual is zero
    assert sol.eq_duals == pytest.approx([0.0, 40.0, 20.0, 0.0], abs=1e-7)
    assert lam_oracle[:3] == pytest.approx([0.0, 40.0, 20.0], abs=1e-6)
    # the binding angle row (flow 0->1 at +20 MW) prices at 60
    assert sol.ge_duals[12] == pytest.approx(60.0, abs=1e-7)
    assert sol.ge_duals[13] == pytest.approx(0.0, abs=1e-9)
    assert ge_oracle[12] == pytest.approx(60.0, abs=1e-6)

    # cross-check with the independent nodal oracle (ground at the $0 bus)
    lam_nodal = oracles.nodal_voltages_pinv(
        3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], [(0, 1, 60.0)], ground=0)
    assert lam_nodal == pytest.approx([0.0, 40.0, 20.0], abs=1e-9)
