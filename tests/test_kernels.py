"""Kernel checks: the blocked pivot and the blocked infeasibility scan
against their one-shot dense forms."""

from dataclasses import replace

import numpy as np

from lmpcirc import Bus, Network, OpfInfeasible, _kernels, generate_random_network, solve_opf

PIVOT = _kernels._pivot


def _one_shot_pivot(tableau, pr, pc):
    """The rank-1 Gauss-Jordan update in one step over every row."""
    tableau[pr] /= tableau[pr, pc]
    factors = tableau[:, pc].copy()
    factors[pr] = 0.0
    tableau -= np.multiply.outer(factors, tableau[pr])
    tableau[:, pc] = 0.0
    tableau[pr, pc] = 1.0


def _assert_pivots_agree(tableau, pr, pc):
    want = tableau.copy()
    _one_shot_pivot(want, pr, pc)
    PIVOT(tableau, pr, pc)
    # bit for bit, the sign of every zero included
    assert tableau.tobytes() == want.tobytes()


def test_blocked_pivot_matches_one_shot_update(monkeypatch):
    rng = np.random.default_rng(8)
    block = _kernels._BLOCK_ROWS
    # one block, a block exactly, one row past it, and three blocks with a short last one
    for m in (1, block - 1, block, block + 1, 2 * block + 3):
        for pr in (0, m - 1):       # the pivot row in the first block and in the last
            n = int(rng.integers(2, 40))
            t = np.where(rng.random((m, n)) < 0.4, rng.normal(size=(m, n)), 0.0)
            t[rng.random((m, n)) < 0.1] = -0.0
            pc = int(rng.integers(n))
            t[pr, pc] = rng.normal() or 1.0
            _assert_pivots_agree(t, pr, pc)

    # every pivot of the solver on 50-bus grid-like networks
    def checked(tableau, pr, pc):
        _assert_pivots_agree(tableau, pr, pc)
        pivots.append((pr, pc))

    for seed in range(3):
        pivots = []
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "_pivot", checked)
            solve_opf(generate_random_network(seed, 50, 0.022))
        assert pivots


def test_start_moves_nothing_at_an_optimal_basis(monkeypatch):
    # a second call on a solve's final tableau is a warm restart at the
    # optimum: the start flips no column and the kernel takes no pivot. On
    # (0, 50, 0.022) one column ends with a reduced cost of about -1.3e-14,
    # which a start that flipped every negative reduced cost would move
    run = _kernels.run_simplex
    finals = []

    def spy(tableau, basis, upper):
        finals.append((tableau, basis, upper))
        return run(tableau, basis, upper)

    monkeypatch.setattr(_kernels, "run_simplex", spy)
    for spec in [(seed, 50, 0.022) for seed in range(17)] + [(seed, 35, 0.35) for seed in range(17)]:
        finals.clear()
        solve_opf(generate_random_network(*spec))
        (tableau, basis, upper), = finals
        again = tableau.copy(), basis.copy(), upper.copy()
        assert run(*again) == (_kernels.STATUS_OPTIMAL, 0), spec
        assert again[0].tobytes() == tableau.tobytes() and np.array_equal(again[2], upper), spec


def _one_shot_infeasible_row(tableau, basis, upper):
    """infeasible_row over every row in one step."""
    m = basis.size
    bound = np.abs(upper)
    movable = bound > 0.0
    movable[basis] = False
    beta = tableau[:m, -1]
    top = bound[basis]
    viol = np.maximum(-beta, beta - top)
    gain = np.where((beta > top)[:, None], tableau[:m, :-1], -tableau[:m, :-1])
    helps = movable & (gain > _kernels.TOL_PIVOT)
    left = viol - np.where(helps, gain * np.where(bound < np.inf, bound, 0.0), 0.0).sum(axis=1)
    left[(helps & (bound == np.inf)).any(axis=1) | (viol <= _kernels.TOL_PRIMAL)] = -np.inf
    r = int(np.argmax(left))
    return r, float(left[r])


def test_blocked_infeasible_row_matches_one_shot_scan(monkeypatch):
    # three-row blocks, so every tableau spans several and most end in a
    # short one; the networks have their demand tripled and their limits cut
    scan, seen = _kernels.infeasible_row, []

    def checked(tableau, basis, upper):
        got = scan(tableau, basis, upper)
        assert got == _one_shot_infeasible_row(tableau, basis, upper)
        seen.append(basis.size)
        return got

    monkeypatch.setattr(_kernels, "_BLOCK_ROWS", 3)
    monkeypatch.setattr(_kernels, "infeasible_row", checked)
    for seed in range(40):
        base = generate_random_network(seed, 5 + seed % 26, 0.35)
        for cut in (0.05, 0.2):
            net = Network([Bus(b.id, 3 * b.fixed_demand) for b in base.buses],
                          [replace(ln, flow_limit=ln.flow_limit and cut * ln.flow_limit) for ln in base.lines],
                          base.injectors)
            try:
                solve_opf(net)
            except OpfInfeasible:
                pass
    assert len(seen) > 60 and {size % 3 for size in seen} == {0, 1, 2}
