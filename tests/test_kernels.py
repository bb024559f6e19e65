"""Kernel checks: the sparse numpy pivot against the dense update it replaces."""

import numpy as np
import pytest

from lmpcirc import LpProblem, _kernels, generate_random_network, solve_lp, solve_opf

import oracles

SPARSE_PIVOT = _kernels._pivot


def _dense_pivot(tableau, pr, pc):
    """The dense rank-1 Gauss-Jordan update the sparse pivot must reproduce."""
    tableau[pr, :] /= tableau[pr, pc]
    factors = tableau[:, pc].copy()
    factors[pr] = 0.0
    tableau -= factors[:, None] * tableau[pr, None, :]
    tableau[:, pc] = 0.0
    tableau[pr, pc] = 1.0


def _sparse_tableau(rng, m, n, density):
    t = np.where(rng.random((m, n)) < density, rng.normal(size=(m, n)), 0.0)
    t[rng.random((m, n)) < 0.1] = -0.0
    return t


def _assert_pivots_agree(tableau, pr, pc):
    want = tableau.copy()
    _dense_pivot(want, pr, pc)
    SPARSE_PIVOT(tableau, pr, pc)
    assert np.array_equal(tableau, want)


def test_sparse_pivot_matches_dense_update(monkeypatch):
    rng = np.random.default_rng(8)
    for k in range(200):
        m, n = (int(v) for v in rng.integers(2, 30, size=2))
        t = _sparse_tableau(rng, m, n, density=rng.choice([0.05, 0.3, 0.9]))
        pr, pc = int(rng.integers(m)), int(rng.integers(n))
        if k % 4 == 1:      # the pivot is the only nonzero of its column
            t[:, pc] = rng.choice([0.0, -0.0], size=m)
        elif k % 4 == 2:    # ... or of its row
            t[pr, :] = rng.choice([0.0, -0.0], size=n)
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

    # whole solves: the sparse kernel against the dense one swapped in
    for seed in range(60):
        c, a_eq, b_eq, a_ge, b_ge = oracles.random_small_lp(seed)
        prob = LpProblem(c=c, a_eq=a_eq, b_eq=b_eq, a_ge=a_ge, b_ge=b_ge)
        sparse = solve_lp(prob)
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "_pivot", _dense_pivot)
            dense = solve_lp(prob)
        assert sparse.status == dense.status
        assert sparse.iterations == dense.iterations
        if sparse.status == "optimal":
            assert np.array_equal(sparse.x, dense.x)
            assert np.array_equal(sparse.eq_duals, dense.eq_duals)
            assert np.array_equal(sparse.ge_duals, dense.ge_duals)


def test_pivot_refuses_non_contiguous_tableau():
    t = np.asfortranarray(np.arange(1.0, 13.0).reshape(3, 4))
    with pytest.raises(ValueError, match="C-contiguous"):
        SPARSE_PIVOT(t, 0, 0)
    with pytest.raises(ValueError, match="C-contiguous"):
        SPARSE_PIVOT(np.ones((3, 8))[:, ::2], 1, 1)
