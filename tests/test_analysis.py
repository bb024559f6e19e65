import numpy as np
import pytest

from lmpcirc import (
    CircuitError,
    LimitedInfo,
    build_circuit,
    cheapest_marginal,
    circuit_from_parts,
    congestion_impact,
    predict_negative_prices,
    recover_lmps,
    solve_circuit,
    solve_opf,
)

from test_circuit import LEDGER_LMP, case7_circuit


# ---------------------------------------------------------------------------
# negative-price prediction
# ---------------------------------------------------------------------------

def test_fig4_flags_negative_with_witness(fig4_net, fig4_sol):
    c = build_circuit(fig4_net, fig4_sol)
    rep = predict_negative_prices(c, solve_circuit(c))
    assert rep.negative
    assert rep.witnesses == (0,)
    assert rep.min_price == pytest.approx(-60.0, abs=1e-6)
    assert rep.min_price_bus == 0
    assert not rep.ground_is_minimum


def test_case7_not_negative():
    c = case7_circuit()
    rep = predict_negative_prices(c, solve_circuit(c))
    assert not rep.negative
    assert rep.witnesses == ()
    # offset is zero and ground carries the lowest price, as the criterion demands
    assert rep.ground_is_minimum


def test_ground_at_minimum_zero_offset_cannot_go_negative():
    c = circuit_from_parts(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)],
                           [(0, 1, 30.0)], ground=0, offset=0.0)
    s = solve_circuit(c)
    rep = predict_negative_prices(c, s)
    assert s.voltages.min() == pytest.approx(0.0, abs=1e-12)
    assert rep.ground_is_minimum
    assert not rep.negative


# ---------------------------------------------------------------------------
# recovery from limited information
# ---------------------------------------------------------------------------

def case7_info(with_ground):
    lines = tuple((int(a), int(b), 1.0) for a, b in
                  [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6), (5, 6), (1, 3)])
    sources = ((5, 0, 112.5), (1, 3, 180.0))
    if with_ground:
        return LimitedInfo(n_nodes=7, lines=lines, sources=sources, ground=1, offset=0.0)
    return LimitedInfo(n_nodes=7, lines=lines, sources=sources)


def test_recover_with_ground_matches_opf(case7_sol):
    res = recover_lmps(case7_info(with_ground=True))
    assert res.delta is None
    assert res.lmp == pytest.approx(case7_sol.lmp, abs=1e-6)
    assert res.lmp == pytest.approx(LEDGER_LMP, abs=1e-9)


def test_recover_without_ground_gives_differences_only():
    res = recover_lmps(case7_info(with_ground=False))
    assert res.lmp is None
    lam = np.asarray(LEDGER_LMP)
    want = lam[:, None] - lam[None, :]
    assert res.delta == pytest.approx(want, abs=1e-9)
    # price difference across the 112.5 A congested line is 45
    assert res.delta[0, 5] == pytest.approx(45.0, abs=1e-9)


def test_recover_single_branch():
    info = LimitedInfo(n_nodes=2, lines=((0, 1, 0.5),), sources=((0, 1, 5.0),))
    res = recover_lmps(info)
    # 5 A through 2 ohms
    assert res.delta[1, 0] == pytest.approx(10.0, abs=1e-12)


def test_recover_requires_connected_topology():
    info = LimitedInfo(n_nodes=4, lines=((0, 1, 1.0), (2, 3, 1.0)), sources=((0, 1, 2.0),))
    with pytest.raises(CircuitError, match="disconnected"):
        recover_lmps(info)


def test_recover_validates_inputs():
    with pytest.raises(ValueError, match="together"):
        LimitedInfo(n_nodes=2, lines=((0, 1, 1.0),), sources=((0, 1, 1.0),), ground=0)
    with pytest.raises(CircuitError, match="magnitude"):
        recover_lmps(LimitedInfo(n_nodes=2, lines=((0, 1, 1.0),), sources=((0, 1, -3.0),)))
    with pytest.raises(CircuitError, match="no parallel line"):
        recover_lmps(LimitedInfo(n_nodes=3, lines=((0, 1, 1.0), (1, 2, 1.0)),
                                 sources=((0, 2, 3.0),)))
    with pytest.raises(CircuitError, match="both ends on node 1"):
        recover_lmps(LimitedInfo(n_nodes=2, lines=((0, 1, 1.0), (1, 1, 1.0)),
                                 sources=((0, 1, 3.0),)))
    with pytest.raises(CircuitError, match="node 2 out of range"):
        recover_lmps(LimitedInfo(n_nodes=2, lines=((0, 1, 1.0), (1, 2, 1.0)),
                                 sources=((0, 1, 3.0),)))


def test_recover_roundtrip_on_corpus(corpus200):
    for net, sol in corpus200[:30]:
        c = build_circuit(net, sol)
        lines = tuple((l.from_bus, l.to_bus, l.susceptance) for l in net.lines)
        sources = tuple((s.from_node, s.to_node, s.amps) for s in c.current_sources)
        full = recover_lmps(LimitedInfo(net.n, lines, sources, ground=c.ground, offset=c.offset))
        assert np.abs(full.lmp - sol.lmp).max() <= 1e-6
        anon = recover_lmps(LimitedInfo(net.n, lines, sources))
        want = sol.lmp[:, None] - sol.lmp[None, :]
        assert np.abs(anon.delta - want).max() <= 1e-6


# ---------------------------------------------------------------------------
# congestion impact
# ---------------------------------------------------------------------------

def test_case7_impact_first_source_mostly_negative():
    impact = congestion_impact(case7_circuit())
    assert impact.sources[0] == (5, 0, 112.5)
    assert len(impact.negative_buses[0]) == 5
    assert impact.min_contribution[0] == pytest.approx(-600.0 / 13.0, abs=1e-9)
    assert impact.max_contribution[0] == pytest.approx(225.0 / 13.0, abs=1e-9)
    assert impact.negative_buses[1] == ()
    assert np.abs(sum(impact.vectors) - impact.totals).max() <= 1e-9


def test_one_source_impact_equals_total(fig1_net, fig1_sol):
    c = build_circuit(fig1_net, fig1_sol)
    impact = congestion_impact(c)
    assert impact.vectors[0] == pytest.approx(impact.totals, abs=1e-12)


def test_three_source_impact_sums(corpus200):
    done = 0
    for net, sol in corpus200:
        c = build_circuit(net, sol)
        if len(c.current_sources) != 3:
            continue
        impact = congestion_impact(c)
        assert len(impact.vectors) == 3
        assert np.abs(sum(impact.vectors) - impact.totals).max() <= 1e-8
        done += 1
        if done >= 5:
            break
    assert done >= 3


# ---------------------------------------------------------------------------
# criterion agreement between the circuit view and the price scan
# ---------------------------------------------------------------------------

def test_prediction_agrees_with_price_scan(corpus200):
    for net, sol in corpus200[:80]:
        c = build_circuit(net, sol)
        rep = predict_negative_prices(c, solve_circuit(c))
        assert rep.negative == bool((sol.lmp < -1e-9).any())
        assert set(rep.witnesses) == set(np.nonzero(sol.lmp < -1e-9)[0])
        if c.offset == 0.0:
            assert rep.negative == (not rep.ground_is_minimum)
