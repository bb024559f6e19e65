import itertools
from dataclasses import replace

import numpy as np
import pytest

from lmpcirc import (
    Bus,
    CircuitError,
    CurrentSource,
    Injector,
    LimitedInfo,
    Line,
    Network,
    NoCongestion,
    NoMarginalInjector,
    Resistor,
    assemble_lp,
    build_b_matrix,
    build_circuit,
    cheapest_marginal,
    circuit_from_parts,
    generate_random_network,
    kcl_residuals,
    kvl_loop_sums,
    loop_sum_along,
    recover_lmps,
    solve_circuit,
    solve_opf,
    superpose,
    to_voltage_sources,
)
from lmpcirc.circuit import _binding_sources, fundamental_cycles
from lmpcirc.dcopf import _source_currents
from lmpcirc.reports import dual_kcl_ledger, netlist_lines

import oracles

LEDGER_LMP = [45.0, 0.0, 45.0, 90.0, 45.0, 0.0, 22.5]

# contributions of each source with the other one open-circuited (exact
# rationals of the 7-bus resistor mesh, ground at node 1)
SRC_112 = np.array([225, 0, -75, -150, -375, -600, -187.5]) / 13.0
SRC_180 = np.array([360, 0, 660, 1320, 960, 600, 480]) / 13.0


def case7_circuit():
    lines = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0),
             (0, 5, 1.0), (0, 6, 1.0), (5, 6, 1.0), (1, 3, 1.0)]
    sources = [(5, 0, 112.5), (1, 3, 180.0)]
    return circuit_from_parts(7, lines, sources, ground=1, offset=0.0)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_fig1_circuit(fig1_net, fig1_sol):
    c = build_circuit(fig1_net, fig1_sol)
    assert [(r.from_node, r.to_node, r.ohms) for r in c.resistors] == [
        (0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]
    assert len(c.current_sources) == 1
    s = c.current_sources[0]
    assert (s.from_node, s.to_node) == (0, 1)
    assert s.amps == pytest.approx(60.0, abs=1e-7)
    assert c.ground == 0 and c.offset == 0.0 and c.meshed


def test_build_case7_circuit(case7_net, case7_sol):
    c = build_circuit(case7_net, case7_sol)
    assert all(r.ohms == 1.0 for r in c.resistors)
    pairs = [(s.from_node, s.to_node, round(s.amps, 9)) for s in c.current_sources]
    assert pairs == [(5, 0, 112.5), (1, 3, 180.0)]
    assert c.ground == 1 and c.offset == 0.0


def test_uncongested_refuses(fig1_net):
    relaxed = Network(
        fig1_net.buses,
        [Line(l.from_bus, l.to_bus, l.susceptance) for l in fig1_net.lines],
        fig1_net.injectors,
    )
    sol = solve_opf(relaxed)
    with pytest.raises(NoCongestion):
        build_circuit(relaxed, sol)


def test_radial_network_allowed_but_flagged():
    net = Network(
        buses=[Bus(0), Bus(1, 50.0)],
        lines=[Line(0, 1, 1.0, 20.0)],
        injectors=[Injector(0, "generator", 5.0, 0.0, 100.0),
                   Injector(1, "generator", 30.0, 0.0, 100.0)],
    )
    sol = solve_opf(net)
    c = build_circuit(net, sol)
    assert not c.meshed
    v = solve_circuit(c).voltages
    assert np.abs(v + c.offset - sol.lmp).max() <= 1e-9


def test_meshed_follows_topology():
    lines = [(0, 1, 1.0), (1, 2, 1.0)]
    radial = circuit_from_parts(3, lines, [(0, 1, 5.0)], ground=0, offset=0.0)
    assert not radial.meshed
    assert circuit_from_parts(3, lines + [(0, 2, 1.0)], [(0, 1, 5.0)], ground=0, offset=0.0).meshed


# ---------------------------------------------------------------------------
# nodal solve
# ---------------------------------------------------------------------------

def test_single_branch_ohms_law():
    c = circuit_from_parts(2, [(0, 1, 1.0)], [(0, 1, 5.0)], ground=0, offset=0.0)
    s = solve_circuit(c)
    assert s.voltages == pytest.approx([0.0, 5.0], abs=1e-12)
    assert s.branch_currents[0][2] == pytest.approx(-5.0, abs=1e-12)


def test_case7_ledger_voltages():
    s = solve_circuit(case7_circuit())
    assert s.voltages == pytest.approx(LEDGER_LMP, abs=1e-9)
    assert np.abs(kcl_residuals(case7_circuit(), s)).max() <= 1e-9


def test_fig4_triangle_hand_solve():
    c = circuit_from_parts(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)],
                           [(0, 2, 240.0)], ground=1, offset=20.0)
    s = solve_circuit(c)
    # reduced solve (1/3)[[2,1],[1,2]] @ [-240, 240]
    assert s.voltages == pytest.approx([-80.0, 0.0, 80.0], abs=1e-9)


def test_matches_pinv_nodal_oracle():
    rng = np.random.default_rng(5)
    for trial in range(8):
        n = int(rng.integers(4, 10))
        lines = [(i, i + 1, float(rng.uniform(0.5, 2))) for i in range(n - 1)]
        lines += [(0, n - 1, float(rng.uniform(0.5, 2)))]
        k = int(rng.integers(0, len(lines)))
        i, j, _ = lines[k]
        sources = [(i, j, float(rng.uniform(5, 100)))]
        ground = int(rng.integers(0, n))
        c = circuit_from_parts(n, lines, sources, ground=ground, offset=0.0)
        want = oracles.nodal_voltages_pinv(n, lines, sources, ground)
        assert solve_circuit(c).voltages == pytest.approx(want, abs=1e-8)


def test_conductance_matrix_is_susceptance_laplacian(corpus200):
    # the paper's identity: the circuit's conductance matrix is the OPF's B
    for net, sol in corpus200:
        g = build_circuit(net, sol).conductance_matrix()
        np.testing.assert_allclose(g, build_b_matrix(net), rtol=1e-12, atol=0.0)


def test_ohm_consistency_and_ground_zero(corpus200):
    for net, sol in corpus200[:30]:
        c = build_circuit(net, sol)
        s = solve_circuit(c)
        assert s.voltages[c.ground] == 0.0
        for (f, t, amps), r in zip(s.branch_currents, c.resistors):
            drop = s.voltages[f] - s.voltages[t]
            assert abs(amps * r.ohms - drop) <= 1e-9
        assert np.abs(kcl_residuals(c, s)).max() <= 1e-9


def test_lmp_roundtrip_on_corpus_slice(corpus200):
    for net, sol in corpus200[:40]:
        c = build_circuit(net, sol)
        v = solve_circuit(c).voltages
        assert np.abs(v + c.offset - sol.lmp).max() <= 1e-6
        gb, cost = cheapest_marginal(sol, net)
        assert sol.lmp[gb] == pytest.approx(cost, abs=1e-7)


def test_disconnected_circuit_raises():
    # on every call, not only the first: a failed check leaves nothing cached
    c = circuit_from_parts(4, [(0, 1, 1.0), (2, 3, 1.0)], [(0, 1, 5.0)], ground=0, offset=0.0)
    for solve in (solve_circuit, superpose, solve_circuit, superpose):
        with pytest.raises(CircuitError, match="disconnected"):
            solve(c)


@pytest.mark.parametrize("lines, sources, match", [
    ([(0, 1, 1.0), (-1, 1, 1.0)], [(0, 1, 3.0)], r"line \(-1, 1\): node -1 out of range"),
    ([(0, 1, 1.0), (5, 1, 1.0)], [(0, 1, 3.0)], r"line \(5, 1\): node 5 out of range"),
    ([(0, 1, 1.0), (1, 1, 1.0)], [(0, 1, 3.0)], r"line \(1, 1\): both ends on node 1"),
    ([(0, 1, 1.0)], [(1, 1, 3.0)], r"source \(1, 1\): both ends on node 1"),
    ([(0, 1, 1.0)], [(0, 2, 3.0)], r"source \(0, 2\): node 2 out of range"),
])
def test_assembly_rejects_bad_branch_ends(lines, sources, match):
    # a negative id would otherwise wrap to another node, a large one raise IndexError,
    # and a self-loop source would silently contribute nothing
    with pytest.raises(CircuitError, match=match):
        circuit_from_parts(2, lines, sources, ground=0, offset=0.0)


def _bad_line_cases():
    chain = [(i, i + 1, 1.0 + i % 7) for i in range(399)]
    chain += [(i % 400, (i * 37 + 11) % 400, 2.0) for i in range(600) if (i * 37 + 11) % 400 != i % 400]
    for bad, message in (((-1, 3, 1.0), r"line \(-1, 3\): node -1 out of range \[0, 400\)"),
                         ((3, 400, 1.0), r"line \(3, 400\): node 400 out of range \[0, 400\)"),
                         ((7, 7, 1.0), r"line \(7, 7\): both ends on node 7"),
                         ((7, 8, 0.0), r"line 7-8: susceptance must be finite and > 0"),
                         ((7, 8, -2.5), r"line 7-8: susceptance must be finite and > 0"),
                         ((7, 8, np.nan), r"line 7-8: susceptance must be finite and > 0"),
                         ((7, 8, np.inf), r"line 7-8: susceptance must be finite and > 0"),
                         ((7, 8, -np.inf), r"line 7-8: susceptance must be finite and > 0")):
        yield chain + [bad], message                       # after every valid line
        yield chain[:500] + [bad] + chain[500:], message   # in the middle
        yield chain[:500] + [bad, (5, 5, 1.0)] + chain[500:], message  # the first bad one is named


@pytest.mark.parametrize("sources, ground, error, match", [
    ([(0, 1, 3.0), (0, 2, 3.0), (1, 1, 3.0)], 0, CircuitError, r"source 0->2 has no parallel line"),
    ([(0, 1, 3.0), (2, 1, -1.0), (0, 2, 3.0)], 0, CircuitError, r"source 2->1: magnitude must be finite and > 0"),
    ([(0, 1, 3.0), (1, 2, 0.0)], 0, CircuitError, r"source 1->2: magnitude must be finite and > 0"),
    ([(0, 1, 3.0)], 3, CircuitError, r"ground node 3 out of range"),
    ([(0, 1, 3.0), (1, 2)], 0, ValueError, r"not enough values to unpack"),
    # a NaN compares false with everything, so "> 0" alone lets it through
    ([(0, 1, 3.0), (2, 1, np.nan)], 0, CircuitError, r"source 2->1: magnitude must be finite and > 0"),
    ([(0, 1, 3.0), (1, 2, np.inf)], 0, CircuitError, r"source 1->2: magnitude must be finite and > 0"),
])
def test_first_bad_source_is_named(sources, ground, error, match):
    with pytest.raises(error, match=match):
        circuit_from_parts(3, [(0, 1, 1.0), (1, 2, 1.0)], sources, ground=ground, offset=0.0)


@pytest.mark.parametrize("lines, match", list(_bad_line_cases()))
def test_invalid_line_among_many_valid_ones_is_named(lines, match):
    with pytest.raises(CircuitError, match="^" + match + "$"):
        circuit_from_parts(400, lines, [(0, 1, 3.0)], ground=0, offset=0.0)


@pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
def test_non_finite_offset_raises(offset):
    # a NaN offset would come back as NaN prices at every node, with no error
    with pytest.raises(CircuitError, match="^offset must be a finite number$"):
        circuit_from_parts(3, [(0, 1, 1.0), (1, 2, 1.0)], [(0, 1, 3.0)], ground=0, offset=offset)
    with pytest.raises(CircuitError, match="^offset must be a finite number$"):
        recover_lmps(LimitedInfo(3, ((0, 1, 1.0), (1, 2, 1.0)), ((0, 1, 3.0),), ground=0, offset=offset))


@pytest.mark.parametrize("lines, sources, match", [
    (((0, 1, np.nan), (1, 2, 1.0)), ((0, 1, 3.0),), r"line 0-1: susceptance must be finite and > 0"),
    (((0, 1, 1.0), (1, 2, np.inf)), ((0, 1, 3.0),), r"line 1-2: susceptance must be finite and > 0"),
    (((0, 1, 1.0), (1, 2, 1.0)), ((1, 2, np.nan),), r"source 1->2: magnitude must be finite and > 0"),
    (((0, 1, 1.0), (1, 2, 1.0)), ((0, 1, -np.inf),), r"source 0->1: magnitude must be finite and > 0"),
])
def test_recovery_refuses_non_finite_limited_info(lines, sources, match):
    # a LimitedInfo built directly skips load_limited_info's checks, and the
    # circuit assembly is then what refuses it
    for ground, offset in ((0, 2.0), (None, None)):
        with pytest.raises(CircuitError, match="^" + match + "$"):
            recover_lmps(LimitedInfo(3, lines, sources, ground=ground, offset=offset))


def test_non_numeric_node_id_raises():
    with pytest.raises(TypeError):
        circuit_from_parts(3, [("1", 2, 1.0), (0, 1, 1.0)], [(0, 1, 3.0)], ground=0, offset=0.0)


def test_resistor_on_a_node_past_the_last_raises():
    # a circuit can hold a branch _assemble would refuse (here a checked
    # circuit with its last node cut off); its conductance matrix drops no
    # branch, it refuses one it cannot place
    four = circuit_from_parts(4, [(0, 1, 1.0), (1, 3, 0.5)], [(0, 1, 5.0)], ground=0, offset=0.0)
    c = replace(four, n_nodes=3, sources=tuple(a[:0] for a in four.sources))
    with pytest.raises(IndexError):
        c.conductance_matrix()
    with pytest.raises(IndexError):
        solve_circuit(c)


# ---------------------------------------------------------------------------
# one ground-reduced system per circuit
# ---------------------------------------------------------------------------

def _random_parts(seed, n=60, extra=90, n_sources=8):
    """(n, lines, sources, ground) of a random connected circuit."""
    rng = np.random.default_rng(seed)
    lines = [(int(rng.integers(0, k)), k, float(rng.uniform(0.5, 2.0))) for k in range(1, n)]
    while len(lines) < n - 1 + extra:
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        lines.append((i, j, float(rng.uniform(0.5, 2.0))))
    sources = [(i, j, float(rng.uniform(1.0, 100.0)))
               for i, j, _ in (lines[k] for k in rng.choice(len(lines), n_sources, replace=False))]
    return n, lines, sources, int(rng.integers(0, n))


def _random_circuit(seed, **sizes):
    n, lines, sources, ground = _random_parts(seed, **sizes)
    return circuit_from_parts(n, lines, sources, ground=ground, offset=3.5)


def _parts_of_many_circuits(corpus200):
    """The corpus's circuits, and two the size of the benchmark's (400 nodes, 1,000 lines)."""
    for net, sol in corpus200:
        c = build_circuit(net, sol)
        lines = [(ln.from_bus, ln.to_bus, ln.susceptance) for ln in net.lines]
        yield net.n, lines, [(s.from_node, s.to_node, s.amps) for s in c.current_sources], c.ground
    for seed in range(2):
        yield _random_parts(seed, n=400, extra=601, n_sources=60)


def test_resistors_are_built_from_the_line_tuples(corpus200):
    for n, lines, sources, ground in _parts_of_many_circuits(corpus200):
        c = circuit_from_parts(n, lines, sources, ground, 0.0)
        assert c.resistors == tuple(Resistor(i, j, 1.0 / s) for i, j, s in lines)
        assert c.resistors is c.resistors
        assert c.current_sources == tuple(CurrentSource(*src) for src in sources)


def test_reduced_matrix_is_the_full_one_without_ground(corpus200):
    for n, lines, sources, _ in _parts_of_many_circuits(corpus200):
        for ground in (0, n // 2, n - 1):
            c = circuit_from_parts(n, lines, sources, ground, 0.0)
            g, keep = c._reduced
            assert keep.tolist() == [i for i in range(n) if i != ground]
            want = c.conductance_matrix()[np.ix_(keep, keep)]
            assert g.shape == want.shape and g.tobytes() == want.tobytes()
            assert not g.flags.writeable


def _reference_voltages(c, injections):
    """The nodal solve written out: a fresh full matrix reduced by np.ix_."""
    keep = [i for i in range(c.n_nodes) if i != c.ground]
    g, rhs = c.conductance_matrix()[np.ix_(keep, keep)], injections[keep]
    x = np.linalg.solve(g, rhs)
    v = np.zeros(injections.shape)
    v[keep] = x + np.linalg.solve(g, rhs - g @ x)
    return v


def _same_solution(a, b):
    assert np.array_equal(a.voltages, b.voltages)
    assert a.branch_currents == b.branch_currents
    if a.per_source_voltages is None:
        assert b.per_source_voltages is None
    else:
        assert all(np.array_equal(x, y) for x, y in zip(a.per_source_voltages, b.per_source_voltages, strict=True))


def _circuits():
    yield case7_circuit()
    for seed in range(4):
        yield _random_circuit(seed)


def test_solves_match_the_written_out_nodal_solve():
    for c in _circuits():
        s = solve_circuit(c)
        assert np.array_equal(s.voltages, _reference_voltages(c, c.injections()))
        v = s.voltages
        assert s.branch_currents == tuple(
            (r.from_node, r.to_node, float((v[r.from_node] - v[r.to_node]) / r.ohms)) for r in c.resistors)
        sp = superpose(c)
        j = np.column_stack([c.injections()] + [np.bincount([src.to_node, src.from_node], [src.amps, -src.amps],
                                                            minlength=c.n_nodes) for src in c.current_sources])
        want = _reference_voltages(c, j)
        assert np.array_equal(sp.voltages, want[:, 0])
        assert all(np.array_equal(x, y) for x, y in zip(sp.per_source_voltages, want[:, 1:].T, strict=True))


def test_cached_system_gives_the_same_bits_in_any_order():
    # replace(c) is a new object with nothing cached on it
    for c in _circuits():
        s = solve_circuit(replace(c))
        want = {"solve": s, "superpose": superpose(replace(c)), "kcl": kcl_residuals(replace(c), s)}
        calls = {"solve": solve_circuit, "superpose": superpose, "kcl": lambda circ: kcl_residuals(circ, s)}
        for order in itertools.permutations(calls):
            circ = replace(c)
            for name in order + order:   # and again, from the cache
                got = calls[name](circ)
                if name == "kcl":
                    assert np.array_equal(got, want["kcl"])
                else:
                    _same_solution(got, want[name])


def test_writing_into_the_conductance_matrix_changes_no_later_solve():
    for c in _circuits():
        want = solve_circuit(replace(c))
        circ = replace(c)
        circ.conductance_matrix()[:] = 7.0          # before the first solve
        _same_solution(solve_circuit(circ), want)
        g = circ.conductance_matrix()
        g *= -3.0                                    # after it
        _same_solution(solve_circuit(circ), want)
        assert np.array_equal(circ.conductance_matrix(), replace(c).conductance_matrix())


# ---------------------------------------------------------------------------
# one source-current stamp
# ---------------------------------------------------------------------------

def _loop_source_currents(opf, mu_rows):
    """D' mu_rows written line by line: row 2r's price into the from end and
    out of the to end, then row 2r + 1's out of the from end and into the to end."""
    out = np.zeros(opf.n)
    for r, (i, j) in enumerate(zip(opf.ends[0].tolist(), opf.ends[1].tolist())):
        up, down = mu_rows[2 * r], mu_rows[2 * r + 1]
        out[i] += up
        out[j] -= up
        out[i] -= down
        out[j] += down
    return out


def _loop_injections(c):
    """The circuit's net source currents written source by source."""
    j = np.zeros(c.n_nodes)
    for s in c.current_sources:
        j[s.to_node] += s.amps
        j[s.from_node] -= s.amps
    return j


def _loop_ledger(net, sol, tol):
    """dual_kcl_ledger written line by line, then binding source by source."""
    inflows, outflows = [[] for _ in range(net.n)], [[] for _ in range(net.n)]
    net_in = np.zeros(net.n)
    for ln in net.lines:
        cur = float(ln.susceptance * (sol.lmp[ln.from_bus] - sol.lmp[ln.to_bus]))
        if cur > 1e-9:
            outflows[ln.from_bus].append(cur)
            inflows[ln.to_bus].append(cur)
        elif cur < -1e-9:
            outflows[ln.to_bus].append(-cur)
            inflows[ln.from_bus].append(-cur)
        net_in[ln.from_bus] -= cur
        net_in[ln.to_bus] += cur
    for lo, hi, amps in _binding_sources(sol):
        inflows[hi].append(amps)
        outflows[lo].append(amps)
        net_in[hi] += amps
        net_in[lo] -= amps
    return [{"node": i, "inflows": inflows[i], "outflows": outflows[i], "residual": abs(float(-net_in[i])),
             "passed": abs(float(-net_in[i])) <= tol} for i in range(net.n)]


def test_source_stamps_match_the_per_source_loops():
    # bit for bit, on perfbench's 17 dense and 17 grid-like OPF networks and
    # on two circuits the size of its circuit_large ones
    rng = np.random.default_rng(27)
    circuits = [_random_circuit(seed, n=400, extra=601, n_sources=60) for seed in range(2)]
    for n, edge_prob in ((35, 0.35), (50, 0.022)):
        for seed in range(17):
            net = generate_random_network(seed, n, edge_prob)
            sol, opf = solve_opf(net), assemble_lp(net)
            # random duals price both rows of a line, which orders two terms at each end
            for mu_rows in (sol.mu_rows, rng.normal(size=sol.mu_rows.size)):
                assert _source_currents(opf, mu_rows).tobytes() == _loop_source_currents(opf, mu_rows).tobytes()
            # moved prices leave residuals whose last bits follow the order of their terms
            for point in (sol, replace(sol, lmp=sol.lmp + rng.normal(size=net.n))):
                assert repr(dual_kcl_ledger(net, point, 1e-7)) == repr(_loop_ledger(net, point, 1e-7))
            try:
                circuits.append(build_circuit(net, sol))
            except (NoCongestion, NoMarginalInjector):
                pass
    assert len(circuits) > 20
    for c in circuits:
        assert c.injections().tobytes() == _loop_injections(c).tobytes()


# ---------------------------------------------------------------------------
# superposition
# ---------------------------------------------------------------------------

def test_case7_superposition_contributions():
    s = superpose(case7_circuit())
    assert s.per_source_voltages[0] == pytest.approx(SRC_112, abs=1e-9)
    assert s.per_source_voltages[1] == pytest.approx(SRC_180, abs=1e-9)
    total = s.per_source_voltages[0] + s.per_source_voltages[1]
    assert total == pytest.approx(s.voltages, abs=1e-9)
    # the first source drags most nodes negative
    assert (s.per_source_voltages[0] < -1e-9).sum() == 5


def test_single_source_contribution_is_total(fig1_net, fig1_sol):
    c = build_circuit(fig1_net, fig1_sol)
    s = superpose(c)
    assert len(s.per_source_voltages) == 1
    assert s.per_source_voltages[0] == pytest.approx(s.voltages, abs=1e-12)


def test_superposition_identity_random_multisource(corpus200):
    seen_multi = 0
    for net, sol in corpus200:
        if len(sol.mu) < 3:
            continue
        c = build_circuit(net, sol)
        if len(c.current_sources) < 3:
            continue
        s = superpose(c)
        assert np.abs(sum(s.per_source_voltages) - s.voltages).max() <= 1e-8
        # each column must be its own source's response, in source order
        lines = [(ln.from_bus, ln.to_bus, ln.susceptance) for ln in net.lines]
        for src, part in zip(c.current_sources, s.per_source_voltages, strict=True):
            alone = circuit_from_parts(c.n_nodes, lines, [(src.from_node, src.to_node, src.amps)],
                                       c.ground, c.offset)
            assert np.abs(part - solve_circuit(alone).voltages).max() <= 1e-9
        seen_multi += 1
        if seen_multi >= 10:
            break
    assert seen_multi >= 3


def test_superposition_is_the_transfer_resistance_decomposition(corpus200):
    # With X the inverse of the OPF's B reduced at the ground (zero row and
    # column there), source k from i to j contributes amps * (X[:, j] - X[:, i])
    # and offset + sum of contributions is the LMP: the energy/congestion
    # decomposition of LMPs (Litvinov et al., IEEE TPWRS 2004) read as superposition.
    seen = 0
    for net, sol in corpus200:
        c = build_circuit(net, sol)
        if len(c.current_sources) < 3:
            continue
        keep = [i for i in range(net.n) if i != c.ground]
        x = np.zeros((net.n, net.n))
        x[np.ix_(keep, keep)] = np.linalg.inv(build_b_matrix(net)[np.ix_(keep, keep)])
        s = superpose(c)
        for src, part in zip(c.current_sources, s.per_source_voltages, strict=True):
            want = src.amps * (x[:, src.to_node] - x[:, src.from_node])
            assert np.abs(part - want).max() <= 1e-9
        assert np.abs(c.offset + sum(s.per_source_voltages) - sol.lmp).max() <= 1e-6
        seen += 1
    assert seen >= 10


# ---------------------------------------------------------------------------
# source transformation
# ---------------------------------------------------------------------------

def sibling_circuit():
    # a 1-ohm and a 0.5-ohm line in parallel on pair 0-1, one source on the pair
    return circuit_from_parts(3, [(0, 1, 1.0), (0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0)],
                              [(0, 1, 5.0)], 2, 0.0)


SHARED_PAIR_LINES = [(0, 1, 1.0), (1, 0, 4.0), (1, 2, 1.0), (0, 2, 1.0)]


def shared_pair_circuit():
    # two opposing sources on one parallel pair
    return circuit_from_parts(3, SHARED_PAIR_LINES, [(1, 0, 8.0), (0, 1, 2.0)], 2, 0.0)


def test_voltage_view_unit_resistance_case7():
    view = to_voltage_sources(case7_circuit())
    assert [(e.from_node, e.to_node, e.volts) for e in view.elements] == [
        (5, 0, 112.5), (1, 3, 180.0)]


def test_voltage_view_scales_by_resistance():
    c = circuit_from_parts(2, [(0, 1, 2.0)], [(0, 1, 60.0)], ground=0, offset=0.0)
    view = to_voltage_sources(c)
    assert view.elements[0].volts == pytest.approx(30.0)
    assert view.elements[0].series_ohms == pytest.approx(0.5)


def test_voltage_view_solves_identically(corpus200, fig1_net, fig1_sol, fig4_net, fig4_sol):
    # both netlist forms, read back as text under SPICE's element conventions,
    # solve to the circuit's prices; the text carries 9 significant digits
    circuits = [case7_circuit(), build_circuit(fig1_net, fig1_sol), build_circuit(fig4_net, fig4_sol),
                sibling_circuit(), shared_pair_circuit()]
    circuits += [build_circuit(net, sol) for net, sol in corpus200[:15]]
    for c in circuits:
        want = solve_circuit(c).voltages + c.offset
        for voltage_sources in (False, True):
            text = "\n".join(netlist_lines(c, voltage_sources=voltage_sources))
            got = oracles.netlist_prices(text)
            assert np.abs(got - want).max() <= 1e-7 * (1 + np.abs(want).max())


def test_voltage_view_keeps_parallel_sibling():
    # the source takes the first resistor on its pair; the parallel 0.5-ohm
    # line stays a plain resistor in both the view and the netlist
    c = sibling_circuit()
    view = to_voltage_sources(c)
    assert [(e.from_node, e.to_node, e.volts, e.series_ohms) for e in view.elements] == [(0, 1, 5.0, 1.0)]
    assert view.plain_resistors == c.resistors[1:]
    assert solve_circuit(c).voltages == pytest.approx([-5 / 7, 5 / 7, 0.0], abs=1e-12)
    assert netlist_lines(c, voltage_sources=True)[1:] == [
        "R1 0 1 0.5", "R2 1 2 1", "R3 0 2 1", "V1 m1 0 5", "R4 m1 1 1"]


def test_voltage_view_gives_each_source_its_own_resistor():
    c = shared_pair_circuit()
    view = to_voltage_sources(c)
    assert [(e.volts, e.series_ohms) for e in view.elements] == [(8.0, 1.0), (0.5, 0.25)]
    assert view.plain_resistors == c.resistors[2:]
    crowded = circuit_from_parts(3, SHARED_PAIR_LINES[2:] + [(0, 1, 1.0)],
                                 [(0, 1, 1.0), (1, 0, 2.0)], 2, 0.0)
    with pytest.raises(CircuitError, match="no untaken resistor"):
        to_voltage_sources(crowded)


# ---------------------------------------------------------------------------
# Kirchhoff ledgers
# ---------------------------------------------------------------------------

def test_case7_kcl_identities_verbatim():
    c = case7_circuit()
    s = solve_circuit(c)
    v = s.voltages
    # expected inflow/outflow term multisets per node, from the dual ledger
    expected = {
        0: ([112.5], [45.0, 22.5, 45.0]),
        1: ([45.0, 90.0, 45.0], [180.0]),
        2: ([45.0], [45.0]),
        3: ([180.0], [45.0, 90.0, 45.0]),
        4: ([45.0], [45.0]),
        5: ([45.0, 45.0, 22.5], [112.5]),
        6: ([22.5], [22.5]),
    }
    inflow = {i: [] for i in range(7)}
    outflow = {i: [] for i in range(7)}
    for (f, t, amps) in s.branch_currents:
        if amps > 1e-9:
            outflow[f].append(amps)
            inflow[t].append(amps)
        elif amps < -1e-9:
            outflow[t].append(-amps)
            inflow[f].append(-amps)
    for src in c.current_sources:
        inflow[src.to_node].append(src.amps)
        outflow[src.from_node].append(src.amps)
    for node, (want_in, want_out) in expected.items():
        assert sorted(inflow[node]) == pytest.approx(sorted(want_in), abs=1e-9)
        assert sorted(outflow[node]) == pytest.approx(sorted(want_out), abs=1e-9)
        assert abs(sum(inflow[node]) - sum(outflow[node])) <= 1e-9
    assert np.abs(kcl_residuals(c, s)).max() <= 1e-9
    assert v == pytest.approx(LEDGER_LMP, abs=1e-9)


def test_case7_kvl_named_loops():
    lower_left = loop_sum_along([0, 6, 5], LEDGER_LMP)
    assert lower_left.terms == pytest.approx([22.5, 22.5, -45.0], abs=1e-12)
    assert lower_left.total == pytest.approx(0.0, abs=1e-12)

    outer = loop_sum_along([1, 0, 6, 5, 4, 3, 2], LEDGER_LMP)
    assert outer.terms == pytest.approx([-45.0, 22.5, 22.5, -45.0, -45.0, 45.0, 45.0], abs=1e-12)
    assert outer.total == pytest.approx(0.0, abs=1e-12)

    center = loop_sum_along([0, 5, 4, 3, 1], LEDGER_LMP)
    assert center.total == pytest.approx(0.0, abs=1e-12)
    upper_right = loop_sum_along([1, 3, 2], LEDGER_LMP)
    assert upper_right.total == pytest.approx(0.0, abs=1e-12)


def test_kvl_telescopes_for_any_prices():
    rng = np.random.default_rng(11)
    for seed in range(6):
        from lmpcirc import generate_random_network
        net = generate_random_network(seed, 9, 0.5)
        lam = rng.normal(size=9) * 100
        for loop in kvl_loop_sums([(ln.from_bus, ln.to_bus) for ln in net.lines], lam):
            assert abs(loop.total) <= 1e-9


def test_disconnected_edges_give_every_components_loops():
    # two components: the 0-1 tree and the 2-3-4 loop, which is found though
    # node 0's tree does not reach it
    loops = kvl_loop_sums([(0, 1), (2, 3), (3, 4), (4, 2)], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert [(set(l.nodes), l.total) for l in loops] == [({2, 3, 4}, 0.0)]
    rng = np.random.default_rng(3)
    for sizes, isolated in (((30, 40), 0), ((50, 5, 60), 2), ((8, 80, 12, 45), 3)):
        # the components' nodes, and some isolated ones, interleaved by a shuffle of the ids
        n = sum(sizes) + isolated
        ids, comp = rng.permutation(n), np.full(n, -1)
        edges, start = [], 0
        for k, size in enumerate(sizes):
            block = ids[start:start + size]
            comp[block] = k
            edges += [(int(block[u]), int(block[v])) for u, v in _random_connected_edges(rng, size)]
            start += size
        cycles = fundamental_cycles(n, edges)
        assert cycles == _cycles_by_root_paths(n, edges)
        assert len(cycles) == len(edges) - n + len(sizes) + isolated   # chords = m - (n - components)
        assert all(len(set(comp[cyc].tolist())) == 1 for cyc in cycles)


def test_tree_has_empty_cycle_basis():
    edges = [(0, 1), (1, 2), (1, 3)]
    assert fundamental_cycles(4, edges) == []
    assert kvl_loop_sums(edges, [1.0, 2.0, 3.0, 4.0]) == []


def _random_connected_edges(rng, n):
    """Random recursive tree on n nodes plus about n extra distinct edges."""
    edges = {(int(rng.integers(0, k)), k) for k in range(1, n)}
    while len(edges) < 2 * n - 1:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((u, v))
    edges = sorted(edges)
    return [edges[k] for k in rng.permutation(len(edges))]   # unsorted input order


def _cycles_by_root_paths(n, edges):
    """fundamental_cycles written the long way: each chord's two paths to the
    root, cut at the first node they share."""
    from lmpcirc.network import _spanning_forest

    parent = _spanning_forest(n, edges)
    tree = {(min(u, p), max(u, p)) for u, p in parent.items() if p is not None}

    def path_to_root(x):
        path = []
        while x is not None:
            path.append(x)
            x = parent[x]
        return path

    cycles = []
    for u, v in sorted({(min(u, v), max(u, v)) for u, v in edges} - tree):
        pu, pv = path_to_root(u), path_to_root(v)
        meet = next(x for x in pv if x in set(pu))
        cycles.append(pu[:pu.index(meet) + 1] + pv[:pv.index(meet)][::-1])
    return cycles


def test_fundamental_cycles_close_via_chords():
    rng = np.random.default_rng(5)
    graphs = [(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])]
    for n in (50, 120, 400, *rng.integers(50, 401, size=3)):
        graphs.append((int(n), _random_connected_edges(rng, int(n))))
    for n, edges in graphs:
        cycles = fundamental_cycles(n, edges)
        assert cycles == _cycles_by_root_paths(n, edges)
        edge_set = {tuple(sorted(e)) for e in edges}
        assert len(cycles) == len(edges) - n + 1  # chords = m - (n - 1)
        for cyc in cycles:
            assert len(set(cyc)) == len(cyc) >= 3
            walk = cyc + [cyc[0]]
            for a, b in zip(walk, walk[1:]):
                assert tuple(sorted((a, b))) in edge_set
