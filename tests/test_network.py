import json

import numpy as np
import pytest

from lmpcirc import (
    Bus,
    Injector,
    Line,
    Network,
    NetworkError,
    OpfNumerical,
    SchemaError,
    assemble_lp,
    build_b_matrix,
    generate_random_network,
    lp,
    network_to_doc,
    parse_network,
    solve_opf,
    verify_optimality,
)
from lmpcirc.dcopf import opf_lp_problem
from lmpcirc.network import _columns, _laplacian, balance_residual


def triangle(limits=(None, None, None), b=(1.0, 1.0, 1.0)):
    return Network(
        buses=[Bus(0), Bus(1), Bus(2, 10.0)],
        lines=[Line(0, 1, b[0], limits[0]), Line(0, 2, b[1], limits[1]), Line(1, 2, b[2], limits[2])],
        injectors=[Injector(0, "generator", 5.0, 0.0, 100.0)],
    )


# ---------------------------------------------------------------------------
# admittance matrix
# ---------------------------------------------------------------------------

def test_b_matrix_unit_triangle():
    got = build_b_matrix(triangle())
    assert np.array_equal(got, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def test_b_matrix_two_bus_single_line():
    net = Network([Bus(0), Bus(1, 5.0)], [Line(0, 1, 4.0)],
                  [Injector(0, "generator", 1.0, 0.0, 10.0)])
    assert np.array_equal(build_b_matrix(net), [[4, -4], [-4, 4]])


def test_b_matrix_row_sums_and_symmetry():
    for seed in range(5):
        net = generate_random_network(seed, 6, 0.5)
        b = build_b_matrix(net)
        assert np.allclose(b, b.T)
        assert np.abs(b.sum(axis=1)).max() < 1e-12
        assert np.abs(b @ np.ones(6)).max() < 1e-12


def test_b_matrix_singular_reduced_nonsingular():
    for seed in range(8):
        n = 4 + seed
        net = generate_random_network(seed, n, 0.4)
        b = build_b_matrix(net)
        sv = np.linalg.svd(b, compute_uv=False)
        assert sv[-1] <= 1e-9 * sv[0]
        for drop in (0, n - 1):
            keep = [i for i in range(n) if i != drop]
            reduced = b[np.ix_(keep, keep)]
            rsv = np.linalg.svd(reduced, compute_uv=False)
            assert rsv[-1] > 1e-9 * rsv[0]


def _loop_laplacian(size, branches):
    """The per-branch stamping loop the vectorized Laplacian must reproduce bit for bit."""
    g = np.zeros((size, size))
    for i, j, w in branches:
        g[i, j] -= w
        g[j, i] -= w
        g[i, i] += w
        g[j, j] += w
    return g


def test_laplacian_keeps_the_loop_summation_order():
    # repeated pairs and high-degree nodes make the floating-point sums order
    # dependent, so equality here pins the order the golden files rely on
    rng = np.random.default_rng(11)
    for _ in range(40):
        size = int(rng.integers(2, 12))
        m = int(rng.integers(0, 60))
        branches = []
        for _ in range(m):
            i, j = rng.choice(size, 2, replace=False)
            branches.append((int(i), int(j), float(rng.uniform(0.01, 10.0) ** rng.choice([1, 3]))))
        branches += branches[: m // 3]  # parallel copies of earlier branches
        assert np.array_equal(_laplacian(size, *_columns(branches)), _loop_laplacian(size, branches))
    assert np.array_equal(_laplacian(3, *_columns([])), np.zeros((3, 3)))
    # the perfbench OPF networks: 17 dense (35 buses) and 17 grid-like (50 buses)
    for seed in range(17):
        for n, p in ((35, 0.35), (50, 0.022)):
            net = generate_random_network(seed, n, p)
            want = _loop_laplacian(n, [(ln.from_bus, ln.to_bus, ln.susceptance) for ln in net.lines])
            assert np.array_equal(build_b_matrix(net), want)


# ---------------------------------------------------------------------------
# LP assembly
# ---------------------------------------------------------------------------

def _assert_reference_blocks(opf, angle_rows):
    """``opf_lp_problem`` still writes the angle form's dense blocks: the
    location matrix ``[I, -I]``, the bound rows ``[I; -I]`` with rhs
    ``[lower, -upper]``, and the limited lines' angle rows with rhs ``d``."""
    n, eye = opf.n, np.eye(opf.n)
    prob = opf_lp_problem(opf, 0)
    assert np.array_equal(prob.a_eq[:n, :2 * n], np.hstack([eye, -eye]))
    assert np.array_equal(prob.a_ge[:4 * n, :2 * n], np.vstack([np.eye(2 * n), -np.eye(2 * n)]))
    assert np.array_equal(prob.b_ge[:4 * n], np.concatenate([opf.lower, -opf.upper]))
    assert np.array_equal(prob.a_ge[4 * n:, 2 * n:], np.reshape(angle_rows, (-1, n)))
    assert np.array_equal(prob.b_ge[4 * n:], opf.d)
    return prob.a_ge[4 * n:, 2 * n:]


def test_assemble_dense_location_matrix_and_costs():
    # generators at every bus, price-responsive load at the third bus
    net = Network(
        buses=[Bus(0), Bus(1), Bus(2, 12.0)],
        lines=[Line(0, 1, 1.0), Line(0, 2, 1.0), Line(1, 2, 1.0)],
        injectors=[
            Injector(0, "generator", 1.0, 0.0, 10.0),
            Injector(1, "generator", 2.0, 0.0, 10.0),
            Injector(2, "generator", 3.0, 0.0, 10.0),
            Injector(2, "load", 6.0, 0.0, 5.0),
        ],
    )
    opf = assemble_lp(net)
    assert np.array_equal(opf.c, [1.0, 2.0, 3.0, 0.0, 0.0, -6.0])
    assert np.array_equal(opf.a, [0.0, 0.0, 12.0])
    # bounds: load at bus 2 capped at 5, absent slots pinned to zero
    assert np.array_equal(opf.lower, [0.0] * 6)
    assert np.array_equal(opf.upper, [10.0, 10.0, 10.0, 0.0, 0.0, 5.0])
    assert opf.d.size == 0 and opf.ends[0].size == opf.ends[1].size == 0
    _assert_reference_blocks(opf, [])


def test_assemble_no_limits_empty_angle_block():
    opf = assemble_lp(triangle())
    assert opf.d.size == 0 and opf.limited_lines == ()
    assert opf.ends[0].dtype == opf.ends[1].dtype == np.intp
    assert opf.ends[0].size == opf.ends[1].size == 0
    assert np.array_equal(opf.lower, np.zeros(6))
    assert np.array_equal(opf.upper, [100.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(opf.c, [5.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    _assert_reference_blocks(opf, [])


def test_assemble_limited_line_rows_are_unit_entries():
    net = Network(
        buses=[Bus(0), Bus(1, 4.0), Bus(2)],
        lines=[Line(0, 1, 2.0, 10.0), Line(0, 2, 1.0), Line(1, 2, 1.0)],
        injectors=[Injector(0, "generator", 5.0, 0.0, 100.0)],
    )
    opf = assemble_lp(net)
    assert opf.limited_lines == (0,)
    assert np.array_equal(opf.ends[0], [0]) and np.array_equal(opf.ends[1], [1])
    assert np.array_equal(opf.d, [-5.0, -5.0])
    assert np.array_equal(opf.c, [5.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(opf.lower, np.zeros(6))
    assert np.array_equal(opf.upper, [100.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    angles = _assert_reference_blocks(opf, [[1, -1, 0], [-1, 1, 0]])
    # at either bound the MW flow b*(theta_j - theta_i) sits exactly at +/-10
    frm, to = opf.ends[0][0], opf.ends[1][0]
    for row, sign in ((0, +1), (1, -1)):
        theta = np.zeros(3)
        theta[0] = opf.d[row] if sign > 0 else 0.0
        theta[1] = 0.0 if sign > 0 else opf.d[row]
        assert angles[row] @ theta == pytest.approx(opf.d[row])
        assert sign * (theta[frm] - theta[to]) == pytest.approx(opf.d[row])
        assert 2.0 * (theta[1] - theta[0]) == pytest.approx(sign * 10.0)


def test_assemble_once_per_network_and_read_only():
    net = generate_random_network(2, 8, 0.4)
    opf = assemble_lp(net)
    assert assemble_lp(net) is opf
    assert solve_opf(net) is not None and assemble_lp(net) is opf
    assert assemble_lp(generate_random_network(2, 8, 0.4)) is not opf
    # c, lower, upper, B, a, d, the two limited-line ends, and the inverse the
    # solve kept with them
    arrays = [v for v in vars(opf).values() if isinstance(v, np.ndarray)] + list(opf.ends)
    assert len(arrays) == 9
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 1
    # nothing but the Laplacian and its inverse is quadratic in the buses
    n, lines = net.n, len(opf.limited_lines)
    assert lines > 0
    assert {id(arr) for arr in arrays if arr.size > 4 * n + 2 * lines} == {id(opf.B), id(opf.X)}


def _inverse_spy(monkeypatch) -> list[tuple[int, int]]:
    """The shape of every matrix ``lp._inverse`` inverts."""
    shapes, inverse = [], lp._inverse
    monkeypatch.setattr(lp, "_inverse", lambda a: shapes.append(a.shape) or inverse(a))
    return shapes


def _bits(sol) -> dict:
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(sol).items()}


def test_reduced_laplacian_inverted_once_per_network(monkeypatch):
    net = generate_random_network(2, 8, 0.4)
    shapes = _inverse_spy(monkeypatch)
    first = solve_opf(net)
    again = solve_opf(net)
    moved = solve_opf(net, ref_bus=net.n - 1)
    assert verify_optimality(net, moved).all_passed
    # one Laplacian-sized inverse; the others are the three final bases
    assert shapes.count((net.n - 1, net.n - 1)) == 1 and len(shapes) == 4
    x = assemble_lp(net).X
    assert assemble_lp(net).X is x and not x.flags.writeable
    with pytest.raises(ValueError):
        x[1, 1] = 0.0
    assert not x[0].any() and not x[:, 0].any()
    assert np.allclose((x[1:, 1:, None] * assemble_lp(net).B[None, 1:, 1:]).sum(axis=1), np.eye(net.n - 1))
    # a repeated and a re-referenced solve have the first solve's bits, and so
    # does a solve of the same network built afresh
    assert _bits(again) == _bits(first) == _bits(solve_opf(generate_random_network(2, 8, 0.4)))
    assert _bits(moved) == {**_bits(first), "theta": (first.theta - first.theta[-1]).tobytes()}


def test_raising_inversion_keeps_nothing(monkeypatch):
    net = generate_random_network(2, 8, 0.4)
    opf = assemble_lp(net)

    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    with monkeypatch.context() as mp:
        mp.setattr(lp, "_inverse", singular)
        for _ in range(2):
            with pytest.raises(OpfNumerical, match="^singular reduced susceptance Laplacian$"):
                solve_opf(net)
            assert "X" not in vars(opf)
    # the next good inversion is kept
    shapes = _inverse_spy(monkeypatch)
    solve_opf(net)
    solve_opf(net)
    assert "X" in vars(opf) and shapes.count((net.n - 1, net.n - 1)) == 1


def test_balance_residual_matches_edge_by_edge_computation():
    rng = np.random.default_rng(7)
    for seed in range(6):
        net = generate_random_network(seed, 8, 0.4)
        opf = assemble_lp(net)
        p = rng.normal(size=16)
        theta = rng.normal(size=8)
        fast = balance_residual(opf, p, theta)
        slow = np.zeros(8)
        for i in range(8):
            gen, load = p[i], p[8 + i]
            slow[i] = gen - load - net.buses[i].fixed_demand
        for ln in net.lines:
            flow_out = ln.susceptance * (theta[ln.from_bus] - theta[ln.to_bus])
            slow[ln.from_bus] += flow_out
            slow[ln.to_bus] -= flow_out
        assert np.abs(fast - slow).max() < 1e-10


# ---------------------------------------------------------------------------
# random generator
# ---------------------------------------------------------------------------

def test_generator_deterministic():
    a = generate_random_network(1, 5, 0.5)
    b = generate_random_network(1, 5, 0.5)
    assert network_to_doc(a) == network_to_doc(b)


def test_generator_connected_and_meshed():
    for seed in range(12):
        net = generate_random_network(seed, 3 + seed % 9, 0.3)
        assert net.is_connected()
        assert len(net.lines) >= net.n  # contains a cycle


def test_generator_produces_feasible_opf():
    net = generate_random_network(2, 7, 0.4)
    sol = solve_opf(net)
    total_cap = sum(i.p_max for i in net.injectors if i.kind == "generator")
    assert total_cap >= net.fixed_demand.sum()
    assert sol.objective is not None


def test_generator_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_random_network(0, 2, 0.5)
    with pytest.raises(ValueError):
        generate_random_network(0, 5, 0.0)


# ---------------------------------------------------------------------------
# invariant enforcement
# ---------------------------------------------------------------------------

def test_rejects_parallel_lines():
    with pytest.raises(NetworkError, match="parallel"):
        Network([Bus(0), Bus(1, 1.0)],
                [Line(0, 1, 1.0), Line(1, 0, 2.0)],
                [Injector(0, "generator", 1.0, 0.0, 5.0)])


def test_rejects_duplicate_injector_slot():
    with pytest.raises(NetworkError, match="already has"):
        Network([Bus(0), Bus(1, 1.0)], [Line(0, 1, 1.0)],
                [Injector(0, "generator", 1.0, 0.0, 5.0),
                 Injector(0, "generator", 2.0, 0.0, 5.0)])


def test_rejects_disconnected_graph():
    with pytest.raises(NetworkError, match="connected"):
        Network([Bus(0), Bus(1), Bus(2), Bus(3, 1.0)],
                [Line(0, 1, 1.0), Line(2, 3, 1.0)],
                [Injector(0, "generator", 1.0, 0.0, 5.0)])


def test_rejects_bad_scalars():
    with pytest.raises(NetworkError, match="susceptance"):
        Network([Bus(0), Bus(1, 1.0)], [Line(0, 1, -1.0)],
                [Injector(0, "generator", 1.0, 0.0, 5.0)])
    with pytest.raises(NetworkError, match="flow_limit"):
        Network([Bus(0), Bus(1, 1.0)], [Line(0, 1, 1.0, 0.0)],
                [Injector(0, "generator", 1.0, 0.0, 5.0)])
    with pytest.raises(NetworkError, match="p_min"):
        Network([Bus(0), Bus(1, 1.0)], [Line(0, 1, 1.0)],
                [Injector(0, "generator", 1.0, 3.0, 2.0)])
    with pytest.raises(NetworkError, match="fixed_demand"):
        Network([Bus(0), Bus(1, -1.0)], [Line(0, 1, 1.0)],
                [Injector(0, "generator", 1.0, 0.0, 5.0)])


def test_rejects_bad_bus_ids():
    with pytest.raises(NetworkError, match="bus ids"):
        Network([Bus(0), Bus(2, 1.0)], [Line(0, 1, 1.0)],
                [Injector(0, "generator", 1.0, 0.0, 5.0)])


def test_rejects_no_injectors():
    with pytest.raises(NetworkError, match="no injectors"):
        Network([Bus(0), Bus(1, 1.0)], [Line(0, 1, 1.0)], [])


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_roundtrip_through_doc(fig1_net):
    doc = network_to_doc(fig1_net)
    again = parse_network(json.loads(json.dumps(doc)))
    assert network_to_doc(again) == doc


def test_unknown_keys_rejected():
    doc = network_to_doc(triangle())
    doc["buses"][0]["voltage"] = 1.0
    with pytest.raises(SchemaError, match="unknown key"):
        parse_network(doc)
    doc = network_to_doc(triangle())
    doc["extra"] = {}
    with pytest.raises(SchemaError, match="unknown key"):
        parse_network(doc)


def test_schema_type_errors():
    doc = network_to_doc(triangle())
    doc["buses"][0]["id"] = "zero"
    with pytest.raises(SchemaError, match="id must be an integer"):
        parse_network(doc)
    doc = network_to_doc(triangle())
    doc["injectors"][0]["kind"] = "storage"
    with pytest.raises(SchemaError, match="kind"):
        parse_network(doc)
    doc = network_to_doc(triangle())
    doc["lines"][0]["susceptance"] = True
    with pytest.raises(SchemaError, match="susceptance"):
        parse_network(doc)
