import hashlib
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


# SHA-256 of json.dumps(network_to_doc(generate_random_network(seed, n, p)))
# for seeds 0, 1, ...: the 17 + 17 networks perfbench's opf_dense and opf_grid
# solve, and tree-only draws that take the forced-chord branch
GENERATOR_SHA256 = {
    (35, 0.35): [
        "add885a21a4b89ff4efdb0b8d79e7415761664d2b15c81356c5e268da1971245",
        "a6f312dead9048b1bb5628e175155eb960cb91b55be5d5d55b98488a4aab885f",
        "2f27dbbd2d3ee68c99823b2dd96ceb9e0567fd6673a008e2e3705f62341f0d17",
        "6ff209d6cbb6f0a4e71a0aa4f139e2c9b5a8d9a793503b62a87669042f155ba3",
        "489d4602c4cb6a9265dfcef13f435b2c370879582817c388bb1b9bbb8636a1dd",
        "6aeebaa49eea7ff1ce8bc4ae8da772f7a92f0959e50465dbfb5d5f98d5fabd1e",
        "b08a5b4404a90dae57dd04e2f3ad255264b62d399c8195c31f5d921b7ac91332",
        "98d8f9d78abab67ebb3b0a3227cca8548089b8360859ef88155f37aa950cf256",
        "520918b38a01e6ebd87f2c869462f8736d6c91e81ec2964c0a88baf63d968dd6",
        "6a3a8f7842203774b84e7e678b7d71986936acebb30773a1a05b8deee1ef83f1",
        "a2b2c159380f320299d519957d0f19f421d08cf3ad09a9e9ebdf00b6cb9cdee4",
        "12ee429542db4c4d8237f4d078ffcb61621bc33f9d43001305f3b97261376c6a",
        "bcc60857366d3ce6d847ee48cc89c9d8615d05dec5b10577a03469d632d55ea3",
        "999968a241b8a34cbd45d0943b831f629a6cb2b086188db6fd187cea071a7a02",
        "aafc1318598e65bf2c273c9141b863a41128e4e7a4e8b274712dd38237ddaf85",
        "4eafda08a32a29d2ad4980a9b16f8148739d9742435d222d4a99aaa2feee2318",
        "94e2a830dd4a33bda7331b2b3f46f2ed38cf8741218119e81f62a9e3361dbf03",
    ],
    (50, 0.022): [
        "4ec49f9a683f1d1c58f5b7a2f16a28da90e2fd1cfbce34ef35b7de25854abb1d",
        "e4afdc7e03fa8f8bfe4546cf05dfc181013dea4c6fc5757035bc21b994b7c9ad",
        "ca80d6bcd1a44f4af8e49d58daf1cb65bd11cbacb129cffa58ae32f03b51ecfd",
        "49e4796f6ac0574f9d3162f43c6b94d0d5c25871e4d8d7454752dacc1b9ab002",
        "e7834eecda3e3e94326828747425e56c5ef0b390b5519ecca963d6d8b5c5434d",
        "a16199663cd560dc998ae876689c757fa4db46f61f1f5eb4ed713df5b3138673",
        "f571e74441632ab12432fa9ea9b6644494e1e549170a00abfe0ee7e6fcc08689",
        "fa566b90e5059d9a7b3f8d62e0e7fdc30c60239fb253fea583ae5d9348eb2ed2",
        "57bb0aff3f28b5d70edb3637729dfab14d8f9ab4f6d3a9b62fc3029e420f68e3",
        "488d5dc0139ac1c205a0f4457e1eefa906f40fb12984c079a5e2ad243e18debe",
        "49aa7221bb5915e35968b02a213a280c0aec1ad40d531342f0c1928c9af7c952",
        "4d3cab90859b2a42cdb08ff187bb3944f65e63abb471ef99b12df8fee2dc5740",
        "d7c6466b6acfe5a43b8e09c4474d03c20c3f63c9809f688ad6c85be4f05cf8d5",
        "c944f3224569a799fe426c3ca83d0e952dc34b7b3e38cf40147ef80831e46ab0",
        "82db38b51433f4d04dde50eb9b4eda4951d5ca52a44d92050dc605216885e96c",
        "5b4506cff89417e99ec047c5ce29525c532707150a679decfc5b4d84eec40483",
        "aaef907d8abd48e0177d9b5e13d91b0369de4b33f6f457bf848c52248ccecf9f",
    ],
    (3, 0.01): [
        "c4a44c20d41774c8590f981638ecd4f28091db0cd961c5e27f9eab455c68d9a2",
        "f95694af8fbf77853eab8663e25f8ecbfd2e2a5845e696e3d78ca62a27554408",
        "2d0dd167d51f7426c5e20e53a17dcec9fc0d791a505a8e2c35bc0d53564156ab",
        "d259f062380fc4c0ff3d7f1a78dd5340b257068eb3b94776bd6f5e2aae6d4ac9",
    ],
}


def test_generator_bytes_are_pinned():
    for (n, edge_prob), digests in GENERATOR_SHA256.items():
        for seed, want in enumerate(digests):
            text = json.dumps(network_to_doc(generate_random_network(seed, n, edge_prob)))
            assert hashlib.sha256(text.encode()).hexdigest() == want, (seed, n, edge_prob)


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
