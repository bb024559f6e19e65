"""reports.dumps against the serializer it replaced, and the round9 contract.

The oracle is the old pair: round every float with ``round9`` (numpy ints to
int), then ``json.dumps(indent=2)`` plus a newline. ``dumps`` must write the
same bytes for every document, and raise ``TypeError`` where it did.
"""

import enum
import gc
import json
import math
import tracemalloc
from collections import OrderedDict, namedtuple

import numpy as np
import pytest

from lmpcirc import (LimitedInfo, build_circuit, congestion_impact, generate_random_network, network_to_doc,
                     predict_negative_prices, recover_lmps, solve_circuit, solve_opf)
from lmpcirc import circuit, kvl_loop_sums, network, reports
from lmpcirc.reports import dumps, round9


def _rounded(doc):
    if isinstance(doc, np.ndarray):
        return _rounded(doc.tolist())
    if isinstance(doc, dict):
        return {k: _rounded(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_rounded(v) for v in doc]
    if isinstance(doc, (np.floating, float)):
        return round9(float(doc))
    if isinstance(doc, np.integer):
        return int(doc)
    return doc


def oracle(doc) -> str:
    return json.dumps(_rounded(doc), indent=2) + "\n"


def assert_same(doc):
    want = oracle(doc)
    assert dumps(doc) == want


EDGES = [
    0.0, -0.0, 1e-12, -1e-12, 9.9999999e-13, -9.9999999e-13,
    float(np.nextafter(1e-12, 0)), float(np.nextafter(1e-12, 1)), 9.999999995e-13,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.5e-5, 1e-4, 9.9999999995e-5,
    1.0, -1.0, 123.0, -7.0, 0.5, 2.5, 122.99999999999, 123456788.5, 123456789.5,
    999999999.0, 999999999.4, 999999999.5, 999999999.6, 1e9, -1e9, 1e9 + 0.5, 2e9,
    1234567891.0, 9.9999999949e14, 1e15, 1.5e15, 9999999999999998.0, 1e16, -1e16,
    1.0000000049e16, 1e17, 1.234567891e17, 2.0 ** 53, 1e20, 1e300, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"),
]


def random_floats(rng, size):
    """Magnitudes spread over 10**-320 .. 10**20 (subnormals included), both signs."""
    mags = 10.0 ** rng.uniform(-320, 20, size)
    return (mags * rng.choice([-1.0, 1.0], size)).tolist()


# ---------------------------------------------------------------------------
# floats
# ---------------------------------------------------------------------------

def test_random_floats_match_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        row = random_floats(rng, 500)
        assert_same(row)
        assert_same({"row": row, "scalars": {str(i): x for i, x in enumerate(row[:50])}})
        assert_same([np.float64(x) for x in row[:50]] + row[50:100])


def test_edge_floats_match_oracle():
    assert_same(EDGES)
    assert_same([-x for x in EDGES])
    assert_same({str(i): x for i, x in enumerate(EDGES)})
    assert_same([[x] for x in EDGES])
    rng = np.random.default_rng(1)
    assert_same([float(x) for x in rng.permutation(EDGES * 3)])


def test_values_near_format_switches_match_oracle():
    """Every decade, integral or not, around the %g / repr thresholds."""
    digits = [1.0, 1.5, 9.99999999, 9.999999994, 9.999999995, 9.999999996, 1.0000000005,
              1.00000000049, 3.0, 7.25]
    row = [d * 10.0 ** e for e in range(-15, 21) for d in digits]
    assert_same(row)
    assert_same([-x for x in row])
    assert_same([math.floor(x) + 0.0 for x in row])
    assert_same([x + 0.5 for x in row])


def _fractions(rng, size):
    """Plain fractions: every %.9g token has a point and no exponent."""
    return rng.uniform(-1000.0, 1000.0, size).tolist()


def _row_fast_path_cases():
    rng = np.random.default_rng(12)
    f = _fractions(rng, 400)
    yield [0.0] * 400
    yield [0.0]
    yield [0.0, 0.0]
    yield [0.0 if k % 2 else x for k, x in enumerate(f)]          # zeros at odd places
    yield [x if k % 2 else 0.0 for k, x in enumerate(f)]          # zeros at both ends
    yield [0.0 if k % 5 in (1, 2) else x for k, x in enumerate(f)]        # two in a row
    yield [0.0 if k % 7 in (0, 1, 2) else x for k, x in enumerate(f)]     # three in a row
    yield [0.0, 0.0, 0.0] + f[:10] + [0.0, 0.0]
    yield f[:5] + [0.0, 0.0, 0.0]
    yield [-0.0] + f[:5] + [-0.0, 0.0, -0.0]
    yield [-0.0] * 10
    yield [0.0, -0.0] + f[:5]
    yield f[:10] + [1.0, -2.0, 10.0, 100.0, 123456789.0, 0.0]
    yield [3.0] + f[:10]
    yield f[:10] + [1e-13, -5e-15, 9.9999999e-13, 0.0] + f[10:20]
    for special in (1.5e-05, -2e-07, 1e20, 1.5e16, 1e-13, 2e9, 7.0, float("nan"), float("inf"),
                    float("-inf")):
        for at in (0, 200, 399):
            yield f[:at] + [special] + f[at + 1:]


def test_row_fast_path_matches_oracle():
    for row in _row_fast_path_cases():
        assert_same(row)
        assert_same({"a": {"b": row}, "c": [[row, 1.5]]})  # other indentations
        assert_same(tuple(row))


def test_row_of_fractions_and_zeros_is_written_in_one_pass(monkeypatch):
    # a row's one %.9g pass is its text unless a token json writes
    # differently sends the row's tokens through _json_token one by one
    calls = []
    mend = reports._json_token
    monkeypatch.setattr(reports, "_json_token", lambda token: calls.append(token) or mend(token))
    rng = np.random.default_rng(13)
    f = _fractions(rng, 400)
    for row in ([0.0] * 400, [0.0] + f + [0.0, 0.0], f):
        assert_same(row)
        assert_same(np.array(row))
    assert calls == []
    assert_same(f + [-0.0])
    assert len(calls) == 401 and calls[-1] == "-0"


def test_small_rows_and_single_values():
    for x in EDGES:
        assert_same([x])
        assert_same(x)
        assert_same({"v": x})


# %.9g writes e-05 to e-12 as json does; every other exponent, and an
# integral value, json writes differently
EXPONENTS = [1e-12, 9.99999999e-13, 1e-05, 1.5e-05, -1e-07, 1e+16, 123456789.5]


def test_exponent_tokens_match_oracle():
    rng = np.random.default_rng(15)
    f = _fractions(rng, 40)
    for x in EXPONENTS + [-x for x in EXPONENTS]:
        assert_same(x)
        for at in (0, 17, 39):
            row = f[:at] + [x] + f[at + 1:]
            assert_same(row)
            assert_same([{"v": x, "row": row}, {"v": 0.5, "row": [x]}])
    assert_same(EXPONENTS)
    assert_same([[x, 0.0, x] for x in EXPONENTS])


def test_only_tokens_json_writes_differently_split_a_row(monkeypatch):
    calls = []
    mend = reports._json_token
    monkeypatch.setattr(reports, "_json_token", lambda token: calls.append(token) or mend(token))
    rng = np.random.default_rng(16)
    f = _fractions(rng, 50)
    alike = [1e-12, 1e-05, 1.5e-05, -1e-07, 2.5e-09, -9.87654321e-11, 0.0]
    for row in (f[:10] + alike + f[10:], alike, [1e-05] * 3):
        assert_same(row)
        assert_same(np.array(row))
        assert_same([{"a": x, "b": [x, x]} for x in row])
    assert calls == []
    for odd in (9.99999999e-13, 1e+16, 123456789.5, 1e-100, -0.0, 3.0, float("nan"), float("-inf")):
        calls.clear()
        assert_same(f + [odd] + alike)
        assert len(calls) == len(f) + 1 + len(alike)


# ---------------------------------------------------------------------------
# lists of records, written column by column
# ---------------------------------------------------------------------------

def _by_columns(rows) -> bool:
    """Whether ``dumps(rows)`` writes ``rows`` by their columns, which must
    then write json's text of them; otherwise the columns must leave them to
    the walk untouched."""
    took = []
    records = reports._records

    def spy(x, nl, out):
        size = len(out)
        took.append(records(x, nl, out))
        if x is rows:
            assert "".join(out[size:]) + "\n" == oracle(rows) if took[-1] else len(out) == size
        return took[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "_records", spy)
        assert dumps(rows) == oracle(rows)
    return bool(took) and took[0]


def _random_value(rng, kind):
    if kind == "float":
        return float(rng.choice(EDGES)) if rng.random() < 0.2 else random_floats(rng, 1)[0]
    if kind == "int":
        return int(rng.integers(-10 ** 6, 10 ** 6))
    if kind == "bool":
        return bool(rng.random() < 0.5)
    if kind == "str":
        return "".join(rng.choice(list("ab\"\\%\n\x00é☃ 0"), size=int(rng.integers(0, 6))))
    return [_random_value(rng, kind[:-1]) for _ in range(int(rng.integers(0, 5)))]


def _random_records(rng):
    kinds = ["float", "int", "bool", "str", "floats", "ints", "bools", "strs"]
    keys = [f"k{j}%s" if j % 3 == 2 else f"k{j}" for j in range(int(rng.integers(1, 7)))]
    column_kinds = [str(rng.choice(kinds)) for _ in keys]
    return [{k: _random_value(rng, kind) for k, kind in zip(keys, column_kinds)}
            for _ in range(int(rng.integers(1, 30)))]


def test_random_records_are_written_by_columns():
    rng = np.random.default_rng(17)
    for _ in range(300):
        rows = _random_records(rng)
        assert _by_columns(rows)
        assert_same(rows)
        assert_same({"a": [rows, {"b": rows}], "c": tuple(rows)})


def _record_cases():
    """(rows, whether the columns write them)."""
    nan, inf = float("nan"), float("inf")
    yield [{"a": 1, "b": 2.5}, {"a": 3}], False                       # ragged keys
    yield [{"a": 1, "b": 2.5}, {"a": 3, "b": 0.5, "c": 1}], False
    yield [{"a": 1, "b": 2.5}, {"b": 0.5, "a": 3}], False             # reordered keys
    yield [{1: 0.5}, {1: 0.25}], False                                # int keys
    yield [{"a": 0.5, 2: 0.25}], False
    yield [{"a": 0.5, "b": [1, 2], "c": "x", "d": False}], True       # a single record
    yield [{}], False                                                 # empty dicts
    yield [{}, {}], False
    yield [{"a": 1}, {}], False
    yield [{"a": None}, {"a": None}], False                           # None values
    yield [{"a": 1.5}, {"a": None}], False
    yield [{"a": [1.5, None]}], False
    yield [{"a": 1}, {"a": 1.5}], False                               # mixed int and float
    yield [{"a": [1, 2]}, {"a": [1.5]}], False
    yield [{"a": True}, {"a": 1}], False                              # mixed bool and int
    yield [{"a": [True, 0]}], False
    yield [{"a": np.float64(1.5)}, {"a": np.float64(2.5)}], False     # numpy scalars
    yield [{"a": np.int64(1)}, {"a": 2}], False
    yield [{"a": [np.float64(0.5), 1.5]}], False
    yield [{"a": np.array([0.5, 1.5])}], False
    yield [{"a": (0.5, 1.5)}, {"a": (2.5,)}], True                    # tuples
    yield [{"a": (0.5, 1.5)}, {"a": [2.5]}], False
    yield ({"a": 1, "b": (2, 3)}, {"a": 4, "b": ()}), True
    yield [{"a": [], "b": 1}, {"a": [0.5, -0.0], "b": 2}, {"a": [], "b": 3}], True   # empty cells
    yield [{"a": []}, {"a": ()}], False
    yield [{"a": []}, {"a": []}], True
    yield [{"a": [[1.5]]}, {"a": [[2.5]]}], False                      # nested cells
    yield [{"a": [{"b": 1.5}]}], False
    yield [{"a": {"b": 1.5}}], False
    yield [{"a": -0.0, "b": [nan, -0.0, inf, -inf]}, {"a": -inf, "b": [1e-13, 2e9]}], True
    yield [{"a": nan}, {"a": inf}, {"a": 0.0}, {"a": -0.0}], True
    yield [{"%s": 1.5, 'q"%%\n': "x\n", "é\x00": ["%d", "\x00"]}], True
    yield [{"a": "x", "b": [True, False]}, {"a": "y", "b": []}], True
    yield [{"a": Tagged("x")}], False                                 # subclasses
    yield [{"a": Price(0.5)}], False
    yield [OrderedDict(a=1)], False
    yield [{Tagged("a"): 1}], False


def test_record_cases_match_oracle_or_fall_back():
    for rows, by_columns in _record_cases():
        assert _by_columns(rows) is by_columns, rows
        assert_same(rows)
        assert_same({"x": rows, "y": [rows, (rows, 1.5)]})


def test_records_nested_at_several_depths_match_oracle():
    rng = np.random.default_rng(18)
    inner = _random_records(rng)
    doc = {"top": inner, "a": {"b": {"c": [inner, {"d": inner}]}},
           "outer": [{"name": "x", "rows": inner}, {"name": "y", "rows": inner[:1]}]}
    seen = []
    records = reports._records
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "_records", lambda rows, nl, out: seen.append(records(rows, nl, out)) or seen[-1])
        assert_same(doc)
    # the outer records hold lists of records, which the walk writes, each by its columns
    assert seen.count(False) == 1 and seen.count(True) == 5


def test_records_are_written_with_no_container_per_record():
    # the cyclic collector runs after 700 net container allocations; a
    # container kept per record while the list is written would set it off
    rows = [{"node": i, "flows": [0.5, 1.5 * i], "total": 0.25, "passed": True} for i in range(3000)]
    assert _by_columns(rows)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        dumps(rows)
    finally:
        gc.callbacks.remove(count)
    assert starts == []


def test_report_records_are_written_by_columns(corpus200):
    net, sol = corpus200[0]
    circ = build_circuit(net, sol)
    for doc in (reports.solution_doc(net, sol), reports.check_doc(net, sol, 1e-7), reports.circuit_doc(circ),
                reports.superpose_doc(circ, congestion_impact(circ))):
        for key, value in doc.items():
            if isinstance(value, list) and value and isinstance(value[0], dict):
                assert _by_columns(value), key


# ---------------------------------------------------------------------------
# other types and shapes
# ---------------------------------------------------------------------------

def test_numpy_scalars_bools_ints_none_match_oracle():
    doc = {
        "f32": np.float32(0.1),
        "f32_row": [np.float32(x) for x in (0.1, 1e-13, 3.0, 1e10, -2.5)],
        "f64": np.float64(2.5e-7),
        "i64": np.int64(-12),
        "i_row": [np.int64(3), np.int32(4), 5],
        "ints": [0, -1, 2 ** 70, 17],
        "bools": [True, False],
        "mixed": [True, 1, 1.0, None, "x", np.int64(2), np.float64(2.0), 0.1],
        "none": None,
        "flag": False,
        "big": 10 ** 30,
    }
    assert_same(doc)


def test_empty_containers_tuples_and_nesting_match_oracle():
    doc = {
        "empty_list": [],
        "empty_dict": {},
        "empty_tuple": (),
        "nested_empty": [[], {}, [[]], [{}]],
        "tuple": (1, 2.5, (3.0, "a"), ()),
        "rows": ((0.1, 0.2), [0.3, 4.0], (), [1e-13]),
        "deep": {"a": {"b": {"c": [{"d": [1.25, {"e": ()}]}]}}},
    }
    assert_same(doc)
    assert_same([])
    assert_same({})
    assert_same("top-level string")


def test_escaped_strings_and_keys_match_oracle():
    doc = {
        'quote " backslash \\ newline \n tab \t': "ctrl \x01 \x1f del \x7f",
        "unicode é ☃ \U0001f600": ["é", " ", "\ud800"],
        "": "",
        1: "int key",
        2.5: "float key",
        float("nan"): "nan key",
        False: "bool key",
        None: "none key",
    }
    assert_same(doc)


@pytest.mark.parametrize("bad", [np.bool_(True), {1, 2}, object()], ids=["np.bool_", "set", "object"])
def test_refused_types_still_raise(bad):
    for doc in (bad, [bad], [1.0, bad], {"k": bad}, (0, {"k": [bad]})):
        with pytest.raises(TypeError):
            oracle(doc)
        with pytest.raises(TypeError):
            dumps(doc)


def _array_cases():
    rng = np.random.default_rng(14)
    delta = _large_recover_delta_doc()["delta"][:40, :60]
    frozen = rng.uniform(-5.0, 5.0, (4, 6))
    frozen.flags.writeable = False
    yield delta
    yield delta[3]
    yield delta[:, ::3]                       # non-contiguous rows
    yield delta[::7, 5]                       # a non-contiguous column
    yield delta.T                             # a transposed view
    yield frozen
    yield frozen[1]
    yield np.empty(0)
    yield np.empty((0, 3))
    yield np.empty((3, 0))
    yield np.zeros((2, 3, 4))
    yield np.array(2.5)                       # 0-d: a scalar, as tolist() gives it
    yield np.array(EDGES)
    yield -np.array(EDGES)
    yield np.array(EDGES).reshape(5, 10)
    yield np.array(random_floats(rng, 500))
    yield np.array(random_floats(rng, 600)).reshape(20, 30)
    yield np.array([0.0, -0.0, 0.0, 3.5, -0.0])
    yield rng.integers(-10 ** 12, 10 ** 12, 50)
    yield rng.integers(-5, 5, (3, 4)).astype(np.int32)
    yield rng.random(20) < 0.5
    with np.errstate(over="ignore"):         # EDGES past float32's range become inf
        edges32 = np.array(EDGES).astype(np.float32)
    yield edges32
    yield rng.uniform(-1e3, 1e3, (3, 5)).astype(np.float32)


def test_arrays_are_written_as_their_tolist():
    for a in _array_cases():
        assert dumps(a) == dumps(a.tolist())
        assert_same(a)
        assert_same({"a": a, "b": [a, {"c": (a, 1.5)}]})
        assert_same([a, a.tolist()])


@pytest.mark.parametrize("key", [(1, 2), np.int64(3), frozenset()], ids=["tuple", "np.int64", "frozenset"])
def test_refused_keys_still_raise(key):
    with pytest.raises(TypeError):
        oracle({key: 1})
    with pytest.raises(TypeError):
        dumps({key: 1})


class Code(enum.IntEnum):
    A = 1
    B = -7


class Tagged(str):
    def __str__(self):
        return "not " + self


class Price(float):
    def __repr__(self):
        return "Price()"


Pair = namedtuple("Pair", "lo hi")


def test_subclasses_as_values_and_keys_match_oracle():
    doc = {
        "ordered": OrderedDict([("z", 1.25), ("a", [0.5, 3.0]), ("m", OrderedDict())]),
        "pair": Pair(0.1, Pair(2.0, "x")),
        "pairs": [Pair(1.5, -2.5), Pair(3, 4)],
        "code": Code.A,
        "codes": [Code.A, Code.B, 3],
        "price": Price(123456789.5),
        "prices": [Price(0.1), 0.2, Price(1e-13), Price(2e9)],
        "tagged": Tagged("t \x00 \u2603"),
        "tagged_row": [Tagged("a"), "b"],
        Code.B: "int enum key",
        Price(2.5): "float subclass key",
        Price(float("inf")): "infinite float subclass key",
        Tagged("str subclass key \x00"): 0.75,
    }
    assert_same(doc)
    assert_same(OrderedDict([(Tagged("k"), Pair(1.0, 2.0))]))
    assert_same(Pair(0.1, 0.2))
    assert_same(Price(0.3))
    assert_same(Code.B)
    assert_same(Tagged("top"))


def test_nul_in_strings_and_keys_is_escaped_not_filled():
    doc = {
        "\x00": "\x00",
        "a\x00b": ["\x00\x00", 1.5, "\x00", 2.25],
        "nested": {"k\x00": {"\x00": 0.125, "v": "x\x00y"}, "f": 7.5},
        "row": [0.1, 0.2],
        "end": "\x00",
    }
    text = dumps(doc)
    assert "\x00" not in text
    assert text.count("\\u0000") == 10
    assert_same(doc)
    assert_same(["\x00", 3.5, {"\x00": 1e-13}])


def test_rows_mixing_float_and_numpy_float_match_oracle():
    rng = np.random.default_rng(5)
    row = random_floats(rng, 300)
    mixed = [np.float64(x) if k % 3 == 0 else x for k, x in enumerate(row)]
    assert_same(mixed)
    assert_same({"kcl": [{"inflows": [x, np.float64(y)], "outflows": [np.float64(x)]}
                         for x, y in zip(row[:100], row[100:200])]})
    assert_same([[np.float64(x), x] for x in EDGES])
    assert_same([np.float32(0.1), 0.1, np.float64(1e-13), 1e-13, np.float16(2.5)])


def test_thousands_of_scalar_floats_in_nested_dicts_match_oracle():
    rng = np.random.default_rng(9)
    values = random_floats(rng, 4000) + EDGES
    doc, it = {}, iter(values)
    for i in range(len(values) // 8):
        doc[f"node{i}"] = {
            "a": next(it), "b": {"c": next(it), "d": [next(it), "s", 1, {"e": next(it)}]},
            "row": [next(it), next(it)], "flag": i % 2 == 0, "f": next(it), "g": next(it),
        }
    doc["rest"] = {str(k): x for k, x in enumerate(it)}
    assert_same(doc)


def _large_recover_delta_doc():
    """test_large_recover_delta_matches_oracle's 400 x 400 document."""
    rng = np.random.default_rng(7)
    n = 400
    lines = [(i, (i + 1) % n, float(rng.uniform(1, 20))) for i in range(n)]
    lines += [(int(i), int(j), float(rng.uniform(1, 20)))
              for i, j in rng.integers(0, n, size=(600, 2)) if i != j]
    sources = [(lines[k][0], lines[k][1], float(rng.uniform(5, 300)))
               for k in rng.choice(len(lines), size=40, replace=False)]
    return reports.recover_doc(recover_lmps(LimitedInfo(n, tuple(lines), tuple(sources))))


def test_large_document_peak_memory_is_bounded():
    """Rows of floats are written row by row: no batch holds a token per
    float of the whole document, so the peak stays a small multiple of the
    output (the output itself counts once)."""
    doc = _large_recover_delta_doc()
    tracemalloc.start()
    try:
        text = dumps(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 3_000_000
    assert peak < 4 * len(text)


# ---------------------------------------------------------------------------
# every report kind
# ---------------------------------------------------------------------------

def test_every_report_kind_matches_oracle(corpus200):
    for net, sol in corpus200[:60]:
        assert_same(reports.solution_doc(net, sol))
        assert_same(reports.check_doc(net, sol, 1e-6))
        assert_same(network_to_doc(net))
        circ = build_circuit(net, sol)
        assert_same(reports.circuit_doc(circ))
        assert_same(reports.superpose_doc(circ, congestion_impact(circ)))
        neg = predict_negative_prices(circ, solve_circuit(circ))
        assert_same(reports.negative_doc(neg, sol.lmp))
        lines = tuple((l.from_bus, l.to_bus, l.susceptance) for l in net.lines)
        sources = tuple((s.from_node, s.to_node, s.amps) for s in circ.current_sources)
        full = recover_lmps(LimitedInfo(net.n, lines, sources, ground=circ.ground, offset=circ.offset))
        assert_same(reports.recover_doc(full))
        assert_same(reports.recover_doc(recover_lmps(LimitedInfo(net.n, lines, sources))))


def test_check_doc_walks_the_cycle_basis_once(monkeypatch):
    # a fresh network: its basis is walked on the first report and kept
    net = generate_random_network(21, 25, 0.35)
    sol = solve_opf(net)
    walk = network.fundamental_cycles
    walks = []

    def spy(n, edges):
        walks.append(n)
        return walk(n, edges)

    assert circuit.fundamental_cycles is walk   # circuit re-exports the one walk
    monkeypatch.setattr(network, "fundamental_cycles", spy)
    monkeypatch.setattr(circuit, "fundamental_cycles", spy)
    docs = [reports.check_doc(net, sol, 1e-7) for _ in range(4)]
    assert walks == [net.n] and len(set(map(dumps, docs))) == 1

    edges = [(ln.from_bus, ln.to_bus) for ln in net.lines]
    basis = network.cycle_basis(net)
    assert basis is network.cycle_basis(net) and walks == [net.n]
    assert basis == tuple(map(tuple, walk(net.n, edges))) and len(basis) == len(edges) - net.n + 1
    assert all(type(cycle) is tuple for cycle in basis)
    # the report's loops are kvl_loop_sums' over the lines, float for float
    assert [(l["loop"], l["terms"], l["total"]) for l in docs[0]["kvl"]] == [
        (list(l.nodes), list(l.terms), l.total) for l in kvl_loop_sums(edges, sol.lmp)]


def test_large_recover_delta_matches_oracle():
    rng = np.random.default_rng(7)
    n = 400
    lines = [(i, (i + 1) % n, float(rng.uniform(1, 20))) for i in range(n)]
    lines += [(int(i), int(j), float(rng.uniform(1, 20)))
              for i, j in rng.integers(0, n, size=(600, 2)) if i != j]
    sources = [(lines[k][0], lines[k][1], float(rng.uniform(5, 300)))
               for k in rng.choice(len(lines), size=40, replace=False)]
    doc = reports.recover_doc(recover_lmps(LimitedInfo(n, tuple(lines), tuple(sources))))
    assert len(doc["delta"]) == n
    assert_same(doc)


# ---------------------------------------------------------------------------
# text tables
# ---------------------------------------------------------------------------

def test_recover_text_keeps_long_cells_apart():
    # a 3-node triangle with one source: -0.0617283947 is 13 characters, wider
    # than a cell, and must still end before the next cell starts
    res = recover_lmps(LimitedInfo(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)), ((0, 1, 0.185185184),)))
    rows = reports.recover_text(res).splitlines()[2:]
    assert rows[2] == "2     0.0617283947 -0.0617283947 0"
    for i, row in enumerate(rows):
        cells = row.split()
        assert int(cells[0]) == i
        assert [float(v) for v in cells[1:]] == pytest.approx(res.delta[i], abs=1e-9)


def test_superpose_text_keeps_long_cells_apart():
    # a 28-character header cell and a 23-character source label are wider
    # than their cells, and each is still followed by a space
    sources = [
        {"from": 30, "to": 10, "amps": 31.6004851, "min_contribution": -1.5, "max_contribution": 2.0,
         "negative_buses": [1]},
        {"from": 130, "to": 145, "amps": 116.703482, "min_contribution": 0.0, "max_contribution": 3.0,
         "negative_buses": []},
    ]
    doc = {"sources": sources, "contributions": [[2.0, -1.5], [3.0, 0.0]], "totals": [5.0, -1.5]}
    text = reports.superpose_text(doc).splitlines()
    assert text[0] == "node  source 30->10 (31.6004851 A) source 130->145 (116.703482 A) total"
    assert text[1] == "0     2                         3                         5"
    assert text[-2] == "30->10 (31.6004851 A)  -1.5               2                  1"
    assert text[-1] == "130->145 (116.703482 A) 0                  3                  -"


def test_solution_table_aligns_line_rows_past_bus_9():
    # every line row starts its cells where the header's do, also once
    # from_bus has two digits
    net = generate_random_network(0, 12, 0.35)
    text = reports.solution_table(net, solve_opf(net)).splitlines()
    head = text.index("line        flow          limit         mu            mu_mw")
    assert any(ln.from_bus >= 10 for ln in net.lines)
    for ln, row in zip(net.lines, text[head + 1:head + 1 + len(net.lines)], strict=True):
        assert row[:12] == f"{ln.from_bus}-{ln.to_bus}".ljust(12)
        assert all(row[k - 1] == " " and row[k] != " " for k in (12, 26, 40, 54)), row


# ---------------------------------------------------------------------------
# the scalar round9 contract
# ---------------------------------------------------------------------------

def test_round9_ties_round_half_even():
    assert round9(123456788.5) == 123456788.0
    assert round9(123456789.5) == 123456790.0


def test_round9_normalizes_negative_zero():
    assert math.copysign(1.0, round9(-0.0)) == 1.0
    assert math.copysign(1.0, round9(-1e-13)) == 1.0


def test_round9_snaps_after_rounding():
    below = float(np.nextafter(1e-12, 0))
    assert below < 1e-12
    assert round9(below) == 1e-12
    assert round9(9.9999999e-13) == 0.0


def test_dumps_writes_special_values_as_json_does():
    doc = [float("nan"), float("inf"), float("-inf"), 1e15, 1e16, 2e9]
    want = "[\n  NaN,\n  Infinity,\n  -Infinity,\n  1000000000000000.0,\n  1e+16,\n  2000000000.0\n]\n"
    assert dumps(doc) == want
    assert dumps({"v": 2e9}) == '{\n  "v": 2000000000.0\n}\n'
