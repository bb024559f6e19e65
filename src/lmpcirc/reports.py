"""Machine- and human-readable renderings of solutions, circuits, and checks.

JSON output is deterministic: every float is rounded half-even to 9
significant digits before serialization (and negative zero normalized), so
identical inputs produce byte-identical documents across platforms.

``dumps`` writes ``json.dumps(indent=2)``'s layout in one walk over the
document, and every float by one rule, ``_json_token``: its ``%.9g`` token,
which does round9's rounding, is json's text where it has a point and no
exponent, and is parsed back and rewritten otherwise. A scalar float is
written where the walk meets it. A row of floats is the one batch: one
``%.9g`` pass with the separators baked into the format writes it whole, its
exact zeros, counted once, are mended by a replace that stops at the last of
them, and only a row holding another token json writes differently (an
integral value, an exponent outside ``e-05`` to ``e-12``, ``nan`` or ``inf``)
is split and its tokens put through the rule. A numpy array is written as its
``tolist()``: a matrix row by row, and a float64 row from one ``tolist()``
with no scan of its element types, so the report builders pass their arrays
through.

A list of records, dicts with the same str keys in the same order, is written
column by column: each key's values (floats, ints, bools or strs, or flat
lists of one of those) become tokens in one pass, a float column by the row
batch above, and each record is one ``%`` of a template holding the keys and
the indentation. Any other list is walked item by item.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain, islice
from operator import itemgetter
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .circuit import EquivalentCircuit, _binding_sources, _price_drops, to_voltage_sources
from .dcopf import DcopfSolution, verify_optimality
from .network import Network, _columns, _inject, _slot, cycle_basis, line_flows
from .analysis import CongestionImpact, NegativePriceReport, RecoveredPrices


def round9(x: float) -> float:
    """Round half-even to 9 significant digits; normalize -0.0.

    Magnitudes below 1e-12 (far under every tolerance in the package) are
    representation noise from the dual factorization and snap to zero so that
    serialized output is stable across linear-algebra builds.
    """
    v = float(f"{float(x):.9g}")
    return 0.0 if abs(v) < 1e-12 else v


def fnum(x: float) -> str:
    """Compact text rendering of a number (9 significant digits, no trailing zeros)."""
    v = round9(x)
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def dumps(doc) -> str:
    """``doc`` as ``json.dumps(doc, indent=2)`` writes it, every float through
    ``round9`` first, plus a final newline. numpy integers are written as ints,
    and a numpy array as its ``tolist()``. A float's ``%.9g`` token goes
    through ``_json_token``: a scalar's where the walk meets it, a row's or a
    record column's only when ``_float_row``'s one pass over it holds a token
    json writes differently."""
    out: list[str] = []
    _walk(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _walk(x, nl: str, out: list[str]) -> None:
    """Append the JSON text of ``x`` to ``out``; ``nl`` is a newline plus the
    indentation of x's line.

    Only exact types take the fast branches. A subclass of dict, list or
    tuple is copied into the plain container, and any other scalar (a
    subclass, a numpy scalar) takes ``_scalar``, which raises json's
    ``TypeError`` on what json refuses.
    """
    t = type(x)
    if t is float:
        out.append(_json_token("%.9g" % x))
    elif t is dict:
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in x.items():
            out.append(sep + (_quote(k) if type(k) is str else _key(k)) + ": ")
            _walk(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        t = _sole_type(x)
        if t is float:
            out.append("[" + inner + _float_row(x, "," + inner, x.count(0.0)) + nl + "]")
        elif t in _TOKEN:
            out.append("[" + inner + ("," + inner).join(map(_TOKEN[t], x)) + nl + "]")
        elif t is dict and _records(x, nl, out):
            pass
        else:
            sep = "[" + inner
            for v in x:
                out.append(sep)
                _walk(v, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif t is np.ndarray:
        _array(x, nl, out)
    elif t is str:
        out.append(_quote(x))
    elif t is int:
        out.append(int.__repr__(x))
    elif t is bool:
        out.append("true" if x else "false")
    elif x is None:
        out.append("null")
    elif isinstance(x, dict):
        _walk(dict(x.items()), nl, out)
    elif isinstance(x, (list, tuple)):
        _walk(list(x), nl, out)
    elif isinstance(x, np.ndarray):
        _walk(x.tolist(), nl, out)
    else:
        out.append(_scalar(x))


def _array(x: np.ndarray, nl: str, out: list[str]) -> None:
    """Append json's text of ``x.tolist()`` to ``out``. A matrix is written row
    by row, so no list holds all of its floats; a nonempty float64 row is one
    ``tolist()`` and one ``_float_row``, with no scan of its element types."""
    if x.ndim > 1:
        _walk(list(x), nl, out)
    elif x.ndim == 1 and x.dtype == np.float64 and x.size:
        inner = nl + "  "
        out.append("[" + inner + _float_row(x.tolist(), "," + inner, np.count_nonzero(x == 0.0)) + nl + "]")
    else:
        _walk(x.tolist(), nl, out)


def _scalar(x) -> str:
    if isinstance(x, (float, np.floating)):
        return _json_token("%.9g" % x)
    if isinstance(x, np.integer):
        x = int(x)
    return json.dumps(x)  # str and int subclasses; raises TypeError on the rest


def _key(k) -> str:
    # json turns int, float, bool and None keys into strings and refuses other types
    return json.dumps(k) if isinstance(k, str) else json.dumps({k: None})[1:-7]


# an exponent json does not write as %.9g does: json writes a larger value in
# full, and a smaller one snaps to 0.0 (each token is followed by a comma)
_ODD_EXPONENT = re.compile(r"e(?!-0[5-9],|-1[0-2],)")

# json's text of an int, a str and a bool, by exact type
_TOKEN = {int: int.__repr__, str: _quote, bool: {False: "false", True: "true"}.__getitem__}


def _records(rows: list, nl: str, out: list[str]) -> bool:
    """Append json's text of ``rows``, a list of dicts, to ``out`` column by
    column and return True; or append nothing and return False (the walk
    writes them) unless every record has the same str keys in the same order
    and ``_column`` writes every column.

    Each record is one ``%`` of a template that holds its keys and its
    indentation, filled from the columns' tokens.
    """
    # each record's keys are compared and freed one by one, and a column is
    # read with itemgetter: no container per record stays alive at once to
    # set off the cyclic garbage collector while a report is written
    keys = tuple(rows[0])
    if not keys or _sole_type(keys) is not str or not all(map(keys.__eq__, map(tuple, rows))):
        return False
    inner = nl + "  "
    kin = inner + "  "
    columns = []
    for k in keys:
        cells = _column(list(map(itemgetter(k), rows)), kin)
        if cells is None:
            return False
        columns.append(cells)
    record = "{" + kin + ("," + kin).join(_quote(k).replace("%", "%%") + ": %s" for k in keys) + inner + "}"
    out.append("[" + inner + ("," + inner).join(map(record.__mod__, zip(*columns))) + nl + "]")
    return True


def _column(col: list, nl: str) -> list[str] | None:
    """json's text of each value of ``col``, the values of one key of the
    records, whose key lines have the indentation ``nl``. Every value must be
    of one type: float, int, bool or str, or list or tuple with every item of
    the column's lists of one of those four; otherwise None.

    The items of all the lists are written in one pass and cut back into
    their lists.
    """
    t = _sole_type(col)
    if t is not list and t is not tuple:
        return _cells(t, col)
    flat = list(chain.from_iterable(col))
    tokens = _cells(_sole_type(flat), flat) if flat else []
    if tokens is None:
        return None
    inner = nl + "  "
    head, sep, tail, it = "[" + inner, "," + inner, nl + "]", iter(tokens)
    return [head + sep.join(islice(it, len(c))) + tail if c else "[]" for c in col]


def _sole_type(values):
    """The type of every one of ``values``; None if they have several, or none."""
    types = set(map(type, values))
    return types.pop() if len(types) == 1 else None


def _cells(t, values) -> list[str] | None:
    """json's text of each of ``values``, all of exact type ``t``: a float's
    by ``_float_row``'s one pass, an int's, a str's or a bool's by ``_TOKEN``;
    None for any other ``t``."""
    if t is float:
        return _float_row(values, ", ", values.count(0.0)).split(", ")
    token = _TOKEN.get(t)
    return None if token is None else list(map(token, values))


def _float_row(row, sep: str, zeros: int) -> str:
    """json's text of ``round9(x)`` for each float x of ``row``, joined by
    ``sep`` (a comma, then spaces or a newline and the indentation, so it ends
    in a space); ``zeros`` counts the row's exact zeros, -0.0 among them.

    One ``%.9g`` pass writes the whole row with the separators in place, and
    each exact zero's ``0`` becomes json's ``0.0`` by a replace that stops after
    ``zeros`` of them. A token with a point and no exponent is then json's
    text, and so is one with an exponent from ``e-05`` to ``e-12``. Only a row
    holding a token json writes differently (an integral value, ``-0``,
    ``nan``, ``inf``, ``1e+16`` or ``1e-13``: see ``_odd``) is split and each
    of its tokens put through ``_json_token``.
    """
    # a space before the first token and a comma after the last, so that
    # every token, like those inside, follows a space and precedes a comma
    text = (" " + ("%.9g" + sep) * (len(row) - 1) + "%.9g,") % tuple(row)
    if zeros:  # -0.0 writes "-0", left for _json_token
        text = text.replace(" 0,", " 0.0,", zeros)
    if _odd(text, len(row)):
        return sep.join(map(_json_token, text[1:-1].split(sep)))
    return text[1:-1]


def _odd(text: str, n: int) -> bool:
    """Whether ``text``, n ``%.9g`` tokens each after a space and before a
    comma, holds one json writes differently: an exponent outside ``e-05`` to
    ``e-12``, or a token with neither a point nor an exponent. The few
    exponents are found one by one, so that one without a point (``1e-05``)
    counts as a token that needs none."""
    points = text.count(".")
    if "e" in text:
        if _ODD_EXPONENT.search(text):
            return True
        i = text.find("e")
        while i >= 0:
            points += "." not in text[text.rfind(" ", 0, i):i]
            i = text.find("e", i + 1)
    return points != n


def _json_token(t: str) -> str:
    """json's text of the value of ``t``, a ``%.9g`` token. A token with a
    point and no exponent is a fraction of at least 1e-4 in magnitude, which
    json writes just so. Every other token (``123``, ``1e+09``, ``1e-05``,
    ``nan``, ``inf``) is parsed back and written by ``_float_text``: json
    writes ``123.0``, ``1000000000.0``, ``NaN`` and ``Infinity``, and ``0.0``
    where the value snaps."""
    return t if "." in t and "e" not in t else _float_text(float(t))


def _float_text(v: float) -> str:
    """json's text of ``round9(v)`` for a ``v`` already rounded to 9 digits."""
    if v != v:
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return "0.0" if abs(v) < 1e-12 else float.__repr__(v)


# ---------------------------------------------------------------------------
# OPF solution
# ---------------------------------------------------------------------------

def solution_doc(net: Network, sol: DcopfSolution) -> dict:
    n = net.n
    p_entries, gamma_entries = [], []
    for inj in net.injectors:
        slot = _slot(n, inj)
        p_entries.append({"bus": inj.bus, "kind": inj.kind, "value": float(sol.p[slot])})
        gamma_entries.append({
            "bus": inj.bus, "kind": inj.kind,
            "lower": float(sol.gamma[slot]), "upper": float(sol.gamma[2 * n + slot]),
        })
    return {
        "lmp": {str(i): float(sol.lmp[i]) for i in range(n)},
        "mu": [
            {"from": d.from_bus, "to": d.to_bus, "value": d.value, "mw_basis": d.mw_basis}
            for d in sol.mu
        ],
        "gamma": gamma_entries,
        "p": p_entries,
        "theta": sol.theta,
        "objective": float(sol.objective),
        "marginal": list(sol.marginal_buses(net)),
        "degenerate": sol.degenerate,
    }


def solution_table(net: Network, sol: DcopfSolution) -> str:
    marginal = set(sol.marginal_buses(net))
    flows = line_flows(net, sol.theta)
    mu_by_line = {d.line_index: d for d in sol.mu}
    lines = ["bus   lmp           marginal"]
    for b in net.buses:
        flag = "*" if b.id in marginal else ""
        lines.append(f"{b.id:<5d} {fnum(sol.lmp[b.id]):<13} {flag}".rstrip())
    lines.append("")
    lines.append("line        flow          limit         mu            mu_mw")
    for k, ln in enumerate(net.lines):
        d = mu_by_line.get(k)
        lines.append(
            f"{f'{ln.from_bus}-{ln.to_bus}':<11} {fnum(flows[k]):<13} "
            f"{fnum(ln.flow_limit) if ln.flow_limit is not None else '-':<13} "
            f"{fnum(d.value) if d else '-':<13} {fnum(d.mw_basis) if d else '-'}"
        )
    lines.append("")
    lines.append(f"objective: {fnum(sol.objective)} $/h")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# circuit
# ---------------------------------------------------------------------------

def circuit_doc(c: EquivalentCircuit) -> dict:
    view = to_voltage_sources(c)
    return {
        "nodes": list(range(c.n_nodes)),
        "ground": c.ground,
        "offset": float(c.offset),
        "meshed": c.meshed,
        "resistors": [{"from": r.from_node, "to": r.to_node, "ohms": r.ohms} for r in c.resistors],
        "current_sources": [
            {"from": s.from_node, "to": s.to_node, "amps": s.amps} for s in c.current_sources
        ],
        "voltage_source_view": [
            {"from": e.from_node, "to": e.to_node, "volts": e.volts} for e in view.elements
        ],
    }


def netlist_lines(c: EquivalentCircuit, voltage_sources: bool = False) -> list[str]:
    """The circuit as SPICE element lines after a header comment naming ground.

    ``R a b ohms``; ``I a b amps`` drives amps from a through the source into b;
    ``V p q volts`` holds V(p) - V(q) = volts. In the voltage-source form each
    source and its series resistor meet at an internal node ``m<k>``.
    """
    out = [f"* ground node {c.ground}, price offset {fnum(c.offset)}"]
    if not c.meshed:
        out.append("* radial network: conversion valid, but the analogy is stated for meshed grids")
    if voltage_sources:
        view = to_voltage_sources(c)
        plain = view.plain_resistors
        for k, r in enumerate(plain, start=1):
            out.append(f"R{k} {r.from_node} {r.to_node} {fnum(r.ohms)}")
        for i, e in enumerate(view.elements, start=1):
            out.append(f"V{i} m{i} {e.from_node} {fnum(e.volts)}")
            out.append(f"R{len(plain) + i} m{i} {e.to_node} {fnum(e.series_ohms)}")
    else:
        for k, r in enumerate(c.resistors, start=1):
            out.append(f"R{k} {r.from_node} {r.to_node} {fnum(r.ohms)}")
        for k, s in enumerate(c.current_sources, start=1):
            out.append(f"I{k} {s.from_node} {s.to_node} {fnum(s.amps)}")
    return out


# ---------------------------------------------------------------------------
# check report: optimality residuals + dual KCL ledger + KVL loop sums
# ---------------------------------------------------------------------------

def dual_kcl_ledger(net: Network, sol: DcopfSolution, tol: float):
    """Per-bus ledger of price-flow terms: inflows, outflows, residual.

    Each line drives its price current ``b (lmp_from - lmp_to)`` out of its
    from end and into its to end, and each binding source its amps into its
    import end: the lines first, then the sources. Works for uncongested
    solutions too (no source terms, zero flows).
    """
    f, t, sus = _columns((ln.from_bus, ln.to_bus, ln.susceptance) for ln in net.lines)
    lo, hi, amps = _columns(_binding_sources(sol))
    into, out_of = np.concatenate([t, hi]), np.concatenate([f, lo])
    cur = np.concatenate([sus * (sol.lmp[f] - sol.lmp[t]), amps])
    inflows, outflows = [[] for _ in range(net.n)], [[] for _ in range(net.n)]
    for i, o, a in zip(into.tolist(), out_of.tolist(), cur.tolist()):
        if a > 1e-9:
            inflows[i].append(a)
            outflows[o].append(a)
        elif a < -1e-9:
            inflows[o].append(-a)
            outflows[i].append(-a)
    # the sum of currents out minus sources in
    residual = np.abs(_inject(net.n, into, out_of, cur)).tolist()
    return [{"node": i, "inflows": inflows[i], "outflows": outflows[i], "residual": r, "passed": r <= tol}
            for i, r in enumerate(residual)]


def check_doc(net: Network, sol: DcopfSolution, tol: float) -> dict:
    report = verify_optimality(net, sol, tol=tol)
    kcl = dual_kcl_ledger(net, sol, tol)
    lam, kvl = sol.lmp.tolist(), []
    for cycle in cycle_basis(net):     # kvl_loop_sums' loops, over the basis the network keeps
        terms, total = _price_drops(cycle, lam)
        kvl.append({"loop": list(cycle), "terms": terms, "total": total, "passed": abs(total) <= tol})
    return {
        "tolerance": tol,
        "optimality": [
            {"name": c.name, "value": c.value, "tol": c.tol, "passed": c.passed}
            for c in report.checks
        ],
        "kcl": kcl,
        "kvl": kvl,
        "passed": report.all_passed
                  and all(e["passed"] for e in kcl)
                  and all(l["passed"] for l in kvl),
    }


def _side(terms: list[float]) -> str:
    return " + ".join(fnum(t) for t in terms) if terms else "0"


def check_text(doc: dict) -> str:
    out = [f"optimality conditions (tol {doc['tolerance']:g})"]
    for entry in doc["optimality"]:
        mark = "ok" if entry["passed"] else "FAIL"
        out.append(f"  {entry['name']:<28} {entry['value']:.3e}  {mark}")
    out.append("price-flow balance at each node (inflow = outflow)")
    for e in doc["kcl"]:
        mark = "ok" if e["passed"] else "FAIL"
        out.append(
            f"  node {e['node']}: {_side(e['inflows'])} = {_side(e['outflows'])}"
            f"  [residual {e['residual']:.1e}] {mark}"
        )
    if doc["kvl"]:
        out.append("price drops around fundamental cycles")
        for l in doc["kvl"]:
            mark = "ok" if l["passed"] else "FAIL"
            loop = "-".join(str(x) for x in l["loop"])
            terms = " + ".join(f"({fnum(t)})" for t in l["terms"])
            out.append(f"  loop {loop}: {terms} = {fnum(l['total'])}  {mark}")
    else:
        out.append("no cycles (tree network): nothing to check for loop sums")
    out.append("result: " + ("PASS" if doc["passed"] else "FAIL"))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# analysis reports
# ---------------------------------------------------------------------------

def superpose_doc(c: EquivalentCircuit, impact: CongestionImpact) -> dict:
    return {
        "ground": c.ground,
        "offset": float(c.offset),
        "sources": [
            {"from": f, "to": t, "amps": a, "min_contribution": lo, "max_contribution": hi,
             "negative_buses": list(neg)}
            for (f, t, a), lo, hi, neg in zip(
                impact.sources, impact.min_contribution, impact.max_contribution,
                impact.negative_buses)
        ],
        "contributions": impact.vectors,
        "totals": impact.totals,
        "lmp": impact.totals + c.offset,
    }


def superpose_text(doc: dict) -> str:
    heads = [f"source {s['from']}->{s['to']} ({fnum(s['amps'])} A)" for s in doc["sources"]]
    # each cell is padded and then followed by one space, so a longer one
    # still ends before the next cell starts
    out = ["node  " + "".join(f"{h:<25} " for h in heads) + "total"]
    for i in range(len(doc["totals"])):
        row = f"{i:<5d} "
        for v in doc["contributions"]:
            row += f"{fnum(v[i]):<25} "
        row += fnum(doc["totals"][i])
        out.append(row)
    out.append("")
    out.append("source                 min contribution   max contribution   negative buses")
    for s in doc["sources"]:
        neg = ",".join(str(b) for b in s["negative_buses"]) or "-"
        out.append(
            f"{s['from']}->{s['to']} ({fnum(s['amps'])} A)".ljust(22)
            + f" {fnum(s['min_contribution']):<18} {fnum(s['max_contribution']):<18} {neg}"
        )
    return "\n".join(out) + "\n"


def negative_doc(rep: NegativePriceReport, lmp: np.ndarray) -> dict:
    return {
        "negative": rep.negative,
        "witnesses": list(rep.witnesses),
        "ground_is_minimum": rep.ground_is_minimum,
        "offset": rep.offset,
        "min_price": rep.min_price,
        "min_price_bus": rep.min_price_bus,
        "lmp": lmp,
    }


def negative_text(doc: dict) -> str:
    if doc["negative"]:
        buses = ", ".join(f"bus {b}" for b in doc["witnesses"])
        head = f"negative prices: YES ({buses}; lowest lmp={fnum(doc['min_price'])} at bus {doc['min_price_bus']})"
    else:
        head = f"negative prices: NO (lowest lmp={fnum(doc['min_price'])} at bus {doc['min_price_bus']})"
    tail = ("ground is at the minimum-voltage node" if doc["ground_is_minimum"]
            else "ground is NOT at the minimum-voltage node")
    return head + "\n" + tail + f" (offset {fnum(doc['offset'])})\n"


def recover_doc(res: RecoveredPrices) -> dict:
    if res.lmp is not None:
        return {"lmp": {str(i): v for i, v in enumerate(res.lmp.tolist())}}
    return {"delta": res.delta}


def recover_text(res: RecoveredPrices) -> str:
    if res.lmp is not None:
        out = ["bus   lmp"]
        for i, v in enumerate(res.lmp):
            out.append(f"{i:<5d} {fnum(v)}")
        return "\n".join(out) + "\n"
    out = ["pairwise price differences (row minus column); absolute level unknown"]
    n = res.delta.shape[0]
    # cells 11 wide, one space apart, so a longer number still ends its cell
    out.append(("      " + " ".join(f"{j:<11d}" for j in range(n))).rstrip())
    for i in range(n):
        out.append((f"{i:<5d} " + " ".join(f"{fnum(res.delta[i, j]):<11}" for j in range(n))).rstrip())
    return "\n".join(out) + "\n"
