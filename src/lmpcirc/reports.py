"""Machine- and human-readable renderings of solutions, circuits, and checks.

JSON output is deterministic: every float is rounded half-even to 9
significant digits before serialization (and negative zero normalized), so
identical inputs produce byte-identical documents across platforms.

``dumps`` writes ``json.dumps(indent=2)``'s layout in one walk over the
document and formats floats in batches with ``%.9g``: the document's scalar
floats in one batch at the end, each row of floats in its own batch as the
walk reaches it, so no batch grows with the size of a large matrix.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .circuit import EquivalentCircuit, _binding_sources, kvl_loop_sums, to_voltage_sources
from .dcopf import DcopfSolution, verify_optimality
from .network import Network, _slot, line_flows
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
    ``round9`` first, plus a final newline. numpy integers are written as ints.

    One walk writes the layout and leaves a NUL for each scalar float; one
    ``%.9g`` pass over all of them then fills the NULs. json escapes NUL in
    every string and key, so a NUL in the walk's text is always a placeholder.
    A row of floats is written by its own pass during the walk instead: one
    batch for a whole document would hold a token per float of the largest
    documents (400 x 400 price differences) at once.
    """
    floats: list[float] = []
    text = _layout(doc, floats)
    if not floats:
        return text
    parts = text.split("\0")
    del text  # parts holds the only copy from here on
    filled = [""] * (2 * len(parts) - 1)
    filled[::2] = parts
    filled[1::2] = _float_tokens(floats)
    return "".join(filled)


def _layout(doc, floats: list[float]) -> str:
    """The JSON text of ``doc`` and a final newline, with a NUL for each float
    appended to ``floats``. The list of pieces is freed on return."""
    out: list[str] = []
    _walk(doc, "\n", out, floats)
    out.append("\n")
    return "".join(out)


def _walk(x, nl: str, out: list[str], floats: list[float]) -> None:
    """Append the JSON text of ``x`` to ``out``; ``nl`` is a newline plus the
    indentation of x's line.

    Only exact types take the fast branches. A subclass of dict, list or
    tuple is copied into the plain container, and any other scalar (a
    subclass, a numpy scalar) takes ``_scalar``, which raises json's
    ``TypeError`` on what json refuses.
    """
    t = type(x)
    if t is float:
        out.append("\0")
        floats.append(x)
    elif t is dict:
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in x.items():
            out.append(sep + (_quote(k) if type(k) is str else _key(k)) + ": ")
            _walk(v, inner, out, floats)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        types = set(map(type, x))
        if types == {float}:
            out.append("[" + inner + ("," + inner).join(_float_tokens(x)) + nl + "]")
        elif types == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, x)) + nl + "]")
        else:
            sep = "[" + inner
            for v in x:
                out.append(sep)
                _walk(v, inner, out, floats)
                sep = "," + inner
            out.append(nl + "]")
    elif t is str:
        out.append(_quote(x))
    elif t is int:
        out.append(int.__repr__(x))
    elif t is bool:
        out.append("true" if x else "false")
    elif x is None:
        out.append("null")
    elif isinstance(x, dict):
        _walk(dict(x.items()), nl, out, floats)
    elif isinstance(x, (list, tuple)):
        _walk(list(x), nl, out, floats)
    else:
        out.append(_scalar(x))


def _scalar(x) -> str:
    if isinstance(x, (float, np.floating)):
        x = round9(x)
    elif isinstance(x, np.integer):
        x = int(x)
    return json.dumps(x)  # rounded floats, str and int subclasses; raises TypeError on the rest


def _key(k) -> str:
    # json turns int, float, bool and None keys into strings and refuses other types
    return json.dumps(k) if isinstance(k, str) else json.dumps({k: None})[1:-7]


def _float_tokens(row) -> list[str]:
    """json's text of ``round9(x)`` for each float x of ``row``.

    One ``%.9g`` pass over the row does round9's rounding. A token with a
    point and no exponent is a fraction of at least 1e-4 in magnitude, and
    json writes the rounded value just so. Every other token (``123``,
    ``1e+09``, ``1e-05``, ``nan``, ``inf``) is parsed back and written by
    ``_float_text``: json writes ``123.0``, ``1000000000.0``, ``NaN`` and
    ``Infinity``, and ``0.0`` where the value snaps.
    """
    text = ("%.9g\n" * len(row)) % tuple(row)
    tokens = text.split("\n")
    tokens.pop()  # the empty string after the last newline
    for i, t in enumerate(tokens):
        if "." not in t or "e" in t:
            tokens[i] = _float_text(float(t))
    return tokens


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
        "theta": sol.theta.tolist(),
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

    Works for uncongested solutions too (no source terms, zero flows).
    """
    n = net.n
    inflows = [[] for _ in range(n)]
    outflows = [[] for _ in range(n)]
    net_in = np.zeros(n)
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
    ledger = []
    for i in range(n):
        residual = float(-net_in[i])  # sum of currents out minus sources in
        ledger.append({
            "node": i,
            "inflows": inflows[i],
            "outflows": outflows[i],
            "residual": abs(residual),
            "passed": abs(residual) <= tol,
        })
    return ledger


def check_doc(net: Network, sol: DcopfSolution, tol: float) -> dict:
    report = verify_optimality(net, sol, tol=tol)
    kcl = dual_kcl_ledger(net, sol, tol)
    loops = kvl_loop_sums([(ln.from_bus, ln.to_bus) for ln in net.lines], sol.lmp)
    return {
        "tolerance": tol,
        "optimality": [
            {"name": c.name, "value": c.value, "tol": c.tol, "passed": c.passed}
            for c in report.checks
        ],
        "kcl": kcl,
        "kvl": [
            {"loop": list(l.nodes), "terms": list(l.terms), "total": l.total,
             "passed": abs(l.total) <= tol}
            for l in loops
        ],
        "passed": report.all_passed
                  and all(e["passed"] for e in kcl)
                  and all(abs(l.total) <= tol for l in loops),
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
        "contributions": [v.tolist() for v in impact.vectors],
        "totals": impact.totals.tolist(),
        "lmp": (impact.totals + c.offset).tolist(),
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
        "lmp": lmp.tolist(),
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
        return {"lmp": {str(i): float(v) for i, v in enumerate(res.lmp)}}
    return {"delta": res.delta.tolist()}


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
