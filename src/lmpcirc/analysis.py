"""Applications of the equivalent circuit: negative-price prediction,
price recovery from limited information, and per-congestion impact reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    CircuitError,
    CircuitSolution,
    EquivalentCircuit,
    circuit_from_parts,
    solve_circuit,
    superpose,
)
from .network import SchemaError, _is_int, _is_number, _read_json, _reject_unknown

_NEG_EPS = 1e-9


@dataclass(frozen=True)
class NegativePriceReport:
    negative: bool
    witnesses: tuple[int, ...]       # buses with price below zero
    ground_is_minimum: bool          # ground sits at the lowest node voltage
    offset: float
    min_price: float
    min_price_bus: int


@dataclass(frozen=True)
class LimitedInfo:
    """Topology, susceptances, and congestion sources; optionally ground + offset.

    Source orientation: ``from`` is the export (lower-price) end, ``to`` the
    import end where the source injects.
    """

    n_nodes: int
    lines: tuple[tuple[int, int, float], ...]       # (from, to, susceptance)
    sources: tuple[tuple[int, int, float], ...]     # (from, to, mu)
    ground: int | None = None
    offset: float | None = None

    def __post_init__(self):
        if (self.ground is None) != (self.offset is None):
            raise ValueError("ground and offset must be given together")


def _limited_edges(items, value_key: str, where: str) -> list[tuple[int, int, float]]:
    edges = []
    for k, item in enumerate(items):
        if not isinstance(item, dict):
            raise SchemaError(f"{where}[{k}]: must be an object")
        _reject_unknown(item, {"from", "to", value_key}, f"{where}[{k}]")
        i, j, value = item.get("from"), item.get("to"), item.get(value_key)
        if not (_is_int(i) and _is_int(j) and _is_number(value)):
            raise SchemaError(f"{where}[{k}]: needs integer from/to and numeric {value_key}")
        if i == j:
            raise SchemaError(f"{where}[{k}]: self loop at node {i}")
        edges.append((i, j, float(value)))
    return edges


def load_limited_info(path) -> LimitedInfo:
    """Read a limited-info JSON document under the same strict rules as
    ``parse_network``: known keys only, integer ids, finite numbers, no self loops."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("limited-info document must be an object")
    _reject_unknown(doc, {"topology", "sources", "ground", "offset"}, "limited info")
    topo = doc.get("topology")
    if not isinstance(topo, dict) or not isinstance(topo.get("lines"), list):
        raise SchemaError("limited info: topology.lines array is required")
    _reject_unknown(topo, {"lines"}, "topology")
    if not isinstance(doc.get("sources", []), list):
        raise SchemaError("limited info: sources must be an array")
    lines = _limited_edges(topo["lines"], "susceptance", "topology.lines")
    sources = _limited_edges(doc.get("sources", []), "mu", "sources")
    nodes = {e for ln in lines for e in ln[:2]}
    if not lines or sorted(nodes) != list(range(max(nodes) + 1)):
        raise SchemaError("topology must use contiguous 0-based node ids")
    ground, offset = doc.get("ground"), doc.get("offset")
    if ground is not None and not _is_int(ground):
        raise SchemaError("ground must be an integer bus id")
    if offset is not None and not _is_number(offset):
        raise SchemaError("offset must be a finite number")
    try:
        return LimitedInfo(
            n_nodes=max(nodes) + 1, lines=tuple(lines), sources=tuple(sources),
            ground=ground, offset=None if offset is None else float(offset),
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


@dataclass(frozen=True)
class RecoveredPrices:
    lmp: np.ndarray | None          # absolute prices when ground+offset known
    delta: np.ndarray | None        # otherwise: delta[i, j] = lmp_i - lmp_j


@dataclass(frozen=True)
class CongestionImpact:
    sources: tuple[tuple[int, int, float], ...]
    vectors: tuple[np.ndarray, ...]
    min_contribution: tuple[float, ...]
    max_contribution: tuple[float, ...]
    negative_buses: tuple[tuple[int, ...], ...]
    totals: np.ndarray


def predict_negative_prices(c: EquivalentCircuit, s: CircuitSolution) -> NegativePriceReport:
    """Negative prices occur iff some node voltage plus the ground offset is below zero.

    The report also carries the pure circuit-side criterion (is ground the
    minimum-voltage node); the two coincide whenever the offset is zero. With a
    positive offset a node needs voltage below -offset to price negative, so
    the price test is the economically meaningful one and is the flag.
    """
    prices = s.voltages + c.offset
    witnesses = tuple(np.flatnonzero(prices < -_NEG_EPS).tolist())
    vmin = float(s.voltages.min())
    ground_is_minimum = s.voltages[c.ground] <= vmin + _NEG_EPS
    k = int(np.argmin(prices))
    return NegativePriceReport(
        negative=bool(witnesses),
        witnesses=witnesses,
        ground_is_minimum=bool(ground_is_minimum),
        offset=c.offset,
        min_price=float(prices[k]),
        min_price_bus=k,
    )


def recover_lmps(info: LimitedInfo) -> RecoveredPrices:
    """Rebuild prices from topology + susceptances + congestion sources.

    With ground and offset the absolute price at every bus is recovered;
    without them only the full matrix of pairwise differences is returned
    (no absolute level is invented).
    """
    if not info.sources:
        raise CircuitError("recovery needs at least one congestion source")
    ground = info.ground if info.ground is not None else 0
    offset = info.offset if info.offset is not None else 0.0
    c = circuit_from_parts(info.n_nodes, info.lines, info.sources, ground, offset)
    v = solve_circuit(c).voltages
    if info.ground is not None:
        return RecoveredPrices(lmp=v + offset, delta=None)
    return RecoveredPrices(lmp=None, delta=v[:, None] - v[None, :])


def congestion_impact(c: EquivalentCircuit) -> CongestionImpact:
    """Per-source node-voltage contributions (others open-circuited) with summary stats."""
    s = superpose(c)
    vectors = s.per_source_voltages
    stacked = np.array(vectors)
    rows, buses = np.nonzero(stacked < -_NEG_EPS)
    ends = np.searchsorted(rows, np.arange(len(vectors) + 1)).tolist()
    buses = buses.tolist()
    return CongestionImpact(
        sources=tuple((src.from_node, src.to_node, src.amps) for src in c.current_sources),
        vectors=vectors,
        min_contribution=tuple(stacked.min(axis=1).tolist()),
        max_contribution=tuple(stacked.max(axis=1).tolist()),
        negative_buses=tuple(tuple(buses[a:b]) for a, b in zip(ends, ends[1:])),
        totals=s.voltages,
    )
