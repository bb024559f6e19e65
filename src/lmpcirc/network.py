"""Power network model and LP matrix assembly.

Conventions
-----------
- Bus ids are 0-based and contiguous; susceptances are per-unit on an implicit
  1 MVA base so MW and pu power coincide.
- Injector variables use the dense slot layout: slot ``j`` (j < n) is the
  generator at bus j, slot ``n + j`` the controllable load at bus j. Buses
  without an injector of a given kind get a slot pinned to zero by its bounds,
  and each slot's limits are stated as the bounds ``lower <= p <= upper``.
- Power balance is ``p_gen - p_load + B theta = a`` with ``B`` the susceptance
  Laplacian, which makes the flow on a line from i to j equal to
  ``b_ij * (theta_j - theta_i)`` in MW.
- Flow limits are stored in MW but canonicalized to angle differences across
  the limited line's ends (divide by b_ij), so the flow-limit duals are
  directly the circuit source magnitudes; the MW-basis shadow price is mu/b.
- For the OPF, the circuit and the reports alike, ``_laplacian`` stamps the
  branches, ``_inject`` the source currents and ``_spanning_forest`` walks a
  graph; ``fundamental_cycles`` closes its chords into a cycle basis.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import lp

KIND_GENERATOR = "generator"
KIND_LOAD = "load"


class NetworkError(ValueError):
    """A network violates a structural invariant."""


class SchemaError(ValueError):
    """A network file violates the canonical JSON schema."""


@dataclass(frozen=True)
class Bus:
    id: int
    fixed_demand: float = 0.0


@dataclass(frozen=True)
class Line:
    from_bus: int
    to_bus: int
    susceptance: float
    flow_limit: float | None = None


@dataclass(frozen=True)
class Injector:
    bus: int
    kind: str
    cost: float
    p_min: float
    p_max: float


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and np.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class Network:
    """Immutable bus/line/injector collection; validates invariants on construction."""

    def __init__(self, buses: Iterable[Bus], lines: Iterable[Line], injectors: Iterable[Injector]):
        self.buses = tuple(buses)
        self.lines = tuple(lines)
        self.injectors = tuple(injectors)
        self._validate()
        self._opf_lp: OpfLp | None = None  # assemble_lp's blocks, built on first use
        self._cycles: tuple[tuple[int, ...], ...] | None = None  # cycle_basis's loops, likewise

    @property
    def n(self) -> int:
        return len(self.buses)

    @property
    def fixed_demand(self) -> np.ndarray:
        a = np.array([b.fixed_demand for b in self.buses], dtype=float)
        a.flags.writeable = False
        return a

    def limited_lines(self) -> list[int]:
        """Indices into self.lines of lines carrying a flow limit."""
        return [k for k, ln in enumerate(self.lines) if ln.flow_limit is not None]

    def is_connected(self) -> bool:
        forest = _spanning_forest(self.n, [(ln.from_bus, ln.to_bus) for ln in self.lines])
        return list(forest.values()).count(None) == 1

    def _validate(self) -> None:
        n = len(self.buses)
        if n < 2:
            raise NetworkError(f"network needs at least 2 buses, got {n}")
        ids = [b.id for b in self.buses]
        if sorted(ids) != list(range(n)):
            raise NetworkError(f"bus ids must be 0..{n - 1} and unique, got {sorted(ids)}")
        if ids != list(range(n)):
            raise NetworkError("buses must be listed in id order")
        for b in self.buses:
            if not _is_number(b.fixed_demand) or b.fixed_demand < 0:
                raise NetworkError(f"bus {b.id}: fixed_demand must be a finite number >= 0")

        seen_pairs = set()
        for ln in self.lines:
            if ln.from_bus == ln.to_bus:
                raise NetworkError(f"line {ln.from_bus}-{ln.to_bus}: self loop")
            for end in (ln.from_bus, ln.to_bus):
                if not isinstance(end, int) or not 0 <= end < n:
                    raise NetworkError(f"line references unknown bus {end}")
            pair = (min(ln.from_bus, ln.to_bus), max(ln.from_bus, ln.to_bus))
            if pair in seen_pairs:
                raise NetworkError(f"parallel lines between buses {pair[0]} and {pair[1]}; pre-merge them")
            seen_pairs.add(pair)
            if not _is_number(ln.susceptance) or ln.susceptance <= 0:
                raise NetworkError(f"line {pair}: susceptance must be finite and > 0")
            if ln.flow_limit is not None and (not _is_number(ln.flow_limit) or ln.flow_limit <= 0):
                raise NetworkError(f"line {pair}: flow_limit must be finite and > 0 when present")

        if not self.injectors:
            raise NetworkError("network has no injectors")
        seen_slots = set()
        for inj in self.injectors:
            if not isinstance(inj.bus, int) or not 0 <= inj.bus < n:
                raise NetworkError(f"injector references unknown bus {inj.bus}")
            if inj.kind not in (KIND_GENERATOR, KIND_LOAD):
                raise NetworkError(f"injector kind must be 'generator' or 'load', got {inj.kind!r}")
            slot = (inj.bus, inj.kind)
            if slot in seen_slots:
                raise NetworkError(f"bus {inj.bus} already has a {inj.kind}")
            seen_slots.add(slot)
            for name, val in (("cost", inj.cost), ("p_min", inj.p_min), ("p_max", inj.p_max)):
                if not _is_number(val):
                    raise NetworkError(f"injector at bus {inj.bus}: {name} must be a finite number")
            if inj.p_min > inj.p_max:
                raise NetworkError(f"injector at bus {inj.bus}: p_min > p_max")

        if not self.is_connected():
            raise NetworkError("network graph is not connected")


def _spanning_forest(n: int, edges: Iterable[tuple[int, int]]) -> dict[int, int | None]:
    """Breadth-first spanning forest, lowest id first: node -> parent in the
    order reached, each tree grown from the lowest node not yet reached, its
    root, which maps to None. A connected graph has one root, node 0."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent: dict[int, int | None] = {}
    for root in (r for r in range(n) if r not in parent):    # read after each tree is grown
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(adj[u]):
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
    return parent


def fundamental_cycles(n_nodes: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    """Cycle basis from a lowest-id-first spanning forest (one cycle per chord).

    Each cycle is returned as a closed node walk without repeating the start;
    a disconnected graph gives the cycles of every tree.
    """
    parent = _spanning_forest(n_nodes, edges)
    tree_edges = {(min(u, p), max(u, p)) for u, p in parent.items() if p is not None}
    chords = sorted(
        {(min(u, v), max(u, v)) for u, v in edges} - tree_edges
    )

    depth = {}
    for x, p in parent.items():               # breadth-first: every parent comes first
        depth[x] = 0 if p is None else depth[p] + 1

    cycles = []
    for u, v in chords:
        up, down = [u], [v]                   # walk both ends up to their meeting node
        while depth[up[-1]] > depth[down[-1]]:
            up.append(parent[up[-1]])
        while depth[down[-1]] > depth[up[-1]]:
            down.append(parent[down[-1]])
        while up[-1] != down[-1]:
            up.append(parent[up[-1]])
            down.append(parent[down[-1]])
        down.pop()                            # the meeting node, already ending up
        cycles.append(up + down[::-1])        # u -> meet -> v (-> u via chord)
    return cycles


def cycle_basis(net: Network) -> tuple[tuple[int, ...], ...]:
    """``fundamental_cycles`` of the network's lines, each loop a tuple.

    It is walked on the first call and kept on the network, which is
    immutable, so repeated reports of one network share one basis.
    """
    if net._cycles is None:
        edges = [(ln.from_bus, ln.to_bus) for ln in net.lines]
        net._cycles = tuple(map(tuple, fundamental_cycles(net.n, edges)))
    return net._cycles


def _slot(n: int, inj: Injector) -> int:
    """Dense-layout slot of an injector: its bus for a generator, n + bus for a load."""
    return inj.bus if inj.kind == KIND_GENERATOR else n + inj.bus


def _columns(branches: Iterable[tuple[int, int, float]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (i, j, w) branches as three arrays: the ends as indices, the weights as floats."""
    ijw = np.array(list(branches), dtype=float).reshape(-1, 3)
    return ijw[:, 0].astype(np.intp), ijw[:, 1].astype(np.intp), ijw[:, 2]


def _laplacian(size: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted Laplacian of the branches (i[k], j[k], w[k]): one unbuffered
    ``np.add.at`` stamps (i, j), (j, i), (i, i), (j, j) branch after branch, so
    every floating-point sum keeps the given order and the matrix is reproducible."""
    g = np.zeros((size, size))
    np.add.at(g, (np.stack([i, j, i, j], 1).ravel(), np.stack([j, i, i, j], 1).ravel()),
              np.stack([-w, -w, w, w], 1).ravel())
    return g


def _inject(size: int, into: np.ndarray, out_of: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Net source current into each of ``size`` nodes: one unbuffered
    ``np.add.at`` adds +amps[k] at into[k], then -amps[k] at out_of[k], source
    after source, so every node sums its terms in the order given."""
    j = np.zeros(size)
    np.add.at(j, np.stack([into, out_of], 1).ravel(), np.stack([amps, -amps], 1).ravel())
    return j


def build_b_matrix(net: Network) -> np.ndarray:
    """DC bus admittance matrix: -b_ij off-diagonal, incident-susceptance sums on the diagonal.

    Symmetric with zero row sums (the all-ones vector is in the null space).
    """
    b = _laplacian(net.n, *_columns((ln.from_bus, ln.to_bus, ln.susceptance) for ln in net.lines))
    b.flags.writeable = False
    return b


@dataclass(frozen=True)
class OpfLp:
    """The DC-OPF as the network states it: min c'p s.t. p_gen - p_load +
    B theta = a, lower <= p <= upper, and for limited line r (network line
    ``limited_lines[r]``, ends ``ends[0][r]`` and ``ends[1][r]``) the angle
    limits ``theta_from - theta_to >= d[2r]`` and ``theta_to - theta_from >=
    d[2r + 1]``, both ``-flow_limit/susceptance``. Only
    ``dcopf.opf_lp_problem`` writes these as dense rows."""

    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    B: np.ndarray
    a: np.ndarray
    d: np.ndarray
    ends: tuple[np.ndarray, np.ndarray]
    limited_lines: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @cached_property
    def X(self) -> np.ndarray:
        """The inverse of ``B[1:, 1:]``, the susceptance Laplacian grounded at
        bus 0, padded with a zero row and column for bus 0 so that bus ids
        index it. It is built on first use by the elementwise ``lp._inverse``
        and kept read-only, so every solve of the network reads one copy. A
        singular reduced Laplacian raises LinAlgError on every access: a
        raising property caches nothing."""
        x = np.zeros((self.n, self.n))
        x[1:, 1:] = lp._inverse(self.B[1:, 1:])
        x.flags.writeable = False
        return x


def assemble_lp(net: Network) -> OpfLp:
    """The OPF data of a validated network.

    It is assembled on the first call and kept on the network, which is
    immutable: every array is read-only, so all callers share one copy. The
    grounded inverse ``X`` joins them once a solve first reads it.
    """
    if net._opf_lp is None:
        net._opf_lp = _assemble_lp(net)
    return net._opf_lp


def _assemble_lp(net: Network) -> OpfLp:
    n = net.n
    c, lower, upper = np.zeros(2 * n), np.zeros(2 * n), np.zeros(2 * n)
    for inj in net.injectors:
        j = _slot(n, inj)
        c[j] = inj.cost if inj.kind == KIND_GENERATOR else -inj.cost
        lower[j], upper[j] = inj.p_min, inj.p_max
    frm, to, bound = _columns((ln.from_bus, ln.to_bus, -ln.flow_limit / ln.susceptance)
                              for ln in net.lines if ln.flow_limit is not None)
    d = np.repeat(bound, 2)
    for arr in (c, lower, upper, d, frm, to):
        arr.flags.writeable = False
    return OpfLp(c=c, lower=lower, upper=upper, B=build_b_matrix(net), a=net.fixed_demand, d=d,
                 ends=(frm, to), limited_lines=tuple(net.limited_lines()))


def line_flows(net: Network, theta: np.ndarray) -> np.ndarray:
    """MW flow per line, positive from from_bus toward to_bus: b_ij*(theta_j - theta_i)."""
    th = np.asarray(theta, dtype=float)
    return np.array([ln.susceptance * (th[ln.to_bus] - th[ln.from_bus]) for ln in net.lines])


def balance_residual(opf: OpfLp, p: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Per-bus residual of p_gen - p_load + B theta - a."""
    p = np.asarray(p, float)
    return p[:opf.n] - p[opf.n:] + opf.B @ np.asarray(theta, float) - opf.a


def generate_random_network(seed: int, n: int, edge_prob: float) -> Network:
    """Deterministic random connected meshed network with randomized costs and limits.

    Topology is a random recursive tree plus extra edges (at least one, so a
    cycle always exists). Every positive-demand bus gets a generator with
    p_max >= demand, which keeps the zero-flow dispatch feasible under any
    flow limits; a final balancing pass scales capacities until total capacity
    covers total fixed demand with margin.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not 0 < edge_prob <= 1:
        raise ValueError(f"edge_prob must be in (0, 1], got {edge_prob}")
    rng = np.random.default_rng(seed)

    edges: set[tuple[int, int]] = set()
    order = rng.permutation(n)
    for idx in range(1, n):
        u = int(order[idx])
        v = int(order[rng.integers(0, idx)])
        edges.add((min(u, v), max(u, v)))
    # the pairs i < j the tree left out, in row-major order, as two index arrays
    tree = np.zeros((n, n), dtype=bool)
    tree[tuple(zip(*edges))] = True
    spare_i, spare_j = np.triu_indices(n, 1)
    spare = ~tree[spare_i, spare_j]
    spare_i, spare_j = spare_i[spare], spare_j[spare]
    picks = rng.random(spare_i.size) < edge_prob
    edges.update(zip(spare_i[picks].tolist(), spare_j[picks].tolist()))
    if len(edges) < n:  # tree only: force one chord
        k = int(rng.integers(0, spare_i.size))
        edges.add((int(spare_i[k]), int(spare_j[k])))

    demand = np.where(rng.random(n) < 0.7, rng.uniform(10.0, 100.0, n), 0.0)
    if not demand.any():
        demand[int(rng.integers(0, n))] = rng.uniform(20.0, 100.0)

    buses = [Bus(i, float(demand[i])) for i in range(n)]

    lines = []
    for i, j in sorted(edges):
        sus = float(rng.uniform(0.5, 2.0))
        limit = float(rng.uniform(5.0, 80.0)) if rng.random() < 0.45 else None
        lines.append(Line(i, j, sus, limit))

    injectors = []
    p_max = np.zeros(n)
    for i in range(n):
        has_gen = demand[i] > 0 or rng.random() < 0.75
        if has_gen:
            cost = 0.0 if rng.random() < 0.15 else float(rng.uniform(5.0, 50.0))
            cap = float(demand[i] + rng.uniform(0.0, 150.0)) if demand[i] > 0 else float(rng.uniform(20.0, 200.0))
            p_max[i] = cap
            injectors.append(Injector(i, KIND_GENERATOR, cost, 0.0, cap))
        if rng.random() < 0.3:
            injectors.append(Injector(i, KIND_LOAD, float(rng.uniform(55.0, 150.0)), 0.0, float(rng.uniform(10.0, 60.0))))

    # capacity-balancing pass: total generation capacity must cover fixed demand
    while p_max.sum() < 1.2 * demand.sum():
        injectors = [
            Injector(inj.bus, inj.kind, inj.cost, inj.p_min, inj.p_max * 1.3)
            if inj.kind == KIND_GENERATOR else inj
            for inj in injectors
        ]
        p_max *= 1.3

    return Network(buses, lines, injectors)


# ---------------------------------------------------------------------------
# canonical JSON file format
# ---------------------------------------------------------------------------

_BUS_KEYS = {"id", "demand"}
_LINE_KEYS = {"from", "to", "susceptance", "flow_limit"}
_INJ_KEYS = {"bus", "kind", "cost", "p_min", "p_max"}


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{where}: unknown key(s) {sorted(unknown)}")


def parse_network(doc) -> Network:
    """Build a Network from a decoded canonical JSON document (strict keys)."""
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    _reject_unknown(doc, {"buses", "lines", "injectors"}, "top level")
    for key in ("buses", "lines", "injectors"):
        if key not in doc or not isinstance(doc[key], list):
            raise SchemaError(f"top level: missing or non-array {key!r}")

    buses = []
    for k, item in enumerate(doc["buses"]):
        if not isinstance(item, dict):
            raise SchemaError(f"buses[{k}]: must be an object")
        _reject_unknown(item, _BUS_KEYS, f"buses[{k}]")
        if not _is_int(item.get("id")):
            raise SchemaError(f"buses[{k}]: id must be an integer")
        demand = item.get("demand", 0.0)
        if not _is_number(demand):
            raise SchemaError(f"buses[{k}]: demand must be a number")
        buses.append(Bus(item["id"], float(demand)))

    lines = []
    for k, item in enumerate(doc["lines"]):
        if not isinstance(item, dict):
            raise SchemaError(f"lines[{k}]: must be an object")
        _reject_unknown(item, _LINE_KEYS, f"lines[{k}]")
        for key in ("from", "to"):
            if not _is_int(item.get(key)):
                raise SchemaError(f"lines[{k}]: {key} must be an integer")
        if not _is_number(item.get("susceptance")):
            raise SchemaError(f"lines[{k}]: susceptance must be a number")
        limit = item.get("flow_limit")
        if limit is not None and not _is_number(limit):
            raise SchemaError(f"lines[{k}]: flow_limit must be a number")
        lines.append(Line(item["from"], item["to"], float(item["susceptance"]),
                          None if limit is None else float(limit)))

    injectors = []
    for k, item in enumerate(doc["injectors"]):
        if not isinstance(item, dict):
            raise SchemaError(f"injectors[{k}]: must be an object")
        _reject_unknown(item, _INJ_KEYS, f"injectors[{k}]")
        if not _is_int(item.get("bus")):
            raise SchemaError(f"injectors[{k}]: bus must be an integer")
        if item.get("kind") not in (KIND_GENERATOR, KIND_LOAD):
            raise SchemaError(f"injectors[{k}]: kind must be 'generator' or 'load'")
        for key in ("cost", "p_min", "p_max"):
            if not _is_number(item.get(key)):
                raise SchemaError(f"injectors[{k}]: {key} must be a number")
        injectors.append(Injector(item["bus"], item["kind"], float(item["cost"]),
                                  float(item["p_min"]), float(item["p_max"])))

    try:
        return Network(buses, lines, injectors)
    except NetworkError as exc:
        raise SchemaError(str(exc)) from exc


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None


def load_network(path) -> Network:
    return parse_network(_read_json(path))


def network_to_doc(net: Network) -> dict:
    """Canonical JSON document for a network (inverse of parse_network)."""
    doc = {
        "buses": [{"id": b.id, "demand": b.fixed_demand} for b in net.buses],
        "lines": [],
        "injectors": [
            {"bus": i.bus, "kind": i.kind, "cost": i.cost, "p_min": i.p_min, "p_max": i.p_max}
            for i in net.injectors
        ],
    }
    for ln in net.lines:
        item = {"from": ln.from_bus, "to": ln.to_bus, "susceptance": ln.susceptance}
        if ln.flow_limit is not None:
            item["flow_limit"] = ln.flow_limit
        doc["lines"].append(item)
    return doc
