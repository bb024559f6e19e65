"""Equivalent DC circuit of an OPF dual solution.

Lines become resistors (ohms = 1/susceptance), each binding flow limit becomes
an ideal current source in parallel with its line's resistor (amps = the
angle-basis congestion price, injected at the import end, which is
generically the higher-price end), ground sits at the cheapest marginal injector's bus, and
node voltages plus the ground offset reproduce the bus prices.

The source orientation follows the binding side of the flow limit (the sign
structure of the angle-stationarity block): that is what makes the nodal solve
reproduce the prices exactly, even on instances where congestion pushes power
toward the lower-priced end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import sub

import numpy as np

from .dcopf import DcopfSolution, cheapest_marginal
from .network import Network, _columns, _inject, _laplacian, _spanning_forest, fundamental_cycles

BINDING_EPS = 1e-7


class CircuitError(Exception):
    pass


class NoCongestion(CircuitError):
    """No binding flow limit: prices are uniform and there is no source to build."""


@dataclass(frozen=True)
class Resistor:
    from_node: int
    to_node: int
    ohms: float


@dataclass(frozen=True)
class CurrentSource:
    """Injects ``amps`` into to_node and withdraws it from from_node."""

    from_node: int
    to_node: int
    amps: float


@dataclass(frozen=True)
class SeriesVoltageSource:
    """Voltage source (+ terminal toward to_node) in series with the line's resistor."""

    from_node: int
    to_node: int
    volts: float
    series_ohms: float


@dataclass(frozen=True, eq=False)   # arrays have no truth value: circuits compare by identity
class EquivalentCircuit:
    """Branches and current sources over nodes 0..n_nodes-1.

    ``branches`` holds the (from, to, ohms) arrays of the resistors, one entry
    per line in line order, and ``sources`` the (from, to, amps) arrays of the
    current sources, each driving amps out of from and into to; all are read
    only. The ``Resistor`` and ``CurrentSource`` tuples are views built from
    them on their first read, and the ground-reduced conductance matrix the
    first time a solve needs it; all are kept on the object, so its solve,
    superposition and branch currents share one matrix.
    """

    n_nodes: int
    branches: tuple[np.ndarray, np.ndarray, np.ndarray]
    sources: tuple[np.ndarray, np.ndarray, np.ndarray]
    ground: int
    offset: float

    @property
    def meshed(self) -> bool:
        """At least as many lines as nodes, so the graph has a cycle."""
        return len(self.branches[0]) >= self.n_nodes

    @cached_property
    def resistors(self) -> tuple[Resistor, ...]:
        """One resistor per branch, in line order."""
        return tuple(map(Resistor, *(a.tolist() for a in self.branches)))

    @cached_property
    def current_sources(self) -> tuple[CurrentSource, ...]:
        """One current source per entry of ``sources``, in their order."""
        return tuple(map(CurrentSource, *(a.tolist() for a in self.sources)))

    def conductance_matrix(self) -> np.ndarray:
        """A fresh full conductance matrix: 1/ohms stamped resistor by resistor."""
        f, t, ohms = self.branches
        return _laplacian(self.n_nodes, f, t, 1.0 / ohms)

    @cached_property
    def _reduced(self) -> tuple[np.ndarray, np.ndarray]:
        """The conductance matrix without ground's row and column, and the
        node ids it keeps. A disconnected graph raises on every access: a
        raising property caches nothing."""
        f, t, _ = self.branches
        if list(_spanning_forest(self.n_nodes, zip(f.tolist(), t.tolist())).values()).count(None) != 1:
            raise CircuitError("circuit graph is disconnected; reduced conductance matrix is singular")
        full, k, m = self.conductance_matrix(), self.ground, self.n_nodes - 1
        g = np.empty((m, m))
        g[:k, :k] = full[:k, :k]
        g[:k, k:] = full[:k, k + 1:]
        g[k:, :k] = full[k + 1:, :k]
        g[k:, k:] = full[k + 1:, k + 1:]
        g.flags.writeable = False
        return g, np.delete(np.arange(self.n_nodes), k)

    def injections(self) -> np.ndarray:
        """Net source current into each node."""
        f, t, amps = self.sources
        return _inject(self.n_nodes, t, f, amps)


@dataclass(frozen=True)
class CircuitSolution:
    voltages: np.ndarray
    branch_currents: tuple[tuple[int, int, float], ...]
    per_source_voltages: tuple[np.ndarray, ...] | None = None


@dataclass(frozen=True)
class VoltageSourceView:
    """A circuit's series-voltage-source rendering (circuit JSON and netlist)."""

    elements: tuple[SeriesVoltageSource, ...]
    plain_resistors: tuple[Resistor, ...]   # resistors no source replaced, in circuit order


@dataclass(frozen=True)
class LoopSum:
    nodes: tuple[int, ...]          # closed walk, first node repeated implicitly
    terms: tuple[float, ...]        # consecutive potential drops around the walk
    total: float


def _binding_sources(sol: DcopfSolution) -> list[tuple[int, int, float]]:
    """(export, import, amps) of every flow limit whose price exceeds BINDING_EPS."""
    return [(d.export_bus, d.import_bus, d.value) for d in sol.mu if d.value > BINDING_EPS]


def build_circuit(net: Network, sol: DcopfSolution) -> EquivalentCircuit:
    """Convert a congested optimal solution into its equivalent circuit."""
    sources = _binding_sources(sol)
    if not sources:
        raise NoCongestion(
            "no binding flow limit: every bus price equals the cheapest marginal "
            "cost, so the network has no congestion source to convert"
        )
    ground, offset = cheapest_marginal(sol, net)
    lines = [(ln.from_bus, ln.to_bus, ln.susceptance) for ln in net.lines]
    return _assemble(net.n, lines, sources, ground, offset)


def circuit_from_parts(n_nodes, lines, sources, ground, offset) -> EquivalentCircuit:
    """Assemble a circuit directly from (from, to, susceptance) lines and
    (from, to, amps) sources; used by recovery and by direct constructions."""
    if not sources:
        raise NoCongestion("a circuit needs at least one source")
    return _assemble(n_nodes, lines, sources, ground, offset)


def _assemble(n_nodes, lines, sources, ground, offset) -> EquivalentCircuit:
    """Validate (from, to, susceptance) lines, (from, to, amps) sources, ground
    and offset, and build the circuit: one branch of 1/susceptance ohms per line."""
    def check_ends(what, i, j):
        for k in (i, j):
            if not 0 <= k < n_nodes:
                raise CircuitError(f"{what} ({i}, {j}): node {k} out of range [0, {n_nodes})")
        if i == j:
            raise CircuitError(f"{what} ({i}, {j}): both ends on node {i}")

    pairs = set()
    for i, j, sus in lines:
        check_ends("line", i, j)
        if not 0 < sus < math.inf:
            raise CircuitError(f"line {i}-{j}: susceptance must be finite and > 0")
        pairs.add((min(i, j), max(i, j)))
    for i, j, amps in sources:
        check_ends("source", i, j)
        if not 0 < amps < math.inf:
            raise CircuitError(f"source {i}->{j}: magnitude must be finite and > 0")
        if (min(i, j), max(i, j)) not in pairs:
            raise CircuitError(f"source {i}->{j} has no parallel line in the topology")
    if not 0 <= ground < n_nodes:
        raise CircuitError(f"ground node {ground} out of range")
    if not math.isfinite(offset):
        raise CircuitError("offset must be a finite number")
    f, t, sus = _columns(lines)
    branches, sources = (f, t, 1.0 / sus), _columns(sources)
    for a in (*branches, *sources):
        a.flags.writeable = False
    return EquivalentCircuit(n_nodes=n_nodes, branches=branches, sources=sources, ground=ground, offset=offset)


def _nodal_solve(c: EquivalentCircuit, injections: np.ndarray) -> np.ndarray:
    """Node voltages for each column of ``injections``: the circuit's
    ground-reduced conductance matrix, one batched solve, one refinement step."""
    g, keep = c._reduced
    rhs = injections[keep]
    x = np.linalg.solve(g, rhs)
    v = np.zeros(injections.shape)
    v[keep] = x + np.linalg.solve(g, rhs - g @ x)
    return v


def _branch_currents(c: EquivalentCircuit, v: np.ndarray) -> tuple[tuple[int, int, float], ...]:
    f, t, ohms = c.branches
    return tuple(zip(f.tolist(), t.tolist(), ((v[f] - v[t]) / ohms).tolist()))


def solve_circuit(c: EquivalentCircuit) -> CircuitSolution:
    """Nodal solve: ground-reduced conductance system, one refinement step."""
    v = _nodal_solve(c, c.injections())
    return CircuitSolution(voltages=v, branch_currents=_branch_currents(c, v))


def superpose(c: EquivalentCircuit) -> CircuitSolution:
    """Full solve plus one solve per source with the others open-circuited,
    all as columns of a single nodal solve."""
    f, t, amps = c.sources
    if not amps.size:
        raise NoCongestion("superposition needs at least one source")
    j = np.zeros((c.n_nodes, 1 + amps.size))
    j[:, 0] = c.injections()
    j[np.stack([t, f]), np.arange(1, 1 + amps.size)] = np.stack([amps, -amps])
    v = _nodal_solve(c, j)
    return CircuitSolution(
        voltages=v[:, 0], branch_currents=_branch_currents(c, v[:, 0]),
        per_source_voltages=tuple(v[:, 1:].T),
    )


def to_voltage_sources(c: EquivalentCircuit) -> VoltageSourceView:
    """Source transformation: each parallel current source becomes volts = amps * ohms
    in series with the first resistor on its pair that no earlier source took
    (+ terminal toward the import end); parallel siblings stay plain resistors."""
    unused: dict[frozenset, list[int]] = {}   # pair -> indices of its untaken resistors
    for k, r in enumerate(c.resistors):
        unused.setdefault(frozenset((r.from_node, r.to_node)), []).append(k)
    elements, taken = [], set()
    for s in c.current_sources:
        free = unused.get(frozenset((s.from_node, s.to_node)))
        if not free:
            raise CircuitError(f"source {s.from_node}->{s.to_node} has no untaken resistor on its pair")
        taken.add(free[0])
        r = c.resistors[free.pop(0)]
        elements.append(SeriesVoltageSource(s.from_node, s.to_node, s.amps * r.ohms, r.ohms))
    plain = tuple(r for k, r in enumerate(c.resistors) if k not in taken)
    return VoltageSourceView(elements=tuple(elements), plain_resistors=plain)


def kcl_residuals(c: EquivalentCircuit, s: CircuitSolution) -> np.ndarray:
    """Per-node sum of resistor currents out minus net source current in."""
    g = c.conductance_matrix()
    return g @ s.voltages - c.injections()


def kvl_loop_sums(edges, lmps) -> list[LoopSum]:
    """Sum of price drops around each fundamental cycle of the (from, to)
    edges over nodes 0..len(lmps)-1 (each sum telescopes to zero)."""
    lam = np.asarray(lmps, dtype=float).tolist()
    return [_loop_sum(cyc, lam) for cyc in fundamental_cycles(len(lam), list(edges))]


def loop_sum_along(nodes: list[int], lmps) -> LoopSum:
    """Price-drop sum around an explicit closed walk of bus ids."""
    return _loop_sum(list(nodes), np.asarray(lmps, dtype=float).tolist())


def _loop_sum(nodes: list[int], lam: list[float]) -> LoopSum:
    terms, total = _price_drops(nodes, lam)
    return LoopSum(nodes=tuple(nodes), terms=tuple(terms), total=total)


def _price_drops(nodes: list[int] | tuple[int, ...], lam: list[float]) -> tuple[list[float], float]:
    """The price drops around the closed walk ``nodes`` and their sum, one
    ``sum`` over the walk's terms in order."""
    prices = [lam[k] for k in nodes]
    terms = list(map(sub, prices, prices[1:] + prices[:1]))
    return terms, float(sum(terms))
