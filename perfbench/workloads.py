"""The four workloads: their inputs, the timed op, and the check of every answer.

Each workload turns the seed into input documents (written to the run's work
directory and hashed), parses them into items, runs one op per item, and
classifies each op's outcome against a reference computed outside the timed
region. Outcome categories: ``ok`` (a correct answer, or a documented refusal
the reference agrees with) and the failures ``wrong``, ``false_infeasible``,
``iter_cap``, ``timeout`` and ``error``.

The package is imported from ``src/`` of the checkout this file sits in, never
from anywhere else, so the benchmark always measures the code beside it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent


if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
import numpy as np  # noqa: E402

import lmpcirc as L  # noqa: E402
from lmpcirc import reports  # noqa: E402
from lmpcirc.dcopf import opf_lp_problem  # noqa: E402

if Path(L.__file__).resolve().parent != SRC / "lmpcirc":
    raise ImportError(f"lmpcirc imported from {L.__file__}, not from {SRC}")

WORKLOADS = ("cli_cases", "opf_dense", "opf_grid", "circuit_large")
FAILURES = ("wrong", "false_infeasible", "iter_cap", "timeout", "error")

# Input sizes. The OPF corpora are fixed lists of generator seeds: per-network
# solve times differ by 4x and the seed-commit solver fails on some of them, so
# drawing networks from the run seed would make each run's mix of cost and
# failures differ; the run seed orders the corpus instead. Circuits all cost
# about the same, so the run seed draws them.
SIZES = {
    "cli_cases": {"passes_min": 2},
    # an odd count of networks: the median op then falls on one network's samples
    "opf_dense": {"n": 35, "edge_prob": 0.35, "networks": 17, "passes_min": 2},
    # average degree about 3: a random tree (n - 1 lines) plus ~0.022 of the
    # remaining pairs gives about 1.5 n lines
    "opf_grid": {"n": 50, "edge_prob": 0.022, "networks": 17, "passes_min": 2},
    # an op takes about a second, so a run needs six passes (24 ops) for the
    # tail percentile (ten samples above it) to sit above the median
    "circuit_large": {"nodes": 400, "lines": 1000, "sources": 60, "circuits": 4, "passes_min": 6},
}
SMOKE_SIZES = {
    "cli_cases": {"passes_min": 1},
    "opf_dense": {"n": 8, "edge_prob": 0.35, "networks": 2, "passes_min": 1},
    "opf_grid": {"n": 10, "edge_prob": 0.1, "networks": 2, "passes_min": 1},
    "circuit_large": {"nodes": 12, "lines": 20, "sources": 3, "circuits": 2, "passes_min": 1},
}

# The calibration kernel (refspeed.py) whose speed each workload's op times are
# scaled by: the one that slows like the workload's ops on a contended host.
# Set-up (interpreter start, imports, parsing) is scaled by the spawn kernel.
REF_KERNEL = {"cli_cases": "spawn", "opf_dense": "pivot", "opf_grid": "pivot", "circuit_large": "python"}

# Per-op time cap, several times the slowest correct op of the workload.
CAP_S = {"cli_cases": 20.0, "opf_dense": 2.5, "opf_grid": 2.5, "circuit_large": 30.0}

CLI_CASES = ("fig1_3bus.json", "fig4_3bus_negative.json", "case7_reconstructed.json")
CLI_COMMANDS = ("solve", "circuit", "check", "superpose", "predict-negative")

OBJ_RTOL = 1e-6       # objective against HiGHS
PRICE_RTOL = 1e-6     # prices, voltages and KCL/KVL sums, relative to their scale
SUM_RTOL = 1e-8       # superposition: per-source vectors against the totals
CHECK_TOL = 1e-7      # the tolerance check_doc reports against (the CLI default)
NEG_EPS = 1e-9


class OpTimeout(BaseException):
    """The per-op time cap expired. A BaseException, so no handler in the program swallows it."""


@contextmanager
def op_deadline(seconds: float):
    def fire(signum, frame):
        raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict:
    """Environment of every process the benchmark starts: this checkout's src, one BLAS thread.

    One client in one process with no extra threads: a BLAS thread pool would
    compete with the client for the two cores of the reference machine.
    """
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _write(path: Path, text: str) -> dict:
    data = text.encode("utf-8")
    path.write_bytes(data)
    return {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, work: Path, sizes: dict) -> list[dict]:
    """The workload's input documents, generated ones written under ``work``.

    One dict per document: its path, its SHA-256 and what kind of document it is.
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload in ("opf_dense", "opf_grid"):
        out = []
        for gen_seed in range(sizes["networks"]):
            net = L.generate_random_network(gen_seed, sizes["n"], sizes["edge_prob"])
            doc = _write(work / f"net{gen_seed:03d}.json", json.dumps(L.network_to_doc(net)))
            out.append({**doc, "kind": "network", "gen_seed": gen_seed})
        return out
    if workload == "circuit_large":
        rng = random.Random(seed)
        return [{**_write(work / f"circuit{k:02d}.json", json.dumps(_random_limited_info(rng, sizes))),
                 "kind": "limited"} for k in range(sizes["circuits"])]
    if workload == "cli_cases":
        paths = [(SRC / "lmpcirc" / "cases" / name, "network") for name in CLI_CASES]
        paths.append((HERE / "case7_limited.json", "limited"))
        return [{"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "kind": kind,
                 "case": path.name} for path, kind in paths]
    raise ValueError(f"unknown workload {workload!r}")


def _random_limited_info(rng: random.Random, sizes: dict) -> dict:
    """Connected random topology (random tree plus chords), sources on distinct lines."""
    n, m = sizes["nodes"], sizes["lines"]
    order = list(range(n))
    rng.shuffle(order)
    pairs = set()
    for k in range(1, n):
        u, v = order[k], order[rng.randrange(k)]
        pairs.add((min(u, v), max(u, v)))
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    lines = [{"from": u, "to": v, "susceptance": rng.uniform(0.5, 2.0)} for u, v in sorted(pairs)]
    sources = []
    for ln in rng.sample(lines, sizes["sources"]):
        ends = (ln["from"], ln["to"]) if rng.random() < 0.5 else (ln["to"], ln["from"])
        sources.append({"from": ends[0], "to": ends[1], "mu": rng.uniform(1.0, 100.0)})
    return {"topology": {"lines": lines}, "sources": sources,
            "ground": rng.randrange(n), "offset": rng.uniform(-20.0, 40.0)}


def parse_limited(path: str) -> dict:
    """A limited-information document (the ``recover`` schema) as plain tuples."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    lines = tuple((int(x["from"]), int(x["to"]), float(x["susceptance"])) for x in doc["topology"]["lines"])
    sources = tuple((int(x["from"]), int(x["to"]), float(x["mu"])) for x in doc["sources"])
    n = 1 + max(max(i, j) for i, j, _ in lines)
    return {"n": n, "lines": lines, "sources": sources,
            "ground": doc.get("ground"), "offset": doc.get("offset")}


def parse_inputs(inputs: list[dict]) -> list:
    """What a user parses before the first op (timed as part of ``setup_s``)."""
    return [L.load_network(d["path"]) if d["kind"] == "network" else parse_limited(d["path"])
            for d in inputs]


# ---------------------------------------------------------------------------
# references (computed in set-up, outside every timed region)
# ---------------------------------------------------------------------------

def references(workload: str, inputs: list[dict]) -> list[dict]:
    """One reference per input, from code independent of the solver under test."""
    if workload == "circuit_large":
        return [{"voltages": _reference_voltages(parse_limited(d["path"])).tolist()} for d in inputs]
    refs = [_highs_reference(L.load_network(d["path"])) if d["kind"] == "network" else None
            for d in inputs]
    # the limited-info document of cli_cases holds case7's published duals and recovers its prices
    case7 = [r for r, d in zip(refs, inputs) if d.get("case") == "case7_reconstructed.json"]
    return [r if r is not None else {"lmp": case7[0]["lmp"]} for r in refs]


def _highs_reference(net) -> dict:
    from scipy.optimize import linprog

    prob = opf_lp_problem(L.assemble_lp(net), 0)
    res = linprog(prob.c, A_ub=-prob.a_ge, b_ub=-prob.b_ge, A_eq=prob.a_eq, b_eq=prob.b_eq,
                  bounds=(None, None), method="highs")
    if res.status == 2:
        return {"feasible": False}
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve a reference LP: {res.message}")
    return {"feasible": True, "objective": float(res.fun),
            "lmp": [float(x) for x in res.eqlin.marginals[:net.n]]}


def _reference_voltages(info: dict) -> np.ndarray:
    """Node voltages by a sparse LU of the ground-reduced conductance matrix."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import spsolve

    n = info["n"]
    rows, cols, vals = [], [], []
    for i, j, b in info["lines"]:
        rows += [i, j, i, j]
        cols += [i, j, j, i]
        vals += [b, b, -b, -b]
    g = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    inj = np.zeros(n)
    for i, j, mu in info["sources"]:
        inj[j] += mu
        inj[i] -= mu
    keep = np.array([k for k in range(n) if k != info["ground"]])
    v = np.zeros(n)
    v[keep] = spsolve(g[keep][:, keep].tocsc(), inj[keep])
    return v


# ---------------------------------------------------------------------------
# ops and checks
# ---------------------------------------------------------------------------

def opf_op(net) -> dict:
    """The report path: solve, verify, circuit, analyses, every report, serialization."""
    sol = L.solve_opf(net)
    L.verify_optimality(net, sol)
    docs = [reports.solution_doc(net, sol), reports.check_doc(net, sol, CHECK_TOL)]
    out = {"sol": sol, "refusal": None}
    try:
        circ = L.build_circuit(net, sol)
        cs = L.solve_circuit(circ)
        impact = L.congestion_impact(circ)
        neg = L.predict_negative_prices(circ, cs)
    except (L.NoCongestion, L.NoMarginalInjector) as exc:
        out["refusal"] = type(exc).__name__
    else:
        docs += [reports.circuit_doc(circ), reports.superpose_doc(circ, impact),
                 reports.negative_doc(neg, sol.lmp)]
        out.update(circuit=circ, voltages=cs.voltages, impact=impact)
    for doc in docs:
        reports.dumps(doc)
    return out


def check_opf(net, ref: dict, out: dict | None, exc: BaseException | None) -> str:
    if exc is not None:
        if isinstance(exc, L.OpfInfeasible):
            return "ok" if not ref["feasible"] else "false_infeasible"
        return _failure(exc)
    if not ref["feasible"]:
        return "wrong"
    sol = out["sol"]
    if abs(sol.objective - ref["objective"]) > OBJ_RTOL * (1.0 + abs(ref["objective"])):
        return "wrong"
    if not L.verify_optimality(net, sol).all_passed:
        return "wrong"
    if out["refusal"] == "NoCongestion":
        return "ok" if all(d.value <= L.circuit.BINDING_EPS for d in sol.mu) else "wrong"
    if out["refusal"] == "NoMarginalInjector":
        return "ok" if not _has_interior_injector(net, sol) else "wrong"
    scale = 1.0 + float(np.max(np.abs(sol.lmp)))
    if np.max(np.abs(out["voltages"] + out["circuit"].offset - sol.lmp)) > PRICE_RTOL * scale:
        return "wrong"
    return "ok" if _superposition_ok(out["impact"]) else "wrong"


def _has_interior_injector(net, sol) -> bool:
    for inj in net.injectors:
        p = sol.p[inj.bus if inj.kind == "generator" else net.n + inj.bus]
        if min(p - inj.p_min, inj.p_max - p) > L.dcopf.MARGINAL_EPS:
            return True
    return False


def _superposition_ok(impact) -> bool:
    total = np.sum(impact.vectors, axis=0)
    return float(np.max(np.abs(total - impact.totals))) <= SUM_RTOL * (1.0 + float(np.max(np.abs(impact.totals))))


def _failure(exc: BaseException) -> str:
    if isinstance(exc, OpTimeout):
        return "timeout"
    if isinstance(exc, ArithmeticError):  # the simplex iteration cap
        return "iter_cap"
    return "error"


def circuit_op(info: dict) -> dict:
    """Limited-info recovery, the circuit and its analyses, and their reports."""
    n, lines, sources, ground, offset = info["n"], info["lines"], info["sources"], info["ground"], info["offset"]
    absolute = L.recover_lmps(L.LimitedInfo(n, lines, sources, ground, offset))
    delta = L.recover_lmps(L.LimitedInfo(n, lines, sources))
    circ = L.circuit_from_parts(n, lines, sources, ground, offset)
    cs = L.solve_circuit(circ)
    impact = L.congestion_impact(circ)
    prices = cs.voltages + offset
    neg = L.predict_negative_prices(circ, cs)
    kcl = L.kcl_residuals(circ, cs)
    loops = L.kvl_loop_sums([(i, j) for i, j, _ in lines], prices)
    for doc in (reports.superpose_doc(circ, impact), reports.recover_doc(absolute),
                reports.recover_doc(delta), reports.negative_doc(neg, prices)):
        reports.dumps(doc)
    return {"absolute": absolute, "delta": delta, "voltages": cs.voltages, "impact": impact, "neg": neg,
            "kcl": kcl, "loops": loops}


def check_circuit(info: dict, ref: dict, out: dict | None, exc: BaseException | None) -> str:
    if exc is not None:
        return _failure(exc)
    v = np.asarray(ref["voltages"])
    offset = info["offset"]
    scale = 1.0 + float(np.max(np.abs(v))) + abs(offset)
    amps = 1.0 + sum(mu for _, _, mu in info["sources"])
    checks = (
        np.max(np.abs(out["voltages"] - v)) <= PRICE_RTOL * scale,
        out["absolute"].lmp is not None and np.max(np.abs(out["absolute"].lmp - (v + offset))) <= PRICE_RTOL * scale,
        out["delta"].delta is not None and np.max(np.abs(out["delta"].delta - (v[:, None] - v[None, :]))) <= PRICE_RTOL * scale,
        np.max(np.abs(out["kcl"])) <= PRICE_RTOL * amps,
        all(abs(lp.total) <= PRICE_RTOL * scale for lp in out["loops"]),
        _superposition_ok(out["impact"]),
    )
    if not all(checks):
        return "wrong"
    prices = v + offset
    if abs(float(prices.min())) > PRICE_RTOL * scale and out["neg"].negative != bool(np.any(prices < -NEG_EPS)):
        return "wrong"
    return "ok"


def cli_items(inputs: list[dict]) -> list[tuple[str, int]]:
    """(command, input index): every command on every case, plus recover on the limited doc."""
    items = [(cmd, k) for k, d in enumerate(inputs) if d["kind"] == "network" for cmd in CLI_COMMANDS]
    items += [("recover", k) for k, d in enumerate(inputs) if d["kind"] == "limited"]
    return items


def cli_argv(command: str, path: str, spans_path: str | None = None) -> list[str]:
    if spans_path is None:
        return [sys.executable, "-m", "lmpcirc.cli", command, "-i", path]
    return [sys.executable, str(HERE / "cli_child.py"), spans_path, command, "-i", path]


def run_child(argv: list[str], cap: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a process to its end under a SIGALRM cap (run() kills and reaps it when the cap fires).

    subprocess's own ``timeout`` polls for the exit with sleeps of up to 50 ms,
    which would quantize every measured process time; this waits blocking.
    """
    with op_deadline(cap):
        return subprocess.run(argv, env=child_env(), cwd=ROOT, **kwargs)


def cli_op(argv: list[str], cap: float) -> subprocess.CompletedProcess:
    return run_child(argv, cap, capture_output=True, text=True)


def check_cli(command: str, ref: dict, proc: subprocess.CompletedProcess | None,
              exc: BaseException | None) -> str:
    if exc is not None:
        return _failure(exc)
    if proc.returncode == 2:
        return "false_infeasible" if ref.get("feasible", True) else "ok"
    if proc.returncode != 0:
        return "iter_cap" if "ArithmeticError" in proc.stderr else "error"
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return "wrong"
    return "ok" if _cli_doc_ok(command, ref, doc) else "wrong"


def _cli_doc_ok(command: str, ref: dict, doc: dict) -> bool:
    expected = np.asarray(ref["lmp"])
    tol = PRICE_RTOL * (1.0 + float(np.max(np.abs(expected))))

    def close(lmp) -> bool:
        got = np.asarray(lmp, dtype=float)
        return got.shape == expected.shape and float(np.max(np.abs(got - expected))) <= tol

    if command in ("solve", "recover"):
        return "lmp" in doc and close([doc["lmp"][str(i)] for i in range(expected.size)])
    if command == "check":
        return doc.get("passed") is True
    if command == "superpose":
        contributions = np.asarray(doc["contributions"], dtype=float)
        return close(doc["lmp"]) and bool(np.allclose(contributions.sum(axis=0), doc["totals"], atol=tol))
    if command == "predict-negative":
        return close(doc["lmp"]) and doc["negative"] == bool(np.any(expected < -NEG_EPS))
    if command == "circuit":
        return close(_circuit_doc_prices(doc))
    raise ValueError(command)


def _circuit_doc_prices(doc: dict) -> np.ndarray:
    """Node voltages plus offset of a circuit document, by a plain dense nodal solve."""
    n = len(doc["nodes"])
    g = np.zeros((n, n))
    for r in doc["resistors"]:
        i, j, w = r["from"], r["to"], 1.0 / r["ohms"]
        g[i, i] += w
        g[j, j] += w
        g[i, j] -= w
        g[j, i] -= w
    inj = np.zeros(n)
    for s in doc["current_sources"]:
        inj[s["to"]] += s["amps"]
        inj[s["from"]] -= s["amps"]
    keep = [k for k in range(n) if k != doc["ground"]]
    v = np.zeros(n)
    v[keep] = np.linalg.solve(g[np.ix_(keep, keep)], inj[keep])
    return v + doc["offset"]
