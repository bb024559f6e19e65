"""Independent brute-force oracles the production code is checked against.

These deliberately use different algorithms from the package: exhaustive
active-set (vertex) enumeration for LPs, KKT least-squares for duals at a
known optimum, a pseudoinverse nodal solve for circuits, a reader that
solves netlist text under SPICE's element conventions, and the OPF
optimality residuals from dense blocks written out row by row.
"""

from __future__ import annotations

import itertools
import re

import numpy as np


def _candidate_vertices(a_eq, b_eq, a_ge, b_ge, box):
    """Basic feasible points of the polyhedron {eq, ge, lower <= x <= upper}.

    ``box`` is the pair of arrays ``(lower, upper)``. ``box=None`` enumerates
    the raw polyhedron (valid when it contains no line, e.g. assembled OPF
    problems with the reference row).
    """
    nv = a_eq.shape[1] if a_eq.size else a_ge.shape[1]
    me = a_eq.shape[0]
    k = nv - me
    if k < 0:
        return np.zeros((0, nv))
    if box is None:
        pool_a, pool_b = a_ge, b_ge
    else:
        lower, upper = box
        eye = np.eye(nv)
        pool_a = np.vstack([a_ge, eye, -eye])
        pool_b = np.concatenate([b_ge, lower, -upper])

    combos = list(itertools.combinations(range(pool_a.shape[0]), k))
    mats = np.empty((len(combos), nv, nv))
    rhs = np.empty((len(combos), nv))
    if me:
        mats[:, :me, :] = a_eq
        rhs[:, :me] = b_eq
    idx = np.array(combos, dtype=int).reshape(len(combos), k)
    mats[:, me:, :] = pool_a[idx]
    rhs[:, me:] = pool_b[idx]

    sv = np.linalg.svd(mats, compute_uv=False)
    ok = sv[:, -1] > 1e-9 * np.maximum(sv[:, 0], 1.0)
    if not ok.any():
        return np.zeros((0, nv))
    x = np.linalg.solve(mats[ok], rhs[ok][..., None])[..., 0]

    feas = np.ones(x.shape[0], dtype=bool)
    if me:
        feas &= np.all(np.abs(a_eq @ x.T - b_eq[:, None]) <= 1e-7 * (1.0 + np.abs(b_eq))[:, None], axis=0)
    if a_ge.shape[0]:
        feas &= np.all(a_ge @ x.T - b_ge[:, None] >= -1e-7 * (1.0 + np.abs(b_ge))[:, None], axis=0)
    if box is not None:
        feas &= np.all((x >= lower - 1e-9 * np.abs(lower) - 1e-6) & (x <= upper + 1e-9 * np.abs(upper) + 1e-6), axis=1)
    return x[feas]


def expand_rows(nv, a_ge, b_ge, lower=None, upper=None, range_ge=None):
    """``a_ge`` and ``b_ge`` with each stated range and finite bound written
    as ``>=`` rows after them: every ranged row's upper side
    ``-a x >= -(b + range)``, then ``x_j >= lower_j``, then ``-x_j >= -upper_j``."""
    a_ge = np.asarray(a_ge, float).reshape(-1, nv)
    b_ge = np.asarray(b_ge, float).reshape(-1)
    lower = np.full(nv, -np.inf) if lower is None else np.asarray(lower, float)
    upper = np.full(nv, np.inf) if upper is None else np.asarray(upper, float)
    range_ge = np.full(b_ge.size, np.inf) if range_ge is None else np.asarray(range_ge, float)
    ranged, low, up = np.isfinite(range_ge), np.isfinite(lower), np.isfinite(upper)
    eye = np.eye(nv)
    rows = np.vstack([a_ge, -a_ge[ranged], eye[low], -eye[up]])
    rhs = np.concatenate([b_ge, -(b_ge + range_ge)[ranged], lower[low], -upper[up]])
    return rows, rhs


def brute_force_lp(c, a_eq, b_eq, a_ge, b_ge, lower, upper, range_ge=None):
    """Classify and solve a small boxed LP by exhaustive vertex enumeration.

    Every bound in ``lower`` and ``upper`` must be finite; stated ranges are
    written as rows first (``expand_rows``). A boxed LP is infeasible or has
    an optimal vertex. Returns (status, value, x) with value/x None unless
    optimal."""
    c = np.asarray(c, float)
    a_eq = np.asarray(a_eq, float).reshape(-1, c.size)
    b_eq = np.asarray(b_eq, float).reshape(-1)
    a_ge, b_ge = expand_rows(c.size, a_ge, b_ge, range_ge=range_ge)
    lower, upper = np.asarray(lower, float), np.asarray(upper, float)
    if not np.all(np.isfinite(lower) & np.isfinite(upper)):
        raise ValueError("oracle: every variable needs finite bounds")

    verts = _candidate_vertices(a_eq, b_eq, a_ge, b_ge, (lower, upper))
    if verts.shape[0] == 0:
        return "infeasible", None, None
    values = verts @ c
    best = int(np.argmin(values))
    return "optimal", float(values[best]), verts[best]


def kkt_duals(c, a_eq, b_eq, a_ge, b_ge, x, active_tol=1e-6):
    """Least-squares multipliers of the stationarity system at an optimum x.

    Inactive inequality rows get zero. Only components that are unique across
    the dual optimal set (balance prices, binding-row multipliers on
    nondegenerate instances) are meaningful for comparison.
    """
    c = np.asarray(c, float)
    a_eq = np.asarray(a_eq, float).reshape(-1, c.size)
    a_ge = np.asarray(a_ge, float).reshape(-1, c.size)
    slack = a_ge @ x - np.asarray(b_ge, float)
    active = np.nonzero(slack <= active_tol * (1.0 + np.abs(b_ge)))[0]
    stacked = np.vstack([a_eq, a_ge[active]]).T
    mult, *_ = np.linalg.lstsq(stacked, c, rcond=None)
    resid = float(np.abs(stacked @ mult - c).max())
    eq_duals = mult[: a_eq.shape[0]]
    ge_duals = np.zeros(a_ge.shape[0])
    ge_duals[active] = mult[a_eq.shape[0]:]
    return eq_duals, ge_duals, resid


def stated_form(c, a_eq, b_eq, a_ge, b_ge):
    """The same LP with bounds and ranges stated rather than written as rows.

    Per variable, the first ``>=`` singleton row that bounds it from below and
    the first that bounds it from above become its ``lower`` and ``upper``,
    unless the bound would cross the other one; then, among the rows left,
    each row and the first later row that is its exact negative become one
    ranged row, unless the pair leaves no point. Every other row stays.

    Returns the LpProblem fields and, per row of ``a_ge``, where it went:
    ``("row", k)`` (row ``k``, its lower side when ranged), ``("range", k)``
    (the upper side of row ``k``), ``("lower", j, a)`` or ``("upper", j, a)``
    (the bound on ``x_j`` of a row with coefficient ``a``)."""
    c = np.asarray(c, float)
    a_ge = np.asarray(a_ge, float).reshape(-1, c.size)
    b_ge = np.asarray(b_ge, float).reshape(-1)
    lower, upper = np.full(c.size, -np.inf), np.full(c.size, np.inf)
    where, kept = [None] * b_ge.size, []
    for i, row in enumerate(a_ge):
        (nz,) = np.nonzero(row)
        if nz.size == 1:
            j, a = int(nz[0]), float(row[nz[0]])
            value = b_ge[i] / a
            if a > 0 and lower[j] == -np.inf and value <= upper[j]:
                lower[j], where[i] = value, ("lower", j, a)
                continue
            if a < 0 and upper[j] == np.inf and value >= lower[j]:
                upper[j], where[i] = value, ("upper", j, a)
                continue
        kept.append(i)
    rows, rhs, ranges = [], [], []
    for pos, i in enumerate(kept):
        if where[i] is not None:
            continue
        where[i] = ("row", len(rows))
        mate = next((k for k in kept[pos + 1:] if where[k] is None and np.array_equal(a_ge[k], -a_ge[i])
                     and b_ge[i] + b_ge[k] <= 0.0), None)
        if mate is not None:
            where[mate] = ("range", len(rows))
        rows.append(a_ge[i])
        rhs.append(b_ge[i])
        ranges.append(np.inf if mate is None else -(b_ge[i] + b_ge[mate]))
    fields = dict(c=c, a_eq=a_eq, b_eq=b_eq, a_ge=np.array(rows).reshape(-1, c.size), b_ge=np.array(rhs),
                  lower=lower, upper=upper, range_ge=np.array(ranges))
    return fields, where


def row_duals(where, range_ge, ge_duals, reduced_costs):
    """The duals of the rows ``stated_form`` read, from a solution of its
    stated LP: a ranged row's signed dual split over its two sides, and a
    bound's reduced cost divided by the coefficient of the row it came from."""
    out = []
    for kind, k, *coef in where:
        if kind == "row":
            out.append(max(ge_duals[k], 0.0) if np.isfinite(range_ge[k]) else ge_duals[k])
        elif kind == "range":
            out.append(-min(ge_duals[k], 0.0))
        else:
            d = reduced_costs[k]
            out.append((max(d, 0.0) if kind == "lower" else min(d, 0.0)) / coef[0])
    return np.array(out)


def dense_certificate(net, sol):
    """The seven residuals of ``verify_optimality`` from the dense blocks of
    the angle form, written out entry by entry with Python loops: the
    location matrix ``A = [I, -I]``, the bound rows ``C = [I; -I]`` with rhs
    ``b = [p_min, -p_max]`` (absent slots pinned at zero), the susceptance
    Laplacian ``B`` and the two +-1 rows ``D`` of each limited line in line
    order. Every residual is then a matrix product.

    Returns ``(residuals, scale)``: the residuals by name, and the largest
    absolute sum of the terms any residual adds up, which bounds how far two
    summation orders can move it."""
    n = net.n
    c, p_min, p_max = np.zeros(2 * n), np.zeros(2 * n), np.zeros(2 * n)
    for inj in net.injectors:
        j = inj.bus if inj.kind == "generator" else n + inj.bus
        c[j] = inj.cost if inj.kind == "generator" else -inj.cost
        p_min[j], p_max[j] = inj.p_min, inj.p_max
    A, C = np.zeros((n, 2 * n)), np.zeros((4 * n, 2 * n))
    for i in range(n):
        A[i, i], A[i, n + i] = 1.0, -1.0
    for j in range(2 * n):
        C[j, j], C[2 * n + j, j] = 1.0, -1.0
    b = np.concatenate([p_min, -p_max])
    B = np.zeros((n, n))
    for ln in net.lines:
        for u, w in ((ln.from_bus, ln.to_bus), (ln.to_bus, ln.from_bus)):
            B[u, u] += ln.susceptance
            B[u, w] -= ln.susceptance
    limited = [ln for ln in net.lines if ln.flow_limit is not None]
    D, d = np.zeros((2 * len(limited), n)), np.zeros(2 * len(limited))
    for r, ln in enumerate(limited):
        D[2 * r, ln.from_bus], D[2 * r, ln.to_bus] = 1.0, -1.0
        D[2 * r + 1, ln.from_bus], D[2 * r + 1, ln.to_bus] = -1.0, 1.0
        d[2 * r] = d[2 * r + 1] = -ln.flow_limit / ln.susceptance
    a = np.array([bus.fixed_demand for bus in net.buses])
    p, theta, lmp, gamma, mu = sol.p, sol.theta, sol.lmp, sol.gamma, sol.mu_rows

    balance = A @ p + B @ theta - a
    bound_slack = C @ p - b
    angle_slack = D @ theta - d
    residuals = {
        "primal_feasibility": max(np.abs(balance).max(), np.max(-bound_slack, initial=0.0),
                                  np.max(-angle_slack, initial=0.0)),
        "stationarity_injections": np.abs(A.T @ lmp + C.T @ gamma - c).max(),
        "stationarity_angles": np.abs(B.T @ lmp + D.T @ mu).max(),
        "complementarity_bounds": np.max(np.abs(gamma * bound_slack), initial=0.0),
        "complementarity_flow_limits": np.max(np.abs(mu * angle_slack), initial=0.0),
        "dual_sign": max(0.0, -np.min(gamma, initial=0.0), -np.min(mu, initial=0.0)),
        "duality_gap": abs(sol.objective - (a @ lmp + b @ gamma + d @ mu)),
    }
    sums = [np.abs(A) @ np.abs(p) + np.abs(B) @ np.abs(theta) + np.abs(a),
            np.abs(C) @ np.abs(p) + np.abs(b), np.abs(D) @ np.abs(theta) + np.abs(d),
            np.abs(A.T) @ np.abs(lmp) + np.abs(C.T) @ np.abs(gamma) + np.abs(c),
            np.abs(B.T) @ np.abs(lmp) + np.abs(D.T) @ np.abs(mu),
            [abs(sol.objective) + np.abs(a) @ np.abs(lmp) + np.abs(b) @ np.abs(gamma) + np.abs(d) @ np.abs(mu)]]
    return {name: float(value) for name, value in residuals.items()}, max(float(np.max(s, initial=0.0)) for s in sums)


def nodal_voltages_pinv(n_nodes, lines, sources, ground):
    """Node voltages via the Laplacian pseudoinverse (independent of the
    package's ground-reduced solve). ``sources`` inject at their ``to`` end."""
    lap = np.zeros((n_nodes, n_nodes))
    for i, j, sus in lines:
        lap[i, j] -= sus
        lap[j, i] -= sus
        lap[i, i] += sus
        lap[j, j] += sus
    inj = np.zeros(n_nodes)
    for i, j, amps in sources:
        inj[j] += amps
        inj[i] -= amps
    v = np.linalg.pinv(lap) @ inj
    return v - v[ground]


def netlist_prices(text):
    """Bus prices (node voltages plus the header's offset) of netlist text.

    Elements follow SPICE: ``R a b ohms``; ``I a b amps`` drives amps from a
    through the source into b; ``V p q volts`` holds V(p) - V(q) = volts. The
    header comment names ground and the offset. A V source and one R meet at
    each internal node ``m<k>``; the pair is read back as its Norton form, a
    current source in parallel with the resistor, and the whole is solved
    with ``nodal_voltages_pinv``.
    """
    header, *body = text.splitlines()
    head = re.fullmatch(r"\* ground node (\d+), price offset (\S+)", header)
    ground, offset = int(head[1]), float(head[2])
    resistors, sources, vsrcs = [], [], []
    for line in body:
        if line.startswith("*"):
            continue
        name, a, b, value = line.split()
        {"R": resistors, "I": sources, "V": vsrcs}[name[0]].append((a, b, float(value)))
    series = {}   # internal node -> (far end, ohms) of its resistor
    plain = []
    for a, b, ohms in resistors:
        if a.startswith("m"):
            series[a] = (b, ohms)
        elif b.startswith("m"):
            series[b] = (a, ohms)
        else:
            plain.append((a, b, ohms))
    assert len(series) == len(vsrcs), "every internal node joins one V and one R"
    for p, q, volts in vsrcs:
        # outer -V- m -R- far with V(m) - V(outer) = rise: a source of rise/ohms
        # from outer into far, in parallel with the resistor outer-far
        mid, outer, rise = (p, q, volts) if p.startswith("m") else (q, p, -volts)
        far, ohms = series.pop(mid)
        plain.append((outer, far, ohms))
        sources.append((outer, far, rise / ohms))
    lines = [(int(a), int(b), 1.0 / ohms) for a, b, ohms in plain]
    n_nodes = 1 + max(max(i, j) for i, j, _ in lines)
    v = nodal_voltages_pinv(n_nodes, lines, [(int(a), int(b), amps) for a, b, amps in sources], ground)
    return v + offset


def _small_lp(rng):
    """random_small_lp's draws: the LP and the point x0 its rows are built around."""
    nv = int(rng.integers(2, 9))
    me_lo = max(0, nv - 4)
    me = int(rng.integers(me_lo, min(nv - 1, me_lo + 2) + 1))
    mg = int(rng.integers(1, 10 - me))

    a_eq = rng.normal(size=(me, nv))
    a_ge = rng.normal(size=(mg, nv))
    c = rng.normal(size=nv)
    x0 = rng.normal(size=nv)
    b_eq = a_eq @ x0 if me else np.zeros(0)
    b_ge = a_ge @ x0 - rng.uniform(0.3, 2.0, size=mg)

    kind = rng.random()
    if kind < 0.25 and me + mg + 1 <= 10:
        i = int(rng.integers(0, mg))
        a_ge = np.vstack([a_ge, -a_ge[i]])
        b_ge = np.concatenate([b_ge, [-b_ge[i] + rng.uniform(0.5, 2.0)]])
    elif kind < 0.65 and me + mg + 1 <= 10:
        bound = abs(c @ x0) + rng.uniform(5.0, 50.0)
        a_ge = np.vstack([a_ge, c])
        b_ge = np.concatenate([b_ge, [-bound]])
    return (c, a_eq, b_eq, a_ge, b_ge), x0


def random_small_lp(seed):
    """Deterministic small LP (<= 8 vars, <= 10 rows) with a varied status mix."""
    return _small_lp(np.random.default_rng(seed))[0]


def random_bounded_lp(seed):
    """random_small_lp(seed) plus singleton rows, each on one variable x_j:
    a lower bound, an upper bound, a second lower bound (an exact duplicate or a
    looser one), equal lower and upper bounds (power-of-two coefficients, so both
    read back as the same value), an equality singleton and, on one seed in
    six, a lower bound above an upper bound. The variables are drawn with
    repeats, so one variable can carry several of these."""
    rng = np.random.default_rng(seed)
    (c, a_eq, b_eq, a_ge, b_ge), x0 = _small_lp(rng)
    nv = c.size
    eq_rows, eq_rhs, ge_rows, ge_rhs = [], [], [], []

    def row(j, coef, bound, rows, rhs):  # coef * x_j >= (or =) coef * bound
        r = np.zeros(nv)
        r[j] = coef
        rows.append(r)
        rhs.append(coef * bound)

    j = rng.integers(0, nv, size=5)
    low = x0[j[0]] - rng.uniform(0.1, 2.0)
    coef = rng.uniform(0.5, 2.0)
    row(j[0], coef, low, ge_rows, ge_rhs)
    if rng.random() < 0.5:
        row(j[0], coef, low, ge_rows, ge_rhs)
    else:
        row(j[0], rng.uniform(0.5, 2.0), low - rng.uniform(0.1, 1.0), ge_rows, ge_rhs)
    row(j[1], -rng.uniform(0.5, 2.0), x0[j[1]] + rng.uniform(0.1, 2.0), ge_rows, ge_rhs)
    row(j[2], 2.0, x0[j[2]], ge_rows, ge_rhs)
    row(j[2], -0.5, x0[j[2]], ge_rows, ge_rhs)
    if rng.random() < 0.5:
        row(j[3], rng.uniform(0.5, 2.0), x0[j[3]], eq_rows, eq_rhs)
    if rng.random() < 1 / 6:
        row(j[4], rng.uniform(0.5, 2.0), x0[j[4]] + 1.0, ge_rows, ge_rhs)
        row(j[4], -rng.uniform(0.5, 2.0), x0[j[4]] - 1.0, ge_rows, ge_rhs)

    a_eq = np.vstack([a_eq] + eq_rows)
    b_eq = np.concatenate([b_eq, eq_rhs])
    a_ge = np.vstack([a_ge] + ge_rows)
    b_ge = np.concatenate([b_ge, ge_rhs])
    order = rng.permutation(b_ge.size)
    return c, a_eq, b_eq, a_ge[order], b_ge[order]


def random_ranged_lp(seed):
    """Deterministic small LP (2-5 vars, <= 14 rows) for the dual simplex's
    bounds and ranges, built around a point x0:

    - each drawn ``>=`` row gets, one time in two, its exact negation: a
      range that holds x0 or, one time in six, a pair that no point meets;
    - one time in five, the scaled negation of a drawn row excludes it (an
      infeasibility no exact pair shows);
    - each variable is boxed (lower and upper rows), bounded below only or
      left without a bound row."""
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(2, 6))
    me = int(rng.integers(0, 2))
    x0 = rng.normal(size=nv)
    a_eq = rng.normal(size=(me, nv))
    b_eq = a_eq @ x0
    mg = int(rng.integers(1, 4))
    drawn = rng.normal(size=(mg, nv))
    rhs = drawn @ x0 - rng.uniform(0.3, 2.0, size=mg)
    rows, b_ge = list(drawn), list(rhs)
    for i in range(mg):
        if rng.random() < 0.5:
            rows.append(-drawn[i])
            gap = rng.uniform(0.1, 1.0) if rng.random() < 1 / 6 else -(drawn[i] @ x0 - rhs[i]) - rng.uniform(0.3, 2.0)
            b_ge.append(gap - rhs[i])
    if rng.random() < 0.2:
        i = int(rng.integers(mg))
        scale = rng.uniform(0.5, 2.0)
        rows.append(-scale * drawn[i])
        b_ge.append(-scale * (rhs[i] - rng.uniform(0.1, 1.0)))
    for j, kind in enumerate(rng.integers(0, 3, size=nv)):
        if kind < 2:    # a lower bound: boxed (0) or below only (1)
            row = np.zeros(nv)
            row[j] = rng.uniform(0.5, 2.0)
            rows.append(row)
            b_ge.append(row[j] * (x0[j] - rng.uniform(0.1, 2.0)))
        if kind == 0:
            row = np.zeros(nv)
            row[j] = -rng.uniform(0.5, 2.0)
            rows.append(row)
            b_ge.append(row[j] * (x0[j] + rng.uniform(0.1, 2.0)))
    c = rng.normal(size=nv)
    return c, a_eq, b_eq, np.array(rows), np.array(b_ge)
