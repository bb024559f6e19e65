import sys
from importlib import resources
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lmpcirc import OpfInfeasible, generate_random_network, load_network, solve_opf

CASES = resources.files("lmpcirc") / "cases"


def case_path(name: str) -> Path:
    return Path(str(CASES / name))


@pytest.fixture(scope="session")
def fig1_net():
    return load_network(case_path("fig1_3bus.json"))


@pytest.fixture(scope="session")
def fig4_net():
    return load_network(case_path("fig4_3bus_negative.json"))


@pytest.fixture(scope="session")
def case7_net():
    return load_network(case_path("case7_reconstructed.json"))


@pytest.fixture(scope="session")
def fig1_sol(fig1_net):
    return solve_opf(fig1_net)


@pytest.fixture(scope="session")
def fig4_sol(fig4_net):
    return solve_opf(fig4_net)


@pytest.fixture(scope="session")
def case7_sol(case7_net):
    return solve_opf(case7_net)


def congested_corpus(count, start_seed, n_lo, n_hi, edge_prob=0.35):
    """First ``count`` seeded random networks whose OPF is optimal and congested."""
    out = []
    seed = start_seed
    while len(out) < count:
        if seed - start_seed > 20 * count:
            raise RuntimeError("corpus collection not converging")
        n = n_lo + seed % (n_hi - n_lo + 1)
        net = generate_random_network(seed, n, edge_prob)
        seed += 1
        try:
            sol = solve_opf(net)
        except OpfInfeasible:
            continue
        if any(d.value > 1e-7 for d in sol.mu):
            out.append((net, sol))
    return out


@pytest.fixture(scope="session")
def corpus200():
    """Acceptance corpus: 200 congested meshed networks, 5-30 buses."""
    return congested_corpus(200, start_seed=10_000, n_lo=5, n_hi=30)


@pytest.fixture(scope="session")
def corpus500():
    """Negative-price corpus: 500 congested instances, 5-15 buses."""
    return congested_corpus(500, start_seed=50_000, n_lo=5, n_hi=15)
