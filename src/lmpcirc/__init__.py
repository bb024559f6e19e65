"""DC optimal power flow duals as a DC circuit.

Solves the DC-OPF linear program, extracts bus prices (balance duals) and
congestion prices (flow-limit duals), converts the dual solution into an
equivalent resistor/current-source circuit, and analyzes it: nodal solve,
KCL/KVL ledgers, superposition, negative-price prediction, and price recovery
from partial information.
"""

import os

# One BLAS thread unless the user set a count: the package's dense solves are
# small enough that waking a thread pool costs far more than it saves. BLAS
# reads these when numpy first loads it, so they act only if lmpcirc imports
# numpy first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from ._kernels import BACKEND
from .analysis import (
    CongestionImpact,
    LimitedInfo,
    NegativePriceReport,
    RecoveredPrices,
    congestion_impact,
    load_limited_info,
    predict_negative_prices,
    recover_lmps,
)
from .circuit import (
    CircuitError,
    CircuitSolution,
    CurrentSource,
    EquivalentCircuit,
    LoopSum,
    NoCongestion,
    Resistor,
    SeriesVoltageSource,
    VoltageSourceView,
    build_circuit,
    circuit_from_parts,
    kcl_residuals,
    kvl_loop_sums,
    loop_sum_along,
    solve_circuit,
    superpose,
    to_voltage_sources,
)
from .dcopf import (
    CheckReport,
    DcopfSolution,
    LineDual,
    NoMarginalInjector,
    OpfError,
    OpfInfeasible,
    OpfNumerical,
    ResidualCheck,
    cheapest_marginal,
    solve_opf,
    verify_optimality,
)
from .lp import INFEASIBLE, NUMERICAL, OPTIMAL, LpProblem, LpSolution, solve_lp
from .network import (
    Bus,
    Injector,
    Line,
    Network,
    NetworkError,
    OpfLp,
    SchemaError,
    assemble_lp,
    build_b_matrix,
    generate_random_network,
    line_flows,
    load_network,
    network_to_doc,
    parse_network,
)

__version__ = "0.1.0"
