"""Command-line front end.

    lmpcirc solve            -i net.json [-o PATH] [--format json|text] [--ref-bus K]
    lmpcirc circuit          -i net.json [-o PATH] [--format json|text] [--voltage-sources]
    lmpcirc check            -i net.json [-o PATH] [--format json|text] [--tol X]
    lmpcirc superpose        -i net.json [-o PATH] [--format json|text]
    lmpcirc predict-negative -i net.json [-o PATH] [--format json|text]
    lmpcirc recover          -i limited_info.json [-o PATH] [--format json|text]
    lmpcirc gen --seed N -n N [--edge-prob P] [-o PATH]

--ref-bus is the bus whose angle solve reports as zero; it moves only the
angles, never the dispatch or a price. --tol is the residual tolerance of
check; it must be a finite number > 0. A flow limit is binding, and becomes a
circuit source, when its congestion price exceeds 1e-7.

Exit codes: 0 ok, 1 usage, parse or schema error (also an unreadable or
unwritable path), 2 infeasible, 4 no congestion / no marginal injector
(circuit undefined), 5 check failed, 6 numerical failure (the simplex
iteration cap, a singular reduced Laplacian or final basis, or a solution that
fails its optimality certificate), 7 out of memory
(numpy's message names the array shape and dtype it could not allocate). Code 3
is unused: a schema-valid OPF bounds every injection, so it is never unbounded.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import reports
from .analysis import congestion_impact, load_limited_info, predict_negative_prices, recover_lmps
from .circuit import CircuitError, NoCongestion, build_circuit, solve_circuit
from .dcopf import NoMarginalInjector, OpfInfeasible, solve_opf
from .network import NetworkError, SchemaError, generate_random_network, load_network, network_to_doc

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CIRCUIT = 4
EXIT_CHECK_FAILED = 5
EXIT_NUMERICAL = 6
EXIT_MEMORY = 7


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lmpcirc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", "-i", required=True, help="input file path")
        p.add_argument("--output", "-o", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    command("solve", "solve the OPF and report prices").add_argument(
        "--ref-bus", type=int, default=0, help="angle reference bus")
    command("circuit", "convert the dual solution to a circuit").add_argument(
        "--voltage-sources", action="store_true", help="render the netlist with series voltage sources")
    command("check", "verify optimality, node balances, loop sums").add_argument(
        "--tol", type=float, default=1e-7, help="residual tolerance (finite, > 0)")
    command("superpose", "per-congestion price contributions")
    command("predict-negative", "negative-price prediction")
    command("recover", "recover prices from limited information")
    pg = sub.add_parser("gen", help="generate a random network file")
    pg.add_argument("--output", "-o", default=None, help="output path (default stdout)")
    pg.add_argument("--seed", type=int, required=True)
    pg.add_argument("-n", type=int, required=True, dest="n_buses", help="bus count (>= 3)")
    pg.add_argument("--edge-prob", type=float, default=0.4)
    return parser


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solved(args):
    net = load_network(args.input)
    return net, solve_opf(net)


def _cmd_solve(args) -> int:
    net = load_network(args.input)
    sol = solve_opf(net, ref_bus=args.ref_bus)
    if args.format == "text":
        _emit(args, reports.solution_table(net, sol))
    else:
        _emit(args, reports.dumps(reports.solution_doc(net, sol)))
        if args.output:
            sys.stdout.write(reports.solution_table(net, sol))
    return EXIT_OK


def _cmd_circuit(args) -> int:
    net, sol = _solved(args)
    circ = build_circuit(net, sol)
    if args.format == "text":
        _emit(args, "\n".join(reports.netlist_lines(circ, voltage_sources=args.voltage_sources)) + "\n")
    else:
        _emit(args, reports.dumps(reports.circuit_doc(circ)))
        if args.output:
            sys.stdout.write("\n".join(reports.netlist_lines(circ, voltage_sources=args.voltage_sources)) + "\n")
    return EXIT_OK


def _cmd_check(args) -> int:
    net, sol = _solved(args)
    doc = reports.check_doc(net, sol, args.tol)
    if args.format == "text":
        _emit(args, reports.check_text(doc))
    else:
        _emit(args, reports.dumps(doc))
    return EXIT_OK if doc["passed"] else EXIT_CHECK_FAILED


def _cmd_superpose(args) -> int:
    net, sol = _solved(args)
    circ = build_circuit(net, sol)
    doc = reports.superpose_doc(circ, congestion_impact(circ))
    _emit(args, reports.superpose_text(doc) if args.format == "text" else reports.dumps(doc))
    return EXIT_OK


def _cmd_predict_negative(args) -> int:
    net, sol = _solved(args)
    circ = build_circuit(net, sol)
    rep = predict_negative_prices(circ, solve_circuit(circ))
    doc = reports.negative_doc(rep, sol.lmp)
    _emit(args, reports.negative_text(doc) if args.format == "text" else reports.dumps(doc))
    return EXIT_OK


def _cmd_recover(args) -> int:
    info = load_limited_info(args.input)
    res = recover_lmps(info)
    _emit(args, reports.recover_text(res) if args.format == "text" else reports.dumps(reports.recover_doc(res)))
    return EXIT_OK


def _cmd_gen(args) -> int:
    net = generate_random_network(args.seed, args.n_buses, args.edge_prob)
    _emit(args, reports.dumps(network_to_doc(net)))
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "circuit": _cmd_circuit,
    "check": _cmd_check,
    "superpose": _cmd_superpose,
    "predict-negative": _cmd_predict_negative,
    "recover": _cmd_recover,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_SCHEMA if exc.code else EXIT_OK
    if "tol" in args and not (math.isfinite(args.tol) and args.tol > 0):
        print("error: --tol must be a finite number > 0", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        return _COMMANDS[args.command](args)
    except (SchemaError, NetworkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except OpfInfeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        for line in _infeasible_detail(exc.diagnostics):
            print(f"  {line}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NoCongestion, NoMarginalInjector) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CIRCUIT
    except CircuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_MEMORY


def _infeasible_detail(diag: dict) -> list[str]:
    """The diagnostics that bear on an infeasibility: the capacity totals when
    capacity falls short of the fixed demand, and the deficit buses with their
    limited boundary lines when the proof names any. A must-run surplus, or a
    shortfall only once minimum loads are added, gets neither: its message
    already gives the totals it compares."""
    if not diag:
        return []
    out = []
    if diag["total_generation_capacity"] < diag["total_fixed_demand"]:
        out.append(f"capacity {diag['total_generation_capacity']:g} MW vs fixed demand "
                   f"{diag['total_fixed_demand']:g} MW")
    if diag["deficit_buses"]:
        out.append(f"deficit buses {diag['deficit_buses']}; limited boundary lines "
                   f"{[(c['from'], c['to']) for c in diag['cut_lines']]}")
    return out


if __name__ == "__main__":
    sys.exit(main())
