import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from lmpcirc import OpfError, OpfNumerical, _kernels, cli, dcopf, load_network, lp, network, solve_opf
from lmpcirc.cli import EXIT_MEMORY, EXIT_NUMERICAL, main

import oracles
from conftest import case_path

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
CASE7_LMP = [45.0, 0.0, 45.0, 90.0, 45.0, 0.0, 22.5]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_golden(name: str, text: str):
    path = GOLDEN / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.write_text(text)
    assert text == path.read_text(), f"golden mismatch: {name}"


# ---------------------------------------------------------------------------
# golden outputs over the shipped instances
# ---------------------------------------------------------------------------

def test_solve_fig1_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "-i", str(case_path("fig1_3bus.json")))
    assert code == 0
    check_golden("fig1_solve.json", out)
    doc = json.loads(out)
    assert doc["lmp"] == {"0": 0.0, "1": 40.0, "2": 20.0}
    assert doc["mu"] == [{"from": 0, "to": 1, "value": 60.0, "mw_basis": 60.0}]


def test_solve_fig1_text(capsys):
    code, out, _ = run_cli(capsys, "solve", "-i", str(case_path("fig1_3bus.json")),
                           "--format", "text")
    assert code == 0
    check_golden("fig1_solve.txt", out)


def test_solve_fig4_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "-i", str(case_path("fig4_3bus_negative.json")))
    assert code == 0
    check_golden("fig4_solve.json", out)
    doc = json.loads(out)
    assert doc["lmp"]["0"] == -60.0
    assert doc["mu"][0]["value"] == 240.0


def test_solve_case7_json(capsys):
    code, out, _ = run_cli(capsys, "solve", "-i", str(case_path("case7_reconstructed.json")))
    assert code == 0
    check_golden("case7_solve.json", out)
    doc = json.loads(out)
    assert doc["lmp"] == {"0": 45.0, "1": 0.0, "2": 45.0, "3": 90.0, "4": 45.0, "5": 0.0, "6": 22.5}
    assert doc["marginal"] == [0, 1, 5]


def test_circuit_fig1_json(capsys):
    code, out, _ = run_cli(capsys, "circuit", "-i", str(case_path("fig1_3bus.json")))
    assert code == 0
    check_golden("fig1_circuit.json", out)
    doc = json.loads(out)
    assert doc["current_sources"] == [{"from": 0, "to": 1, "amps": 60.0}]
    assert doc["ground"] == 0


def test_circuit_case7_netlist(capsys):
    code, out, _ = run_cli(capsys, "circuit", "-i", str(case_path("case7_reconstructed.json")),
                           "--format", "text")
    assert code == 0
    check_golden("case7_circuit_netlist.txt", out)
    assert "I1 5 0 112.5" in out
    assert "I2 1 3 180" in out
    assert oracles.netlist_prices(out) == pytest.approx(CASE7_LMP, abs=1e-9)


def test_circuit_case7_voltage_netlist(capsys):
    code, out, _ = run_cli(capsys, "circuit", "-i", str(case_path("case7_reconstructed.json")),
                           "--format", "text", "--voltage-sources")
    assert code == 0
    check_golden("case7_circuit_vsrc_netlist.txt", out)
    assert "V1 m1 5 112.5" in out
    assert "V2 m2 1 180" in out
    assert oracles.netlist_prices(out) == pytest.approx(CASE7_LMP, abs=1e-9)


def test_circuit_output_file_plus_netlist(capsys, tmp_path):
    out_path = tmp_path / "circuit.json"
    code, out, _ = run_cli(capsys, "circuit", "-i", str(case_path("fig1_3bus.json")),
                           "-o", str(out_path))
    assert code == 0
    assert out_path.read_text() == (GOLDEN / "fig1_circuit.json").read_text()
    # the netlist still lands on stdout
    assert out == run_cli(capsys, "circuit", "-i", str(case_path("fig1_3bus.json")),
                          "--format", "text")[1]
    assert "I1 0 1 60" in out


def test_check_case7_text(capsys):
    code, out, _ = run_cli(capsys, "check", "-i", str(case_path("case7_reconstructed.json")),
                           "--format", "text")
    assert code == 0
    check_golden("case7_check.txt", out)
    # ledger identities (terms ordered by line index)
    assert "node 0: 112.5 = 45 + 45 + 22.5" in out
    assert "node 3: 180 = 45 + 45 + 90" in out
    assert "result: PASS" in out


def test_check_case7_json(capsys):
    code, out, _ = run_cli(capsys, "check", "-i", str(case_path("case7_reconstructed.json")))
    assert code == 0
    check_golden("case7_check.json", out)
    doc = json.loads(out)
    assert doc["passed"]
    assert len(doc["optimality"]) == 7
    assert len(doc["kcl"]) == 7
    assert len(doc["kvl"]) == 3  # 9 lines - 6 tree edges


def test_check_fig4_json(capsys):
    # its flows and price drops are integral, so every float column of its
    # kcl and kvl records, lists of one to three floats each, is split and mended
    code, out, _ = run_cli(capsys, "check", "-i", str(case_path("fig4_3bus_negative.json")))
    assert code == 0
    check_golden("fig4_check.json", out)
    doc = json.loads(out)
    assert doc["passed"]
    assert [l["loop"] for l in doc["kvl"]] == [[1, 0, 2]]


def test_check_random_network_passes(capsys, tmp_path):
    path = tmp_path / "random.json"
    assert run_cli(capsys, "gen", "--seed", "11", "-n", "9", "-o", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "check", "-i", str(path), "--format", "text")
    assert code == 0
    assert "result: PASS" in out


def test_check_tree_network_notice(capsys, tmp_path):
    doc = {
        "buses": [{"id": 0, "demand": 0}, {"id": 1, "demand": 50}],
        "lines": [{"from": 0, "to": 1, "susceptance": 1, "flow_limit": 20}],
        "injectors": [
            {"bus": 0, "kind": "generator", "cost": 5, "p_min": 0, "p_max": 100},
            {"bus": 1, "kind": "generator", "cost": 30, "p_min": 0, "p_max": 100},
        ],
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check", "-i", str(path), "--format", "text")
    assert code == 0
    assert "no cycles" in out
    code, out, _ = run_cli(capsys, "circuit", "-i", str(path), "--format", "text")
    assert code == 0
    assert out.splitlines()[1] == \
        "* radial network: conversion valid, but the analogy is stated for meshed grids"


def test_superpose_case7(capsys):
    code, out, _ = run_cli(capsys, "superpose", "-i", str(case_path("case7_reconstructed.json")),
                           "--format", "text")
    assert code == 0
    check_golden("case7_superpose.txt", out)
    code, out, _ = run_cli(capsys, "superpose", "-i", str(case_path("case7_reconstructed.json")))
    assert code == 0
    check_golden("case7_superpose.json", out)
    doc = json.loads(out)
    assert len(doc["sources"]) == 2
    assert doc["totals"] == [45.0, 0.0, 45.0, 90.0, 45.0, 0.0, 22.5]


def test_predict_negative_fig4(capsys):
    code, out, _ = run_cli(capsys, "predict-negative",
                           "-i", str(case_path("fig4_3bus_negative.json")), "--format", "text")
    assert code == 0
    check_golden("fig4_predict.txt", out)
    assert out.startswith("negative prices: YES (bus 0")
    code, out, _ = run_cli(capsys, "predict-negative",
                           "-i", str(case_path("fig4_3bus_negative.json")))
    assert code == 0
    check_golden("fig4_predict.json", out)
    assert json.loads(out)["witnesses"] == [0]


def test_predict_negative_fig1_text(capsys):
    code, out, _ = run_cli(capsys, "predict-negative",
                           "-i", str(case_path("fig1_3bus.json")), "--format", "text")
    assert code == 0
    assert out == ("negative prices: NO (lowest lmp=0 at bus 0)\n"
                   "ground is at the minimum-voltage node (offset 0)\n")


def test_recover_with_and_without_ground(capsys):
    code, out, _ = run_cli(capsys, "recover", "-i", str(DATA / "case7_limited.json"))
    assert code == 0
    check_golden("case7_recover_full.json", out)
    doc = json.loads(out)
    assert doc["lmp"]["3"] == 90.0
    code, out, _ = run_cli(capsys, "recover", "-i", str(DATA / "case7_limited_noground.json"))
    assert code == 0
    check_golden("case7_recover_delta.json", out)
    doc = json.loads(out)
    assert doc["delta"][0][5] == 45.0


@pytest.mark.parametrize("data, golden, line", [
    ("case7_limited.json", "case7_recover_full.txt", "3     90"),
    ("case7_limited_noground.json", "case7_recover_delta.txt", "absolute level unknown"),
])
def test_recover_text(capsys, data, golden, line):
    code, out, _ = run_cli(capsys, "recover", "-i", str(DATA / data), "--format", "text")
    assert code == 0
    check_golden(golden, out)
    assert line in out


def test_gen_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "gen", "--seed", "1", "-n", "7", "-o", str(a))[0] == 0
    assert run_cli(capsys, "gen", "--seed", "1", "-n", "7", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    code, out, _ = run_cli(capsys, "gen", "--seed", "1", "-n", "7")
    assert code == 0
    check_golden("gen_seed1_n7.json", out)
    # generated files are themselves valid solver input
    assert run_cli(capsys, "solve", "-i", str(a))[0] in (0, 2)


def test_solve_repeat_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "solve", "-i", str(case_path("case7_reconstructed.json")))
    _, out2, _ = run_cli(capsys, "solve", "-i", str(case_path("case7_reconstructed.json")))
    assert out1 == out2


# ---------------------------------------------------------------------------
# exit codes and diagnostics
# ---------------------------------------------------------------------------

def test_malformed_json_exit1(capsys):
    code, _, err = run_cli(capsys, "solve", "-i", str(DATA / "malformed.json"))
    assert code == 1
    assert "line" in err and "column" in err


def test_unknown_key_exit1(capsys, tmp_path):
    doc = json.loads(case_path("fig1_3bus.json").read_text())
    doc["lines"][0]["rating"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", "-i", str(path))
    assert code == 1
    assert "unknown key" in err


@pytest.mark.parametrize("edit, args, message", [
    pytest.param(lambda d: d["lines"][1].update({"susceptance": 0}), [],
                 "susceptance must be finite and > 0", id="zero-susceptance"),
    pytest.param(lambda d: d["buses"].append({"id": 3, "demand": 0}), [],
                 "network graph is not connected", id="disconnected-bus"),
    pytest.param(lambda d: None, ["--ref-bus", "3"],
                 "reference bus 3 out of range", id="ref-bus-out-of-range"),
])
def test_invalid_network_exit1(capsys, tmp_path, edit, args, message):
    doc = json.loads(case_path("fig1_3bus.json").read_text())
    edit(doc)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "solve", "-i", str(path), *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command", ["solve", "recover"])
def test_deeply_nested_json_exit1(capsys, tmp_path, command):
    # json.load recurses once per nesting level and raises RecursionError
    depth = 200_000
    path = tmp_path / "nested.json"
    path.write_text('{"buses": ' + "[" * depth + "]" * depth + ', "lines": [], "injectors": []}')
    code, out, err = run_cli(capsys, command, "-i", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_missing_file_exit1(capsys):
    code, _, err = run_cli(capsys, "solve", "-i", "nope.json")
    assert code == 1


def test_infeasible_exit2_with_cut(capsys):
    code, _, err = run_cli(capsys, "solve", "-i", str(DATA / "infeasible_2bus.json"))
    assert code == 2
    assert "capacity" in err or "cannot" in err
    assert "deficit buses" in err


def test_must_run_surplus_prints_no_capacity_comparison(capsys, tmp_path):
    # a 59-60 MW generator against 50 MW of fixed demand and a 0-5 MW load:
    # capacity covers the demand, so "capacity 60 MW vs fixed demand 50 MW"
    # would not bear on the named cause, and no deficit bus is named
    path = tmp_path / "surplus.json"
    path.write_text(json.dumps({
        "buses": [{"id": 0, "demand": 50}, {"id": 1, "demand": 0}],
        "lines": [{"from": 0, "to": 1, "susceptance": 1}],
        "injectors": [{"bus": 1, "kind": "generator", "cost": 10, "p_min": 59, "p_max": 60},
                      {"bus": 0, "kind": "load", "cost": 30, "p_min": 0, "p_max": 5}],
    }))
    code, out, err = run_cli(capsys, "solve", "-i", str(path))
    assert code == 2
    assert out == ""
    assert err == ("error: infeasible: must-run generation 59 MW exceeds "
                   "fixed demand 50 MW plus maximum load 5 MW\n")


def test_capacity_shortfall_prints_the_capacity_comparison(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({
        "buses": [{"id": 0, "demand": 0}, {"id": 1, "demand": 100}],
        "lines": [{"from": 0, "to": 1, "susceptance": 1}],
        "injectors": [{"bus": 0, "kind": "generator", "cost": 5, "p_min": 0, "p_max": 20}],
    }))
    code, _, err = run_cli(capsys, "solve", "-i", str(path))
    assert code == 2
    assert err.splitlines()[1:] == ["  capacity 20 MW vs fixed demand 100 MW"]


def test_uncongested_circuit_exit4(capsys):
    code, _, err = run_cli(capsys, "circuit", "-i", str(DATA / "uncongested_3bus.json"))
    assert code == 4
    assert "no binding flow limit" in err
    code, _, _ = run_cli(capsys, "superpose", "-i", str(DATA / "uncongested_3bus.json"))
    assert code == 4
    code, _, _ = run_cli(capsys, "predict-negative", "-i", str(DATA / "uncongested_3bus.json"))
    assert code == 4


def _limited_doc(edit):
    doc = json.loads((DATA / "case7_limited.json").read_text())
    edit(doc)
    return doc


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["topology"]["lines"][0].update({"to": 1.7}), id="float-node-id"),
    pytest.param(lambda d: d["topology"]["lines"][0].update({"from": "0"}), id="string-node-id"),
    pytest.param(lambda d: d["topology"]["lines"][2].update({"from": True}), id="bool-node-id"),
    pytest.param(lambda d: d.update({"ground": True}), id="bool-ground"),
    pytest.param(lambda d: d["topology"]["lines"][0].update({"susceptance": "NaN"}), id="nan-susceptance"),
    pytest.param(lambda d: d["sources"][0].update({"mu": "nan"}), id="nan-mu"),
    pytest.param(lambda d: d.update({"offset": "1e999"}), id="infinite-offset"),
    pytest.param(lambda d: d.update({"sources": 5}), id="non-array-sources"),
    pytest.param(lambda d: d["topology"]["lines"].append({"from": 1, "to": 1, "susceptance": 1}),
                 id="self-loop-line"),
    pytest.param(lambda d: d.update({"sources": []}), id="no-sources"),
    pytest.param(lambda d: d["sources"][0].update({"from": 2, "to": 6}), id="source-without-line"),
    pytest.param(lambda d: d.pop("offset"), id="ground-without-offset"),
    pytest.param(lambda d: d.update({"ground": 9}), id="ground-out-of-range"),
    pytest.param(lambda d: d["sources"].append(5), id="non-object-source"),
    pytest.param(lambda d: d.pop("topology"), id="missing-topology"),
    pytest.param(lambda d: d["topology"]["lines"].append({"from": 0, "to": 9, "susceptance": 1}),
                 id="gap-in-node-ids"),
    pytest.param(lambda d: d["topology"]["lines"][0].update({"susceptance": 0}), id="zero-susceptance"),
])
def test_recover_rejects_malformed_limited_info(capsys, tmp_path, edit):
    path = tmp_path / "limited.json"
    path.write_text(json.dumps(_limited_doc(edit)))
    code, out, err = run_cli(capsys, "recover", "-i", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_iteration_cap_exit6(capsys, monkeypatch):
    # a bare ArithmeticError from solve_opf itself still exits 6
    def capped(*args, **kwargs):
        raise ArithmeticError("simplex iteration limit")

    monkeypatch.setattr("lmpcirc.cli.solve_opf", capped)
    code, _, err = run_cli(capsys, "solve", "-i", str(case_path("fig1_3bus.json")))
    assert code == EXIT_NUMERICAL == 6
    assert err == "error: simplex iteration limit\n"


@pytest.mark.parametrize("argv, target", [
    (("solve", "-i", str(case_path("fig1_3bus.json"))), "lmpcirc.cli.solve_opf"),
    (("recover", "-i", str(DATA / "case7_limited.json")), "lmpcirc.cli.recover_lmps"),
])
def test_out_of_memory_exit7(capsys, monkeypatch, argv, target):
    # numpy's _ArrayMemoryError is a MemoryError; raised here, never allocated
    message = "Unable to allocate 2.99 GiB for an array with shape (19728, 20341) and data type float64"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(target, exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_MEMORY == 7
    assert out == ""
    assert err == f"error: {message}\n"


def _assert_numerical(capsys, net, message):
    # solve_opf raises OpfNumerical alone, which is both an OpfError and an
    # ArithmeticError, and the CLI maps it to exit 6 with the same message
    with pytest.raises(OpfNumerical) as exc:
        solve_opf(net)
    assert str(exc.value) == message
    assert isinstance(exc.value, OpfError) and isinstance(exc.value, ArithmeticError)
    code, out, err = run_cli(capsys, "solve", "-i", str(case_path("fig1_3bus.json")))
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert err == f"error: {message}\n"


def test_kernel_iteration_cap_is_numerical(capsys, monkeypatch, fig1_net):
    # the OPF's one kernel call stops at its iteration cap
    monkeypatch.setattr(_kernels, "run_simplex", lambda tableau, basis, upper: (_kernels.STATUS_ITER_LIMIT, 0))
    _assert_numerical(capsys, fig1_net, "simplex iteration limit")


def test_exit_codes():
    # code 3 (unbounded) is retired: a schema-valid OPF has no unbounded ray;
    # code 7 is out of memory
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert codes == {0, 1, 2, 4, 5, 6, 7}


def _sees(monkeypatch, module, **overrides):
    """Give ``module`` (``dcopf``, or ``network``, which computes the inverse
    that ``OpfLp.X`` keeps) its own view of the ``lp`` module, in which
    ``overrides`` replace the functions it calls itself; the LP solver keeps
    the real ones."""
    monkeypatch.setattr(module, "lp", types.SimpleNamespace(**{**vars(lp), **overrides}))


def _singular(a):
    raise np.linalg.LinAlgError("Singular matrix")


# Each test below loads fig1 afresh: a network keeps its inverse once a solve
# has computed it, so the shared fig1_net would never reach the inversion


def test_singular_final_basis_exit6(capsys, monkeypatch):
    # only the final basis fails; the reduced Laplacian is inverted as usual
    _sees(monkeypatch, network, _inverse=lp._inverse)
    monkeypatch.setattr(lp, "_inverse", _singular)
    _assert_numerical(capsys, load_network(case_path("fig1_3bus.json")), "singular final basis")


def test_singular_reduced_laplacian_exit6(capsys, monkeypatch):
    # only the reduced Laplacian fails. numpy's LinAlgError is a ValueError,
    # which the CLI would report as exit 1
    _sees(monkeypatch, network, _inverse=_singular)
    _assert_numerical(capsys, load_network(case_path("fig1_3bus.json")), "singular reduced susceptance Laplacian")


def test_uncertified_prices_exit6(capsys, monkeypatch, fig1_net):
    # the LP's own certificate passes, but the angles and prices recovered from
    # it are perturbed, so the check on the full OPF blocks fails
    refined = lp._refined_solve
    _sees(monkeypatch, dcopf, _refined_solve=lambda *args: refined(*args) + 1e-3)
    with pytest.raises(OpfNumerical, match="fails its optimality certificate on the full OPF blocks"):
        solve_opf(fig1_net)
    code, out, err = run_cli(capsys, "solve", "-i", str(case_path("fig1_3bus.json")))
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("error: numerical failure: ") and "fails its optimality certificate" in err
    assert err.count("\n") == 1


def test_uncertified_solution_exit6(capsys, monkeypatch):
    # a factored vertex that fails the certificate: the refined solve is perturbed,
    # since no generated network is known to fail it any more
    refined = lp._refined_solve
    monkeypatch.setattr("lmpcirc.lp._refined_solve", lambda *args: refined(*args) + 1e-3)
    code, out, err = run_cli(capsys, "solve", "-i", str(case_path("case7_reconstructed.json")))
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("error: numerical failure: ") and err.count("\n") == 1


def test_check_failure_exit5(capsys):
    # case7's residuals are tiny but nonzero (fig1's are exactly zero)
    code, out, _ = run_cli(capsys, "check", "-i", str(case_path("case7_reconstructed.json")),
                           "--tol", "1e-30", "--format", "text")
    assert code == 5
    assert "FAIL" in out


def test_solve_output_file_plus_table(capsys, tmp_path):
    out_path = tmp_path / "sol.json"
    code, out, _ = run_cli(capsys, "solve", "-i", str(case_path("fig1_3bus.json")),
                           "-o", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["objective"] == 600.0
    assert "bus   lmp" in out  # human table still lands on stdout


def test_bad_tol_rejected(capsys):
    code, _, err = run_cli(capsys, "solve", "-i", str(case_path("fig1_3bus.json")),
                           "--tol", "-1")
    assert code == 1
    assert "--tol" in err


@pytest.mark.parametrize("argv", [
    ["solve"],                                                  # missing -i
    ["gen", "--seed", "1", "-n", "5", "--format", "text"],      # gen writes JSON only
    # the binding rule is fixed: a threshold above a congestion price would drop a source
    *([cmd, "-i", str(case_path("case7_reconstructed.json")), "--tol", "150"]
      for cmd in ("circuit", "superpose", "predict-negative")),
    # only solve prints angles, and the reference bus moves nothing else
    *([cmd, "-i", str(case_path("case7_reconstructed.json")), "--ref-bus", "3"]
      for cmd in ("circuit", "check", "superpose", "predict-negative")),
])
def test_usage_error_exit1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_help_exit0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "Exit codes" in out


@pytest.mark.parametrize("flag", ["-i", "-o"])
def test_directory_path_exit1(capsys, tmp_path, flag):
    args = ["-i", str(tmp_path)] if flag == "-i" else \
        ["-i", str(case_path("fig1_3bus.json")), "-o", str(tmp_path)]
    code, out, err = run_cli(capsys, "solve", *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_check_rejects_nonfinite_or_nonpositive_tol(capsys, tol):
    code, out, err = run_cli(capsys, "check", "-i", str(case_path("case7_reconstructed.json")),
                             "--tol", tol)
    assert code == 1
    assert out == ""
    assert err == "error: --tol must be a finite number > 0\n"


def test_ref_bus_override(capsys):
    code1, out1, _ = run_cli(capsys, "solve", "-i", str(case_path("case7_reconstructed.json")),
                             "--ref-bus", "3")
    assert code1 == 0
    doc = json.loads(out1)
    assert doc["lmp"]["3"] == 90.0
    assert doc["theta"][3] == 0.0


# ---------------------------------------------------------------------------
# process environment
# ---------------------------------------------------------------------------

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# imports lmpcirc first, then prints the BLAS variables and the thread count
# OpenBLAS reports through its own C API (null where it cannot be asked)
_BLAS_CHILD = """
import ctypes, json, os, sys
import lmpcirc.cli

count = None
try:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = [line.split()[-1] for line in fh if "openblas" in line.lower()]
except OSError:
    paths = []
if paths:
    lib = ctypes.CDLL(paths[0])
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            count = int(fn())
            break
print(json.dumps({"env": [os.environ.get(v) for v in sys.argv[1:]], "blas": count}))
"""


def _run_child(script: str, *args: str, env: dict | None = None) -> str:
    """Stdout of ``script`` run in a fresh interpreter that imports this lmpcirc."""
    env = dict(os.environ if env is None else env)
    src = str(Path(lp.__file__).parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def _blas_in_child(**overrides) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env.update(overrides)
    return json.loads(_run_child(_BLAS_CHILD, *_BLAS_VARS, env=env))


def test_blas_defaults_to_one_thread():
    out = _blas_in_child()
    assert out["env"] == ["1", "1", "1"]
    assert out["blas"] in (None, 1)


def test_blas_thread_count_set_by_the_user_wins():
    out = _blas_in_child(OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="3")
    assert out["env"] == ["2", "1", "3"]


# runs every OPF command on one network and recover on a limited-info file,
# then prints their exit codes and whether scipy was ever imported
_SCIPY_CHILD = """
import contextlib, io, sys
from lmpcirc.cli import main

network, limited = sys.argv[1:]
commands = [[cmd, "-i", network] for cmd in ("solve", "circuit", "check", "superpose", "predict-negative")]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands + [["recover", "-i", limited]]]
print(codes, "scipy" in sys.modules)
"""


def test_runtime_never_imports_scipy():
    # scipy is a test dependency only (the HiGHS cross-checks): the solver, the
    # circuit layer and the CLI run on numpy alone
    out = _run_child(_SCIPY_CHILD, str(case_path("case7_reconstructed.json")), str(DATA / "case7_limited.json"))
    assert out == "[0, 0, 0, 0, 0, 0] False\n"
