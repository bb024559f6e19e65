"""Tests of the benchmark itself, at a tiny smoke size.

Run from the repository root: python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import refspeed  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((W.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    _, result = run.run(workload, 3, 0.1, trace, sizes=W.SMOKE_SIZES[workload])
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["correct"] is True and result["attempted"] >= 1
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_spec_names_the_workloads_the_benchmark_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


def test_inputs_follow_the_seed(tmp_dir):
    sizes = W.SMOKE_SIZES["circuit_large"]
    a = W.make_inputs("circuit_large", 5, tmp_dir / "a", sizes)
    b = W.make_inputs("circuit_large", 5, tmp_dir / "b", sizes)
    c = W.make_inputs("circuit_large", 6, tmp_dir / "c", sizes)
    assert [d["sha256"] for d in a] == [d["sha256"] for d in b]
    assert [d["sha256"] for d in a] != [d["sha256"] for d in c]


@pytest.fixture
def tmp_dir():
    path = W.ROOT / ".perfbench_out" / "test-tmp"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def solved_network(tmp_dir):
    inputs = W.make_inputs("opf_dense", 0, tmp_dir, W.SMOKE_SIZES["opf_dense"])
    net = W.parse_inputs(inputs)[0]
    ref = W.references("opf_dense", inputs)[0]
    return net, ref, W.opf_op(net)


def test_correct_answer_is_ok(solved_network):
    net, ref, out = solved_network
    assert W.check_opf(net, ref, out, None) == "ok"


def test_perturbed_objective_is_wrong(solved_network):
    net, ref, out = solved_network
    out = dict(out, sol=dataclasses.replace(out["sol"], objective=out["sol"].objective + 1e-3))
    assert W.check_opf(net, ref, out, None) == "wrong"


def test_perturbed_lmp_is_wrong(solved_network):
    net, ref, out = solved_network
    lmp = out["sol"].lmp.copy()
    lmp[1] += 1e-3
    out = dict(out, sol=dataclasses.replace(out["sol"], lmp=lmp))
    assert W.check_opf(net, ref, out, None) == "wrong"


def test_perturbed_cli_lmp_is_wrong(tmp_dir):
    inputs = W.make_inputs("cli_cases", 0, tmp_dir, W.SMOKE_SIZES["cli_cases"])
    ref = W.references("cli_cases", inputs)[2]
    proc = W.cli_op(W.cli_argv("solve", inputs[2]["path"]), 60)
    assert W.check_cli("solve", ref, proc, None) == "ok"
    doc = json.loads(proc.stdout)
    doc["lmp"]["3"] += 1e-3
    proc.stdout = json.dumps(doc)
    assert W.check_cli("solve", ref, proc, None) == "wrong"


def test_perturbed_circuit_voltage_is_wrong(tmp_dir):
    inputs = W.make_inputs("circuit_large", 0, tmp_dir, W.SMOKE_SIZES["circuit_large"])
    info, ref = W.parse_inputs(inputs)[0], W.references("circuit_large", inputs)[0]
    out = W.circuit_op(info)
    assert W.check_circuit(info, ref, out, None) == "ok"
    lmp = out["absolute"].lmp.copy()
    lmp[0] += 1e-3
    out["absolute"] = dataclasses.replace(out["absolute"], lmp=lmp)
    assert W.check_circuit(info, ref, out, None) == "wrong"


@pytest.mark.parametrize("exc, category", [
    (W.OpTimeout(), "timeout"),
    (ArithmeticError("simplex iteration limit in phase 1"), "iter_cap"),
    (W.L.OpfInfeasible("infeasible"), "false_infeasible"),
    (RuntimeError("boom"), "error"),
])
def test_failures_are_classified(solved_network, exc, category):
    net, ref, _ = solved_network
    assert W.check_opf(net, ref, None, exc) == category


def test_time_cap_interrupts_an_op():
    start = time.perf_counter()
    with pytest.raises(W.OpTimeout):
        with W.op_deadline(0.05):
            while True:
                sum(range(1000))
    assert time.perf_counter() - start < 5


def test_without_the_package_it_fails_without_a_result(tmp_dir):
    shutil.copytree(W.HERE, tmp_dir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_dir)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "opf_grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_dir, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_samples_above_it():
    samples = [float(x) for x in range(40)]
    value, percentile = run.tail(samples)
    assert sum(s > value for s in samples) == 10
    assert percentile == pytest.approx(75.0)
    assert np.isfinite(run.tail([1.0, 2.0])[0])


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_reference_time_divides_out_the_kernel_speed(workload):
    kind = W.REF_KERNEL[workload]
    ref_s = refspeed.REF_S[kind]
    assert refspeed.to_ref(kind, 0.2, ref_s, ref_s) == pytest.approx(0.2)
    assert refspeed.to_ref(kind, 0.2, 1.5 * ref_s, 2.5 * ref_s) == pytest.approx(0.1)
    assert 0 < refspeed.kernel(kind) < 1
