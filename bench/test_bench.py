"""Tests of the benchmark harness itself.

    python3 -m pytest bench -q

They check the generated inputs, the output checks, the metric names against
BENCHMARK.json and the tracer.  Nothing here asserts on a timing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import dwigner.simulate  # noqa: E402
from dwigner import cli  # noqa: E402
from dwigner.circuits import parse_circuit_file  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", [1, 2, workloads.HELD_OUT_SEED])
def test_generated_circuits_accept(tmp_path, capsys, seed):
    plan = workloads.prepare("sample-wide", ROOT, tmp_path, seed)
    for command in plan.commands:
        assert cli.main(["sample", command.argv[1], "--shots", "0"]) == 0
        assert capsys.readouterr().out.strip() == "ACCEPT"


def test_generated_circuits_reach_every_outcome(tmp_path):
    # every oracle branch has nonzero probability, so oracle cost is seed-independent
    plan = workloads.prepare("sample-wide", ROOT, tmp_path, 3)
    circuit = Path(plan.commands[0].argv[1])
    n = workloads.WIDE_REGISTERS[0]
    assert circuit.name == f"wide_n{n}.circ"
    dist = dwigner.simulate.run_oracle(parse_circuit_file(circuit))
    assert len(dist.probabilities) == workloads.P**n


def test_inputs_depend_only_on_seed(tmp_path):
    def texts(seed, sub):
        plan = workloads.prepare("sample-wide", ROOT, tmp_path / sub, seed)
        return [Path(c.argv[1]).read_text() for c in plan.commands], plan.params

    assert texts(5, "a") == texts(5, "b")
    assert texts(5, "a") != texts(6, "c")


def _run_command(command) -> int:
    return worker.call_cli(cli, command.argv)


def test_flipped_slice_label_is_a_failure(tmp_path):
    plan = workloads.prepare("slice-hull", ROOT, tmp_path, 1)
    command = next(c for c in plan.commands if "sixth" in c.argv[1])
    code = _run_command(command)
    clean = command.check(code, command.out)
    assert clean.attempted > 0 and clean.failed == 0
    lines = command.out.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if ",NEGATIVE," in line)
    lines[row] = lines[row].replace(",NEGATIVE,", ",BOUND,")
    command.out.write_text("\n".join(lines) + "\n")
    assert command.check(code, command.out).failed == 1
    del lines[row]
    command.out.write_text("\n".join(lines) + "\n")
    assert command.check(code, command.out).failed == 1  # a missing point fails too


def test_fail_verdicts_are_failures(tmp_path):
    out = tmp_path / "distill.csv"
    argv = ["distill-check", "--random-suite", "6", "--seed", "3", "--n", "3", "--out", str(out)]
    code = cli.main(argv)
    clean = workloads.check_distill(6, code, out)
    assert (clean.attempted, clean.failed) == (6, 0)
    text = out.read_text()
    out.write_text(text.replace(",PASS\n", ",FAIL\n", 1))
    assert workloads.check_distill(6, 1, out).failed == 1

    reg01 = ROOT / "sample_inputs" / "reg01_minimal.circ"
    command = workloads.sample_command(reg01, 2000, 7, tmp_path / "reg01.csv")
    code = _run_command(command)
    assert command.check(code, command.out).failed == 0
    text = command.out.read_text()
    command.out.write_text(text.replace("# verdict = PASS", "# verdict = FAIL"))
    assert command.check(1, command.out).failed == 1
    command.out.unlink()
    assert command.check(code, command.out).failed == 1


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_those_of_benchmark_json(capsys, trace):
    code = run.main(["--workload", "distill-suite", "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split(" = ")[0] for line in lines[:-1] if " = " in line}
    assert printed == set(declared)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_trace_survives_a_missing_function(tmp_path, monkeypatch):
    # the CLI keeps its own binding, so the command still runs untraced there
    monkeypatch.delattr(dwigner.simulate, "compare_distributions")
    reg06 = ROOT / "sample_inputs" / "reg06_adaptive.circ"
    plan = workloads.Plan("sample-regression", [
        workloads.sample_command(reg06, 3000, 5, tmp_path / "reg06.csv")
    ], 3000, "shots", "sample command")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, codes = worker.run_pass(cli, plan)
    finally:
        tracer.uninstall()
    assert codes == [0]
    assert "simulate.compare_distributions" in tracer.missing
    layers = worker.layer_metrics(tracer, wall, plan)
    assert layers["simulate.compare_calls"] == 0
    assert layers["simulate.sample_calls"] == 1
    assert layers["simulate.oracle_calls"] == 1
    assert layers["circuits.validate_calls"] == 1
    assert layers["simulate.field_mults"] > 0
    assert not hasattr(cli.main, "__wrapped__")  # uninstall put the originals back


def test_self_time_and_outermost_calls():
    spans = [
        ["cli", 0.0, 10.0, -1],
        ["geometry.hull", 1.0, 5.0, 0],
        ["exactlp.feasible", 2.0, 4.0, 1],
        ["wigner.forward", 6.0, 8.0, 0],
        ["wigner.forward", 6.5, 7.0, 3],  # recursion into the same layer
    ]
    out = tracing.summarize(spans, 10.5)
    assert out["geometry.hull_s"] == pytest.approx(2.0)
    assert out["exactlp.feasible_s"] == pytest.approx(2.0)
    assert out["wigner.forward_s"] == pytest.approx(2.0)
    assert out["wigner.forward_calls"] == 1
    assert out["cli.self_s"] == pytest.approx(10.5 - 6.0)
    assert tracing.inclusive_time(spans, ["geometry.hull"]) == pytest.approx(4.0)
