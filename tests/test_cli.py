import hashlib
import io
import os
import shutil
import stat
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from dwigner import circuits, cli, geometry, stabilizer
from dwigner.circuits import load_wigner_file
from dwigner.cli import build_parser, main
from dwigner.stabilizer import MAX_MUB_P
from dwigner.wigner import state_from_wigner
from conftest import beyond_int64_slice_spec
from test_simulate import WIDE5


def run_cli(*argv):
    return main(list(argv))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "format-version 1" in out


def test_wigner_mixed(tmp_path):
    out = tmp_path / "w.csv"
    assert run_cli("wigner", "mixed", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "# format-version 1"
    assert lines[1] == "index,a1,a2,value"
    body = [l for l in lines if not l.startswith("#")][1:]
    assert len(body) == 9
    for row in body:
        assert row.split(",")[3] == "0.111111111111"
    assert "# F = 0.333333333333" in lines
    assert "# flag = NONNEGATIVE" in lines


def test_wigner_strange_flags_negative(tmp_path, samples_dir):
    out = tmp_path / "w.csv"
    assert run_cli("wigner", str(samples_dir / "strange.mat"), "--out", str(out)) == 0
    text = out.read_text()
    assert "# flag = NEGATIVE" in text
    assert "# min_W = -0.333333333333 at index 0" in text


def test_wigner_rejects_even_p(capsys):
    assert run_cli("wigner", "mixed", "--p", "4") == 2


def test_sample_validation_only(samples_dir, capsys):
    rc = run_cli("sample", str(samples_dir / "reg01_minimal.circ"), "--shots", "0")
    assert rc == 0
    assert "ACCEPT" in capsys.readouterr().out


def test_sample_rejects_negative_input(samples_dir, capsys):
    rc = run_cli("sample", str(samples_dir / "bad_negative_input.circ"), "--shots", "0")
    assert rc == 2
    err = capsys.readouterr().err
    assert "negative Wigner value" in err
    assert "(0,0)" in err


def test_sample_and_wigner_share_the_negativity_tolerance(tmp_path, monkeypatch, capsys):
    # W(0,0) = -1/20000000000 and the values sum to exactly 1: `wigner` flags
    # the state NEGATIVE, so `sample` must refuse it as an input
    rows = [f"{a1} {a2} 1/9" for a1 in range(3) for a2 in range(3)]
    rows[0], rows[1] = "0 0 -1/20000000000", "0 1 40000000009/180000000000"
    (tmp_path / "tiny.w").write_text("wigner p=3\n" + "\n".join(rows) + "\n")
    (tmp_path / "c.circ").write_text(
        "qudits p=3 n=1\ninput 1 wigner-file:tiny.w\nmeasure 1 computational\n"
    )
    monkeypatch.chdir(tmp_path)
    assert run_cli("wigner", "wigner-file:tiny.w", "--p", "3") == 0
    assert "# flag = NEGATIVE" in capsys.readouterr().out
    assert run_cli("sample", "c.circ", "--shots", "100", "--seed", "1", "--oracle-check") == 2
    err = capsys.readouterr().err
    assert err.startswith("reject: input 1 (wigner-file:tiny.w): negative Wigner value -")
    assert err.endswith("e-11 at point (0,0)\nREJECT\n")


@pytest.mark.parametrize(
    "items,n,err",
    [
        (
            "gate fourier(5)\ndisplace 9 (1,1)\n",
            1,
            "reject: line 5: register 5 out of range 1..1\n"
            "reject: line 6: register 9 out of range 1..1\n",
        ),
        (
            "gate fourier(9); sum(0,1); fourier(-2)\ndisplace 0 (1,1)\ngate fourier(1)\n",
            2,
            "reject: line 7: register 9 out of range 1..2\n"
            "reject: line 8: register 0 out of range 1..2\n",
        ),
    ],
    ids=["gate-and-displace", "first-in-call-order"],
)
def test_sample_rejects_unreachable_items_out_of_range(tmp_path, capsys, items, n, err):
    # no path runs the items after the label; they are still checked, at the
    # initial register count, each naming its first bad register
    head = f"qudits p=3 n={n}\n" + "".join(f"input {r} zero\n" for r in range(1, n + 1))
    measures = "".join(f"measure {r} computational\n" for r in range(n, 0, -1))
    circ = tmp_path / "unreachable.circ"
    circ.write_text(head + measures + "label X:\n" + items)
    assert run_cli("sample", str(circ), "--shots", "10", "--seed", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err + "REJECT\n"


@pytest.mark.parametrize(
    "circuit,flags,rc",
    [
        ("reg01_minimal.circ", ["--shots", "0"], 0),
        ("bad_negative_input.circ", ["--shots", "100", "--seed", "1"], 2),
        ("reg06_adaptive.circ", ["--shots", "500", "--seed", "3", "--oracle-check"], 0),
    ],
    ids=["accept", "reject", "oracle-check"],
)
def test_sample_validates_once(samples_dir, tmp_path, monkeypatch, circuit, flags, rc):
    calls = spy_everywhere(monkeypatch, "validate_circuit", circuits.validate_circuit)
    argv = ["sample", str(samples_dir / circuit), *flags, "--out", str(tmp_path / "r.csv")]
    assert run_cli(*argv) == rc
    assert len(calls) == 1


def spy_everywhere(monkeypatch, name, original):
    """Rebind every name under which a dwigner module holds `original` to a
    wrapper that records each call's arguments; returns the record."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in [m for mod, m in sys.modules.items() if mod.startswith("dwigner")]:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("circuit", ["reg08_three.circ", "reg07_extend.circ"])
def test_sample_computes_each_wigner_function_once(samples_dir, tmp_path, monkeypatch, circuit):
    # the validator's sign tests and the sampler's tables share one transform
    # per input, per extend state and per effect
    from dwigner import wigner

    prog = circuits.parse_circuit_file(samples_dir / circuit)
    states = len(prog.inputs) + sum(
        isinstance(item, circuits.ExtendInstr) for item in prog.items
    )
    effects = sum(
        len(item.povm.effects) for item in prog.items if isinstance(item, circuits.MeasureInstr)
    )
    calls = spy_everywhere(monkeypatch, "wigner_of_state", wigner.wigner_of_state)
    effect_calls = spy_everywhere(monkeypatch, "wigner_of_effect", wigner.wigner_of_effect)
    argv = ["sample", str(samples_dir / circuit), "--shots", "500", "--seed", "3",
            "--oracle-check", "--out", str(tmp_path / "r.csv")]
    assert run_cli(*argv) == 0
    assert len(calls) == states
    assert len(effect_calls) == effects
    if circuit == "reg08_three.circ":
        assert effects == 9


@pytest.mark.parametrize("p", [11, 13])
def test_sample_oracle_check_past_p_ten(tmp_path, p):
    # phase-space digits of 10 and above: the gate maps come from the table
    circ = tmp_path / "big.circ"
    circ.write_text(
        f"qudits p={p} n=2\ninput 1 zero\ninput 2 zero\ngate fourier(1); sum(1,2)\n"
        "measure 2 computational\nmeasure 1 computational\n"
    )
    out = tmp_path / "r.csv"
    argv = ["sample", str(circ), "--shots", "20000", "--seed", "5", "--oracle-check",
            "--out", str(out)]
    assert run_cli(*argv) == 0
    lines = out.read_text().splitlines()
    assert "# verdict = PASS" in lines
    # fourier(1) then sum(1,2) spreads |00> evenly over the p outcomes xx
    assert len([line for line in lines if not line.startswith("#")]) == p + 1


def test_multiply_constant_is_one_cache_entry(tmp_path):
    # 1, 4 and -2 are one constant mod 3: the parsed call holds it reduced, so
    # the sampler's and the oracle's per-call caches each key the gate once,
    # and the run prints what the written-out constants give
    code = (
        "import sys, dwigner.cli, dwigner.simulate as s, dwigner.weyl as w; "
        "assert dwigner.cli.main(sys.argv[1:]) == 0; "
        "print(s._call_digits.cache_info().currsize, w.call_unitary.cache_info().currsize, file=sys.stderr)"
    )
    runs = []
    for word in ("multiply(1,1); multiply(4,1); multiply(-2,1)", "multiply(1,1); multiply(1,1); multiply(1,1)"):
        circ = tmp_path / "m.circ"
        circ.write_text(f"qudits p=3 n=1\ninput 1 basis(2)\ngate {word}\nmeasure 1 computational\n")
        argv = ["sample", str(circ), "--shots", "1000", "--seed", "1", "--oracle-check"]
        runs.append(subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True))
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert [r.stderr for r in runs] == ["1 1\n", "1 1\n"]
    assert runs[0].stdout == runs[1].stdout and "# verdict = PASS" in runs[0].stdout


def test_sample_requires_seed(samples_dir, capsys):
    rc = run_cli("sample", str(samples_dir / "reg02_fourier.circ"), "--shots", "100")
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


WIDE_CIRCUIT = (
    "qudits p=3 n=6\n"
    + "".join(f"input {r} zero\n" for r in range(1, 6))
    + "input 6 mixed\ngate fourier(1); sum(1,2)\n"
    + "".join(f"measure {r} computational\n" for r in range(6, 0, -1))
)


def test_sample_oracle_guard_refuses_before_any_shot(tmp_path, monkeypatch, capsys):
    # p^n = 729 is past the oracle guard: the circuit is validated, then
    # refused without drawing a shot
    from dwigner import cli, simulate

    calls = []

    def no_shots(prog, seed, shots, jobs=1):
        calls.append(shots)
        if shots:
            raise AssertionError(f"sampled {shots} shots")
        return simulate.sample_classical(prog, seed=seed, shots=shots, jobs=jobs)

    monkeypatch.setattr(cli, "sample_classical", no_shots)
    circ = tmp_path / "wide.circ"
    circ.write_text(WIDE_CIRCUIT)
    argv = ["sample", str(circ), "--shots", "2000000", "--seed", "1", "--oracle-check"]
    assert run_cli(*argv) == 2
    assert calls == [0]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: oracle guard: p^n = 729 exceeds 243\n"
    # zero shots still only validate, and a missing seed is still named first
    assert run_cli("sample", str(circ), "--shots", "0", "--oracle-check") == 0
    assert capsys.readouterr().out == "ACCEPT\n"
    assert run_cli("sample", str(circ), "--shots", "100", "--oracle-check") == 2
    assert capsys.readouterr().err == "error: sampling requires an explicit --seed\n"


def test_sample_with_oracle_check(samples_dir, tmp_path):
    out = tmp_path / "report.csv"
    rc = run_cli(
        "sample", str(samples_dir / "reg02_fourier.circ"),
        "--shots", "20000", "--seed", "7", "--oracle-check", "--out", str(out),
    )
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "# format-version 1"
    assert lines[1] == "outcome,count,probability,reference_probability"
    assert "# verdict = PASS" in lines
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 3
    counts = [int(r.split(",")[1]) for r in rows]
    assert sum(counts) == 20000
    for r in rows:
        assert r.split(",")[3] == "0.333333333333"


def test_sample_bytes_identical_across_jobs(samples_dir, tmp_path, monkeypatch):
    from dwigner import simulate

    # chunks of 4096 shots: one partial chunk, then four chunks with a
    # five-shot tail
    prog = circuits.parse_circuit_file(samples_dir / "reg10_cascade.circ")
    monkeypatch.setattr(simulate, "CHUNK_BYTES", 8 * 2 * prog.max_registers * 4096)
    for shots in (3000, 3 * 4096 + 5):
        outs = []
        for jobs in (1, 4, 9):
            out = tmp_path / f"r{shots}_{jobs}.csv"
            rc = run_cli(
                "sample", str(samples_dir / "reg10_cascade.circ"),
                "--shots", str(shots), "--seed", "42", "--jobs", str(jobs),
                "--oracle-check", "--out", str(out),
            )
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize(
    "flags",
    [["--shots", "-1"], ["--shots", "10", "--seed", "-3"], ["--shots", "10", "--seed", "1", "--jobs", "0"]],
    ids=["shots", "seed", "jobs"],
)
def test_sample_rejects_out_of_range_flag(samples_dir, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        run_cli("sample", str(samples_dir / "reg02_fourier.circ"), *flags)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flags[-2]}: must be at least" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["distill-check", "--random-suite", "-3", "--seed", "1"],
         "argument --random-suite: must be at least"),
        (["distill-check", "--seed", "-1", "--random-suite", "2"],
         "argument --seed: must be at least"),
        (["distill-check", "--n", "1", "--random-suite", "2", "--seed", "1"],
         "argument --n: must be at least"),
        (["slice", "--jobs", "0", "SPEC"], "argument --jobs: must be at least"),
        (["distill-check", "DISTILL", "--random-suite", "2", "--seed", "1"],
         "argument --random-suite: not allowed with an instance file"),
        (["distill-check", "--random-suite", "2", "--seed", "1", "--force-negative-input"],
         "argument --random-suite: not allowed with --force-negative-input"),
    ],
    ids=["random-suite", "distill-seed", "n", "slice-jobs", "suite-and-file", "suite-and-force"],
)
def test_distill_and_slice_reject_out_of_range_flag(samples_dir, capsys, argv, message):
    files = {"SPEC": "pinned_ninth_2d.slice", "DISTILL": "distill_identity.txt"}
    argv = [str(samples_dir / files[a]) if a in files else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err


def test_facets_qutrit(tmp_path):
    out = tmp_path / "f.csv"
    assert run_cli("facets", "3", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2 + 9
    for row in lines[2:]:
        cells = row.split(",")
        assert cells[2] == "True"
        assert cells[5] == "True"
        assert int(cells[3]) >= 8


def test_facets_rejects_p2():
    assert run_cli("facets", "2") == 2


def test_facets_rejects_p_above_cap(capsys):
    assert run_cli("facets", "101") == 2
    assert f"p <= {MAX_MUB_P}" in capsys.readouterr().err


# SHA-256 of `facets p` output bytes, from the float route that decided each
# point on the Gram matrix of its saturating states
FACETS_PINS = {
    3: "f853c2c390a9304d6ef94833a36685ac0cfbf4ca7c7029c68497d4aea86c12e3",
    5: "0dd1c9b4293a2d2790b5af330ff3ba16c1a08093696c4a69ab9c5ec56f166491",
    7: "d70c7389aea02171bdaa3d063e865df811c4dde647b2e623a5e944d94c8d6f99",
    11: "fe27cac49b7e3e8f2cd4a280ad2616aef8c188798ac3a018c8a18b325892e47f",
    13: "9df93b724c4adfeac8fc513ee8267cdd1366d6114c4a1e40e6d92f731968aab6",
    17: "5e58e2170a1a5eccab38624c15a32784e210fc9e36128460fc8383e4a01e756e",
    19: "1275beeb779dc0490ff459a160c7b922ec45745322b71224ece68659270f35ac",
}


@pytest.mark.parametrize("p", list(FACETS_PINS))
def test_facets_output_bytes_are_pinned(tmp_path, p):
    out = tmp_path / "f.csv"
    assert run_cli("facets", str(p), "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FACETS_PINS[p]


def test_facets_at_p_31(tmp_path):
    # every line that misses a point saturates it, and those 960 lines span
    # the facet; the float route would take about 1.7 h here
    out = tmp_path / "f.csv"
    assert run_cli("facets", "31", "--out", str(out)) == 0
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 961
    assert all(row.split(",", 2)[2] == "True,960,960,True,0" for row in rows)


def test_facets_builds_no_float_stabilizer_set(tmp_path, monkeypatch):
    # the report reads the line incidence alone; the float set of p(p + 1)
    # dense states took about 4 s at p = 31
    def refuse(p):
        raise AssertionError(f"mub_stabilizer_states({p}) built")

    for module in [m for name, m in sys.modules.items() if name.startswith("dwigner")]:
        if hasattr(module, "mub_stabilizer_states"):
            monkeypatch.setattr(module, "mub_stabilizer_states", refuse)
    out = tmp_path / "f.csv"
    assert run_cli("facets", "31", "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 2 + 31 * 31


def test_wigner_and_sample_refuse_p_above_cap(tmp_path, capsys):
    # a Weyl table takes 32 p^4 bytes, so p is capped where it enters
    assert run_cli("wigner", "mixed", "--p", "37") == 2
    assert f"p <= {MAX_MUB_P}" in capsys.readouterr().err
    circ = tmp_path / "wide.circ"
    circ.write_text("qudits p=37 n=1\ninput 1 mixed\nmeasure 1 computational\n")
    assert run_cli("sample", str(circ), "--shots", "10", "--seed", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and f"p <= {MAX_MUB_P}" in err
    assert run_cli("wigner", "mixed", "--p", str(MAX_MUB_P), "--out", str(tmp_path / "w.csv")) == 0


def test_classify_mixed(tmp_path):
    out = tmp_path / "c.txt"
    assert run_cli("classify", "mixed", "--out", str(out)) == 0
    assert "label = STABILIZER_MIX" in out.read_text()


def test_classify_strange(samples_dir, tmp_path):
    out = tmp_path / "c.txt"
    assert run_cli("classify", str(samples_dir / "strange.mat"), "--out", str(out)) == 0
    text = out.read_text()
    assert "label = NEGATIVE" in text
    assert "min_W = -0.333333333333" in text


def classify_segment_point(tmp_path, monkeypatch, t) -> list:
    """`classify` output lines of the point at t on the segment from the
    maximally mixed state to the BOUND row (0, 1/45, 14/45) of
    pinned_ninth_3d.slice, written as an exact Wigner file."""
    mixed = Fraction(1, 9)
    bound = {(0, 0): Fraction(0), (0, 1): Fraction(1, 45), (1, 0): Fraction(14, 45)}
    rows = [f"{a1} {a2} {mixed + t * (bound.get((a1, a2), mixed) - mixed)}"
            for a1 in range(3) for a2 in range(3)]
    (tmp_path / "edge.w").write_text("wigner p=3\n" + "\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "c.txt"
    assert run_cli("classify", "wigner-file:edge.w", "--p", "3", "--out", str(out)) == 0
    return out.read_text().splitlines()


@pytest.mark.parametrize(
    "offset,label",
    [(0, "STABILIZER_MIX"), (Fraction(1, 10**11), "BOUND"), (Fraction(1, 10**400), "BOUND")],
)
def test_classify_wigner_file_is_exact(tmp_path, monkeypatch, offset, label):
    # the segment leaves the stabilizer polytope at t = 15/23; just past it
    # the float LP's optimum is below HULL_TOL, but the file is exact, even
    # where the distance to the hull underflows a float
    lines = classify_segment_point(tmp_path, monkeypatch, Fraction(15, 23) + offset)
    assert f"label = {label}" in lines


def test_classify_prints_an_exact_certificate_past_the_edge(tmp_path, monkeypatch, exact_vertices3):
    # just past t = 15/23 the gap is far below HULL_TOL, but the vertex table
    # gives it exactly, with a witness that separates
    t = Fraction(15, 23) + Fraction(1, 10**11)
    lines = classify_segment_point(tmp_path, monkeypatch, t)
    assert "label = BOUND" in lines and "lp_violation = 3.40740740741e-12" in lines
    assert not any(line.startswith("disputed") for line in lines)
    (witness,) = [line for line in lines if line.startswith("witness_y = ")]
    y = [Fraction(x) for x in witness.split(" = ")[1].split()]
    w = load_wigner_file(tmp_path / "edge.w", 3)
    best = max(sum(a * b for a, b in zip(y, v)) for v in exact_vertices3)
    assert sum(a * b for a, b in zip(y, w)) > best


def test_classify_rounded_wigner_file_keeps_the_float_route(tmp_path, monkeypatch):
    # 1/9 written to 12 digits sums to 0.999999999999: not a state on exact
    # rationals, so the witness LP decides with its tolerance, as before
    rows = [f"{a1} {a2} 0.111111111111" for a1 in range(3) for a2 in range(3)]
    (tmp_path / "mixed.w").write_text("wigner p=3\n" + "\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "c.txt"
    assert run_cli("classify", "wigner-file:mixed.w", "--p", "3", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert "label = STABILIZER_MIX" in lines
    assert any(line.startswith("lp_residual = ") for line in lines)


BOUND_NINTH_CLASSIFY = """\
# format-version 1
label = BOUND
min_eig = 0.0041351277688
min_W = 0
lp_violation = 0.133333333333
witness_y = -1 -1 0.2 1 -0.2 -0.2 0.6 -0.6 0.6
"""


def test_classify_pins_the_bound_witness_on_both_hull_routes(samples_dir, tmp_path):
    # one of the witness LP's 1520 vertices is optimal here, so the printed
    # witness does not depend on how the solver breaks ties
    wigner_file = samples_dir / "bound_ninth.w"
    rho = state_from_wigner(np.array([float(x) for x in load_wigner_file(wigner_file, 3)]), 3, 1)
    matrix_file = tmp_path / "bound_ninth.mat"
    matrix_file.write_text(
        "dim 3\n" + "".join(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row) + "\n" for row in rho)
    )
    for spec in (f"wigner-file:{wigner_file}", f"matrix-file:{matrix_file}"):
        out = tmp_path / "c.txt"
        assert run_cli("classify", spec, "--out", str(out)) == 0
        assert out.read_text() == BOUND_NINTH_CLASSIFY


# SHA-256 of `classify` output bytes.  The last two inputs are random
# states mixed toward the W >= 0 boundary, where the float witness LP's
# printed numbers move in the last digits if its vertex rows change by one
# rounding: they are the stabilizer states' float Wigner transforms, not the
# exact lines over p
CLASSIFY_PINS = {
    ("strange.mat",): "b0026f8c685865dda51ec41d0a1e16ea7bade7cc1dd62addb7b128d1c56a41f8",
    ("mixed",): "190c0d14d3b7ac1d564c2a02ab83e9989320c5072544a458e85610e3269648b5",
    ("wigner-file:bound_ninth.w",): "6943b997fa62c7e649610004ad16426bb611a4d35f1a14073c0c6f7c23352dc7",
    ("wigner-file:bound_p5.w", "--p", "5"): "9b9b3f9f88e646d3b1fce2fc9bfa9ce27c34bd8914d13f2c748d2c686b1f81fe",
    ("edge_p7.mat", "--p", "7"): "6770cb0d3f175cdab7d406bdc974caf8ad4812a9ce025fd7076aace40a68e842",
    ("edge_p11.mat", "--p", "11"): "2e67adfd8a9119a9826f519b77fefd74f9b4a5c57c649eb47631c33cd3a8200e",
}


@pytest.mark.parametrize("args", list(CLASSIFY_PINS), ids=lambda a: a[0])
def test_classify_output_bytes_are_pinned(samples_dir, tmp_path, monkeypatch, args):
    monkeypatch.chdir(samples_dir)
    out = tmp_path / "c.txt"
    assert run_cli("classify", *args, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLASSIFY_PINS[args]


THIRD = "0.333333333333333333"
NON_STATES = {
    # 2 I / 3: trace 2
    "two_thirds.mat": "dim 3\n" + "\n".join(
        " ".join("0.666666666666666667 0" if j == i else "0 0" for j in range(3)) for i in range(3)
    ),
    # I / 3 plus 0.01 |0><1|: not Hermitian
    "skew.mat": f"dim 3\n{THIRD} 0 0.01 0 0 0\n0 0 {THIRD} 0 0 0\n0 0 0 0 {THIRD} 0",
    # the maximally mixed state at 6 decimals: trace 0.999999
    "six.w": "wigner p=3\n" + "\n".join(f"{a1} {a2} 0.111111" for a1 in range(3) for a2 in range(3)),
}


@pytest.mark.parametrize("name", list(NON_STATES))
def test_classify_rejects_a_non_state_as_wigner_does(name, tmp_path, monkeypatch, capsys):
    (tmp_path / name).write_text(NON_STATES[name] + "\n")
    monkeypatch.chdir(tmp_path)
    spec = ("wigner-file:" if name.endswith(".w") else "matrix-file:") + name
    assert run_cli("wigner", spec) == 2
    want = capsys.readouterr().err
    assert want.startswith("error: state ")
    assert run_cli("classify", spec) == 2
    assert capsys.readouterr() == ("", want)


def test_slice_scan_and_reproducibility(samples_dir, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("slice", str(samples_dir / "pinned_ninth_2d.slice"), "--out", str(a)) == 0
    assert run_cli("slice", str(samples_dir / "pinned_ninth_2d.slice"), "--jobs", "4", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[1] == "axis1,axis2,label,min_eig,min_wigner,lp_margin"
    labels = {l.split(",")[2] for l in lines[2:]}
    assert labels == {"INVALID", "NONPHYSICAL", "NEGATIVE", "STABILIZER_MIX"}


def strided_slice_document(text: str, stride: int) -> str:
    """The slice document with each swept axis's step times `stride` and its
    hi moved down onto the coarser grid."""
    lines = []
    for line in text.splitlines():
        parts = line.split()
        if parts[:1] == ["free"] and len(parts) == 5:
            lo, hi, step = (Fraction(t) for t in parts[2:])
            last = int((hi - lo) / step) // stride * stride
            line = f"free {parts[1]} {lo} {lo + last * step} {stride * step}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def slice_document(spec) -> str:
    lines = ["slice p=3"] + [f"fixed ({a1},{a2}) {v}" for (a1, a2), v in spec.fixed.items()]
    for (a1, a2), axes in spec.free:
        lines.append(f"free ({a1},{a2}) " + ("derived" if axes is None else " ".join(map(str, axes))))
    return "\n".join(lines) + "\n"


# SHA-256 of `slice --out` bytes of the pinned slices at strides 1 to 3 and
# of a slice whose numerators pass int64, from the per-row formatter that
# printed each cell of each row with `fmt_number`
SLICE_PINS = {
    ("pinned_ninth_2d", 1): "3a20a5af2867b40bfb3771c29a154e8dd11af8877ce4fc9144f4d64946030c44",
    ("pinned_ninth_2d", 2): "05f1e1c0e42a180fcc0952a583e043f41cb315959e0de7522839b7b720e360ac",
    ("pinned_ninth_2d", 3): "2aa5e617e7276f37aca3a12c700c08db42c149a91fe754664a3b2bed10287cfb",
    ("pinned_ninth_3d", 1): "ff70f82fbc3d4285369ce1e83df9d2ebad1858c31346669c13a653a4f5377e7b",
    ("pinned_ninth_3d", 2): "6bf8194892c16470f2337d33dab73e90bf958f73827e02a0905506ce31abb52a",
    ("pinned_ninth_3d", 3): "f9ff6f2374924ff7881392751d1efda045885f204a2f7d17f6ee503c4edaa876",
    ("pinned_sixth_3d", 1): "a6b018337135af462363ed662231b7295dd9b36743a4434708a645c22766ad07",
    ("pinned_sixth_3d", 2): "22137d84e245530e6bac323a24f150ab0c8b4066755000ad13d571f810fc7073",
    ("pinned_sixth_3d", 3): "0179c68219ed05144f30351f07301e3f62f0de9c66ec00dc9c29968f097a9fc2",
    ("beyond_int64", 1): "358be1fe44da6144873ea51c4dade7052852cc72e2ebfee5b35ca0f46e88aab4",
}


@pytest.mark.parametrize("name, stride", list(SLICE_PINS), ids=lambda v: str(v))
def test_slice_output_bytes_are_pinned(samples_dir, tmp_path, name, stride):
    if name == "beyond_int64":
        text = slice_document(beyond_int64_slice_spec())
    else:
        text = strided_slice_document((samples_dir / f"{name}.slice").read_text(), stride)
    (tmp_path / "grid.slice").write_text(text)
    out = tmp_path / "grid.csv"
    assert run_cli("slice", str(tmp_path / "grid.slice"), "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SLICE_PINS[name, stride]


def test_slice_writes_each_block_as_it_is_decided(samples_dir, monkeypatch):
    # blocks of 512 split the 3721 points into 8 blocks; each block's hull
    # rows are decided after the blocks before it are written
    writes, written_at_decision = [], []
    real = geometry._hull_distances

    def spy(num, den):
        written_at_decision.append(len(writes))
        return real(num, den)

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return len(text)

    monkeypatch.setattr(geometry, "SLICE_BLOCK", 512)
    monkeypatch.setattr(geometry, "_hull_distances", spy)
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert run_cli("slice", str(samples_dir / "pinned_ninth_3d.slice")) == 0
    assert len(writes) == 9 and written_at_decision == list(range(1, 9))
    digest = hashlib.sha256("".join(writes).encode()).hexdigest()
    assert digest == SLICE_PINS["pinned_ninth_3d", 1]


def test_slice_error_leaves_no_partial_file(samples_dir, tmp_path, monkeypatch, capsys):
    real = geometry._hull_distances
    calls = []

    def fail_second(num, den):
        calls.append(len(num))
        if len(calls) == 2:
            raise ValueError("no distance for the second block")
        return real(num, den)

    monkeypatch.setattr(geometry, "SLICE_BLOCK", 512)
    monkeypatch.setattr(geometry, "_hull_distances", fail_second)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = ["slice", str(samples_dir / "pinned_ninth_3d.slice"), "--out", str(out_dir / "grid.csv")]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == "error: no distance for the second block\n"
    assert list(out_dir.iterdir()) == []


def test_out_through_a_symlink_replaces_its_target_and_keeps_its_mode(tmp_path):
    target = tmp_path / "real.csv"
    target.write_text("old\n")
    target.chmod(0o600)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert run_cli("facets", "3", "--out", str(link)) == 0
    assert link.is_symlink() and link.resolve() == target
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert hashlib.sha256(target.read_bytes()).hexdigest() == FACETS_PINS[3]
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_out_to_a_pipe_writes_in_place(samples_dir, tmp_path):
    # a pipe or device is not a file to replace: the rows stream into it
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
    reader.start()
    assert run_cli("slice", str(samples_dir / "pinned_ninth_3d.slice"), "--out", str(pipe)) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert hashlib.sha256(received[0]).hexdigest() == SLICE_PINS["pinned_ninth_3d", 1]
    assert stat.S_ISFIFO(pipe.stat().st_mode) and list(tmp_path.iterdir()) == [pipe]


def test_slice_rejects_a_huge_grid_before_allocating(samples_dir, tmp_path, capsys):
    text = (samples_dir / "pinned_ninth_3d.slice").read_text()
    huge = tmp_path / "huge.slice"
    huge.write_text(text.replace(" 1/90\n", " 1/1000000000\n"))
    assert huge.read_text().count("1/1000000000") == 2
    assert run_cli("slice", str(huge), "--out", str(tmp_path / "grid.csv")) == 2
    assert f"slice grid has {666_666_668**2} points" in capsys.readouterr().err
    assert not (tmp_path / "grid.csv").exists()


def test_classify_solver_failure_exits_3(samples_dir, tmp_path, monkeypatch, capsys):
    # a float input runs the witness LP; when it fails, the error is one
    # line, the exit code 3, and no output is written.  The exact Wigner file
    # of the same state runs no LP, so it still exits 0.
    import scipy.optimize

    def no_convergence(c, **kwargs):
        return scipy.optimize.OptimizeResult(status=4, message="numerical difficulties", x=None)

    rho = state_from_wigner(np.array([float(x) for x in load_wigner_file(samples_dir / "bound_ninth.w", 3)]), 3, 1)
    matrix_file = tmp_path / "bound_ninth.mat"
    matrix_file.write_text(
        "dim 3\n" + "".join(" ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row) + "\n" for row in rho)
    )
    monkeypatch.chdir(samples_dir.parent)
    monkeypatch.setattr(scipy.optimize, "linprog", no_convergence)
    out = tmp_path / "c.txt"
    assert run_cli("classify", f"matrix-file:{matrix_file}", "--out", str(out)) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: witness LP did not converge")
    assert not out.exists()
    assert run_cli("classify", "wigner-file:sample_inputs/bound_ninth.w", "--out", str(out)) == 0
    assert out.read_text() == BOUND_NINTH_CLASSIFY


@pytest.mark.parametrize(
    "header, message",
    [
        ("slice p=3", "fixed + free must cover all 9 phase points"),
        # p = 0 would reduce the point mod 0: rejected at the header line
        ("slice p=0", "line 1: slice scans are defined for p=3"),
    ],
    ids=["uncovered-points", "p0"],
)
def test_slice_malformed_spec(tmp_path, capsys, header, message):
    bad = tmp_path / "bad.slice"
    bad.write_text(f"{header}\nfixed (0,0) 1/9\n")
    assert run_cli("slice", str(bad)) == 2
    assert message in capsys.readouterr().err


def test_distill_check_identity(samples_dir, tmp_path):
    out = tmp_path / "d.txt"
    rc = run_cli("distill-check", str(samples_dir / "distill_identity.txt"), "--out", str(out))
    assert rc == 0
    text = out.read_text()
    assert "verdict = PASS" in text
    f_out = float(next(l for l in text.split("\n") if l.startswith("F_out")).split("=")[1])
    assert abs(f_out) < 1e-12


def test_distill_check_random_suite(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rc = run_cli("distill-check", "--random-suite", "10", "--seed", "3", "--out", str(a))
    assert rc == 0
    rc = run_cli("distill-check", "--random-suite", "10", "--seed", "3", "--out", str(b))
    assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert "# verdict = PASS" in a.read_text()


# SHA-256 of the output bytes as the dense route prints them, with every
# input and projector built as a p^n x p^n matrix; the product route prints
# the same bytes
DISTILL_PINS = {
    ("--random-suite", "20", "--seed", "7", "--n", "2"):
        "7c7468ec79fd37daf0ac153f313787d8341b408bef61516c8479b8df64b56374",
    ("--random-suite", "20", "--seed", "7", "--n", "3"):
        "ccc746d09ac9b579ac3e0a70382e95c9419837a9a7d1ad84515d3fe4c6661a4d",
    ("--random-suite", "20", "--seed", "7", "--n", "4"):
        "e21789491964b606cac8a0fc06e6e36730f03027687ab04c8a7116380924c497",
    # the widest qutrit suites and two larger p: hashed from the product
    # route, each word composed into one map and scattered through its index
    ("--random-suite", "20", "--seed", "7", "--n", "5"):
        "08a22305269cdd368a9ef4f93f3ea2d2d268b517945a3c33b2f6258842f3773a",
    ("--random-suite", "20", "--seed", "7", "--n", "6"):
        "78de193a21503dc184d3d012cc7100a5b320861d8ace092d588267fec15df717",
    ("--random-suite", "20", "--seed", "7", "--p", "5", "--n", "3"):
        "edb35e1a14a63c8f71cda96d6728aea07e12641737222c6d92b13923b34123cc",
    ("--random-suite", "20", "--seed", "7", "--p", "7", "--n", "2"):
        "591f48320c3515770fd7932a536f22bd6ae6c5fea1a3f6d23f2d832f56643e2b",
    ("distill_identity.txt",): "374baf8f81f3b9f5bd51898ee5e01daa9e8af4c9e2c6bfaf1778f33bf6494710",
    ("distill_kraus.txt",): "659c0ffd9fe05eb346def81e42596dd60fb994cef4e2446255d712584ed1a052",
    ("distill_word.txt",): "4d04cb96869bfc41ead50de17b34bfe9285fb7f1cf3d7c66eff1b236175a67ac",
}


def _suite_id(args):
    """suite-n<n> for a qutrit suite, suite-p<p>-n<n> for another p."""
    opts = dict(zip(args[::2], args[1::2]))
    p = opts.get("--p")
    return f"suite-n{opts['--n']}" if p is None else f"suite-p{p}-n{opts['--n']}"


@pytest.mark.parametrize(
    "args", list(DISTILL_PINS), ids=lambda a: a[0] if len(a) == 1 else _suite_id(a)
)
def test_distill_check_output_bytes_are_pinned(samples_dir, tmp_path, args):
    out = tmp_path / "d.out"
    argv = [str(samples_dir / args[0]), *args[1:]] if len(args) == 1 else list(args)
    assert run_cli("distill-check", *argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DISTILL_PINS[args]


SUITE_PINS = [args for args in DISTILL_PINS if args[0] == "--random-suite"]


def suite_batches_of(monkeypatch, args, size: int) -> None:
    """Make the suite of `args` run `size` instances a batch: an instance
    counts four copies of its 2n - 1 complex p x p factors."""
    opts = dict(zip(args[::2], args[1::2]))
    p, n = int(opts.get("--p", "3")), int(opts["--n"])
    monkeypatch.setattr(cli, "CHUNK_BYTES", size * 4 * 16 * p * p * (2 * n - 1))


@pytest.mark.parametrize("args", SUITE_PINS, ids=_suite_id)
def test_distill_suite_bytes_do_not_depend_on_the_batch(tmp_path, monkeypatch, args):
    # 20 instances in batches of 3, the last one short, print the pinned bytes
    sizes = []
    real = cli.distill_steps

    def spy(insts):
        sizes.append(len(insts))
        return real(insts)

    suite_batches_of(monkeypatch, args, 3)
    monkeypatch.setattr(cli, "distill_steps", spy)
    out = tmp_path / "d.out"
    assert run_cli("distill-check", *args, "--out", str(out)) == 0
    assert sizes == [3] * 6 + [2]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DISTILL_PINS[args]


def test_distill_suite_writes_each_batch_as_it_is_decided(monkeypatch):
    # each batch is decided after the batches before it are written
    writes, written_at_decision = [], []
    real = cli.distill_steps

    def spy(insts):
        written_at_decision.append(len(writes))
        return real(insts)

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return len(text)

    args = SUITE_PINS[0]
    suite_batches_of(monkeypatch, args, 3)
    monkeypatch.setattr(cli, "distill_steps", spy)
    monkeypatch.setattr(sys, "stdout", Recorder())
    assert run_cli("distill-check", *args) == 0
    assert written_at_decision == list(range(7)) and len(writes) == 8
    assert writes[-1] == "# verdict = PASS\n"
    assert hashlib.sha256("".join(writes).encode()).hexdigest() == DISTILL_PINS[args]


def test_distill_suite_fail_in_a_later_batch_sets_the_verdict(tmp_path, monkeypatch):
    # the final line and the exit code read every batch's verdicts
    real = cli.distill_steps
    calls = []

    def fail_in_third(insts):
        results = real(insts)
        calls.append(len(insts))
        if len(calls) == 3:
            results[1].verdict = "FAIL"
        return results

    args = SUITE_PINS[0]
    suite_batches_of(monkeypatch, args, 3)
    monkeypatch.setattr(cli, "distill_steps", fail_in_third)
    out = tmp_path / "d.csv"
    assert run_cli("distill-check", *args, "--out", str(out)) == 1
    lines = out.read_text().splitlines()
    assert lines[-1] == "# verdict = FAIL"
    assert lines[2 + 7].endswith(",FAIL") and sum(line.endswith(",FAIL") for line in lines) == 1


def test_distill_suite_error_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    real = cli.distill_steps
    calls = []

    def fail_second(insts):
        calls.append(len(insts))
        if len(calls) == 2:
            raise ValueError("no decision for the second batch")
        return real(insts)

    args = SUITE_PINS[0]
    suite_batches_of(monkeypatch, args, 3)
    monkeypatch.setattr(cli, "distill_steps", fail_second)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run_cli("distill-check", *args, "--out", str(out_dir / "d.csv")) == 2
    assert capsys.readouterr().err == "error: no decision for the second batch\n"
    assert list(out_dir.iterdir()) == []


MIXED5 = (
    "qudits p=3 n=5\n"
    + "".join(f"input {r} mixed\n" for r in range(1, 6))
    + "gate fourier(1); sum(1,2); quadratic(3); sum(3,4); multiply(2,5); sum(5,1)\n"
    "measure 5 povm-file:fourier_basis.povm\n"
    "gate sum(4,3); fourier(2)\n"
    "measure 4 povm-file:two_outcome.povm\n"
    "measure 3 povm-file:fourier_basis.povm\n"
    "measure 2 povm-file:two_outcome.povm\n"
    "measure 1 povm-file:fourier_basis.povm\n"
)
BOUND3 = """\
qudits p=3 n=3
input 1 wigner-file:bound_ninth.w
input 2 zero
input 3 wigner-file:bound_ninth.w
gate fourier(2); sum(2,1); quadratic(3)
displace 1 (1,2)
gate sum(1,3); fourier(1)
measure 3 povm-file:fourier_basis.povm branch: f0->a f1->b f2->b
label a:
extend 1 wigner-file:bound_ninth.w
gate sum(4,2); fourier(4)
measure 4 computational
measure 2 povm-file:two_outcome.povm
measure 1 computational
label b:
gate multiply(2,1)
measure 2 computational
measure 1 povm-file:fourier_basis.povm
"""
# Circuits written next to copies of the sample files they read: the
# five-qutrit adaptive circuit of test_simulate, five maximally mixed qutrits
# under two complex-effect POVMs, and bound-state inputs and extends
PIN_CIRCUITS = {"wide5.circ": WIDE5, "mixed5.circ": MIXED5, "bound3.circ": BOUND3}
# SHA-256 of `sample --shots 20000 --seed 7 --oracle-check` output bytes
# with the oracle on the full (p,)*2m density tensor
SAMPLE_PINS = {
    "reg01_minimal.circ":
        "919668cb5169d7838e78740f1ac9739f56198c98b3cb084a2735047e1925baf2",
    "reg02_fourier.circ":
        "5a91dd1e6920f4d1a287030ecacedb8ccb2201ee206e9771f664b76b34c728ff",
    "reg03_word.circ":
        "bb8d6aa181fe9e26ac1b3ab92f922b8ec5248640e477a7566cb087aa9321db7a",
    "reg04_displace.circ":
        "7e07cea25707894d7b7220fb235844a315276ed79dee4146ee85b4594328fba6",
    "reg05_bell.circ":
        "8ab6725cc6c559d3b3692f1aaa520834fd48cf9efc479ba875f4ad1132615ac3",
    "reg06_adaptive.circ":
        "ab9581d44d4b0ffb5c09fd4804bfc7044a03071377d8599f2abd6861ed1a8142",
    "reg07_extend.circ":
        "0cd9899f0cd5f070f2a0b6e3c1cd471681286bb45f9d622487a70c7380055e05",
    "reg08_three.circ":
        "675e9af2b0a9a1909a7ebe1138d6c10032de602cdc751fb68699be85c2c65a93",
    "reg09_povm.circ":
        "33f44e7d60c6f763699cc15fd41c98b0edf8afd89be485d0c19ef3d46ce6516d",
    "reg10_cascade.circ":
        "23e55bab57c619f5d0114b00dc7c7cc93936cd38a1024ce834404ac917b331a0",
    "wide5.circ":
        "61db25d32c76c8bb93df7b97565c7476200348797c54974f762627320ecacf3b",
    "mixed5.circ":
        "96f8a1b664e631664224858834f80c0a47d4d9781cb7877e8e4b471037ed5041",
    "bound3.circ":
        "d20fe1d46cf9711d25a06ea480c0062592b15fa01d417f2d5d15e1d07af30753",
}


@pytest.mark.parametrize("name", list(SAMPLE_PINS))
def test_sample_oracle_check_output_bytes_are_pinned(samples_dir, tmp_path, name):
    for used in ("fourier_basis.povm", "two_outcome.povm", "bound_ninth.w"):
        shutil.copy(samples_dir / used, tmp_path)
    circ = samples_dir / name
    if name in PIN_CIRCUITS:
        circ = tmp_path / name
        circ.write_text(PIN_CIRCUITS[name])
    out = tmp_path / "s.out"
    argv = [str(circ), "--shots", "20000", "--seed", "7", "--oracle-check", "--out", str(out)]
    assert run_cli("sample", *argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLE_PINS[name]


@pytest.mark.parametrize("header", ["dim", "dim x"])
def test_distill_check_malformed_kraus_dim(tmp_path, capsys, header):
    (tmp_path / "bad.kraus").write_text(f"{header}\n1 0\n")
    inst = tmp_path / "inst.txt"
    inst.write_text(
        "distill p=3 n=2\ninput product zero zero\n"
        "channel kraus-file:bad.kraus positivity-asserted\nprojector zero\n"
    )
    assert run_cli("distill-check", str(inst)) == 2
    err = capsys.readouterr().err
    assert "bad.kraus" in err and "line 1" in err


def test_distill_check_kraus_of_the_wrong_dim(samples_dir, tmp_path, capsys):
    # depolarize.kraus acts on one qutrit; an n = 2 instance needs dim 9
    inst = tmp_path / "inst.txt"
    inst.write_text(
        "distill p=3 n=2\ninput product zero zero\nchannel kraus-file:"
        f"{samples_dir / 'depolarize.kraus'} positivity-asserted\nprojector zero\n"
    )
    assert run_cli("distill-check", str(inst)) == 2
    err = capsys.readouterr().err
    assert "depolarize.kraus" in err and "expected dim 9" in err


def test_sample_povm_effect_without_label(tmp_path, capsys):
    zeros = "\n".join(["0 0  0 0  0 0"] * 3)
    (tmp_path / "bad.povm").write_text(f"povm p=3 outcomes=1\neffect\n{zeros}\n")
    circ = tmp_path / "c.circ"
    circ.write_text("qudits p=3 n=1\ninput 1 zero\nmeasure 1 povm-file:bad.povm\n")
    assert run_cli("sample", str(circ), "--shots", "0") == 2
    err = capsys.readouterr().err
    assert "bad.povm" in err and "line 2" in err


ZERO_ROWS = "\n".join(["0 0  0 0  0 0"] * 3)
MIXED_ROWS = [f"{a1} {a2} 1/9" for a1 in range(3) for a2 in range(3)]


@pytest.mark.parametrize(
    "files, argv, where",
    [
        (
            {"c.circ": "qudits p=3 n=1\ninput 1 zero\ndisplace 1 (0,x)\n"
                       "measure 1 computational\n"},
            ["sample", "c.circ", "--shots", "0"],
            "line 3: bad phase-space point '(0,x)'",
        ),
        (
            {"s.slice": "slice p=3\nfixed (0,0) 1/x\n"},
            ["slice", "s.slice"],
            "line 2: bad rational '1/x'",
        ),
        (
            {
                "bad.w": "wigner p=3\n" + "\n".join(MIXED_ROWS).replace("2 1 1/9", "0 x 1/9"),
                "c.circ": "qudits p=3 n=1\ninput 1 wigner-file:bad.w\nmeasure 1 computational\n",
            },
            ["sample", "c.circ", "--shots", "0"],
            "line 9: bad.w: bad coordinate 'x'",
        ),
        (
            {
                "bad.mat": "dim 3\n1 0 0 0 0 0\n0 0 x 0 0 0\n0 0 0 0 0 0\n",
                "c.circ": "qudits p=3 n=1\ninput 1 matrix-file:bad.mat\nmeasure 1 computational\n",
            },
            ["sample", "c.circ", "--shots", "0"],
            "line 3: bad.mat: could not convert string to float: 'x'",
        ),
        (
            {
                "bad.povm": f"povm p=3 outcomes\neffect 0\n{ZERO_ROWS}\n",
                "c.circ": "qudits p=3 n=1\ninput 1 zero\nmeasure 1 povm-file:bad.povm\n",
            },
            ["sample", "c.circ", "--shots", "0"],
            "line 1: bad.povm: bad header 'povm p=3 outcomes'",
        ),
        (
            {
                "ver.w": "format 2\nwigner p=3\n" + "\n".join(MIXED_ROWS),
                "c.circ": "qudits p=3 n=1\ninput 1 wigner-file:ver.w\nmeasure 1 computational\n",
            },
            ["sample", "c.circ", "--shots", "0"],
            "line 1: ver.w: unsupported format version 'format 2'",
        ),
    ],
    ids=[
        "circuit-point", "slice-rational", "wigner-coordinate", "matrix-number", "povm-header",
        "referenced-format",
    ],
)
def test_malformed_line_names_its_location(tmp_path, monkeypatch, capsys, files, argv, where):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and where in err[0]


NAN_STATE = "dim 3\nnan 0  0 0  0 0\n0 0  0.5 0  0 0\n0 0  0 0  0.5 0\n"
ONE_ROWS = "\n".join(["1 0  0 0  0 0", "0 0  1 0  0 0", "0 0  0 0  1 0"])
INF_KRAUS = "dim 9\n" + "\n".join(
    "  ".join("inf 0" if (i, j) == (4, 4) else f"{int(i == j)} 0" for j in range(9))
    for i in range(9)
)


@pytest.mark.parametrize(
    "files, argv, line, bad",
    [
        ({"nan.mat": NAN_STATE}, ["wigner", "matrix-file:nan.mat"], "line 2: ", "nan.mat"),
        ({"nan.mat": NAN_STATE}, ["classify", "matrix-file:nan.mat"], "line 2: ", "nan.mat"),
        (
            {
                "nan.mat": NAN_STATE,
                "c.circ": "qudits p=3 n=1\ninput 1 matrix-file:nan.mat\nmeasure 1 computational\n",
            },
            ["sample", "c.circ", "--shots", "100", "--seed", "1", "--oracle-check"],
            "line 2: ",
            "nan.mat",
        ),
        (
            {
                "nan.povm": "povm p=3 outcomes=2\neffect a\n" + ZERO_ROWS.replace("0 0", "nan 0", 1)
                            + f"\neffect b\n{ONE_ROWS}\n",
                "c.circ": "qudits p=3 n=1\ninput 1 zero\nmeasure 1 povm-file:nan.povm\n",
            },
            ["sample", "c.circ", "--shots", "100", "--seed", "1"],
            "line 3: ",
            "nan.povm",
        ),
        (
            {
                "inf.kraus": INF_KRAUS,
                "inst.txt": "distill p=3 n=2\ninput product zero zero\n"
                            "channel kraus-file:inf.kraus positivity-asserted\nprojector zero\n",
            },
            ["distill-check", "inst.txt"],
            "line 6: ",
            "inf.kraus",
        ),
    ],
    ids=["wigner", "classify", "sample-state", "sample-povm", "distill-kraus"],
)
def test_non_finite_numbers_are_refused(tmp_path, monkeypatch, capsys, files, argv, line, bad):
    # every comparison with NaN is false, so a NaN entry would pass each
    # sign and PSD test downstream; the block reader refuses it on its line
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + line)
    assert f"{bad}: non-finite number in " in err[0]


@pytest.mark.parametrize(
    "text, where",
    [
        ("qudits p=3 n=1\ninput 1 zero\n", "line 2: "),
        (
            "qudits p=3 n=2\ninput 1 zero\ninput 2 zero\n"
            "measure 2 computational branch: 0->x 1->x 2->y\n"
            "label x:\nmeasure 1 computational\nlabel y:\n",
            "line 4: ",
        ),
    ],
    ids=["no-items", "empty-last-arm"],
)
def test_path_ending_unmeasured_at_eof_names_a_line(tmp_path, capsys, text, where):
    # the path ends past the last item, so the line it came from is named:
    # the last input, or the measure that branched into the empty arm
    circ = tmp_path / "c.circ"
    circ.write_text(text)
    assert run_cli("sample", str(circ), "--shots", "0") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {where}path ends with unmeasured registers [1]"]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_classify_rejects_a_repeated_wigner_point(tmp_path, monkeypatch, capsys):
    # a tenth row at (3,0) = (0,0) mod 3 used to overwrite the first value
    rows = ["wigner p=3", *MIXED_ROWS, "3 0 -1/3"]
    (tmp_path / "dup.w").write_text("\n".join(rows) + "\n")
    monkeypatch.chdir(tmp_path)
    assert run_cli("classify", "wigner-file:dup.w", "--p", "3") == 2
    err = capsys.readouterr().err
    assert "line 11: " in err and "dup.w: point (0, 0) given twice" in err


def test_bound_ninth_is_a_bound_state(samples_dir, tmp_path, monkeypatch):
    """sample_inputs/bound_ninth.w is the BOUND row (0, 1/45, 14/45) of
    pinned_ninth_3d.slice: nonnegative Wigner values outside the stabilizer
    polytope, so the sampler still matches the oracle on copies of it."""
    monkeypatch.chdir(samples_dir)
    out = tmp_path / "c.txt"
    assert run_cli("classify", "wigner-file:bound_ninth.w", "--p", "3", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert "label = BOUND" in lines and "min_W = 0" in lines
    assert not any(line.startswith("disputed") for line in lines)

    grid = tmp_path / "grid.csv"
    assert run_cli("slice", "pinned_ninth_3d.slice", "--out", str(grid)) == 0
    row = next(r for r in grid.read_text().splitlines() if r.startswith("0,0.0222222222222,"))
    assert row.split(",")[2:4] == ["0.311111111111", "BOUND"]

    circ = tmp_path / "bound.circ"
    circ.write_text(
        "qudits p=3 n=3\n"
        f"input 1 wigner-file:{samples_dir / 'bound_ninth.w'}\n"
        f"input 2 wigner-file:{samples_dir / 'bound_ninth.w'}\n"
        "input 3 mixed\n"
        "gate fourier(1); sum(1,2); quadratic(3); sum(3,1)\n"
        "measure 3 computational\nmeasure 2 computational\nmeasure 1 computational\n"
    )
    report = tmp_path / "r.csv"
    assert run_cli("sample", str(circ), "--shots", "200000", "--seed", "1", "--oracle-check",
                   "--out", str(report)) == 0
    assert "# verdict = PASS" in report.read_text().splitlines()


def test_bound_p5_is_a_bound_state(samples_dir, tmp_path, monkeypatch):
    """sample_inputs/bound_p5.w: nonnegative Wigner values, two of them 0,
    outside the p = 5 stabilizer polytope by the witness LP's margin 67/700
    (the LP's witness is one of several optimal vertices, so this test reads
    the margin alone; CLASSIFY_PINS pins the bytes, witness included)."""
    monkeypatch.chdir(samples_dir)
    w = load_wigner_file(samples_dir / "bound_p5.w", 5)
    assert sum(w) == 1 and w.count(0) == 2
    out = tmp_path / "c.txt"
    assert run_cli("classify", "wigner-file:bound_p5.w", "--p", "5", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert "label = BOUND" in lines and "min_W = 0" in lines
    (violation,) = [line for line in lines if line.startswith("lp_violation = ")]
    assert abs(float(violation.split(" = ")[1]) - 67 / 700) < 1e-9
    grid = tmp_path / "w.csv"
    assert run_cli("wigner", "wigner-file:bound_p5.w", "--p", "5", "--out", str(grid)) == 0
    assert "# flag = NONNEGATIVE" in grid.read_text().splitlines()


def test_distill_check_rejects_large_random_suite(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run_cli("distill-check", "--random-suite", "1", "--seed", "1", "--n", "9",
                   "--out", str(out)) == 2
    assert "p^(2n) <= 531441" in capsys.readouterr().err
    assert not out.exists()


def test_distill_check_rejects_large_instance_file(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text(
        "distill p=3 n=7\ninput product" + " zero" * 7 + "\n"
        "channel gates fourier(1)\nprojector zero\n"
    )
    assert run_cli("distill-check", str(inst)) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "p^(2n) <= 531441" in err


def test_distill_check_runs_a_six_qutrit_suite(tmp_path):
    # products and word maps lift the suite past the dense cap p^n <= 243
    out = tmp_path / "d.csv"
    assert run_cli("distill-check", "--random-suite", "2", "--seed", "1", "--n", "6",
                   "--out", str(out)) == 0
    rows = out.read_text().splitlines()[2:-1]
    assert len(rows) == 2 and all(row.endswith(",PASS") for row in rows)


@pytest.mark.parametrize(
    "line, where",
    [
        ("input matrix-file:big.mat", "line 2"),
        ("channel kraus-file:big.kraus", "line 3"),
        ("projector matrix-file:big.mat", "line 4"),
    ],
    ids=["input-matrix-file", "kraus-file", "projector-matrix-file"],
)
def test_distill_check_dense_parts_keep_the_dense_cap(tmp_path, capsys, line, where):
    # p^n = 729: the product route would run it, a dense part is refused
    # before its file is read (the named files do not exist)
    inst = tmp_path / "inst.txt"
    body = ["input product" + " zero" * 6, "channel gates fourier(1)", "projector zero"]
    body[["input", "channel", "projector"].index(line.split()[0])] = line
    inst.write_text("\n".join(["distill p=3 n=6", *body]) + "\n")
    assert run_cli("distill-check", str(inst)) == 2
    err = capsys.readouterr().err
    assert where in err and "p^n <= 243" in err


def test_distill_check_gate_register_out_of_range(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text(
        "distill p=3 n=2\ninput product zero zero\nchannel gates fourier(3)\nprojector zero\n"
    )
    assert run_cli("distill-check", str(inst)) == 2
    assert "line 3: register 3 out of range 1..2" in capsys.readouterr().err
    # of several, the first in call order is named
    inst.write_text(
        "distill p=3 n=2\ninput product zero zero\n"
        "channel gates fourier(1); sum(9,0); fourier(-2)\nprojector zero\n"
    )
    assert run_cli("distill-check", str(inst)) == 2
    assert "line 3: register 9 out of range 1..2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, where",
    [
        ("input product mixed mixed", "line 3"),
        ("channel gates fourier(2)", "line 4"),
        ("projector zero", "line 5"),
    ],
    ids=["input", "channel", "projector"],
)
def test_distill_check_refuses_a_repeated_directive(tmp_path, capsys, line, where):
    # a second line of a directive is refused, not read over the first
    inst = tmp_path / "inst.txt"
    body = ["input product zero zero", "channel gates fourier(1)", "projector zero"]
    key = line.split()[0]
    body.insert(["input", "channel", "projector"].index(key) + 1, line)
    inst.write_text("\n".join(["distill p=3 n=2", *body]) + "\n")
    assert run_cli("distill-check", str(inst)) == 2
    assert f"{where}: duplicate '{key}' line" in capsys.readouterr().err


def test_distill_check_requires_seed(capsys):
    assert run_cli("distill-check", "--random-suite", "5") == 2


def test_console_entry_point():
    # the installed script resolves and prints the version banner
    proc = subprocess.run(
        [sys.executable, "-m", "dwigner.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "format-version 1" in proc.stdout


def test_cli_import_leaves_scipy_solvers_unloaded():
    # scipy's LP and sparse-matrix modules load at their first use, so a
    # command that needs neither never pays for importing them
    code = (
        "import sys, dwigner.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.sparse') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sample_oracle_check_imports_no_scipy(samples_dir):
    # the chi-square p-value is a closed form, so the whole sample path,
    # oracle comparison included, runs on numpy and the standard library
    argv = ["sample", str(samples_dir / "reg05_bell.circ"), "--shots", "2000", "--seed", "1",
            "--oracle-check"]
    code = (
        "import sys, dwigner.cli; "
        f"assert dwigner.cli.main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "# verdict = PASS" in proc.stdout
    assert proc.stderr.strip() == "[]"


def test_slice_imports_no_scipy(samples_dir, tmp_path):
    # every verdict and margin comes from the exact witness-vertex table, so a
    # slice solves no LP and never loads scipy; the table's integer-key dedupe
    # leaves numpy.ma unloaded too
    argv = ["slice", str(samples_dir / "pinned_sixth_3d.slice"), "--out", str(tmp_path / "grid.csv")]
    code = (
        "import sys, dwigner.cli; "
        f"assert dwigner.cli.main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma'), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "BOUND" in (tmp_path / "grid.csv").read_text()
    assert proc.stderr.strip() == "[]"


def test_classify_exact_qutrit_file_imports_no_scipy(samples_dir):
    # an exact qutrit Wigner file takes its hull certificate from the
    # witness-vertex table, so classify solves no LP and never loads scipy,
    # nor numpy.ma
    argv = ["classify", "wigner-file:sample_inputs/bound_ninth.w"]
    code = (
        "import sys, dwigner.cli; "
        f"assert dwigner.cli.main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma'), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=samples_dir.parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == BOUND_NINTH_CLASSIFY
    assert proc.stderr.strip() == "[]"


def test_out_error_names_the_users_path(samples_dir, tmp_path, capsys):
    # the output goes through a temporary file beside --out, but an error
    # names the path the user gave
    out = tmp_path / "missing" / "s.csv"
    assert run_cli("slice", str(samples_dir / "pinned_sixth_3d.slice"), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{out}'" in err
    assert ".tmp" not in err
    assert not (tmp_path / "missing").exists()


def test_sample_refuses_a_circuit_past_the_register_cap(tmp_path, capsys):
    circ = tmp_path / "huge.circ"
    circ.write_text("qudits p=3 n=1\ninput 1 zero\nextend 1000000 zero\n")
    assert run_cli("sample", str(circ), "--shots", "100", "--seed", "1") == 2
    err = capsys.readouterr().err
    assert err == "error: line 3: extend count 1000000 exceeds the register cap 256\n"


def test_wigner_transforms_the_state_once(tmp_path, monkeypatch):
    from dwigner import wigner

    calls = spy_everywhere(monkeypatch, "phase_point_traces", wigner.phase_point_traces)
    assert run_cli("wigner", "mixed", "--out", str(tmp_path / "w.csv")) == 0
    assert len(calls) == 1


def _matrix_text(rho) -> str:
    return f"dim {len(rho)}\n" + "".join(
        " ".join(f"{float(z.real)!r} {float(z.imag)!r}" for z in row) + "\n" for row in rho
    )


def test_matrix_file_prefix_and_bare_path_read_alike(tmp_path, monkeypatch, capsys):
    # a 2-qutrit state: `wigner` tables it under either spelling, and
    # `classify` refuses it under either with its own single-qudit message
    zero = np.diag([1.0, 0, 0])
    (tmp_path / "two.mat").write_text(_matrix_text(np.kron(zero, np.eye(3) / 3)))
    monkeypatch.chdir(tmp_path)
    for out, spec in (("a.csv", "matrix-file:two.mat"), ("b.csv", "two.mat")):
        assert run_cli("wigner", spec, "--out", out) == 0
        assert run_cli("classify", spec) == 2
        assert capsys.readouterr().err == "error: classify handles single qudits; got dimension 9\n"
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert len((tmp_path / "a.csv").read_text().splitlines()) == 2 + 81 + 3


def test_classify_builds_the_stabilizer_set_only_for_a_hull_test(tmp_path, monkeypatch, capsys):
    # (|1> - |4>) / sqrt 2 is odd under parity, so W(0, 0) < 0 at p = 5
    v = np.zeros(5)
    v[1], v[4] = 2**-0.5, -(2**-0.5)
    (tmp_path / "neg5.mat").write_text(_matrix_text(np.outer(v, v)))
    calls = spy_everywhere(monkeypatch, "mub_stabilizer_states", stabilizer.mub_stabilizer_states)
    assert run_cli("classify", str(tmp_path / "neg5.mat"), "--p", "5") == 0
    assert "label = NEGATIVE" in capsys.readouterr().out
    assert calls == []
    assert run_cli("classify", "mixed", "--p", "5") == 0
    assert "label = STABILIZER_MIX" in capsys.readouterr().out
    assert calls == [(5,)]


def test_wigner_rejects_a_dimension_that_is_not_a_power_of_p(tmp_path, capsys):
    (tmp_path / "two.mat").write_text("dim 2\n0.5 0 0 0\n0 0 0.5 0\n")
    assert run_cli("wigner", str(tmp_path / "two.mat"), "--p", "3") == 2
    assert "is not p^n x p^n for p=3" in capsys.readouterr().err
