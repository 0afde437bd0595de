import subprocess
import sys

import pytest

from dwigner import circuits
from dwigner.cli import main
from dwigner.simulate import CHUNK_SHOTS
from dwigner.stabilizer import MAX_MUB_P


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
    calls = []
    original = circuits.validate_circuit

    def spy(prog):
        calls.append(prog)
        return original(prog)

    # rebind every name under which a dwigner module holds the validator
    for module in [m for name, m in sys.modules.items() if name.startswith("dwigner")]:
        if getattr(module, "validate_circuit", None) is original:
            monkeypatch.setattr(module, "validate_circuit", spy)
    argv = ["sample", str(samples_dir / circuit), *flags, "--out", str(tmp_path / "r.csv")]
    assert run_cli(*argv) == rc
    assert len(calls) == 1


def test_sample_requires_seed(samples_dir, capsys):
    rc = run_cli("sample", str(samples_dir / "reg02_fourier.circ"), "--shots", "100")
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


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


def test_sample_bytes_identical_across_jobs(samples_dir, tmp_path):
    # one chunk of shots, then four chunks with a five-shot tail
    for shots in (30000, 3 * CHUNK_SHOTS + 5):
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
    "argv",
    [
        ["distill-check", "--random-suite", "-3", "--seed", "1"],
        ["distill-check", "--seed", "-1", "--random-suite", "2"],
        ["distill-check", "--n", "1", "--random-suite", "2", "--seed", "1"],
        ["slice", "--jobs", "0", "SPEC"],
    ],
    ids=["random-suite", "distill-seed", "n", "slice-jobs"],
)
def test_distill_and_slice_reject_out_of_range_flag(samples_dir, capsys, argv):
    argv = [str(samples_dir / "pinned_ninth_2d.slice") if a == "SPEC" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: must be at least" in err


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


def test_slice_malformed_spec(tmp_path):
    bad = tmp_path / "bad.slice"
    bad.write_text("slice p=3\nfixed (0,0) 1/9\n")
    assert run_cli("slice", str(bad)) == 2


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


def test_sample_povm_effect_without_label(tmp_path, capsys):
    zeros = "\n".join(["0 0  0 0  0 0"] * 3)
    (tmp_path / "bad.povm").write_text(f"povm p=3 outcomes=1\neffect\n{zeros}\n")
    circ = tmp_path / "c.circ"
    circ.write_text("qudits p=3 n=1\ninput 1 zero\nmeasure 1 povm-file:bad.povm\n")
    assert run_cli("sample", str(circ), "--shots", "0") == 2
    err = capsys.readouterr().err
    assert "bad.povm" in err and "line 2" in err


def test_distill_check_rejects_large_random_suite(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert run_cli("distill-check", "--random-suite", "1", "--seed", "1", "--n", "9",
                   "--out", str(out)) == 2
    assert "p^n <= 243" in capsys.readouterr().err
    assert not out.exists()


def test_distill_check_rejects_large_instance_file(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text(
        "distill p=3 n=6\ninput product zero zero zero zero zero zero\n"
        "channel gates fourier(1)\nprojector zero\n"
    )
    assert run_cli("distill-check", str(inst)) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "p^n <= 243" in err


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
