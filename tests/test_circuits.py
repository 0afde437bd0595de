import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwigner import simulate
from dwigner.circuits import (
    MAX_REGISTERS,
    CircuitError,
    GateCall,
    GateInstr,
    computational_povm,
    load_matrix_file,
    load_povm_file,
    load_wigner_file,
    parse_circuit,
    parse_circuit_file,
    parse_slice_file,
    validate_circuit,
)
from dwigner.fields import CliffordElement, widen_map
from dwigner.weyl import extract_symplectic, word_map

from conftest import word_unitary

MINIMAL = """\
qudits p=3 n=1
input 1 zero
measure 1 computational
"""


def test_parse_minimal():
    prog = parse_circuit(MINIMAL)
    assert prog.p == 3 and prog.n == 1
    assert len(prog.items) == 1
    assert prog.max_registers == 1
    assert validate_circuit(prog).ok


def test_parse_four_register_adaptive():
    # three-way branch on register 4's outcome selecting the final Clifford
    src = """\
qudits p=3 n=4
input 1 mixed
input 2 zero
input 3 zero
input 4 zero
gate fourier(1); sum(1,2); sum(2,3); sum(3,4)
measure 4 computational branch: 0->c0 1->c1 2->c2
label c0:
gate fourier(3)
measure 3 computational
measure 2 computational
measure 1 computational
label c1:
gate quadratic(3)
measure 3 computational
measure 2 computational
measure 1 computational
label c2:
gate multiply(2,3)
measure 3 computational
measure 2 computational
measure 1 computational
"""
    prog = parse_circuit(src)
    assert prog.n == 4
    branch = next(it for it in prog.items if getattr(it, "branch", None))
    assert len(branch.branch) == 3
    assert validate_circuit(prog).ok


def test_reject_wrong_measure_order():
    src = """\
qudits p=3 n=2
input 1 zero
input 2 zero
measure 1 computational
measure 2 computational
"""
    with pytest.raises(CircuitError, match="order"):
        parse_circuit(src)


def test_reject_double_measure():
    src = """\
qudits p=3 n=1
input 1 zero
measure 1 computational
measure 1 computational
"""
    with pytest.raises(CircuitError):
        parse_circuit(src)


def test_reject_unmeasured_register():
    src = """\
qudits p=3 n=2
input 1 zero
input 2 zero
measure 2 computational
"""
    with pytest.raises(CircuitError, match="unmeasured"):
        parse_circuit(src)


def test_reject_non_total_branch():
    src = """\
qudits p=3 n=1
input 1 zero
measure 1 computational branch: 0->a 1->a
label a:
"""
    with pytest.raises(CircuitError, match="total"):
        parse_circuit(src)


def test_reject_backward_branch_target():
    src = """\
qudits p=3 n=1
label back:
input 1 zero
measure 1 computational branch: 0->back 1->back 2->back
"""
    # inputs must precede instructions, so restructure to isolate the rule
    src = """\
qudits p=3 n=1
input 1 zero
label back:
measure 1 computational branch: 0->back 1->back 2->back
"""
    with pytest.raises(CircuitError, match="ahead"):
        parse_circuit(src)


def test_reject_unknown_preset_and_povm():
    with pytest.raises(CircuitError, match="preset"):
        parse_circuit("qudits p=3 n=1\ninput 1 wat\nmeasure 1 computational\n")
    with pytest.raises(CircuitError, match="POVM"):
        parse_circuit("qudits p=3 n=1\ninput 1 zero\nmeasure 1 bell\n")


def test_reject_bad_header_and_prime():
    with pytest.raises(CircuitError):
        parse_circuit("qudits p=4 n=1\ninput 1 zero\nmeasure 1 computational\n")
    with pytest.raises(CircuitError):
        parse_circuit("hello\n")
    with pytest.raises(CircuitError):
        parse_circuit("")


def test_reject_input_after_instruction():
    src = """\
qudits p=3 n=2
input 1 zero
gate fourier(1)
input 2 zero
measure 2 computational
measure 1 computational
"""
    with pytest.raises(CircuitError, match="precede"):
        parse_circuit(src)


def test_reject_duplicate_input_and_missing_input():
    with pytest.raises(CircuitError, match="two inputs"):
        parse_circuit(
            "qudits p=3 n=1\ninput 1 zero\ninput 1 zero\nmeasure 1 computational\n"
        )
    with pytest.raises(CircuitError, match="no input"):
        parse_circuit("qudits p=3 n=2\ninput 1 zero\nmeasure 2 computational\n")


def test_reject_gate_word_errors():
    base = "qudits p=3 n=2\ninput 1 zero\ninput 2 zero\n{}\nmeasure 2 computational\nmeasure 1 computational\n"
    for bad in (
        "gate sum(1,1)",
        "gate fourier(3)",
        "gate warp(1)",
        "gate multiply(0,1)",
        "gate fourier(1);; sum(1,2)",
    ):
        with pytest.raises(CircuitError):
            parse_circuit(base.format(bad))


def test_error_carries_line_number():
    try:
        parse_circuit("qudits p=3 n=1\ninput 1 zero\ngate warp(1)\nmeasure 1 computational\n")
    except CircuitError as exc:
        assert exc.line == 3
        assert "line 3" in str(exc)
    else:
        pytest.fail("expected CircuitError")


def test_extend_state_is_checked_once(samples_dir):
    src = "qudits p=3 n=1\ninput 1 zero\nextend 3 {}\n" + "".join(
        f"measure {r} computational\n" for r in (4, 3, 2, 1)
    )
    rep = validate_circuit(parse_circuit(src.format("mixed")))
    assert rep.ok
    assert rep.extend_wigners[0].shape == (9,)  # one array for the item's three registers
    assert np.allclose(rep.extend_wigners[0], 1 / 9)
    rep = validate_circuit(parse_circuit(src.format("matrix-file:strange.mat"), base_dir=samples_dir))
    assert rep.problems == ["extend (matrix-file:strange.mat): negative Wigner value -0.333333"]


def test_validate_rejects_negative_input(samples_dir):
    prog = parse_circuit_file(samples_dir / "bad_negative_input.circ")
    rep = validate_circuit(prog)
    assert not rep.ok
    assert any("negative Wigner value" in p and "(0,0)" in p for p in rep.problems)


def test_validate_rejects_negative_effect(tmp_path, strange_state):
    # PSD POVM whose first effect has a negative Wigner value
    comp = np.eye(3) - strange_state
    lines = ["povm p=3 outcomes=2", "effect s"]
    for row in strange_state:
        lines.append("  ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    lines.append("effect rest")
    for row in comp:
        lines.append("  ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row))
    povm_path = tmp_path / "neg.povm"
    povm_path.write_text("\n".join(lines) + "\n")
    src = f"""\
qudits p=3 n=1
input 1 mixed
measure 1 povm-file:{povm_path.name}
"""
    prog = parse_circuit(src, base_dir=tmp_path)
    rep = validate_circuit(prog)
    assert not rep.ok
    assert any("negative Wigner value" in p for p in rep.problems)


def test_gate_unitary_matches_claimed_map():
    src = """\
qudits p=3 n=2
input 1 zero
input 2 zero
gate fourier(1); sum(2,1); quadratic(2)
measure 2 computational
measure 1 computational
"""
    prog = parse_circuit(src)
    rep = validate_circuit(prog)
    assert rep.ok
    # the gate's (F, a) composed on its two registers from the generator
    # table; widened to n=2 it is the map that conjugating the word's dense
    # unitary gives
    regs, g = word_map(prog.items[0].word, 3)
    assert regs == (1, 2) and g.a.sum() == 0
    U = word_unitary(3, 2, prog.items[0].word)
    assert CliffordElement(*widen_map(regs, g, 2), 3) == extract_symplectic(U, 3)


def test_wide_validation_keeps_no_dense_maps():
    # 256 registers, 32 displace items and 32 one-register gate items: the
    # validator composes no map, where a 512 x 512 map per item and register
    # count would keep 2 MiB each; each gate word's map is 2 x 2
    n = MAX_REGISTERS
    lines = [f"qudits p=3 n={n}"] + [f"input {r} zero" for r in range(1, n + 1)]
    for r in range(1, 33):
        lines += [f"displace {r} (1,2)", f"gate fourier({r})"]
    lines += [f"measure {r} computational" for r in range(n, 0, -1)]
    prog = parse_circuit("\n".join(lines))
    tracemalloc.start()
    try:
        rep = validate_circuit(prog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok, rep.problems
    assert peak < 4 * 2**20, peak
    gates = {
        i: instr.word
        for i, instr in enumerate(prog.items)
        if isinstance(instr, GateInstr) and instr.word[0].kind != "displace"
    }
    assert {i: word_map(word, 3)[0] for i, word in gates.items()} == {
        2 * r - 1: (r,) for r in range(1, 33)
    }
    rpt = simulate.sample_classical(prog, seed=1, shots=200)
    assert rpt.field_mults == 200 * 32 * 512**2
    assert sum(rpt.counts.values()) == 200


def test_repeated_wide_lines_validate_into_no_held_maps():
    # 40 identical full-width brickwork lines on 256 registers: a composed
    # 512 x 512 int64 map kept per line would hold 2 MiB each, 80 MiB in all;
    # the report holds the inputs' and effects' Wigner values only
    n = MAX_REGISTERS
    lines = [f"qudits p=3 n={n}"]
    lines += [f"input {r} {'mixed' if r % 3 == 1 else 'zero'}" for r in range(1, n + 1)]
    word = "; ".join(f"fourier({r}); sum({r},{r % n + 1})" for r in range(1, n + 1))
    lines += [f"gate {word}"] * 40
    lines += [f"measure {r} computational" for r in range(n, 0, -1)]
    prog = parse_circuit("\n".join(lines))
    validate_circuit(prog)  # fill the Wigner caches untraced
    tracemalloc.start()
    try:
        rep = validate_circuit(prog)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rep.ok, rep.problems
    assert held < 2**20, held


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    path = tmp_path / "m.mat"
    rows = [" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) for row in M]
    path.write_text("\n".join(["dim 3", *rows]) + "\n")
    assert np.max(np.abs(load_matrix_file(path) - M)) < 1e-15


def test_matrix_file_errors(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("dim 2\n1 0 0 0\n")
    with pytest.raises(CircuitError):
        load_matrix_file(path)
    path.write_text("2\n1 0 0 0 0 0 1 0\n")
    with pytest.raises(CircuitError):
        load_matrix_file(path)


def test_wigner_file(tmp_path):
    path = tmp_path / "w.wig"
    rows = "\n".join(f"{a} {b} 1/9" for a in range(3) for b in range(3))
    path.write_text(f"wigner p=3\n{rows}\n")
    w = load_wigner_file(path, 3)
    assert all(x == 1 for x in (9 * v for v in w))
    path.write_text("wigner p=3\n0 0 1\n")
    with pytest.raises(CircuitError):
        load_wigner_file(path, 3)


def test_computational_povm():
    povm = computational_povm(3)
    assert povm.labels == ("0", "1", "2")
    total = sum(povm.effects)
    assert np.allclose(total, np.eye(3))


def test_povm_file_label_and_completeness(tmp_path, samples_dir):
    povm = load_povm_file(samples_dir / "two_outcome.povm", 3)
    assert povm.labels == ("hit", "miss")
    assert np.allclose(sum(povm.effects), np.eye(3), atol=1e-12)
    # incomplete POVM rejected
    bad = tmp_path / "bad.povm"
    bad.write_text(
        "povm p=3 outcomes=1\neffect only\n1 0  0 0  0 0\n0 0  0 0  0 0\n0 0  0 0  0 0\n"
    )
    with pytest.raises(CircuitError):
        load_povm_file(bad, 3)


def test_extend_paths_and_measure_rule():
    # after extend, the new highest register must be measured first
    src = """\
qudits p=3 n=1
input 1 zero
extend 1 mixed
measure 1 computational
measure 2 computational
"""
    with pytest.raises(CircuitError, match="order"):
        parse_circuit(src)
    ok = src.replace(
        "measure 1 computational\nmeasure 2 computational",
        "measure 2 computational\nmeasure 1 computational",
    )
    prog = parse_circuit(ok)
    assert prog.max_registers == 2


def test_parse_slice_file_errors(tmp_path, samples_dir):
    spec = parse_slice_file(samples_dir / "pinned_ninth_2d.slice")
    assert spec.p == 3
    assert len(spec.free) == 2
    bad = tmp_path / "bad.slice"
    bad.write_text("slice p=3\nfixed (0,0) 1/9\n")
    with pytest.raises((CircuitError, ValueError)):
        parse_slice_file(bad)
    bad.write_text("slice p=5\n")
    with pytest.raises((CircuitError, ValueError)):
        parse_slice_file(bad)


def test_format_header_line_tolerated():
    src = "format 1\n" + MINIMAL
    prog = parse_circuit(src)
    assert prog.p == 3


# --- gate maps: generator table maps composed symbolically -------------------

@st.composite
def gate_programs(draw, p):
    """Random gate and displace items over all five generator kinds on up to
    four registers; the register count keeps the dense reference at
    p^n <= 243 (4 at p = 3, 3 at p = 5, 2 above)."""
    n = draw(st.integers(1, max(k for k in range(1, 5) if p**k <= 243)))
    reg = st.integers(1, n)
    kinds = ["fourier", "quadratic", "multiply"] + (["sum"] if n > 1 else [])
    items = []  # each item a list of GateCalls; a displace item is one call
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            r = draw(reg)
            point = (draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1)))
            items.append([GateCall("displace", (r,), (("point", point),))])
            continue
        word = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(kinds))
            if kind == "sum":
                regs = tuple(draw(st.lists(reg, min_size=2, max_size=2, unique=True)))
                word.append(GateCall("sum", regs))
            elif kind == "multiply":
                c = draw(st.integers(1, p - 1))
                word.append(GateCall("multiply", (draw(reg),), (("c", c),)))
            else:
                word.append(GateCall(kind, (draw(reg),)))
        items.append(word)
    return n, items


def _gate_text(calls) -> str:
    """The circuit line of an item's GateCalls."""
    if calls[0].kind == "displace":
        a1, a2 = dict(calls[0].params)["point"]
        return f"displace {calls[0].regs[0]} ({a1},{a2})"
    texts = []
    for c in calls:
        args = ((dict(c.params)["c"],) if c.kind == "multiply" else ()) + c.regs
        texts.append(f"{c.kind}({','.join(map(str, args))})")
    return "gate " + "; ".join(texts)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@settings(max_examples=30)
@given(data=st.data())
def test_gate_maps_equal_dense_extraction(p, data):
    n, items = data.draw(gate_programs(p))
    lines = [f"qudits p={p} n={n}"] + [f"input {r} mixed" for r in range(1, n + 1)]
    lines += [_gate_text(item) for item in items]
    lines += [f"measure {r} computational" for r in range(n, 0, -1)]
    prog = parse_circuit("\n".join(lines))
    rep = validate_circuit(prog)
    assert rep.ok, rep.problems
    for i, calls in enumerate(items):
        assert prog.items[i].word == calls  # each call parsed into its record
        # a gate or displace item's calls compose into one map
        regs, g = word_map(calls, p)
        assert g.F.shape == (2 * len(regs), 2 * len(regs))
        widened = CliffordElement(*widen_map(regs, g, n), p)
        assert widened == extract_symplectic(word_unitary(p, n, calls), p)


def test_validation_and_sampling_build_no_wide_unitaries(monkeypatch, samples_dir):
    from dwigner import circuits, simulate, weyl

    seen = {"call_unitary": [], "extract_symplectic": []}
    weyl.call_unitary.cache_clear()  # build each local unitary under the spies
    for name, record in seen.items():
        real = getattr(weyl, name)

        def spy(*args, _real=real, _record=record, **kwargs):
            out = _real(*args, **kwargs)
            _record.append(np.size(out))
            return out

        # rebind every name under which a dwigner module holds the function
        for module in (weyl, circuits, simulate):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    five = "\n".join(
        ["qudits p=3 n=5"]
        + [f"input {r} mixed" for r in range(1, 6)]
        + ["gate fourier(1); sum(1,5); quadratic(3); sum(4,2); multiply(2,5)", "displace 4 (1,2)"]
        + [f"measure {r} computational" for r in range(5, 0, -1)]
    )
    for prog in (parse_circuit_file(samples_dir / "reg10_cascade.circ"), parse_circuit(five)):
        assert validate_circuit(prog).ok
        simulate.sample_classical(prog, seed=1, shots=200)
    assert seen == {"call_unitary": [], "extract_symplectic": []}
    # the spies are live: the oracle builds its local unitaries through them,
    # each at most p^2 x p^2
    simulate.run_oracle(parse_circuit(five))
    assert seen["call_unitary"] and max(seen["call_unitary"]) <= 9**2
    assert seen["extract_symplectic"] == []


def _wide_circuit(n, extend):
    """n zero inputs, one extend of `extend` registers, each register measured."""
    total = n + extend
    return (
        f"qudits p=3 n={n}\n"
        + "".join(f"input {r} zero\n" for r in range(1, n + 1))
        + f"extend {extend} zero\n"
        + "".join(f"measure {r} computational\n" for r in range(total, 0, -1))
    )


@pytest.mark.parametrize(
    "src,line,match",
    [
        ("qudits p=3 n=1000000\ninput 1 zero\n", 1, "n=1000000 exceeds the register cap 256"),
        ("qudits p=3 n=1\ninput 1 zero\nextend 1000000 zero\n", 3, "extend count 1000000"),
        (_wide_circuit(200, MAX_REGISTERS - 199), 202, "extend to 257 registers"),
    ],
    ids=["header", "extend-count", "path"],
)
def test_register_cap(src, line, match):
    with pytest.raises(CircuitError, match=match) as exc:
        parse_circuit(src)
    assert exc.value.line == line
    assert f"line {line}:" in str(exc.value)


def test_register_cap_admits_exactly_the_cap():
    assert MAX_REGISTERS == 256
    assert parse_circuit(_wide_circuit(200, MAX_REGISTERS - 200)).max_registers == MAX_REGISTERS
