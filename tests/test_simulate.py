import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwigner import simulate
from dwigner.circuits import parse_circuit, parse_circuit_file, validate_circuit
from dwigner.simulate import (
    DistillationInstance,
    InputNegativelyRepresented,
    OracleGuardError,
    OutcomeDistribution,
    ZeroProbabilityBranch,
    compare_distributions,
    distill_step,
    parse_distill_file,
    random_distill_instance,
    run_oracle,
    sample_classical,
    _word_unitary,
)
from dwigner.weyl import clifford_generator
from dwigner.wigner import wigner_of_effect, wigner_of_state


def oracle_of(src, **kw):
    return run_oracle(parse_circuit(src, **kw))


def test_oracle_trivial():
    d = oracle_of("qudits p=3 n=1\ninput 1 zero\nmeasure 1 computational\n")
    assert d.probabilities == {"0": pytest.approx(1.0)}


def test_oracle_fourier_uniform():
    d = oracle_of("qudits p=3 n=1\ninput 1 zero\ngate fourier(1)\nmeasure 1 computational\n")
    for k in ("0", "1", "2"):
        assert d.probabilities[k] == pytest.approx(1 / 3)


def test_oracle_correlated_pair():
    src = """\
qudits p=3 n=2
input 1 zero
input 2 mixed
gate sum(1,2)
measure 2 computational
measure 1 computational
"""
    d = oracle_of(src)
    # register 1 stays 0; register 2 uniform
    assert set(d.probabilities) == {"00", "01", "02"}
    for v in d.probabilities.values():
        assert v == pytest.approx(1 / 3)


def test_oracle_guard():
    lines = ["qudits p=3 n=6"] + [f"input {r} zero" for r in range(1, 7)] + [
        f"measure {r} computational" for r in range(6, 0, -1)
    ]
    prog = parse_circuit("\n".join(lines))
    with pytest.raises(OracleGuardError):
        run_oracle(prog)


def test_oracle_distribution_sums_to_one(samples_dir):
    for name in ("reg06_adaptive.circ", "reg07_extend.circ", "reg10_cascade.circ"):
        d = run_oracle(parse_circuit_file(samples_dir / name))
        assert sum(d.probabilities.values()) == pytest.approx(1.0, abs=1e-9)


def test_outcome_distribution_validates():
    with pytest.raises(ValueError):
        OutcomeDistribution({"0": 0.5})


def test_oracle_chain_rule_marginal(samples_dir):
    # the joint distribution marginalizes to the same last-register
    # distribution as a direct Born evaluation of the pre-measurement state
    prog = parse_circuit_file(samples_dir / "reg08_three.circ")
    joint = run_oracle(prog)
    rho = np.kron(np.kron(prog.inputs[0], prog.inputs[1]), prog.inputs[2])
    U = np.eye(27, dtype=complex)
    for i, _ in enumerate(prog.items[:2]):
        U = _word_unitary(3, 3, prog.items[i].word) @ U
    rho = U @ rho @ U.conj().T
    for k in range(3):
        E = np.kron(np.eye(9), np.diag([1.0 if j == k else 0.0 for j in range(3)]))
        direct = np.trace(E @ rho).real
        marginal = sum(
            v for key, v in joint.probabilities.items() if key[2] == str(k)
        )
        assert marginal == pytest.approx(direct, abs=1e-10)


def test_sampler_matches_oracle_on_suite(samples_dir):
    # spot-check two circuits here; the full ten-circuit suite runs in the
    # acceptance tests
    for name, seed in (("reg06_adaptive.circ", 5), ("reg08_three.circ", 9)):
        prog = parse_circuit_file(samples_dir / name)
        ref = run_oracle(prog)
        rpt = sample_classical(prog, seed=seed, shots=40000)
        res = compare_distributions(ref, rpt.counts, rpt.shots)
        assert res.verdict == "PASS", (name, res)


def test_sampler_deterministic_across_jobs(samples_dir):
    prog = parse_circuit_file(samples_dir / "reg10_cascade.circ")
    base = sample_classical(prog, seed=123, shots=9973)
    for jobs in (2, 5, 16):
        again = sample_classical(prog, seed=123, shots=9973, jobs=jobs)
        assert again.counts == base.counts
        assert again.field_mults == base.field_mults
    assert sum(base.counts.values()) == 9973


def test_sampler_seed_changes_counts(samples_dir):
    prog = parse_circuit_file(samples_dir / "reg06_adaptive.circ")
    a = sample_classical(prog, seed=1, shots=5000)
    b = sample_classical(prog, seed=2, shots=5000)
    assert a.counts != b.counts


def test_sampler_zero_state_deterministic():
    prog = parse_circuit("qudits p=3 n=1\ninput 1 zero\nmeasure 1 computational\n")
    rpt = sample_classical(prog, seed=0, shots=10000)
    assert rpt.counts == {"0": 10000}


def test_sampler_rejects_invalid_circuit(samples_dir):
    from dwigner.circuits import CircuitError, parse_circuit_file

    prog = parse_circuit_file(samples_dir / "bad_negative_input.circ")
    with pytest.raises(CircuitError):
        sample_classical(prog, seed=0, shots=10)


def test_operation_count_quadratic():
    shots = 500
    counts = []
    for n in range(1, 7):
        lines = [f"qudits p=3 n={n}"] + [f"input {r} mixed" for r in range(1, n + 1)]
        lines.append("gate " + "; ".join(f"fourier({r})" for r in range(1, n + 1)))
        lines += [f"measure {r} computational" for r in range(n, 0, -1)]
        prog = parse_circuit("\n".join(lines))
        rpt = sample_classical(prog, seed=1, shots=shots)
        counts.append(rpt.field_mults)
        assert rpt.field_mults == shots * 4 * n * n
    ratios = [counts[n] / counts[0] for n in range(6)]
    assert ratios == [(k + 1) ** 2 for k in range(6)]


def test_compare_identical_distributions():
    ref = OutcomeDistribution({"0": 0.5, "1": 0.5})
    res = compare_distributions(ref, {"0": 500, "1": 500}, 1000)
    assert res.tv == 0.0
    assert res.verdict == "PASS"


def test_compare_point_mass_vs_uniform():
    ref = OutcomeDistribution({"0": 1 / 3, "1": 1 / 3, "2": 1 / 3})
    res = compare_distributions(ref, {"0": 900}, 900)
    assert res.tv == pytest.approx(2 / 3)
    assert res.verdict == "FAIL"


def test_compare_rejects_unknown_outcomes():
    ref = OutcomeDistribution({"0": 1.0})
    with pytest.raises(ValueError):
        compare_distributions(ref, {"1": 10}, 10)


def test_compare_pools_small_cells():
    probs = {"a": 0.994, "b": 0.003, "c": 0.003}
    ref = OutcomeDistribution(probs)
    res = compare_distributions(ref, {"a": 994, "b": 3, "c": 3}, 1000)
    # expected 3 each at 1000 shots: the two tiny cells merge into one pool
    assert res.pooled_cells == 2
    assert res.verdict == "PASS"


# --- distillation -----------------------------------------------------------

def test_distill_identity_instance(samples_dir):
    inst = parse_distill_file(samples_dir / "distill_identity.txt")
    res = distill_step(inst)
    assert res.verdict == "PASS"
    assert res.F_in == pytest.approx(0.0, abs=1e-12)
    assert res.F_out == pytest.approx(0.0, abs=1e-12)
    out = np.zeros((3, 3))
    out[0, 0] = 1
    assert np.max(np.abs(res.rho_out - out)) < 1e-10


def test_distill_word_instance(samples_dir):
    inst = parse_distill_file(samples_dir / "distill_word.txt")
    res = distill_step(inst)
    assert res.verdict == "PASS"
    assert res.F_out >= -1e-8


def test_distill_kraus_instance(samples_dir):
    inst = parse_distill_file(samples_dir / "distill_kraus.txt")
    assert inst.positivity_asserted
    res = distill_step(inst)
    assert res.verdict == "PASS"


def test_distill_kraus_requires_flag(samples_dir):
    inst = parse_distill_file(samples_dir / "distill_kraus.txt")
    inst.positivity_asserted = False
    with pytest.raises(ValueError, match="positivity"):
        distill_step(inst)


def test_distill_negative_input_rejected(strange_state):
    inst = DistillationInstance(
        p=3, n=2,
        rho_in=np.kron(strange_state, np.eye(3) / 3),
        channel=("unitary", np.eye(9, dtype=complex)),
        projector=np.diag([1.0, 0, 0]).astype(complex),
    )
    with pytest.raises(InputNegativelyRepresented):
        distill_step(inst)
    res = distill_step(inst, force_negative_input=True)
    assert res.verdict is None
    assert res.F_out < 0  # hypothesis necessity: negativity survives


def test_distill_zero_probability_branch():
    # channel maps |00> to |10>; projecting the ancilla onto... the
    # projector hits an orthogonal branch when the input register is shifted
    U, _ = clifford_generator("displace", 3, n=2, point=(0, 0, 0, 1))
    rho = np.zeros((9, 9), dtype=complex)
    rho[0, 0] = 1
    inst = DistillationInstance(
        p=3, n=2, rho_in=rho, channel=("unitary", U),
        projector=np.diag([1.0, 0, 0]).astype(complex),
    )
    with pytest.raises(ZeroProbabilityBranch):
        distill_step(inst)


def test_distill_rejects_non_projector():
    inst = DistillationInstance(
        p=3, n=2, rho_in=np.eye(9, dtype=complex) / 9,
        channel=("unitary", np.eye(9, dtype=complex)),
        projector=np.diag([0.5, 0, 0]).astype(complex),
    )
    with pytest.raises(ValueError, match="projector"):
        distill_step(inst)


def test_random_instances_pass():
    rng = np.random.default_rng(99)
    for _ in range(15):
        inst = random_distill_instance(3, 2, rng)
        try:
            res = distill_step(inst)
        except ZeroProbabilityBranch:
            continue
        assert res.verdict == "PASS"


def test_negativity_invariant_under_gates():
    # F is unchanged by Clifford conjugation
    from dwigner.wigner import negativity_F

    rng = np.random.default_rng(21)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = G @ G.conj().T
    rho /= np.trace(rho).real
    F0 = negativity_F(rho, 3)
    for kind in ("fourier", "quadratic"):
        U, _ = clifford_generator(kind, 3)
        assert negativity_F(U @ rho @ U.conj().T, 3) == pytest.approx(F0, abs=1e-10)


def test_forty_qutrit_circuit_validates_and_samples():
    # far past any dense unitary: a GHZ-style fourier + sum chain on 40 qutrits
    n, shots = 40, 2000
    lines = [f"qudits p=3 n={n}"] + [f"input {r} zero" for r in range(1, n + 1)]
    gates = ["fourier(1)", "; ".join(f"sum({r},{r + 1})" for r in range(1, n))]
    lines += [f"gate {g}" for g in gates]
    lines += [f"measure {r} computational" for r in range(n, 0, -1)]
    prog = parse_circuit("\n".join(lines))
    assert validate_circuit(prog).ok
    rpt = sample_classical(prog, seed=3, shots=shots)
    assert set(rpt.counts) == {k * n for k in "012"}
    assert sum(rpt.counts.values()) == shots
    assert rpt.field_mults == shots * len(gates) * (2 * n) ** 2


def test_tally_beyond_int64_matches_per_shot_reference():
    # 3^45 possible outcomes, more than int64 codes can hold: the vectorized
    # tally must still agree with a per-shot tally
    n, shots, seed = 45, 3000, 4
    lines = [f"qudits p=3 n={n}"] + [f"input {r} mixed" for r in range(1, n + 1)]
    lines += [f"measure {r} computational" for r in range(n, 0, -1)]
    prog = parse_circuit("\n".join(lines))
    rpt = sample_classical(prog, seed=seed, shots=shots)
    # the documented positional layout: one shots x 2n matrix from
    # Philox(seed), draw j of shot s is U[s, j]; draws 0..n-1 pick the input
    # points, draw n + k decides the k-th measurement
    U = np.random.Generator(np.random.Philox(seed)).random((shots, 2 * n))
    cum_in = np.cumsum(wigner_of_state(prog.inputs[0], 3).values)
    cum_in[-1] = 1.0
    points = np.searchsorted(cum_in, U[:, :n], side="right")
    povm = prog.items[0].povm
    cum_out = np.cumsum([wigner_of_effect(E, 3).values for E in povm.effects], axis=0)
    expected = {}
    for s in range(shots):
        labels = {}
        for k, reg in enumerate(range(n, 0, -1)):
            hit = cum_out[:-1, points[s, reg - 1]] <= U[s, n + k]
            labels[reg] = povm.labels[int(hit.sum())]
        key = "".join(labels[r] for r in range(1, n + 1))
        expected[key] = expected.get(key, 0) + 1
    assert len(expected) > 1
    assert rpt.counts == expected


def test_tally_keeps_outcomes_apart_past_64_binary_digits(samples_dir):
    # 65 two-outcome registers: without renumbering, register 1's digit would
    # be scaled by 2^64 and wrap to zero, merging its two outcomes
    n = 65
    lines = [f"qudits p=3 n={n}", "input 1 mixed"] + [f"input {r} zero" for r in range(2, n + 1)]
    lines += [f"measure {r} povm-file:two_outcome.povm" for r in range(n, 0, -1)]
    prog = parse_circuit("\n".join(lines), base_dir=samples_dir)
    rpt = sample_classical(prog, seed=2, shots=3000)
    assert set(rpt.counts) == {"hit" * n, "miss" + "hit" * (n - 1)}
    assert sum(rpt.counts.values()) == 3000


PRESETS = ["mixed", "zero", "basis(1)", "basis(2)"]
POVMS = {"computational": ("0", "1", "2"), "povm-file:two_outcome.povm": ("hit", "miss")}


@st.composite
def adaptive_circuits(draw):
    """Valid qutrit circuits of at most 3 registers: gate words, displace,
    extend, adaptive branches and the two-outcome POVM."""
    n = draw(st.integers(1, 3))
    lines = [f"qudits p=3 n={n}"]
    lines += [f"input {r} {draw(st.sampled_from(PRESETS))}" for r in range(1, n + 1)]
    names = itertools.count()

    def gate_call(unmeasured):
        kinds = ["fourier", "quadratic", "multiply"] + (["sum"] if len(unmeasured) > 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "sum":
            ctrl, tgt = draw(st.permutations(unmeasured))[:2]
            return f"sum({ctrl},{tgt})"
        reg = draw(st.sampled_from(unmeasured))
        if kind == "multiply":
            return f"multiply({draw(st.integers(1, 2))},{reg})"
        return f"{kind}({reg})"

    def block(n_cur, unmeasured, depth):
        out = []
        while unmeasured:
            for _ in range(draw(st.integers(0, 3))):
                op = draw(st.sampled_from(["gate", "displace", "extend"]))
                if op == "extend" and n_cur < 3:
                    count = draw(st.integers(1, 3 - n_cur))
                    out.append(f"extend {count} {draw(st.sampled_from(PRESETS))}")
                    unmeasured = unmeasured + list(range(n_cur + 1, n_cur + count + 1))
                    n_cur += count
                elif op == "displace":
                    a1, a2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
                    out.append(f"displace {draw(st.sampled_from(unmeasured))} ({a1},{a2})")
                else:
                    calls = [gate_call(unmeasured) for _ in range(draw(st.integers(1, 3)))]
                    out.append("gate " + "; ".join(calls))
            reg = max(unmeasured)
            unmeasured = [r for r in unmeasured if r != reg]
            povm = draw(st.sampled_from(sorted(POVMS)))
            if depth < 2 and draw(st.booleans()):
                # outcomes may share an arm; every arm is some outcome's target
                arm_of = [draw(st.integers(0, len(POVMS[povm]) - 1)) for _ in POVMS[povm]]
                arms = {a: f"arm{next(names)}" for a in sorted(set(arm_of))}
                table = " ".join(f"{lab}->{arms[a]}" for lab, a in zip(POVMS[povm], arm_of))
                out.append(f"measure {reg} {povm} branch: {table}")
                for name in arms.values():
                    out.append(f"label {name}:")
                    out += block(n_cur, unmeasured, depth + 1)
                return out
            out.append(f"measure {reg} {povm}")
        return out

    return "\n".join(lines + block(n, list(range(1, n + 1)), 0))


@settings(max_examples=40)
@given(src=adaptive_circuits())
def test_sampler_matches_oracle_on_generated_circuits(samples_dir, src):
    prog = parse_circuit(src, base_dir=samples_dir)
    assert validate_circuit(prog).ok
    runs = {shots: sample_classical(prog, seed=11, shots=shots) for shots in (1001, 20000)}
    res = compare_distributions(run_oracle(prog), runs[20000].counts, 20000)
    assert res.verdict == "PASS", (src, res)
    # the chunk size never changes the counts; tiny chunks split the short run
    for size, shots in ((2, 1001), (6, 1001), (4096, 20000)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "CHUNK_SHOTS", size)
            assert sample_classical(prog, seed=11, shots=shots).counts == runs[shots].counts


def test_sampler_memory_bounded_by_a_chunk(monkeypatch, samples_dir):
    # traced Python-heap peak at 40 chunks against 1 chunk: a uniform matrix
    # sized by the shot count, or chunk arrays kept alive after their chunk,
    # would grow with the chunk count
    prog = parse_circuit_file(samples_dir / "reg10_cascade.circ")
    monkeypatch.setattr(simulate, "CHUNK_SHOTS", 4096)
    sample_classical(prog, seed=1, shots=4096)  # fill validation caches untraced
    peaks = []
    for chunks in (1, 40):
        tracemalloc.start()
        try:
            sample_classical(prog, seed=1, shots=chunks * 4096)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks
