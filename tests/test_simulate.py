import dataclasses
import functools
import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dwigner import circuits, fields, fmt_number, simulate, weyl
from dwigner.fields import CliffordElement, all_points
from dwigner.circuits import (
    ExtendInstr,
    GateCall,
    GateInstr,
    LabelMarker,
    MeasureInstr,
    parse_circuit,
    parse_circuit_file,
    validate_circuit,
)
from dwigner.simulate import (
    DistillationInstance,
    DistillResult,
    InputNegativelyRepresented,
    OracleGuardError,
    OutcomeDistribution,
    ZeroProbabilityBranch,
    compare_distributions,
    distill_step,
    distill_steps,
    parse_distill_file,
    random_distill_instance,
    run_oracle,
    sample_classical,
)
from dwigner.stabilizer import mub_stabilizer_states
from dwigner.weyl import NotCliffordError, clifford_generator, weyl_operator
from dwigner.wigner import (
    negativity_F,
    validate_state,
    wigner_of_effect,
    wigner_of_state,
)

from conftest import word_unitary


def oracle_of(src, **kw):
    return run_oracle(parse_circuit(src, **kw))


def _widened(gate_map, n: int) -> np.ndarray:
    """F on n registers of a word's map (regs, local map), as `weyl.word_map`
    returns it: the local F on the registers' blocks, the identity elsewhere."""
    regs, g = gate_map
    F = np.eye(2 * n, dtype=np.int64)
    cols = [2 * r - 2 + k for r in regs for k in (0, 1)]
    F[np.ix_(cols, cols)] = g.F
    return F


def _chunk_shots(prog) -> int:
    """The sampler's chunk size for prog at the current CHUNK_BYTES."""
    return max(2, simulate.CHUNK_BYTES // (8 * 2 * prog.max_registers) // 2 * 2)


def _chunk_bytes(prog, chunk: int) -> int:
    """The CHUNK_BYTES at which the sampler runs prog in chunks of `chunk`
    (even) shots."""
    return 8 * 2 * prog.max_registers * chunk


def dense_oracle(prog) -> dict:
    """Reference oracle on the dense p^n x p^n density matrix: every gate word
    as a dense product, every effect and Kraus root embedded, Lueders updates
    at each branch node."""
    p = prog.p

    def psd_sqrt(E):
        vals, vecs = np.linalg.eigh(E)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T

    results = {}

    def walk(i, rho, n_cur, outcomes, prob):
        if i >= len(prog.items) or isinstance(prog.items[i], LabelMarker):
            key = "".join(outcomes[r] for r in range(1, n_cur + 1))
            results[key] = results.get(key, 0.0) + prob
            return
        instr = prog.items[i]
        if isinstance(instr, GateInstr):
            U = word_unitary(p, n_cur, instr.word)
            walk(i + 1, U @ rho @ U.conj().T, n_cur, outcomes, prob)
        elif isinstance(instr, ExtendInstr):
            for _ in range(instr.count):
                rho = np.kron(rho, instr.state)
            walk(i + 1, rho, n_cur + instr.count, outcomes, prob)
        elif isinstance(instr, MeasureInstr):
            for label, E in zip(instr.povm.labels, instr.povm.effects):
                pk = float(np.trace(weyl.embed_operator(E, p, n_cur, (instr.reg,)) @ rho).real)
                if pk < 1e-15:
                    continue
                M = weyl.embed_operator(psd_sqrt(E), p, n_cur, (instr.reg,))
                nxt = i + 1 if instr.branch is None else instr.branch[label]
                walk(nxt, M @ rho @ M.conj().T / pk, n_cur, {**outcomes, instr.reg: label},
                     prob * pk)

    rho = np.ones((1, 1), dtype=complex)
    for r in prog.inputs:
        rho = np.kron(rho, r)
    walk(0, rho, prog.n, {}, 1.0)
    return results


def assert_matches_dense(prog):
    got = run_oracle(prog).probabilities
    ref = dense_oracle(prog)
    assert set(got) == set(ref)
    for key, value in ref.items():
        assert abs(got[key] - value) < 1e-12, (key, got[key], value)


def test_oracle_trivial():
    d = oracle_of("qudits p=3 n=1\ninput 1 zero\nmeasure 1 computational\n")
    assert d.probabilities == {"0": pytest.approx(1.0)}


def test_oracle_fourier_uniform():
    d = oracle_of("qudits p=3 n=1\ninput 1 zero\ngate fourier(1)\nmeasure 1 computational\n")
    for k in ("0", "1", "2"):
        assert d.probabilities[k] == pytest.approx(1 / 3)


def test_oracle_takes_a_multiply_constant_past_int64():
    # c = 10^29 + 1 = 2 mod 3 takes |1> to |2>; c must stay a Python int
    c = 10**29 + 1
    d = oracle_of(f"qudits p=3 n=1\ninput 1 basis(1)\ngate multiply({c}, 1)\nmeasure 1 computational\n")
    assert d.probabilities == {"2": pytest.approx(1.0)}


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


# branches each regression circuit's oracle drops at pk < 1e-15
PRUNED_BRANCHES = {
    "reg01_minimal.circ": 2,
    "reg02_fourier.circ": 0,
    "reg03_word.circ": 0,
    "reg04_displace.circ": 2,
    "reg05_bell.circ": 6,
    "reg06_adaptive.circ": 0,
    "reg07_extend.circ": 4,
    "reg08_three.circ": 6,
    "reg09_povm.circ": 0,
    "reg10_cascade.circ": 12,
}


def test_oracle_counts_pruned_branches(samples_dir):
    for name, count in PRUNED_BRANCHES.items():
        d = run_oracle(parse_circuit_file(samples_dir / name))
        assert d.pruned_branches == count, name
        assert abs(d.pruned_mass) < 2e-15, name
    # the zero state's outcomes 1 and 2 have pk = 0 and are dropped
    d = run_oracle(parse_circuit_file(samples_dir / "reg01_minimal.circ"))
    assert d.probabilities == {"0": pytest.approx(1.0)}


def test_oracle_matches_dense_reference_on_samples(samples_dir):
    for path in sorted(samples_dir.glob("reg*.circ")):
        assert_matches_dense(parse_circuit_file(path))


def test_oracle_runs_no_qr_once_no_register_is_live(monkeypatch, samples_dir):
    # every rank cut on these circuits leaves no live register, where the
    # factor is the record's norm: no QR runs, and the outcomes still match
    # the dense reference
    def no_qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    for name in ("reg03_word.circ", "reg06_adaptive.circ", "reg10_cascade.circ"):
        assert_matches_dense(parse_circuit_file(samples_dir / name))


WIDE5 = """\
qudits p=3 n=5
input 1 zero
input 2 mixed
input 3 basis(2)
input 4 zero
input 5 mixed
gate sum(4,1); quadratic(3); multiply(2,5); sum(2,5); fourier(3); fourier(1); fourier(5); fourier(2); fourier(4)
displace 4 (1,2)
gate sum(5,2); multiply(2,1); quadratic(4); sum(1,3); quadratic(5)
measure 5 computational branch: 0->left 1->right 2->right
label left:
gate sum(3,1); multiply(2,4); quadratic(2); sum(2,4)
measure 4 computational
measure 3 computational
measure 2 computational
measure 1 computational
label right:
gate quadratic(1); sum(4,2); multiply(2,3); sum(1,4)
measure 4 computational
measure 3 computational
measure 2 computational
measure 1 computational
"""


def test_oracle_on_five_qutrits_builds_only_local_operators(monkeypatch):
    prog = parse_circuit(WIDE5)
    seen = {"call_unitary": [], "weyl_operator": [], "embed_operator": []}
    weyl.call_unitary.cache_clear()  # build each local unitary under the spies
    for name, record in seen.items():
        original = getattr(weyl, name)

        def spy(*args, _original=original, _record=record, **kwargs):
            out = _original(*args, **kwargs)
            _record.append((args, np.shape(out)))
            return out

        # rebind every name under which a dwigner module holds the function
        for module in (weyl, circuits, simulate):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    got = run_oracle(prog)
    assert seen["call_unitary"] and seen["weyl_operator"]  # the spies were live
    assert all(shape[0] <= 3**2 for _, shape in seen["call_unitary"])  # at most p^2 x p^2
    assert all(np.size(args[0]) == 2 for args, _ in seen["weyl_operator"])
    assert seen["embed_operator"] == []
    assert len(got.probabilities) == 3**5
    monkeypatch.undo()
    ref = dense_oracle(prog)
    for key, value in ref.items():
        assert abs(got.probabilities[key] - value) < 1e-12


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
        U = word_unitary(3, 3, prog.items[i].word) @ U
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


def test_sampler_needs_a_seed_to_draw():
    # Philox seeded from OS entropy would make the counts differ run to run
    prog = parse_circuit("qudits p=3 n=1\ninput 1 mixed\nmeasure 1 computational\n")
    with pytest.raises(ValueError, match="30 shots requires an explicit seed"):
        sample_classical(prog, None, 30)
    assert sample_classical(prog, None, 0).counts == {}  # validation only


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


def test_compare_refuses_zero_shots():
    ref = OutcomeDistribution({"0": 1.0})
    with pytest.raises(ValueError, match="positive shot count, got 0"):
        compare_distributions(ref, {}, 0)


def test_compare_pools_small_cells():
    probs = {"a": 0.994, "b": 0.003, "c": 0.003}
    ref = OutcomeDistribution(probs)
    res = compare_distributions(ref, {"a": 994, "b": 3, "c": 3}, 1000)
    # expected 3 each at 1000 shots: the two tiny cells merge into one pool
    assert res.pooled_cells == 2
    assert res.verdict == "PASS"


def test_compare_pools_cells_equal_but_for_rounding_in_key_order():
    # 32 equiprobable outcomes at 64 shots pool three cells at a time.  Moving
    # half of the probabilities by one ulp, up or down, as another exact
    # route to them may, must not reorder the cells and so the pools: the
    # printed statistic and p-value stay
    keys = [f"{k:02d}" for k in range(32)]
    counts = dict(zip(keys, np.random.default_rng(7).multinomial(64, [1 / 32] * 32).tolist()))
    noisy = dict.fromkeys(keys, 1 / 32)
    for k in keys[:8]:
        noisy[k] = float(np.nextafter(1 / 32, 1.0))
    for k in keys[8:16]:
        noisy[k] = float(np.nextafter(1 / 32, 0.0))
    want = compare_distributions(OutcomeDistribution(dict.fromkeys(keys, 1 / 32)), counts, 64)
    got = compare_distributions(OutcomeDistribution(noisy), counts, 64)
    assert got.pooled_cells == want.pooled_cells == 10
    printed = [(fmt_number(res.chi2_stat), fmt_number(res.chi2_p)) for res in (got, want)]
    assert printed[0] == printed[1]


def test_chi2_sf_matches_scipy():
    from scipy.special import chdtrc

    dofs = sorted(set(range(1, 41)) | {int(v) for v in np.geomspace(41, 5000, 40)})
    checked = 0
    for dof in dofs:
        for stat in np.linspace(0.0, dof + 10 * np.sqrt(2 * dof), 41):
            ref = float(chdtrc(dof, stat))
            if ref > 1e-250:
                got = simulate._chi2_sf(dof, float(stat))
                assert abs(got - ref) <= 1e-11 * ref, (dof, stat, got, ref)
                checked += 1
    assert checked > 3000


@pytest.mark.parametrize("stat", [0.0, 1e-9, 0.5, 3.0, 40.0, 1399.0, 1401.0, 2e4])
def test_chi2_sf_one_and_two_degrees(stat):
    assert simulate._chi2_sf(1, stat) == math.erfc(math.sqrt(stat / 2))
    assert simulate._chi2_sf(2, stat) == math.exp(-stat / 2)


def test_chi2_sf_at_zero_and_far_tail():
    for dof in (1, 2, 3, 50, 5000):
        assert simulate._chi2_sf(dof, 0.0) == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stat in (1e6, 1e300, sys.float_info.max, math.inf):
                assert simulate._chi2_sf(dof, stat) == 0.0


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


@pytest.mark.parametrize("part", ["rho_in", "projector"])
def test_distill_refuses_a_nan_factor(part):
    inst = random_distill_instance(3, 3, np.random.default_rng(4))
    factors = list(getattr(inst, part))
    factors[1] = factors[1].astype(complex)
    factors[1][0, 0] = np.nan
    setattr(inst, part, tuple(factors))
    with pytest.raises(ValueError, match="factor 2 is not Hermitian"):
        distill_step(inst)


def test_distill_rejects_non_projector():
    inst = DistillationInstance(
        p=3, n=2, rho_in=np.eye(9, dtype=complex) / 9,
        channel=("unitary", np.eye(9, dtype=complex)),
        projector=np.diag([0.5, 0, 0]).astype(complex),
    )
    with pytest.raises(ValueError, match="projector"):
        distill_step(inst)


def dense_distill_step(inst, force_negative_input=False) -> DistillResult:
    """Reference distillation step on dense p^n x p^n matrices: the channel
    applied as a unitary or as Kraus operators, the ancilla projected and
    traced out, and the negativity read from the output's Wigner function.
    It never checks that a unitary channel is Clifford."""
    p, n = inst.p, inst.n
    d_anc = p ** (n - 1)
    validate_state(inst.rho_in, p)
    F_in = negativity_F(inst.rho_in, p)
    if F_in < -1e-10 and not force_negative_input:
        raise InputNegativelyRepresented(f"F(rho_in) = {F_in:.6g} < 0")
    P = inst.projector
    assert P.shape == (d_anc, d_anc) and np.max(np.abs(P @ P - P)) <= 1e-9
    assert wigner_of_effect(P, p).values.min() >= -1e-10
    kind, payload = inst.channel
    if kind == "unitary":
        rho_big = payload @ inst.rho_in @ payload.conj().T
    else:
        assert kind == "kraus" and inst.positivity_asserted
        rho_big = sum(K @ inst.rho_in @ K.conj().T for K in payload)
    Pi = np.kron(np.eye(p), P)
    selected = Pi @ rho_big @ Pi.conj().T
    norm = float(np.trace(selected).real)
    if norm < 1e-12:
        raise ZeroProbabilityBranch(f"post-selection probability {norm:.3g}")
    rho_out = np.einsum("iaja->ij", (selected / norm).reshape(p, d_anc, p, d_anc))
    F_out = negativity_F(rho_out, p)
    verdict = None
    if F_in >= -1e-10:
        verdict = "PASS" if F_out >= -1e-8 else "FAIL"
    return DistillResult(rho_out, F_in, F_out, norm, verdict)


def dense_random_instance(p, n, rng, word_length=10) -> DistillationInstance:
    """random_distill_instance as it was built densely: the same draws in the
    same order, a full-length displacement as one call, and the channel as
    the word's dense unitary."""
    kinds = ["fourier", "quadratic", "multiply", "sum", "displace"]
    word = []
    for _ in range(word_length):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "multiply":
            c = int(rng.integers(1, p))
            word.append(GateCall(kind, (int(rng.integers(1, n + 1)),), (("c", c),)))
        elif kind == "sum":
            ctrl = int(rng.integers(1, n + 1))
            tgt = int(rng.integers(1, n))
            if tgt >= ctrl:
                tgt += 1
            word.append(GateCall(kind, (ctrl, tgt)))
        elif kind == "displace":
            point = tuple(rng.integers(0, p, size=2 * n).tolist())
            word.append(GateCall(kind, tuple(range(1, n + 1)), (("point", point),)))
        else:
            word.append(GateCall(kind, (int(rng.integers(1, n + 1)),)))
    mub = mub_stabilizer_states(p)
    anc = np.ones((1, 1), dtype=complex)
    for _ in range(n - 1):
        anc = np.kron(anc, mub.states[rng.integers(len(mub))])
    rho = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        w = rng.dirichlet(np.ones(len(mub)))
        rho = np.kron(rho, sum(wi * S for wi, S in zip(w, mub.states)))
    return DistillationInstance(
        p=p, n=n, rho_in=rho, channel=("unitary", word_unitary(p, n, word)), projector=anc
    )


def random_pure_state(d, rng):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


@settings(max_examples=60)
@given(
    p_n=st.sampled_from([(3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]),
    seed=st.integers(0, 2**32 - 1),
    route=st.sampled_from(["word", "unitary", "kraus"]),
    negative_input=st.booleans(),
)
def test_distill_step_matches_dense_reference(p_n, seed, route, negative_input):
    # word channels move the values call by call, unitary channels go
    # through extract_symplectic and Kraus channels stay dense; all three
    # agree with the dense reference, also on negatively represented inputs
    p, n = p_n
    inst = random_distill_instance(p, n, np.random.default_rng(seed))
    ref = dense_random_instance(p, n, np.random.default_rng(seed))
    assert inst.channel[0] == "gates"
    # the same draws in the same order; the input and projector are products
    assert len(inst.rho_in) == n and len(inst.projector) == n - 1
    assert np.array_equal(functools.reduce(np.kron, inst.rho_in), ref.rho_in)
    anc = functools.reduce(np.kron, inst.projector, np.ones((1, 1)))
    assert np.array_equal(anc, ref.projector)
    rng = np.random.default_rng([seed, 1])
    if route == "unitary":
        inst = dataclasses.replace(ref)
    elif route == "kraus":
        # Weyl noise after the word: a positivity-preserving, non-unitary channel
        q = rng.dirichlet(np.ones(3))
        U = ref.channel[1]
        kraus = [np.sqrt(qj) * weyl_operator(rng.integers(0, p, size=2 * n), p) @ U for qj in q]
        ref = dataclasses.replace(ref, channel=("kraus", kraus), positivity_asserted=True)
        inst = dataclasses.replace(ref)
    if negative_input:
        rho = random_pure_state(p**n, rng)
        inst = dataclasses.replace(inst, rho_in=rho)
        ref = dataclasses.replace(ref, rho_in=rho)
    try:
        want = dense_distill_step(ref, force_negative_input=negative_input)
    except ZeroProbabilityBranch:
        with pytest.raises(ZeroProbabilityBranch):
            distill_step(inst, force_negative_input=negative_input)
        return
    got = distill_step(inst, force_negative_input=negative_input)
    assert abs(got.F_in - want.F_in) < 1e-12
    assert abs(got.F_out - want.F_out) < 1e-12
    assert abs(got.branch_probability - want.branch_probability) < 1e-12
    assert np.max(np.abs(got.rho_out - want.rho_out)) < 1e-12
    assert got.verdict == want.verdict


def test_distill_step_matches_dense_reference_at_five_qutrits():
    # n = 5, the largest qutrit instance within the dense cap p^n <= 243
    seed = 11
    inst = random_distill_instance(3, 5, np.random.default_rng(seed))
    ref = dense_random_instance(3, 5, np.random.default_rng(seed))
    got, want = distill_step(inst), dense_distill_step(ref)
    assert abs(got.F_in - want.F_in) < 1e-12
    assert abs(got.F_out - want.F_out) < 1e-12
    assert abs(got.branch_probability - want.branch_probability) < 1e-12
    assert np.max(np.abs(got.rho_out - want.rho_out)) < 1e-12
    assert got.verdict == want.verdict == "PASS"


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3), (131, 1)])
def test_image_indices_match_pointwise_images(p, n):
    # at p = 131 an unreduced image coordinate a_i + sum_j F_ij u_j is past
    # 8 bits, so the sums run in 16
    rng = np.random.default_rng(p + n)
    word = []
    for _ in range(8):
        r = int(rng.integers(1, n + 1))
        word += [GateCall("fourier", (r,)), GateCall("quadratic", (r,)),
                 GateCall("multiply", (r,), (("c", int(rng.integers(1, p))),))]
        if n > 1:
            word.append(GateCall("sum", (r, r % n + 1)))
    point = tuple(rng.integers(0, p, size=2).tolist())
    word.append(GateCall("displace", (n,), (("point", point),)))
    g = CliffordElement(*fields.widen_map(*weyl.word_map(word, p), n), p)
    images = (all_points(p, n) @ g.F.T + g.a) % p
    assert np.array_equal(simulate._image_indices(g), images @ p ** np.arange(2 * n - 1, -1, -1))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_call_digits_match_pointwise_images(p):
    # every digit row of a call's table is its register's image digit
    # q * p + x at every local point, the registers' digits combined as
    # ctrl * p^2 + tgt for sum
    rng = np.random.default_rng(p)
    calls = [("fourier", ()), ("quadratic", ()), ("sum", ())]
    calls += [("multiply", (("c", c),)) for c in range(1, p)]
    points = [(0, 0)] + [tuple(rng.integers(0, p, size=2).tolist()) for _ in range(4)]
    calls += [("displace", (("point", point),)) for point in points]
    for kind, params in calls:
        g = weyl.generator_map(kind, p, **dict(params))
        digits = simulate._call_digits(p, kind, params)
        assert len(digits) == g.n
        for index, u in enumerate(all_points(p, g.n)):
            image = fields.apply_affine(g, u)
            want = [int(image[2 * k]) * p + int(image[2 * k + 1]) for k in range(g.n)]
            assert [int(row[index]) for row in digits] == want, (kind, params, u)


# (p, n) of the word-channel checks: every qutrit size up to the p^(2n)
# cap, and the smaller sizes at p = 5 and 7
PUSH_SIZES = [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (7, 2)]


@st.composite
def channel_words(draw):
    """(p, n, word): a nonempty word of generator calls on n registers."""
    p, n = draw(st.sampled_from(PUSH_SIZES))
    reg = st.integers(1, n)
    word = []
    for kind in draw(st.lists(st.sampled_from(
        ["fourier", "quadratic", "multiply", "sum", "displace"]), min_size=1, max_size=14
    )):
        if kind == "sum":
            ctrl, tgt = draw(st.lists(reg, min_size=2, max_size=2, unique=True))
            word.append(GateCall(kind, (ctrl, tgt)))
        elif kind == "multiply":
            word.append(GateCall(kind, (draw(reg),), (("c", draw(st.integers(1, p - 1))),)))
        elif kind == "displace":
            point = tuple(draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2)))
            word.append(GateCall(kind, (draw(reg),), (("point", point),)))
        else:
            word.append(GateCall(kind, (draw(reg),)))
    return p, n, word


def _calls(text: str, p: int) -> list:
    """The GateCalls of a `gate` word's text."""
    return circuits.parse_gate_word(text, p)


@settings(max_examples=60, deadline=None)
@given(case=channel_words())
# sum with ctrl > tgt on registers that are not adjacent, after one-register
# calls on both and on a third register
@example(case=(3, 5, _calls("fourier(5); quadratic(2); multiply(2,3); sum(5,2); fourier(4)", 3)))
@example(case=(3, 6, _calls("quadratic(6); sum(6,1); fourier(1); sum(4,2); quadratic(3)", 3)))
# repeated one-register calls on one register
@example(case=(3, 2, _calls("fourier(1); fourier(1); quadratic(1); multiply(2,1); fourier(1)", 3)))
@example(case=(5, 3, _calls("multiply(3,2); quadratic(2); quadratic(2); fourier(2); fourier(2)", 5)))
# words that end on a sum
@example(case=(3, 4, _calls("fourier(2); sum(1,3); quadratic(3); sum(4,1)", 3)))
@example(case=(7, 2, _calls("quadratic(2); sum(2,1)", 7)))
# a word on register 3 only: the other axes stay broadcast until the fold
@example(case=(3, 4, _calls("fourier(3); quadratic(3)", 3)))
# a word of displace calls only
@example(case=(5, 3, [
    GateCall("displace", (1,), (("point", (1, 4)),)),
    GateCall("displace", (3,), (("point", (2, 0)),)),
    GateCall("displace", (1,), (("point", (0, 3)),)),
]))
def test_word_image_matches_the_composed_map(case):
    # call by call, the sparse grid of register digits moves to exactly the
    # image index of the word's composed and widened map
    p, n, word = case
    g = CliffordElement(*fields.widen_map(*weyl.word_map(word, p), n), p)
    assert np.array_equal(simulate._word_image(word, p, n), simulate._image_indices(g))


def test_distill_suite_composes_no_word_map(monkeypatch, tmp_path):
    # a suite pushes each instance through the cached per-call tables: a
    # cold run builds only one- and two-register image indices, one per
    # distinct call, and a warm run builds none and composes no word
    seen = {"word_map": [], "_image_indices": []}
    for module, name, size in [
        (weyl, "word_map", lambda word, p: len(word)),
        (simulate, "_image_indices", lambda g: g.n),
    ]:
        real = getattr(module, name)

        def spy(*args, _real=real, _record=seen[name], _size=size):
            _record.append(_size(*args))
            return _real(*args)

        monkeypatch.setattr(module, name, spy)
    from dwigner.cli import main

    argv = ["distill-check", "--random-suite", "5", "--seed", "3", "--n", "4",
            "--out", str(tmp_path / "d.csv")]
    simulate._call_digits.cache_clear()
    assert main(argv) == 0
    assert seen["word_map"] == []
    assert seen["_image_indices"] and max(seen["_image_indices"]) <= 2
    assert len(seen["_image_indices"]) == simulate._call_digits.cache_info().currsize
    seen["_image_indices"].clear()
    assert main(argv) == 0
    assert seen == {"word_map": [], "_image_indices": []}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_random_positive_product_state_matches_the_generator_sum(p):
    # one reduction over the stacked stabilizer states gives each factor
    # exactly as the running sum over the states does
    mub = mub_stabilizer_states(p)
    factors = simulate.random_positive_product_state(p, 300, np.random.default_rng(p))
    rng = np.random.default_rng(p)
    for factor in factors:
        w = rng.dirichlet(np.ones(len(mub)))
        assert np.array_equal(factor, sum(wi * S for wi, S in zip(w, mub.states)))


def zero_branch_instances(p: int) -> list:
    """Two instances whose branch has probability 0: a product |0>|0> moved
    to |0>|1> by a word, and the dense equivalent under a unitary."""
    zero = np.zeros((p, p), dtype=complex)
    zero[0, 0] = 1
    shift = GateCall("displace", (2,), (("point", (0, 1)),))
    U, _ = clifford_generator("displace", p, n=2, point=(0, 0, 0, 1))
    return [
        DistillationInstance(p=p, n=2, rho_in=(zero, zero), channel=("gates", [shift]),
                             projector=(zero,)),
        DistillationInstance(p=p, n=2, rho_in=np.kron(zero, zero), channel=("unitary", U),
                             projector=zero),
    ]


@pytest.mark.parametrize("p, n, count", [
    (3, 2, 40), (3, 3, 30), (3, 4, 20), (3, 5, 8), (3, 6, 3), (5, 3, 12), (7, 2, 20),
])
def test_distill_steps_match_distill_step_on_every_instance(samples_dir, p, n, count):
    # one batch decides each instance bit for bit as it is decided alone,
    # with zero branches, dense parts, unitary and Kraus channels among them
    rng = np.random.default_rng(p * 10 + n)
    insts = [random_distill_instance(p, n, rng) for _ in range(count)]
    if n == 2:
        insts[1:1] = zero_branch_instances(p)
    if (p, n) == (3, 2):
        insts += [parse_distill_file(samples_dir / f"distill_{name}.txt")
                  for name in ("identity", "kraus", "word")]
    batch = distill_steps(insts)
    assert len(batch) == len(insts)
    skips = 0
    for inst, got in zip(insts, batch):
        try:
            want = distill_step(inst)
        except ZeroProbabilityBranch as exc:
            skips += 1
            assert got.verdict == "SKIP" and got.rho_out is None and math.isnan(got.F_out)
            assert str(exc) == f"post-selection probability {got.branch_probability:.3g}"
            continue
        assert (got.F_in, got.F_out, got.branch_probability, got.verdict) == (
            want.F_in, want.F_out, want.branch_probability, want.verdict
        )
        assert np.array_equal(got.rho_out, want.rho_out)
    assert skips == (2 if n == 2 else 0)


def test_distill_steps_take_one_p_a_batch():
    rng = np.random.default_rng(5)
    insts = [random_distill_instance(p, 2, rng) for p in (3, 5)]
    with pytest.raises(ValueError, match="^a batch of distillation instances needs one p$"):
        distill_steps(insts)
    assert distill_steps([]) == []


def _broken(factor, fault: str) -> np.ndarray:
    """`factor` with one fault: a NaN, a skew entry, trace 2, a negative
    eigenvalue (a Hermitian unit-trace non-state), or an effect with
    P^2 != P (half of a projector)."""
    bad = np.array(factor, dtype=complex)
    if fault == "nan":
        bad[0, 0] = np.nan
    elif fault == "skew":
        bad[0, 1] += 0.5
    elif fault == "trace":
        bad = 2 * bad
    elif fault == "negative":
        bad = bad - 0.5 * np.eye(len(bad)) + 0.5 * len(bad) * np.diag(np.eye(len(bad))[0])
        bad = bad / np.trace(bad).real
    else:
        bad = bad / 2
    return bad


@pytest.mark.parametrize("part, fault", [
    ("rho_in", "nan"), ("rho_in", "skew"), ("rho_in", "trace"), ("rho_in", "negative"),
    ("projector", "nan"), ("projector", "skew"), ("projector", "half"),
])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_a_bad_factor_in_a_batch_reads_as_its_instance_alone(part, fault, k):
    # the stacked check names the factor by its place in its own instance,
    # never by its place in the batch's stack
    rng = np.random.default_rng(k)
    insts = [random_distill_instance(3, 3, rng) for _ in range(5)]
    factors = list(getattr(insts[k], part))
    factors[-1] = _broken(factors[-1], fault)
    setattr(insts[k], part, tuple(factors))
    with pytest.raises(ValueError) as alone:
        distill_step(insts[k])
    with pytest.raises(ValueError) as batch:
        distill_steps(insts)
    assert type(batch.value) is type(alone.value)
    assert str(batch.value) == str(alone.value)
    if fault != "half":
        assert f"factor {len(factors)} " in str(alone.value)


def test_distill_rejects_a_non_clifford_unitary():
    # U = diag(1, w9, w9^-1) (x) I is diagonal but not Clifford: it maps the
    # nonnegative |+> to a negatively represented state
    w9 = np.exp(2j * np.pi / 9)
    zero = np.diag([1.0, 0, 0]).astype(complex)
    inst = DistillationInstance(
        p=3, n=2,
        rho_in=np.kron(np.ones((3, 3), dtype=complex) / 3, zero),
        channel=("unitary", np.kron(np.diag([1, w9, 1 / w9]), np.eye(3))),
        projector=zero,
    )
    with pytest.raises(NotCliffordError):
        distill_step(inst)
    # unchecked, the broken precondition reads as a broken theorem
    res = dense_distill_step(inst)
    assert res.verdict == "FAIL"
    assert res.F_out == pytest.approx(-0.2931284138572722, abs=1e-9)


@pytest.mark.parametrize(
    "channel, message",
    [
        (("unitary", np.eye(27, dtype=complex)), "channel acts on 3 qudits, expected 2"),
        (("clifford", CliffordElement.identity(3, 2)), "unknown channel kind 'clifford'"),
    ],
    ids=["unitary-width", "clifford-kind"],
)
def test_distill_rejects_a_channel_of_the_wrong_width_or_kind(channel, message):
    # a unitary channel's map must act on the instance's n qudits, and a
    # map is passed as a unitary or a gate word, never as a bare (F, a)
    zero = np.diag([1.0, 0, 0]).astype(complex)
    inst = DistillationInstance(
        p=3, n=2, rho_in=(zero, zero), channel=channel, projector=(zero,),
    )
    with pytest.raises(ValueError, match=message):
        distill_step(inst)


def test_distill_suite_builds_no_wide_unitaries(monkeypatch, tmp_path):
    from dwigner.cli import main

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
    argv = ["distill-check", "--random-suite", "5", "--seed", "3", "--n", "4",
            "--out", str(tmp_path / "d.csv")]
    assert main(argv) == 0
    assert seen == {"call_unitary": [], "extract_symplectic": []}
    # the spies are live: the oracle builds its local unitaries through them,
    # each at most p^2 x p^2
    run_oracle(parse_circuit(WIDE5))
    assert seen["call_unitary"] and max(seen["call_unitary"]) <= 9**2
    assert seen["extract_symplectic"] == []


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


def per_shot_counts(prog, seed, shots):
    """Per-shot reference counts of a gate-free circuit whose inputs are all
    `mixed` and whose items measure registers n, n-1, ..., 1 in turn."""
    n, p = prog.n, prog.p
    # the documented positional layout: one shots x 2n matrix from
    # Philox(seed), draw j of shot s is U[s, j]; draws 0..n-1 pick the input
    # points, draw n + k decides the k-th measurement
    U = np.random.Generator(np.random.Philox(seed)).random((shots, 2 * n))
    cum_in = np.cumsum(wigner_of_state(prog.inputs[0], p).values)
    cum_in[-1] = 1.0
    points = np.searchsorted(cum_in, U[:, :n], side="right")
    povms = [prog.items[k].povm for k in range(n)]
    cum_outs = [
        np.cumsum([wigner_of_effect(E, p).values for E in povm.effects], axis=0)
        for povm in povms
    ]
    expected = {}
    for s in range(shots):
        labels = {}
        for k, reg in enumerate(range(n, 0, -1)):
            hit = cum_outs[k][:-1, points[s, reg - 1]] <= U[s, n + k]
            labels[reg] = povms[k].labels[int(hit.sum())]
        key = "".join(labels[r] for r in range(1, n + 1))
        expected[key] = expected.get(key, 0) + 1
    return expected


def test_tally_beyond_int64_matches_per_shot_reference():
    # 3^45 possible outcomes, more than int64 codes can hold: the vectorized
    # tally must still agree with a per-shot tally
    n, shots, seed = 45, 3000, 4
    lines = [f"qudits p=3 n={n}"] + [f"input {r} mixed" for r in range(1, n + 1)]
    lines += [f"measure {r} computational" for r in range(n, 0, -1)]
    prog = parse_circuit("\n".join(lines))
    rpt = sample_classical(prog, seed=seed, shots=shots)
    expected = per_shot_counts(prog, seed, shots)
    assert len(expected) > 1
    assert rpt.counts == expected


def test_tally_keys_from_labels_of_unequal_length(tmp_path):
    # computational labels 0..10 at p = 11 and a POVM whose labels have one,
    # three and two characters: each key is the exact concatenation
    p, n, shots, seed = 11, 6, 3000, 5
    rows = lambda diag: "\n".join(
        "  ".join(f"{int(r == c and r in diag)} 0" for c in range(p)) for r in range(p)
    )
    (tmp_path / "uneven.povm").write_text(
        f"povm p={p} outcomes=3\neffect a\n{rows({0})}\neffect bcd\n{rows({1, 2})}\n"
        f"effect ef\n{rows(set(range(3, p)))}\n"
    )
    lines = [f"qudits p={p} n={n}"] + [f"input {r} mixed" for r in range(1, n + 1)]
    lines += [
        f"measure {r} {'computational' if r % 3 else 'povm-file:uneven.povm'}"
        for r in range(n, 0, -1)
    ]
    prog = parse_circuit("\n".join(lines), base_dir=tmp_path)
    expected = per_shot_counts(prog, seed, shots)
    assert any("10" in key for key in expected) and any("bcd" in key for key in expected)
    for chunk in (_chunk_shots(prog), 6):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "CHUNK_BYTES", _chunk_bytes(prog, chunk))
            assert sample_classical(prog, seed=seed, shots=shots).counts == expected


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
# qutrit inputs with complex entries (bound_ninth.w) or a negative Wigner
# function (strange.mat), for the oracle only: the sampler refuses strange.mat
FILE_INPUTS = ["matrix-file:strange.mat", "wigner-file:bound_ninth.w"]
# the POVM files are qutrit POVMs
POVMS_BY_P = {
    3: {
        "computational": ("0", "1", "2"),
        "povm-file:two_outcome.povm": ("hit", "miss"),
        "povm-file:fourier_basis.povm": ("f0", "f1", "f2"),
    },
    5: {"computational": ("0", "1", "2", "3", "4")},
}


@st.composite
def adaptive_circuits(draw, p=3, max_regs=3, inputs=tuple(PRESETS)):
    """Valid circuits on at most max_regs registers of dimension p: gate
    words, displace, extend (also after a measurement), nested adaptive
    branches and, for qutrits, the two-outcome POVM and the Fourier-basis
    POVM, whose complex effects tell E from E^T.  Input and extend states
    are drawn from `inputs`."""
    POVMS = POVMS_BY_P[p]
    n = draw(st.integers(1, max_regs))
    lines = [f"qudits p={p} n={n}"]
    lines += [f"input {r} {draw(st.sampled_from(inputs))}" for r in range(1, n + 1)]
    names = itertools.count()

    def gate_call(unmeasured):
        kinds = ["fourier", "quadratic", "multiply"] + (["sum"] if len(unmeasured) > 1 else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "sum":
            ctrl, tgt = draw(st.permutations(unmeasured))[:2]
            return f"sum({ctrl},{tgt})"
        reg = draw(st.sampled_from(unmeasured))
        if kind == "multiply":
            return f"multiply({draw(st.integers(1, p - 1))},{reg})"
        return f"{kind}({reg})"

    def block(n_cur, unmeasured, depth):
        out = []
        while unmeasured:
            for _ in range(draw(st.integers(0, 3))):
                op = draw(st.sampled_from(["gate", "displace", "extend"]))
                if op == "extend" and n_cur < max_regs:
                    count = draw(st.integers(1, max_regs - n_cur))
                    out.append(f"extend {count} {draw(st.sampled_from(inputs))}")
                    unmeasured = unmeasured + list(range(n_cur + 1, n_cur + count + 1))
                    n_cur += count
                elif op == "displace":
                    a1, a2 = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
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
            mp.setattr(simulate, "CHUNK_BYTES", _chunk_bytes(prog, size))
            assert sample_classical(prog, seed=11, shots=shots).counts == runs[shots].counts


@settings(max_examples=60)
@given(src=st.one_of(
    adaptive_circuits(p=3, max_regs=4, inputs=tuple(PRESETS + FILE_INPUTS)),
    adaptive_circuits(p=5, max_regs=3),
))
def test_oracle_matches_dense_reference_on_generated_circuits(samples_dir, src):
    assert_matches_dense(parse_circuit(src, base_dir=samples_dir))


def write_mub9_povm(path):
    """A nine-outcome qutrit POVM: the projectors of three mutually unbiased
    bases (computational, Fourier, and Fourier vectors times the phases
    w^(k^2)), each divided by 3."""
    w = np.exp(2j * np.pi / 3)
    k = np.arange(3)
    fourier = w ** np.outer(k, k) / np.sqrt(3)
    bases = [np.eye(3), fourier, fourier * w ** (k * k)]
    lines = ["povm p=3 outcomes=9"]
    for b, vecs in enumerate(bases):
        for j, v in enumerate(vecs):
            lines.append(f"effect m{b}{j}")
            lines += ["  ".join(f"{e.real!r} {e.imag!r}" for e in row)
                      for row in (np.outer(v, v.conj()) / 3).tolist()]
    path.write_text("\n".join(lines) + "\n")


def test_oracle_caps_the_factor_rank(tmp_path):
    # nine outcomes per measurement: without the rank cap each of the 9^j
    # records after j measurements would keep the inputs' full rank
    write_mub9_povm(tmp_path / "mub9.povm")
    three = """\
qudits p=3 n=3
input 1 mixed
input 2 zero
input 3 mixed
gate fourier(2); sum(2,1); quadratic(3); sum(3,2)
measure 3 povm-file:mub9.povm
measure 2 povm-file:mub9.povm
measure 1 povm-file:mub9.povm
"""
    assert_matches_dense(parse_circuit(three, base_dir=tmp_path))
    five = parse_circuit(
        "qudits p=3 n=5\n"
        + "".join(f"input {r} mixed\n" for r in range(1, 6))
        + "".join(f"measure {r} povm-file:mub9.povm\n" for r in range(5, 0, -1)),
        base_dir=tmp_path,
    )
    tracemalloc.start()
    try:
        d = run_oracle(five)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(d.probabilities) == 9**5
    assert peak < 24 * 2**20, peak / 2**20


def reference_sample(prog, seed, shots):
    """Reference sampler kernel: (counts, field mults, field adds) of `shots`
    shots, in the sampler's chunks, on the same Philox layout.  Each chunk
    gathers its draws from the (shots, K) uniform matrix, splits (q, x) with
    // and %, maps points by int64 products with each gate word's map,
    composed by `weyl.word_map` and widened here, reduced with % p, measures by
    comparing a gathered (shots, L) cumulative table row by row, splits
    branches with boolean masks and tallies with np.unique."""
    report = validate_circuit(prog)
    assert report.ok
    input_dists = [simulate._cumulative(w) for w in report.input_wigners]
    extend_dists = {
        i: [simulate._cumulative(w)] * prog.items[i].count for i, w in report.extend_wigners.items()
    }
    povm_cums = {}
    for i, ws in report.effect_wigners.items():
        cum = np.cumsum(np.clip(np.stack(ws, axis=1), 0.0, 1.0), axis=1)
        cum[:, -1] = 1.0
        povm_cums[i] = cum
    counts, mults, adds = {}, 0, 0
    for lo in range(0, shots, _chunk_shots(prog)):
        hi = min(lo + _chunk_shots(prog), shots)
        walk = _reference_chunk(prog, seed, input_dists, extend_dists, povm_cums, lo, hi)
        for k, v in walk.counts.items():
            counts[k] = counts.get(k, 0) + v
        mults += walk.mults
        adds += walk.adds
    return dict(sorted(counts.items())), mults, adds


def _reference_chunk(prog, seed, input_dists, extend_dists, povm_cums, lo, hi):
    p = prog.p
    K = 2 * prog.max_registers
    U = np.random.Generator(np.random.Philox(seed).advance(lo * K // 4)).random((hi - lo, K))
    cols = []
    for r, cum in enumerate(input_dists):
        idx = np.searchsorted(cum, U[:, r], side="right")
        cols.append(idx // p)
        cols.append(idx % p)
    upts = np.stack(cols, axis=1).astype(np.int64)
    out_idx = np.full((hi - lo, prog.max_registers), -1, dtype=np.int64)
    walk = _ReferenceWalk(prog, U, extend_dists, povm_cums)
    walk.run(0, np.arange(hi - lo), upts, len(input_dists), {}, out_idx)
    return walk


class _ReferenceWalk:
    def __init__(self, prog, U, extend_dists, povm_cums):
        self.prog = prog
        self.U = U
        self.extend_dists = extend_dists
        self.povm_cums = povm_cums
        self.counts = {}
        self.mults = 0
        self.adds = 0

    def run(self, i, rows, upts, pos, labels_by_reg, out_idx):
        items = self.prog.items
        p = self.prog.p
        while i < len(items) and not isinstance(items[i], LabelMarker):
            instr = items[i]
            n_cur = upts.shape[1] // 2
            if isinstance(instr, GateInstr) and instr.word[0].kind == "displace":
                (call,) = instr.word
                c = 2 * (call.regs[0] - 1)
                upts[:, c : c + 2] += dict(call.params)["point"]
                upts[:, c : c + 2] %= p
                self.adds += rows.size * 2
            elif isinstance(instr, GateInstr):
                upts = (upts @ _widened(weyl.word_map(instr.word, p), n_cur).T) % p
                self.mults += rows.size * (2 * n_cur) ** 2
            elif isinstance(instr, ExtendInstr):
                new_cols = []
                for j, cum in enumerate(self.extend_dists[i]):
                    idx = np.searchsorted(cum, self.U[rows, pos + j], side="right")
                    new_cols.append(idx // p)
                    new_cols.append(idx % p)
                upts = np.hstack([upts, np.stack(new_cols, axis=1)])
                pos += instr.count
            elif isinstance(instr, MeasureInstr):
                cum = self.povm_cums[i]
                b = upts[:, 2 * (instr.reg - 1)] * p + upts[:, 2 * (instr.reg - 1) + 1]
                outcome = (cum[b] <= self.U[rows, pos][:, None]).sum(axis=1)
                np.clip(outcome, 0, cum.shape[1] - 1, out=outcome)
                pos += 1
                out_idx[:, instr.reg - 1] = outcome
                labels_by_reg = {**labels_by_reg, instr.reg: instr.povm.labels}
                if instr.branch is not None:
                    for k, label in enumerate(instr.povm.labels):
                        mask = outcome == k
                        if mask.any():
                            self.run(instr.branch[label], rows[mask], upts[mask], pos,
                                     labels_by_reg, out_idx[mask])
                    return
            i += 1
        self.tally(labels_by_reg, out_idx[:, : upts.shape[1] // 2])

    def tally(self, labels_by_reg, out_idx):
        code = np.zeros(len(out_idx), dtype=np.int64)
        span = 1
        for r in range(1, out_idx.shape[1] + 1):
            radix = len(labels_by_reg[r])
            if span * radix > simulate._CODE_LIMIT:
                distinct, code = np.unique(code, return_inverse=True)
                span = len(distinct)
            code = code * radix + out_idx[:, r - 1]
            span *= radix
        _, first, hits = np.unique(code, return_index=True, return_counts=True)
        for row, c in zip(out_idx[first].tolist(), hits.tolist()):
            key = "".join(labels_by_reg[r][k] for r, k in enumerate(row, start=1))
            self.counts[key] = self.counts.get(key, 0) + c


@settings(max_examples=80)
@given(
    src=st.one_of(adaptive_circuits(p=3, max_regs=4), adaptive_circuits(p=5, max_regs=3)),
    seed=st.integers(0, 2**32 - 1),
    shots=st.integers(1, 400),
    chunk=st.sampled_from([2, 4, 6, 10, 64]),
)
def test_sampler_kernel_matches_reference_kernel(samples_dir, src, seed, shots, chunk):
    # the same draws, the same counts and the same operation counts as the
    # reference kernel, over several chunks with an odd tail
    prog = parse_circuit(src, base_dir=samples_dir)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "CHUNK_BYTES", _chunk_bytes(prog, chunk))
        rpt = sample_classical(prog, seed=seed, shots=shots)
        assert (rpt.counts, rpt.field_mults, rpt.field_adds) == reference_sample(prog, seed, shots)


def test_sampler_kernel_matches_reference_kernel_on_samples(samples_dir):
    # every sample circuit, in one full chunk and in a run whose last chunk
    # holds a single shot
    for path in sorted(samples_dir.glob("reg*.circ")):
        prog = parse_circuit_file(path)
        for shots in (3000, 2 * _chunk_shots(prog) + 1):
            rpt = sample_classical(prog, seed=7, shots=shots)
            assert (rpt.counts, rpt.field_mults, rpt.field_adds) == reference_sample(
                prog, 7, shots
            ), (path.name, shots)


def _guide_table(spec, samples_dir):
    """The cumulative table of `spec`: ("random", p, seed, zero runs), a
    random nonnegative vector of p^2 entries with runs of zero entries, so
    that the table repeats values; or (preset, p), a preset's or Wigner
    file's values."""
    if spec[0] != "random":
        rho, _ = circuits.preset_state(spec[0], spec[1], samples_dir)
        return simulate._cumulative(wigner_of_state(rho, spec[1]).values)
    _, p, seed, runs = spec
    rng = np.random.default_rng(seed)
    w = rng.random(p * p)
    for start in rng.integers(0, p * p, size=runs):
        w[start : start + rng.integers(1, p + 1)] = 0.0
    w[rng.integers(p * p)] += 1e-3  # never all zero
    return simulate._cumulative(w)


@settings(max_examples=120)
@given(
    spec=st.one_of(
        st.tuples(
            st.just("random"),
            st.sampled_from([3, 5, 7, 31]),
            st.integers(0, 2**32 - 1),
            st.integers(0, 12),
        ),
        st.tuples(st.sampled_from(["zero", "basis(1)", "mixed"]), st.sampled_from([3, 5, 7, 31])),
        st.sampled_from([("wigner-file:bound_p5.w", 5), ("wigner-file:bound_ninth.w", 3)]),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_guide_draws_equal_binary_search(samples_dir, spec, seed):
    # the guide's index is searchsorted's for every uniform in [0, 1): random
    # ones, bucket edges and the double just below each, the table's own
    # entries, 0 and the largest double below 1
    cum = _guide_table(spec, samples_dir)
    guide = simulate._guide(cum)
    B = len(guide[1])
    edges = np.arange(B) / B
    u = np.concatenate([
        np.random.default_rng(seed).random(2000),
        edges,
        np.nextafter(edges, 0.0),
        cum[cum < 1.0],
        [0.0, np.nextafter(1.0, 0.0)],
    ])
    # read in place from a column, as the sampler reads a chunk's draws
    U = np.zeros((len(u), 3))
    U[:, 1] = u
    got = simulate._guided(guide, U[:, 1])
    assert np.array_equal(got, np.searchsorted(cum, u, side="right"))


def test_guides_built_once_per_run(monkeypatch, samples_dir):
    # one guide per input and per extend table, however many chunks run
    prog = parse_circuit_file(samples_dir / "reg07_extend.circ")
    monkeypatch.setattr(simulate, "CHUNK_BYTES", _chunk_bytes(prog, 1000))
    built, chunks = [], []
    guide, run_chunk = simulate._guide, simulate._Walk.run_chunk

    def spy_guide(cum):
        built.append(len(cum))
        return guide(cum)

    def spy_run_chunk(self, *args):
        chunks.append(args)
        return run_chunk(self, *args)

    monkeypatch.setattr(simulate, "_guide", spy_guide)
    monkeypatch.setattr(simulate._Walk, "run_chunk", spy_run_chunk)
    rpt = sample_classical(prog, seed=3, shots=5000)
    assert len(chunks) >= 4
    assert len(built) == len(prog.inputs) + sum(isinstance(i, ExtendInstr) for i in prog.items)
    assert sum(rpt.counts.values()) == 5000


def test_call_tables_one_per_distinct_call():
    # 179 lines, 150 gate lines of three words and 29 displacements: the
    # sampler caches one table of image digits per distinct generator call,
    # however many lines repeat it
    lines = ["qudits p=3 n=3"] + [f"input {r} mixed" for r in (1, 2, 3)]
    lines += [f"gate fourier({k % 3 + 1}); sum({k % 3 + 1},{(k + 1) % 3 + 1})" for k in range(150)]
    lines += [f"displace {k % 3 + 1} (1,{k % 3})" for k in range(29)]
    lines += [f"measure {r} computational" for r in (3, 2, 1)]
    prog = parse_circuit("\n".join(lines))
    calls = {(c.kind, c.params) for instr in prog.items[:179] for c in instr.word}
    assert len(calls) == 5  # fourier, sum and three displacement points
    simulate._call_digits.cache_clear()
    rpt = sample_classical(prog, seed=1, shots=1000)
    assert simulate._call_digits.cache_info().currsize == len(calls)
    assert sum(rpt.counts.values()) == 1000


def test_dense_route_holds_no_matrix_per_gate_item():
    # 64 registers, 100 shots: a widened 128 x 128 float64 F^T kept per gate
    # item would hold 128 KiB for each of 400 one-register gate lines, about
    # 50 MiB; the sampler holds only per-call digit tables, so 400 lines
    # peak within a few chunks of 10 lines
    n = 64

    def peak(count):
        lines = [f"qudits p=3 n={n}"] + [f"input {r} mixed" for r in range(1, n + 1)]
        lines += [f"gate fourier({k % n + 1})" for k in range(count)]
        lines += [f"measure {r} computational" for r in range(n, 0, -1)]
        prog = parse_circuit("\n".join(lines))
        sample_classical(prog, seed=1, shots=0)  # fill validation caches untraced
        tracemalloc.start()
        try:
            sample_classical(prog, seed=1, shots=100)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10), peak(400)
    assert large < small + 4 * simulate.CHUNK_BYTES, (small, large)


def test_sampler_memory_flat_in_width():
    # a 64-register brickwork circuit at 20000 shots: one chunk of every shot
    # would hold 20000 x 128 float64 uniforms (20 MB) and as much again per
    # point array; a chunk bounded by CHUNK_BYTES keeps the traced peak to a
    # few chunks.  The counts do not depend on the chunk size: 3000 shots in
    # 6-shot chunks (500 chunks) match the same shots at the default chunk
    n = 64
    lines = [f"qudits p=3 n={n}"]
    lines += [f"input {r} {'mixed' if r % 3 == 1 else 'zero'}" for r in range(1, n + 1)]
    word = "; ".join(f"fourier({r}); sum({r},{r % n + 1})" for r in range(1, n + 1))
    lines += [f"gate {word}"] * 4
    lines += [f"measure {r} computational" for r in range(n, 0, -1)]
    prog = parse_circuit("\n".join(lines))
    sample_classical(prog, seed=1, shots=0)  # fill validation caches untraced
    tracemalloc.start()
    try:
        sample_classical(prog, seed=1, shots=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * simulate.CHUNK_BYTES, peak
    counts = sample_classical(prog, seed=1, shots=3000).counts
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "CHUNK_BYTES", _chunk_bytes(prog, 6))
        assert sample_classical(prog, seed=1, shots=3000).counts == counts


def test_sampler_memory_bounded_by_a_chunk(monkeypatch, samples_dir):
    # traced Python-heap peak at 40 chunks against 1 chunk: a uniform matrix
    # sized by the shot count, or chunk arrays kept alive after their chunk,
    # would grow with the chunk count
    prog = parse_circuit_file(samples_dir / "reg10_cascade.circ")
    monkeypatch.setattr(simulate, "CHUNK_BYTES", _chunk_bytes(prog, 4096))
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
