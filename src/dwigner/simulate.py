"""The two algorithm classes plus the distillation positivity check.

run_oracle: dense Born-rule evaluation traversing every branch, with Lueders
updates for conditioning.  sample_classical: the hidden-variable sampler --
phase-space points drawn from input Wigner distributions, pushed through
affine gate maps, measured by conditional Wigner probabilities.  The outcome
distributions agree; compare_distributions quantifies that with TV and a
chi-square test.

Per-shot randomness is positional: draw j of shot s is U[s, j] of the
shots x K uniform matrix that Generator(Philox(seed)) would fill row by row
(K = 2 * max_registers).  Shots run in chunks of CHUNK_SHOTS, and each chunk
draws only its own rows, from a Philox stream advanced to the chunk's first
draw, so memory is bounded by a chunk.  CHUNK_SHOTS is even, so every chunk
starts on a whole Philox block and the bytes do not depend on its value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.stats import chi2 as _chi2

from .circuits import (
    CircuitError,
    CircuitProgram,
    DisplaceInstr,
    ExtendInstr,
    GateInstr,
    LabelMarker,
    MeasureInstr,
    load_matrix_file,
    preset_state,
    validate_circuit,
    _complex_matrix,
    _content_lines,
    _dim_header,
    _parse_gate_word,
)
from .fields import require_odd_prime
from .stabilizer import mub_stabilizer_states
from .weyl import _embed_single, clifford_generator
from .wigner import (
    is_positively_represented,
    negativity_F,
    validate_state,
    wigner_of_effect,
    wigner_of_state,
)

__all__ = [
    "OracleGuardError",
    "ZeroProbabilityBranch",
    "InputNegativelyRepresented",
    "OutcomeDistribution",
    "SampleReport",
    "CompareResult",
    "DistillationInstance",
    "DistillResult",
    "run_oracle",
    "sample_classical",
    "compare_distributions",
    "distill_step",
    "random_distill_instance",
    "random_positive_product_state",
    "parse_distill_file",
    "ORACLE_DIM_CAP",
    "CHUNK_SHOTS",
]

ORACLE_DIM_CAP = 243  # p^n guard for the dense oracle and the dense distillation step
# Shots per sampler chunk.  Even, so that every chunk's first draw lo * K is a
# multiple of the four draws in one Philox block.
CHUNK_SHOTS = 1 << 16
# The tally's mixed-radix outcome codes stay below this, well inside int64.
_CODE_LIMIT = 1 << 62


class OracleGuardError(RuntimeError):
    pass


class ZeroProbabilityBranch(RuntimeError):
    pass


class InputNegativelyRepresented(ValueError):
    pass


@dataclass
class OutcomeDistribution:
    probabilities: dict  # outcome string -> probability

    def __post_init__(self):
        total = sum(self.probabilities.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")


@dataclass
class SampleReport:
    shots: int
    seed: int
    counts: dict  # outcome string -> int
    field_mults: int
    field_adds: int
    tv: Optional[float] = None
    epsilon: Optional[float] = None
    chi2_stat: Optional[float] = None
    chi2_p: Optional[float] = None
    verdict: Optional[str] = None


@dataclass
class CompareResult:
    tv: float
    epsilon: float
    chi2_stat: float
    chi2_p: float
    pooled_cells: int
    verdict: str


# --- dense oracle -----------------------------------------------------------

def _word_unitary(p: int, n: int, word) -> np.ndarray:
    """Dense product of generator calls [(kind, kwargs), ...] in application order."""
    U = np.eye(p**n, dtype=complex)
    for kind, kw in word:
        U = clifford_generator(kind, p, n=n, **kw)[0] @ U
    return U


def _item_unitary(instr, p: int, n: int) -> np.ndarray:
    """Dense unitary of a gate or displace instruction on n registers."""
    if isinstance(instr, GateInstr):
        return _word_unitary(p, n, instr.word)
    pt = np.zeros(2 * n, dtype=np.int64)
    pt[2 * instr.reg - 2 : 2 * instr.reg] = instr.point
    return _word_unitary(p, n, [("displace", {"point": pt})])


def _psd_sqrt(E: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(E)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def run_oracle(prog: CircuitProgram) -> OutcomeDistribution:
    """Exact-to-double outcome distribution via the chain rule over all branches."""
    p = prog.p
    if p**prog.max_registers > ORACLE_DIM_CAP:
        raise OracleGuardError(
            f"oracle guard: p^n = {p ** prog.max_registers} exceeds {ORACLE_DIM_CAP}"
        )
    rho = np.ones((1, 1), dtype=complex)
    for r in prog.inputs:
        rho = np.kron(rho, r)
    results: dict[str, float] = {}
    sqrt_cache: dict[int, list] = {}
    unitaries = {  # (item idx, register count) -> U
        (i, n): _item_unitary(instr, p, n)
        for i, instr in enumerate(prog.items)
        if isinstance(instr, (GateInstr, DisplaceInstr))
        for n in prog.register_counts.get(i, ())
    }

    def walk(i: int, rho, n_cur: int, outcomes: dict, prob: float):
        if i >= len(prog.items) or isinstance(prog.items[i], LabelMarker):
            key = "".join(outcomes[r] for r in range(1, n_cur + 1))
            results[key] = results.get(key, 0.0) + prob
            return
        instr = prog.items[i]
        if isinstance(instr, (GateInstr, DisplaceInstr)):
            U = unitaries[(i, n_cur)]
            walk(i + 1, U @ rho @ U.conj().T, n_cur, outcomes, prob)
        elif isinstance(instr, ExtendInstr):
            for extra in instr.states:
                rho = np.kron(rho, extra)
            walk(i + 1, rho, n_cur + instr.count, outcomes, prob)
        elif isinstance(instr, MeasureInstr):
            if instr.line not in sqrt_cache:
                sqrt_cache[instr.line] = [_psd_sqrt(E) for E in instr.povm.effects]
            for label, E, M in zip(
                instr.povm.labels, instr.povm.effects, sqrt_cache[instr.line]
            ):
                Efull = _embed_single(E, p, n_cur, instr.reg)
                pk = float(np.trace(Efull @ rho).real)
                if pk < 1e-15:
                    continue
                Mfull = _embed_single(M, p, n_cur, instr.reg)
                rho_k = Mfull @ rho @ Mfull.conj().T / pk
                out2 = dict(outcomes)
                out2[instr.reg] = label
                nxt = i + 1 if instr.branch is None else instr.branch[label]
                walk(nxt, rho_k, n_cur, out2, prob * pk)
        else:
            raise TypeError(f"unexpected item {instr!r}")

    walk(0, rho, prog.n, {}, 1.0)
    return OutcomeDistribution(results)


# --- classical sampler ------------------------------------------------------

def _distribution_of(rho: np.ndarray, p: int) -> np.ndarray:
    w = wigner_of_state(rho, p).values
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def _povm_table(povm, p: int) -> np.ndarray:
    """Rows = phase points, columns = cumulative outcome probabilities."""
    tab = np.stack([wigner_of_effect(E, p).values for E in povm.effects], axis=1)
    tab = np.clip(tab, 0.0, 1.0)
    cum = np.cumsum(tab, axis=1)
    cum[:, -1] = 1.0
    return cum


def sample_classical(
    prog: CircuitProgram,
    seed: int,
    shots: int,
    jobs: int = 1,
) -> SampleReport:
    """Algorithm-class-2 sampler; deterministic for a seed at any jobs count.

    Validates the program first: a failure raises CircuitError carrying the
    validator's problems, and zero shots only validate.  Points are pushed
    through the validator's gate maps.  Shots run in chunks of CHUNK_SHOTS,
    each drawing its own uniforms (see the module docstring), so memory is
    bounded by one chunk.
    Chunk bounds depend only on `shots`; `jobs` is accepted and does not
    change the work or the report.
    """
    if shots < 0:
        raise ValueError(f"shots must be non-negative, got {shots}")
    report = validate_circuit(prog)
    if not report.ok:
        raise CircuitError("; ".join(report.problems), problems=tuple(report.problems))
    p = prog.p
    input_dists = [np.cumsum(_distribution_of(r, p)) for r in prog.inputs]
    for c in input_dists:
        c[-1] = 1.0
    extend_dists = {}
    povm_cums = {}
    for i, instr in enumerate(prog.items):
        if isinstance(instr, ExtendInstr):
            cums = []
            for rho in instr.states:
                c = np.cumsum(_distribution_of(rho, p))
                c[-1] = 1.0
                cums.append(c)
            extend_dists[i] = cums
        elif isinstance(instr, MeasureInstr):
            povm_cums[i] = _povm_table(instr.povm, p)

    counts: dict[str, int] = {}
    mults = 0
    adds = 0
    for lo in range(0, shots, CHUNK_SHOTS):
        chunk_counts, m, a = _run_chunk(
            prog, seed, input_dists, extend_dists, povm_cums, report.gate_maps,
            lo, min(lo + CHUNK_SHOTS, shots),
        )
        for k, v in chunk_counts.items():
            counts[k] = counts.get(k, 0) + v
        mults += m
        adds += a
    return SampleReport(
        shots=shots,
        seed=seed,
        counts=dict(sorted(counts.items())),
        field_mults=mults,
        field_adds=adds,
    )


def _run_chunk(prog, seed, input_dists, extend_dists, povm_cums, gate_maps, lo, hi):
    """Outcome counts, field mults and field adds of shots lo..hi-1."""
    p = prog.p
    K = 2 * prog.max_registers
    # Philox emits four 64-bit words per counter step and `random` spends one
    # per draw, so skipping lo * K draws is lo * K / 4 steps
    U = np.random.Generator(np.random.Philox(seed).advance(lo * K // 4)).random((hi - lo, K))
    # initial phase points: one draw per register, positions 0..n-1
    cols = []
    for r, cum in enumerate(input_dists):
        idx = np.searchsorted(cum, U[:, r], side="right")
        cols.append(idx // p)
        cols.append(idx % p)
    upts = np.stack(cols, axis=1).astype(np.int64)
    out_idx = np.full((hi - lo, prog.max_registers), -1, dtype=np.int64)
    walk = _Walk(prog, U, extend_dists, povm_cums, gate_maps)
    walk.run(0, np.arange(hi - lo), upts, len(input_dists), {}, out_idx)
    return walk.counts, walk.mults, walk.adds


class _Walk:
    """One chunk's shots pushed along the program's control paths."""

    def __init__(self, prog, U, extend_dists, povm_cums, gate_maps):
        self.prog = prog
        self.U = U  # the chunk's uniforms, one row per shot
        self.extend_dists = extend_dists
        self.povm_cums = povm_cums
        self.gate_maps = gate_maps
        self.counts: dict[str, int] = {}
        self.mults = 0
        self.adds = 0

    def run(self, i, rows, upts, pos, labels_by_reg, out_idx):
        """Run shots `rows` (points `upts`, next draw at column `pos`) from item i.

        `upts` and `out_idx` belong to this call, which updates them in place.
        """
        items = self.prog.items
        p = self.prog.p
        while i < len(items) and not isinstance(items[i], LabelMarker):
            instr = items[i]
            n_cur = upts.shape[1] // 2
            if isinstance(instr, GateInstr):
                upts = (upts @ self.gate_maps[(i, n_cur)].F.T) % p
                self.mults += rows.size * (2 * n_cur) ** 2
            elif isinstance(instr, DisplaceInstr):
                c = 2 * (instr.reg - 1)
                upts[:, c : c + 2] += instr.point
                upts[:, c : c + 2] %= p
                self.adds += rows.size * 2
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
            else:
                raise TypeError(f"unexpected item {instr!r}")
            i += 1
        self.tally(labels_by_reg, out_idx[:, : upts.shape[1] // 2])

    def tally(self, labels_by_reg, out_idx):
        """Count the outcome strings of shots that end a path together.

        Each shot's outcome indices fold into one mixed-radix int64 code (the
        radix of a register is its label count), so strings are built once
        per distinct code, from the first shot that carries it.  When the
        next digit could overflow, the codes are renumbered densely first.
        """
        code = np.zeros(len(out_idx), dtype=np.int64)
        span = 1  # every code lies in [0, span)
        for r in range(1, out_idx.shape[1] + 1):
            radix = len(labels_by_reg[r])
            if span * radix > _CODE_LIMIT:
                distinct, code = np.unique(code, return_inverse=True)
                span = len(distinct)
            code = code * radix + out_idx[:, r - 1]
            span *= radix
        _, first, hits = np.unique(code, return_index=True, return_counts=True)
        for row, c in zip(out_idx[first].tolist(), hits.tolist()):
            key = "".join(labels_by_reg[r][k] for r, k in enumerate(row, start=1))
            self.counts[key] = self.counts.get(key, 0) + c


# --- statistics -------------------------------------------------------------

def compare_distributions(ref: OutcomeDistribution, counts: dict, shots: int) -> CompareResult:
    """TV + chi-square verdict; PASS iff TV < max(0.01, 3*sqrt(|alphabet|/shots))."""
    unknown = set(counts) - set(ref.probabilities)
    if unknown:
        raise ValueError(f"sampled outcomes outside the reference alphabet: {sorted(unknown)}")
    alphabet = sorted(ref.probabilities)
    tv = 0.5 * sum(
        abs(ref.probabilities[k] - counts.get(k, 0) / shots) for k in alphabet
    )
    epsilon = max(0.01, 3.0 * np.sqrt(len(alphabet) / shots))
    # chi-square with expected>=5 pooling: ascending-expectation cells merge
    # until each pool reaches 5 expected
    cells = sorted(alphabet, key=lambda k: (ref.probabilities[k], k))
    pools = []
    cur_exp = cur_obs = 0.0
    for k in cells:
        cur_exp += ref.probabilities[k] * shots
        cur_obs += counts.get(k, 0)
        if cur_exp >= 5.0:
            pools.append((cur_exp, cur_obs))
            cur_exp = cur_obs = 0.0
    if cur_exp > 0:
        if pools:
            last_exp, last_obs = pools.pop()
            pools.append((last_exp + cur_exp, last_obs + cur_obs))
        else:
            pools.append((cur_exp, cur_obs))
    stat = sum((obs - exp) ** 2 / exp for exp, obs in pools if exp > 0)
    dof = len(pools) - 1
    pval = float(_chi2.sf(stat, dof)) if dof >= 1 else 1.0
    verdict = "PASS" if tv < epsilon else "FAIL"
    return CompareResult(
        tv=float(tv),
        epsilon=float(epsilon),
        chi2_stat=float(stat),
        chi2_p=pval,
        pooled_cells=len(pools),
        verdict=verdict,
    )


# --- distillation -----------------------------------------------------------

@dataclass
class DistillationInstance:
    p: int
    n: int
    rho_in: np.ndarray
    channel: tuple  # ("unitary", U) | ("kraus", [K...])
    projector: np.ndarray  # on the last n-1 qudits
    positivity_asserted: bool = False  # required for kraus channels


@dataclass
class DistillResult:
    rho_out: np.ndarray
    F_in: float
    F_out: float
    branch_probability: float
    verdict: Optional[str]  # PASS/FAIL, or None when recorded without verdict


def distill_step(inst: DistillationInstance, force_negative_input: bool = False) -> DistillResult:
    """rho_out = Tr_anc[(I (x) P) Lambda(rho) (I (x) P)] / norm and its negativity.

    Preconditions checked: positively represented input, Clifford (or
    caller-asserted positivity-preserving) channel, positively represented
    stabilizer projector.  verdict is None when the input precondition was
    deliberately overridden; the run is then recorded without judgement.
    """
    p, n = inst.p, inst.n
    require_odd_prime(p)
    d_anc = p ** (n - 1)
    validate_state(inst.rho_in, p)
    F_in = negativity_F(inst.rho_in, p)
    if F_in < -1e-10 and not force_negative_input:
        raise InputNegativelyRepresented(
            f"F(rho_in) = {F_in:.6g} < 0; pass force_negative_input to record anyway"
        )
    P = inst.projector
    if P.shape != (d_anc, d_anc):
        raise ValueError(f"projector must act on the last {n - 1} qudits (dim {d_anc})")
    if np.max(np.abs(P @ P - P)) > 1e-9:
        raise ValueError("projector fails P^2 = P")
    if not is_positively_represented(P, p, kind="effect", tol=1e-10):
        raise ValueError("projector is not positively represented")
    kind, payload = inst.channel[0], inst.channel[1]
    if kind == "unitary":
        rho_big = payload @ inst.rho_in @ payload.conj().T
    elif kind == "kraus":
        if not inst.positivity_asserted:
            raise ValueError("kraus channels need positivity_asserted=True")
        total = sum(K.conj().T @ K for K in payload)
        if np.max(np.abs(total - np.eye(p**n))) > 1e-9:
            raise ValueError("kraus operators are not trace preserving")
        rho_big = sum(K @ inst.rho_in @ K.conj().T for K in payload)
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    Pi = np.kron(np.eye(p), P)
    selected = Pi @ rho_big @ Pi.conj().T
    norm = float(np.trace(selected).real)
    if norm < 1e-12:
        raise ZeroProbabilityBranch(f"post-selection probability {norm:.3g}")
    selected /= norm
    rho_out = np.einsum(
        "iaja->ij", selected.reshape(p, d_anc, p, d_anc)
    )
    F_out = negativity_F(rho_out, p)
    verdict = None
    if F_in >= -1e-10:
        verdict = "PASS" if F_out >= -1e-8 else "FAIL"
    return DistillResult(
        rho_out=rho_out,
        F_in=F_in,
        F_out=F_out,
        branch_probability=norm,
        verdict=verdict,
    )


def _check_distill_size(p: int, n: int, line: Optional[int] = None) -> None:
    """Reject p^n > ORACLE_DIM_CAP before any d x d matrix is built."""
    # the exponent is clipped so that a huge n costs no huge power
    if p ** min(n, ORACLE_DIM_CAP) > ORACLE_DIM_CAP:
        raise CircuitError(
            f"distillation needs p^n <= {ORACLE_DIM_CAP}, got p={p}, n={n}", line
        )


def random_positive_product_state(p: int, n: int, rng) -> np.ndarray:
    """Product of random mixtures of single-qudit stabilizer states."""
    mub = mub_stabilizer_states(p)
    rho = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        w = rng.dirichlet(np.ones(len(mub)))
        rho = np.kron(rho, sum(wi * S for wi, S in zip(w, mub.states)))
    return rho


def random_distill_instance(p: int, n: int, rng, word_length: int = 10) -> DistillationInstance:
    """Random Clifford channel + stabilizer projector + positive product input."""
    require_odd_prime(p)
    _check_distill_size(p, n)
    kinds = ["fourier", "quadratic", "multiply", "sum", "displace"]
    word = []
    for _ in range(word_length):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "multiply":
            kw = {"c": int(rng.integers(1, p)), "register": int(rng.integers(1, n + 1))}
        elif kind == "sum":
            ctrl = int(rng.integers(1, n + 1))
            tgt = int(rng.integers(1, n))
            if tgt >= ctrl:
                tgt += 1
            kw = {"ctrl": ctrl, "tgt": tgt}
        elif kind == "displace":
            kw = {"point": rng.integers(0, p, size=2 * n)}
        else:
            kw = {"register": int(rng.integers(1, n + 1))}
        word.append((kind, kw))
    mub = mub_stabilizer_states(p)
    anc = np.ones((1, 1), dtype=complex)
    for _ in range(n - 1):
        anc = np.kron(anc, mub.states[rng.integers(len(mub))])
    return DistillationInstance(
        p=p,
        n=n,
        rho_in=random_positive_product_state(p, n, rng),
        channel=("unitary", _word_unitary(p, n, word)),
        projector=anc,
    )


def parse_distill_file(path) -> DistillationInstance:
    """`distill p=<p> n=<n>`, then input/channel/projector lines."""
    path = Path(path)
    base_dir = path.parent
    lines = _content_lines(path.read_text())
    if not lines:
        raise CircuitError(f"{path}: empty distillation file")
    num, head = lines[0]
    m = re.match(r"^distill\s+p=(\d+)\s+n=(\d+)$", head)
    if not m:
        raise CircuitError(f"expected 'distill p=<p> n=<n>', got {head!r}", num)
    p, n = int(m.group(1)), int(m.group(2))
    require_odd_prime(p)
    if n < 2:
        raise CircuitError("distillation needs n >= 2 (output + ancilla)", num)
    _check_distill_size(p, n, num)
    rho_in = channel = projector = None
    asserted = False
    for num, line in lines[1:]:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "input":
            if rest.startswith("matrix-file:"):
                rho_in = load_matrix_file(base_dir / rest.split(":", 1)[1])
            elif rest.startswith("product "):
                specs = rest.split()[1:]
                if len(specs) != n:
                    raise CircuitError(f"input product needs {n} presets", num)
                rho_in = np.ones((1, 1), dtype=complex)
                for s in specs:
                    rho_in = np.kron(rho_in, preset_state(s, p, base_dir)[0])
            else:
                raise CircuitError(f"bad input spec {rest!r}", num)
        elif key == "channel":
            if rest.startswith("gates "):
                word = _parse_gate_word(rest.split(" ", 1)[1], p, num)
                channel = ("unitary", _word_unitary(p, n, word))
            elif rest.startswith("kraus-file:"):
                tokens = rest.split()
                kfile = tokens[0].split(":", 1)[1]
                asserted = "positivity-asserted" in tokens[1:]
                channel = ("kraus", _load_kraus_file(base_dir / kfile))
            else:
                raise CircuitError(f"bad channel spec {rest!r}", num)
        elif key == "projector":
            if rest == "zero":
                d_anc = p ** (n - 1)
                projector = np.zeros((d_anc, d_anc), dtype=complex)
                projector[0, 0] = 1.0
            elif rest.startswith("matrix-file:"):
                projector = load_matrix_file(base_dir / rest.split(":", 1)[1])
            else:
                raise CircuitError(f"bad projector spec {rest!r}", num)
        else:
            raise CircuitError(f"unknown distill directive {key!r}", num)
    if rho_in is None or channel is None or projector is None:
        raise CircuitError(f"{path}: need input, channel and projector lines")
    return DistillationInstance(
        p=p, n=n, rho_in=rho_in, channel=channel, projector=projector,
        positivity_asserted=asserted,
    )


def _load_kraus_file(path) -> list:
    """Concatenated `dim <d>` matrix blocks in one file."""
    lines = _content_lines(Path(path).read_text())
    blocks = []
    i = 0
    while i < len(lines):
        num, line = lines[i]
        if not line.startswith("dim"):
            raise CircuitError(f"{path}: expected 'dim <d>' block header", num)
        d = _dim_header(path, num, line)
        tokens: list[str] = []
        i += 1
        while i < len(lines) and not lines[i][1].startswith("dim"):
            tokens.extend(lines[i][1].split())
            i += 1
        if len(tokens) != 2 * d * d:
            raise CircuitError(f"{path}: block needs {2 * d * d} numbers", num)
        blocks.append(_complex_matrix(tokens, d))
    if not blocks:
        raise CircuitError(f"{path}: no Kraus blocks found")
    return blocks
