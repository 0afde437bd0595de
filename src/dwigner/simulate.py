"""The two algorithm classes plus the distillation positivity check.

run_oracle: Born-rule evaluation of every branch on a factor Psi of each
outcome record's state (rho = Psi Psi^dag), one ket axis per live register:
gates act on the ket axes only, through their local unitaries
(`weyl.call_unitary`, apart from the sampler's tables, so --oracle-check
compares two routes), one contraction with a POVM's stacked Kraus rows gives
every outcome of every record, and each measured register is traced out, so
no p^n x p^n matrix is built.  sample_classical: the hidden-variable sampler
-- phase-space points drawn from input Wigner distributions, pushed through
affine gate maps, measured by conditional Wigner probabilities.  The outcome
distributions agree; compare_distributions quantifies that with TV and a
chi-square test.  distill_step: the post-selected output of a Clifford
channel computed on Wigner functions -- the channel's affine map permutes
the input's values and the projector's effect values weight the ancilla
points -- so a nonnegative input can never come out negative.  A product
input or projector is held as its p x p factors, and its Wigner function is
the outer product of theirs.  A word channel moves a sparse grid of
register digits call by call through the sampler's kernel (_apply_call) and
scatters the values once to the folded image index (_word_image), so no map
of the whole word is composed.  A product instance with a word channel thus
builds no p^n x p^n matrix: it is bounded by its p^(2n) Wigner values
(PRODUCT_WIGNER_CAP), and only dense parts by p^n (ORACLE_DIM_CAP).
distill_steps decides a batch of instances with one stacked check and
transform of all input factors, one of all projector factors and one check
of all outputs; distill_step is its batch of one.

Per-shot randomness is positional: draw j of shot s is U[s, j] of the
shots x K uniform matrix that Generator(Philox(seed)) would fill row by row
(K = 2 * max_registers).  Shots run in chunks, and each chunk draws only its
own rows, from a Philox stream advanced to the chunk's first draw.  A chunk
holds as many shots as fit CHUNK_BYTES of uniforms (8K bytes per shot, so
at most 65536 shots at K = 2), so memory is bounded by a chunk at any shot
count and any register count.  The chunk size is even, so every chunk
starts on a whole Philox block and the bytes do not depend on it.

The kernel (_Walk) makes a few whole-array passes per instruction: it reads
each draw in place from its column of the chunk's uniforms, draws points
through a guide table of each input and `extend` table (_guide, built once
per run), so a draw is a bucket lookup and a pass or two of comparisons
rather than a binary search, measures by counting contiguous cumulative
effect columns below the draw, splits branches with index arrays and tallies
outcome codes with bincount, building each distinct outcome string from a
row of label bytes.  A shot's point is one digit q * p + x per live
register, and a chunk holds one int64 row of digits per register.  Each
generator call of a gate item (a displace line is one with a single call)
acts on its own one or two registers only: it is one gather of their
combined digit through the call's table of image digits (_call_digits),
cached per (p, kind, params), so no map over all the live registers is
built or held (_apply_call).  The distillation check runs the same kernel.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .circuits import (
    CircuitError,
    CircuitProgram,
    ExtendInstr,
    GateInstr,
    LabelMarker,
    MeasureInstr,
    load_kraus_file,
    load_matrix_file,
    preset_state,
    validate_circuit,
    GateCall,
    at_line,
    content_lines,
    parse_gate_word,
    require_registers,
)
from . import fmt_number, weyl
from .fields import CliffordElement, require_odd_prime
from .stabilizer import mub_stabilizer_states
from .wigner import (
    DISTILL_FAIL_TOL,
    DISTILL_NEG_TOL,
    PSD_TOL,
    validate_state,
    wigner_of_effect,
    wigner_of_factors,
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
    "oracle_fits",
    "run_oracle",
    "sample_classical",
    "compare_distributions",
    "distill_step",
    "distill_steps",
    "random_distill_instance",
    "random_positive_product_state",
    "parse_distill_file",
    "ORACLE_DIM_CAP",
    "PRODUCT_WIGNER_CAP",
    "CHUNK_BYTES",
]

# p^n guard for the oracle, whose factor holds p^n ket entries per outcome
# record times a rank that each measurement cuts back to at most p^n, and for
# the dense parts of a distillation check: matrix-file inputs and projectors
# and Kraus channels, which are p^n x p^n (or p^(n-1) x p^(n-1)) matrices
ORACLE_DIM_CAP = 243
# p^(2n) guard for every distillation check, whose Wigner arrays (input,
# channel image, image index) hold p^(2n) entries: 3^12, 4 MB of float64 each,
# so a product input with a word channel runs up to n = 6 qutrits
PRODUCT_WIGNER_CAP = 3**12
# Bytes of one chunk's shots x K float64 uniforms, read in place with no
# copy.  A chunk holds the even number of shots that fits, at least 2, so its
# uniforms take about this much and its n rows of int64 point digits half of
# it at any register count; even, so each chunk's first draw lo * K is a
# multiple of a Philox block's four draws.
CHUNK_BYTES = 1 << 20
# The tally's mixed-radix outcome codes stay below this, well inside int64.
_CODE_LIMIT = 1 << 62
_EPS = np.finfo(float).eps


class OracleGuardError(RuntimeError):
    pass


class ZeroProbabilityBranch(RuntimeError):
    pass


class InputNegativelyRepresented(ValueError):
    pass


@dataclass
class OutcomeDistribution:
    probabilities: dict  # outcome string -> probability
    # branches the oracle dropped at pk < 1e-15, and their summed probability
    pruned_branches: int = 0
    pruned_mass: float = 0.0

    def __post_init__(self):
        total = sum(self.probabilities.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, not 1")


@dataclass
class SampleReport:
    shots: int
    seed: int
    counts: dict  # outcome string -> int
    # The dense-map cost model: a gate item run by s shots on n live
    # registers adds s * (2n)^2 mults, or s * 2 adds when its one call is a
    # displace, whatever work the kernel actually does (one gather per
    # generator call).
    field_mults: int
    field_adds: int


@dataclass
class CompareResult:
    tv: float
    epsilon: float
    chi2_stat: float
    chi2_p: float
    pooled_cells: int
    verdict: str


# --- oracle -----------------------------------------------------------------

def _apply_local(rho: np.ndarray, M: np.ndarray, axes: list) -> np.ndarray:
    """M (p^k x p^k) applied to the k tensor axes `axes` of rho, in that order."""
    k = len(axes)
    p = rho.shape[axes[0]]
    out = np.tensordot(M.reshape((p,) * (2 * k)), rho, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def _psd_rows(M: np.ndarray) -> np.ndarray:
    """Rows R with R^dag R = M for each PSD matrix of a stack (..., d, d):
    sqrt(lambda) v^dag for each eigenvalue above numpy's matrix_rank
    tolerance, lambda_max * d * eps, as many rows as the stack's largest
    rank and zero rows for the eigenvalues below it."""
    vals, vecs = np.linalg.eigh(M)
    d = vals.shape[-1]
    keep = vals > vals[..., -1:] * (d * _EPS)  # a suffix: vals ascend
    top = slice(d - keep.sum(axis=-1).max(), d)
    rows = vecs[..., top] * np.sqrt(vals[..., top] * keep[..., top])[..., None, :]
    return rows.conj().swapaxes(-1, -2)


def _squared_norms(psi: np.ndarray) -> np.ndarray:
    """The squared norm of each record psi[b] of a complex array."""
    parts = psi.reshape(len(psi), -1).view(np.float64)  # real, imag interleaved
    return np.einsum("ij,ij->i", parts, parts)


def _extend(psi: np.ndarray, state_factors: list) -> np.ndarray:
    """Psi (B, kets..., r) with one ket axis appended per (p, r_s) state
    factor, after the others; the ranks multiply."""
    for f in state_factors:
        psi = np.moveaxis(np.multiply.outer(psi, f), -2, -3)
        psi = psi.reshape(psi.shape[:-2] + (-1,))
    return psi


def oracle_fits(prog: CircuitProgram) -> bool:
    """True iff run_oracle takes prog: p^n at its widest point is at most ORACLE_DIM_CAP."""
    return prog.p**prog.max_registers <= ORACLE_DIM_CAP


def run_oracle(prog: CircuitProgram) -> OutcomeDistribution:
    """Exact-to-double outcome distribution via the chain rule over all branches.

    The B outcome records that share a path are one factor Psi of shape
    (B, p, ..., p, r): one ket axis per live register and one rank axis,
    record b's unnormalized state being Psi_b Psi_b^dag, of trace its
    probability; no p^n x p^n matrix is built.  Inputs and `extend` states
    enter as their PSD factors (conjugate-transposed _psd_rows; each
    distinct state and POVM is factored once per run).  Each generator call
    applies its local p x p (p^2 x p^2 for sum) unitary, `call_unitary`,
    to its ket axes only.  Measuring register r contracts the POVM's rows R_k
    (E_k = R_k^dag R_k) with r's ket axis once, for every outcome k of
    every record; the row axis joins the rank axis, so Psi' Psi'^dag =
    Tr_r[(E_k (x) I) Psi Psi^dag] and pk is its squared norm.  Tracing r
    out is exact: a path measures each register once and never acts on it
    again (_check_paths), and Tr_r[(M (x) I) rho (M (x) I)^dag] =
    Tr_r[(E (x) I) rho] for every Kraus root M of E.  When the rank passes
    the live dimension D = p^m, Psi becomes the D x D factor L of Psi = L Q
    (the QR of Psi^dag), or sqrt(pk) when no register is left live (D = 1).
    Records with pk below 1e-15 of their parent's probability are dropped;
    their count and summed probability are recorded on the result.  A
    `branch:` measurement splits the records by target label.
    """
    p = prog.p
    if not oracle_fits(prog):
        raise OracleGuardError(
            f"oracle guard: p^n = {p ** prog.max_registers} exceeds {ORACLE_DIM_CAP}"
        )
    results: dict[str, float] = {}
    pruned_branches, pruned_mass = 0, 0.0
    factored: dict = {}  # (shape, bytes) of a matrix or stack -> its _psd_rows

    def rows_of(M):
        key = (M.shape, M.tobytes())
        if key not in factored:
            factored[key] = _psd_rows(M)
        return factored[key]

    def walk(i, psi, live, n_cur, prob, codes, labels):
        """Run the records (psi, prob, codes) from item i to their path end;
        codes[b, r - 1] indexes labels[r], register r's outcome labels."""
        nonlocal pruned_branches, pruned_mass
        while i < len(prog.items) and not isinstance(prog.items[i], LabelMarker):
            instr = prog.items[i]
            if isinstance(instr, GateInstr):
                for call in instr.word:
                    U = weyl.call_unitary(p, call.kind, call.params)
                    psi = _apply_local(psi, U, [1 + live.index(r) for r in call.regs])
            elif isinstance(instr, ExtendInstr):
                psi = _extend(psi, [rows_of(instr.state).conj().T] * instr.count)
                live = live + list(range(n_cur + 1, n_cur + instr.count + 1))
                n_cur += instr.count
            elif isinstance(instr, MeasureInstr):
                rows = rows_of(np.stack(instr.povm.effects))
                k, q = rows.shape[:2]
                j, m, B = live.index(instr.reg), len(live), len(prob)
                # (k, q, B, rest..., r) -> (B * k, rest..., q * r)
                psi = np.tensordot(rows, psi, axes=([2], [1 + j]))
                psi = psi.transpose(2, 0, *range(3, m + 2), 1, m + 2).reshape(
                    (B * k,) + (p,) * (m - 1) + (-1,)
                )
                pk = _squared_norms(psi)
                keep = pk >= 1e-15 * np.repeat(prob, k)
                pruned_branches += int(np.count_nonzero(~keep))
                pruned_mass += float(pk[~keep].sum())
                outcome = (np.arange(B * k) % k)[keep]
                psi, prob = psi[keep], pk[keep]
                codes = np.repeat(codes, k, axis=0)[keep]
                codes[:, instr.reg - 1] = outcome
                labels = {**labels, instr.reg: instr.povm.labels}
                if not len(prob):
                    return
                live = live[:j] + live[j + 1 :]
                D = p ** (m - 1)
                if psi.shape[-1] > D:
                    if D == 1:  # no live register: the factor is the record's norm
                        psi = np.sqrt(prob).astype(complex)[:, None]
                    else:  # Psi^dag = Q R, so Psi Psi^dag = R^dag R
                        R = np.linalg.qr(psi.reshape(len(prob), D, -1).conj().swapaxes(1, 2), "r")
                        psi = R.conj().swapaxes(1, 2).reshape(psi.shape[:-1] + (D,))
                if instr.branch is not None:
                    targets = [instr.branch[label] for label in instr.povm.labels]
                    arm = np.array(targets)[outcome]
                    for nxt in dict.fromkeys(targets):
                        sel = arm == nxt
                        if sel.any():
                            walk(nxt, psi[sel], live, n_cur, prob[sel], codes[sel], labels)
                    return
            else:
                raise TypeError(f"unexpected item {instr!r}")
            i += 1
        keys = np.full(len(prob), "", dtype=object)
        for r in range(1, n_cur + 1):
            keys = keys + np.array(labels[r], dtype=object)[codes[:, r - 1]]
        for key, pr in zip(keys.tolist(), prob.tolist()):
            results[key] = results.get(key, 0.0) + pr

    psi = _extend(np.ones((1, 1), dtype=complex), [rows_of(s).conj().T for s in prog.inputs])
    codes = np.zeros((1, prog.max_registers), dtype=np.intp)
    walk(0, psi, list(range(1, prog.n + 1)), prog.n, np.ones(1), codes, {})
    return OutcomeDistribution(
        results, pruned_branches=pruned_branches, pruned_mass=pruned_mass
    )


# --- classical sampler ------------------------------------------------------

def _cumulative(w: np.ndarray) -> np.ndarray:
    """Cumulative sampling table of a state's Wigner values: rounding noise
    below zero clipped, normalized, last entry exactly 1."""
    w = np.clip(w, 0.0, None)
    c = np.cumsum(w / w.sum())
    c[-1] = 1.0
    return c


def _guide(cum: np.ndarray) -> tuple:
    """Guide table of a cumulative table (Chen & Asau 1974; Devroye 1986,
    section III.2.4), kept over its distinct values v: (v, G, passes, C).
    There are B = len(G) equal buckets of [0, 1), B a power of two with at
    least 4 buckets per entry of cum.  G[b] = searchsorted(v, b / B,
    "right") starts bucket b's draws, `passes` is the most values of v
    strictly inside one bucket, and C[j] counts the entries of cum below
    v[j], so C[len(v)] = len(cum).  Runs of equal entries (an input's
    zero Wigner values) cost no pass."""
    v, run = np.unique(cum, return_counts=True)
    C = np.concatenate([[0], np.cumsum(run)])
    B = 1 << (4 * len(cum) - 1).bit_length()
    edges = np.arange(B + 1) / B  # exact: B is a power of two
    G = np.searchsorted(v, edges[:-1], side="right")
    passes = int((np.searchsorted(v, edges[1:], side="left") - G).max())
    return v, G, passes, C


def _guided(guide: tuple, u: np.ndarray) -> np.ndarray:
    """searchsorted(cum, u, "right") for uniforms u in [0, 1), read from
    cum's `_guide`.  u * B is exact, so the bucket b it truncates to has b /
    B <= u < (b + 1) / B: G[b] counts the values of v at or below the
    bucket's lower edge, and each pass compares one value inside the bucket,
    so j ends as the count of values <= u, and C[j] counts the entries."""
    v, G, passes, C = guide
    j = G[(u * len(G)).astype(np.intp)]
    for _ in range(passes):
        j += v[j] <= u
    return C[j]


def _povm_columns(effect_values: list) -> list:
    """Cumulative outcome probabilities per phase point, from the Wigner
    values of a POVM's effects: one contiguous column per effect but the
    last, whose cumulative entry is exactly 1 and counts no draw."""
    tab = np.clip(np.stack(effect_values, axis=1), 0.0, 1.0)
    cum = np.cumsum(tab, axis=1)
    return [np.ascontiguousarray(cum[:, k]) for k in range(cum.shape[1] - 1)]


def sample_classical(
    prog: CircuitProgram,
    seed: int,
    shots: int,
    jobs: int = 1,
) -> SampleReport:
    """Algorithm-class-2 sampler; deterministic for a seed at any jobs count.

    Validates the program first: a failure raises CircuitError carrying the
    validator's problems, and zero shots only validate; any other shot
    count needs a seed (ValueError without one).  Points are drawn
    from the Wigner values the validator computed, pushed through each
    generator call's table of image digits and measured against the
    validator's effect values.  Shots run in chunks of at most CHUNK_BYTES
    of uniforms, each drawing its own (see the module docstring), so memory
    is bounded by one chunk.  Chunk bounds depend only on `shots` and the
    register count; `jobs` is accepted and does not change the work or the
    report.
    """
    if shots < 0:
        raise ValueError(f"shots must be non-negative, got {shots}")
    if shots and seed is None:
        raise ValueError(f"sampling {shots} shots requires an explicit seed")
    report = validate_circuit(prog)
    if not report.ok:
        raise CircuitError("; ".join(report.problems), problems=tuple(report.problems))
    walk = _Walk(prog, report)
    K = 2 * prog.max_registers
    size = max(2, CHUNK_BYTES // (8 * K) // 2 * 2)
    for lo in range(0, shots, size):
        walk.run_chunk(seed, lo, min(lo + size, shots))
    return SampleReport(
        shots=shots,
        seed=seed,
        counts=dict(sorted(walk.counts.items())),
        field_mults=walk.mults,
        field_adds=walk.adds,
    )


class _Walk:
    """One run's shots pushed, chunk by chunk, along the program's control paths.

    A shot's phase point is one digit q * p + x per live register, the digit
    order of `fields.point_index` within a register, so a chunk's points are
    a list of n int64 rows, one per register.  A draw appends a row, read
    through the guide of the register's cumulative Wigner table (`_guide`,
    built once per run, and `_guided`); a measurement reads its register's
    row, and a branch takes each row at the index array of its shots.  Each
    generator call of a gate item is one gather (`_apply_call`).  Per shot, a
    gate item whose one call is a displace counts 2 field adds, any other
    (2n)^2 field mults on n live registers (SampleReport's cost model).  A
    chunk's uniforms are held as Philox fills them, one row per shot, and
    draw position `pos` is read in place from column `pos`: as a strided
    view, with no copy, for shots that have not split, and gathered at the
    shots' rows after a split; `rows` is None for the first and the
    chunk-row ids of the second.  A measurement counts the cumulative effect
    columns below the draw, one contiguous column per effect but the last,
    whose entry 1.0 no draw reaches.  Shots that end a path together are
    tallied at once.
    """

    def __init__(self, prog, report):
        self.prog = prog
        self.input_guides = [_guide(_cumulative(w)) for w in report.input_wigners]
        self.extend_guides = {
            i: _guide(_cumulative(w)) for i, w in report.extend_wigners.items()
        }
        self.povm_cols = {i: _povm_columns(ws) for i, ws in report.effect_wigners.items()}
        self.U = None  # the chunk's uniforms, one row per shot
        self.counts: dict[str, int] = {}
        self.mults = 0
        self.adds = 0

    def run_chunk(self, seed, lo, hi):
        """Add the outcomes and field operations of shots lo..hi-1."""
        K = 2 * self.prog.max_registers
        # Philox emits four 64-bit words per counter step and `random` spends
        # one per draw, so skipping lo * K draws is lo * K / 4 steps
        rng = np.random.Generator(np.random.Philox(seed).advance(lo * K // 4))
        self.U = rng.random((hi - lo, K))
        # initial phase points: one draw per register, positions 0..n-1
        n = len(self.input_guides)
        self.run(0, None, self.draw_points([], self.input_guides, None, 0), n, n, {})
        self.U = None

    def draws(self, rows, pos):
        """Draw `pos` of the shots `rows` (every shot of the chunk when
        None), read in place from the chunk's column `pos`."""
        return self.U[:, pos] if rows is None else self.U[rows, pos]

    def draw_points(self, pts, guides, rows, pos):
        """`pts` with one digit row appended per table in `guides`, drawn
        with draws pos, pos+1, ..."""
        return pts + [
            _guided(guide, self.draws(rows, pos + j)) for j, guide in enumerate(guides)
        ]

    def run(self, i, rows, pts, n, pos, measured):
        """Run the shots `rows` (points `pts` on n registers, next draw at
        position `pos`) from item i; `measured` maps each measured register
        to its labels and the shots' outcome indices.  `pts` belongs to this
        call."""
        items = self.prog.items
        while i < len(items) and not isinstance(items[i], LabelMarker):
            instr = items[i]
            shots = len(pts[0])
            if isinstance(instr, GateInstr):
                for call in instr.word:
                    _apply_call(self.prog.p, call, pts)
                if instr.word[0].kind == "displace":  # a displace line's one call
                    self.adds += shots * 2
                else:
                    self.mults += shots * (2 * n) ** 2
            elif isinstance(instr, ExtendInstr):
                pts = self.draw_points(pts, [self.extend_guides[i]] * instr.count, rows, pos)
                n += instr.count
                pos += instr.count
            elif isinstance(instr, MeasureInstr):
                b = pts[instr.reg - 1]
                u = self.draws(rows, pos)
                outcome = np.zeros(shots, dtype=np.intp)
                for col in self.povm_cols[i]:
                    outcome += col[b] <= u
                pos += 1
                measured = {**measured, instr.reg: (instr.povm.labels, outcome)}
                if instr.branch is not None:
                    for k, label in enumerate(instr.povm.labels):
                        idx = np.flatnonzero(outcome == k)
                        if idx.size:
                            self.run(
                                instr.branch[label],
                                idx if rows is None else rows[idx],
                                [row[idx] for row in pts],
                                n,
                                pos,
                                {r: (labs, out[idx]) for r, (labs, out) in measured.items()},
                            )
                    return
            else:
                raise TypeError(f"unexpected item {instr!r}")
            i += 1
        self.tally([measured[r] for r in range(1, n + 1)], len(pts[0]))

    def tally(self, measured, shots):
        """Count the outcome strings of `shots` shots that end a path together.

        `measured` holds (labels, outcome indices) per register, in register
        order.  Each shot's indices fold into one mixed-radix int64 code (the
        radix of a register is its label count); when the next digit could
        overflow, and once at the end when the codes outnumber the shots,
        they are renumbered densely.  `bincount` then counts each code.  The
        strings of the distinct codes are built together, from any shot that
        carries each: every register's label bytes are gathered from its
        padded table (_label_bytes) into one row per code, the padding is
        dropped by the table's mask, and each row is decoded once.
        """
        code = np.zeros(shots, dtype=np.int64)
        span = 1  # every code lies in [0, span)
        for labels, outcome in measured:
            radix = len(labels)
            if span * radix > _CODE_LIMIT:
                distinct, code = np.unique(code, return_inverse=True)
                span = len(distinct)
            code = code * radix + outcome
            span *= radix
        if span > shots:
            distinct, code = np.unique(code, return_inverse=True)
            span = len(distinct)
        hits = np.bincount(code, minlength=span)
        rep = np.empty(span, dtype=np.intp)
        rep[code] = np.arange(shots)  # equal codes carry equal labels
        seen = np.flatnonzero(hits)
        digits = [(_label_bytes(labels), outcome[rep[seen]]) for labels, outcome in measured]
        chars = np.hstack([table[k] for (table, _), k in digits])
        used = np.hstack([mask[k] for (_, mask), k in digits])
        text = chars[used].tobytes()  # row-major: the keys back to back
        ends = np.cumsum(used.sum(axis=1)).tolist()
        for start, end, c in zip([0] + ends[:-1], ends, hits[seen].tolist()):
            key = text[start:end].decode()
            self.counts[key] = self.counts.get(key, 0) + c


@functools.lru_cache(maxsize=None)
def _label_bytes(labels: tuple) -> tuple:
    """A POVM's labels as UTF-8 byte rows zero-padded to one width, and the
    mask of each row's own bytes; exact for labels of any length or content.
    The cached arrays are read-only."""
    raw = [label.encode() for label in labels]
    width = max(map(len, raw))
    table = np.zeros((len(raw), width), dtype=np.uint8)
    for row, b in zip(table, raw):
        row[: len(b)] = np.frombuffer(b, dtype=np.uint8)
    mask = np.arange(width) < np.array([len(b) for b in raw])[:, None]
    table.flags.writeable = mask.flags.writeable = False
    return table, mask


@functools.lru_cache(maxsize=None)
def _call_digits(p: int, kind: str, params: tuple) -> tuple:
    """Image digits of one generator call on its own registers: row k holds
    the image digit q * p + x of the call's k-th register at every combined
    digit of its registers (ctrl * p^2 + tgt for sum), split from
    `_image_indices` of the generator's map.  There is one entry per
    distinct call, at most p^2 + p + 2 per p; sum's is the largest, 2 p^4
    int64 entries.  The cached rows are read-only."""
    g = weyl.generator_map(kind, p, **dict(params))
    index, p2 = _image_indices(g), p * p
    rows = tuple(index // p2 ** (g.n - 1 - k) % p2 for k in range(g.n))
    for row in rows:
        row.flags.writeable = False
    return rows


def _apply_call(p: int, call: GateCall, pts: list) -> None:
    """Replace the digit rows of `call`'s registers in `pts`, one row of
    digits q * p + x per register, by their images: the registers' digits
    combine into one index (ctrl * p^2 + tgt for sum) into the call's table
    of image digits (`_call_digits`).  Rows broadcast against each other, so
    a row of a sparse grid stays as small as the axes it has mixed."""
    at = [r - 1 for r in call.regs]
    combined = pts[at[0]]
    for j in at[1:]:
        combined = combined * (p * p) + pts[j]
    for j, image in zip(at, _call_digits(p, call.kind, call.params)):
        pts[j] = image[combined]


# --- statistics -------------------------------------------------------------

_RESCALE = 2.0 ** 960  # the chi-square sum's rescale step, an exact power of two
_LOG_RESCALE = 960 * math.log(2.0)


def _chi2_sf(dof: int, stat: float) -> float:
    """P(X >= stat) for X chi-square with a positive integer `dof`.

    With x = stat/2 this is the upper incomplete gamma ratio Q(dof/2, x):
    e^-x * sum_{j < dof/2} x^j / j! for even dof, and erfc(sqrt x) +
    e^-x * sum_{j=1}^{(dof-1)/2} x^(j-1/2) / Gamma(j+1/2) for odd dof.  Each
    term is the one before it times x / (j + h), so the sum has no
    cancellation.  Where a term passes 2^960 (x above about 665) the sum is
    rescaled by that exact power of two, and the scale goes into the
    exponent of e^-x.
    """
    x = stat / 2.0
    if x <= 0.0:
        return 1.0
    # Chernoff: with c = stat/dof > 1e4, Q <= (c e^(1-c))^(dof/2) < e^-4995
    if stat > 1e4 * dof:
        return 0.0
    h = dof % 2 / 2.0
    q = math.erfc(math.sqrt(x)) if h else 0.0
    term = 2.0 * math.sqrt(x / math.pi) if h else 1.0
    total = log_scale = 0.0
    for j in range(dof // 2):
        total += term
        term *= x / (j + 1 + h)
        if term > _RESCALE:
            term, total = term / _RESCALE, total / _RESCALE
            log_scale += _LOG_RESCALE
    scale = log_scale - x
    if scale > -700.0:  # e^scale is a normal double
        return q + total * math.exp(scale)
    return q + math.exp(math.log(total) + scale) if total else q


def compare_distributions(ref: OutcomeDistribution, counts: dict, shots: int) -> CompareResult:
    """TV + chi-square verdict; PASS iff TV < max(0.01, 3*sqrt(|alphabet|/shots)).

    The chi-square p-value is `_chi2_sf`, a closed form for integer degrees
    of freedom: within a relative 1e-14 of an arbitrary-precision reference
    up to 250 degrees of freedom, and 1e-12 up to 6000.
    """
    if shots <= 0:
        raise ValueError(f"comparing needs a positive shot count, got {shots}")
    unknown = set(counts) - set(ref.probabilities)
    if unknown:
        raise ValueError(f"sampled outcomes outside the reference alphabet: {sorted(unknown)}")
    alphabet = sorted(ref.probabilities)
    tv = 0.5 * sum(
        abs(ref.probabilities[k] - counts.get(k, 0) / shots) for k in alphabet
    )
    epsilon = max(0.01, 3.0 * np.sqrt(len(alphabet) / shots))
    # chi-square with expected>=5 pooling: cells sorted by probability as
    # printed, then by key (so rounding noise reorders none), merge until
    # each pool reaches 5 expected
    cells = sorted(alphabet, key=lambda k: (float(fmt_number(ref.probabilities[k])), k))
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
    pval = _chi2_sf(dof, stat) if dof >= 1 else 1.0
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
    # the input on n qudits: a tuple of n single-qudit p x p factors of a
    # product state, or a dense p^n x p^n matrix
    rho_in: tuple | np.ndarray
    # ("gates", [GateCall, ...]) in application order, as a suite or a
    # `channel gates` line builds it | ("unitary", U) | ("kraus", [K...])
    channel: tuple
    # the projector on the last n-1 qudits: a tuple of n-1 p x p factors, or a
    # dense p^(n-1) x p^(n-1) matrix
    projector: tuple | np.ndarray
    positivity_asserted: bool = False  # required for kraus channels


@dataclass
class DistillResult:
    rho_out: Optional[np.ndarray]  # None for a zero branch
    F_in: float
    F_out: float  # NaN for a zero branch
    branch_probability: float
    # PASS/FAIL, None when recorded without verdict, or SKIP for a zero
    # branch, which distill_steps returns and distill_step raises
    verdict: Optional[str]


def distill_step(inst: DistillationInstance, force_negative_input: bool = False) -> DistillResult:
    """rho_out = Tr_anc[(I (x) P) Lambda(rho) (I (x) P)] / norm and its negativity,
    computed on Wigner functions.

    A product input or projector, a tuple of p x p factors, has the outer
    product of its factors' Wigner (or effect) values as its Wigner
    function, so no p^n x p^n matrix is built; a dense matrix is transformed
    as a whole.  A Clifford channel is an affine map g = (F, a) of phase
    space, so W_sigma[g(u)] = W_in[u] permutes the input's values: they are
    scattered once through g's image index.  A ("gates", word) channel
    builds that index call by call with the sampler's kernel (_word_image),
    with no map of the whole word; a ("unitary", U) channel is taken to its
    g by extract_symplectic, so a U that is not Clifford raises
    NotCliffordError; a ("kraus", [K...]) channel, whose positivity the
    caller asserts, is applied to the dense input and transformed.  Then
    W_out(u1) = sum_v W_sigma(u1, v) W_P(v) / norm, where W_P is the
    projector's effect Wigner function and norm, the branch probability, is
    the sum of the numerators; F_out = p * min W_out.

    Preconditions checked: p^(2n) <= PRODUCT_WIGNER_CAP before any Wigner
    array is allocated; a PSD input (each factor of a product) that is
    positively represented; a Clifford (or caller-asserted
    positivity-preserving) channel; a projector (each factor of a product)
    with P^2 = P on the last n-1 qudits that is positively represented.
    rho_out is PSD-checked.  verdict is None when the input precondition was
    deliberately overridden; the run is then recorded without judgement.
    This is the one-instance batch of distill_steps; a zero branch raises
    ZeroProbabilityBranch.
    """
    (res,) = distill_steps([inst], force_negative_input)
    if res.verdict == "SKIP":
        raise ZeroProbabilityBranch(f"post-selection probability {res.branch_probability:.3g}")
    return res


def distill_steps(insts, force_negative_input: bool = False) -> list:
    """distill_step of each instance in `insts`, decided as one batch.

    Each check runs over the whole batch before the next: the p x p factors
    of every product input are checked and transformed as one stack
    (wigner_of_factors), then those of every product projector, which are
    also tested for P^2 = P in one pass.  Then each instance in turn builds,
    moves and reduces its transient p^(2n) arrays, with its dense parts and
    its channel, and the p x p outputs of the batch are checked as one stack
    of states.  A failing check raises the message its instance gives
    alone.  A zero branch (norm < 1e-12) comes back as a result with
    verdict "SKIP", F_out NaN and rho_out None.  All instances share one p.
    """
    if not insts:
        return []
    p = insts[0].p
    if any(inst.p != p for inst in insts):
        raise ValueError("a batch of distillation instances needs one p")
    require_odd_prime(p)
    for inst in insts:
        _check_distill_size(p, inst.n)
    input_rows = _factor_rows([(inst.rho_in, inst.n) for inst in insts], p, "state")
    projector_rows = _factor_rows([(inst.projector, inst.n - 1) for inst in insts], p, "effect")
    results, outputs = [], []
    for inst, rows_in, rows_P in zip(insts, input_rows, projector_rows):
        n = inst.n
        W_in = _part_values(inst.rho_in, rows_in, p, n, "state")  # validates a dense input
        F_in = float(p**n * W_in.min())
        if F_in < -DISTILL_NEG_TOL and not force_negative_input:
            raise InputNegativelyRepresented(
                f"F(rho_in) = {F_in:.6g} < 0; pass force_negative_input to record anyway"
            )
        W_P = _part_values(inst.projector, rows_P, p, n - 1, "effect")
        if rows_P is None:  # a dense projector; a product's factors are tested as a stack
            _check_projector(inst.projector)
        if W_P.min() < -DISTILL_NEG_TOL:
            raise ValueError("projector is not positively represented")
        numer = _channel_values(inst, W_in).reshape(p * p, -1) @ W_P
        norm = float(numer.sum())
        if norm < 1e-12:
            results.append(DistillResult(None, F_in, math.nan, norm, "SKIP"))
            continue
        W_out = numer / norm
        F_out = float(p * W_out.min())
        verdict = None
        if F_in >= -DISTILL_NEG_TOL:
            verdict = "PASS" if F_out >= -DISTILL_FAIL_TOL else "FAIL"
        results.append(DistillResult(None, F_in, F_out, norm, verdict))
        outputs.append(W_out)
    if outputs:
        # the row-vector matmul is state_from_wigner's n = 1 contraction, bit for bit
        single_A = weyl.weyl_table(p, 1).single_A.reshape(p * p, p * p)
        rho_out = np.matmul(np.stack(outputs)[:, None, :], single_A).reshape(-1, p, p)
        validate_state(rho_out, p)
        for res, rho in zip((res for res in results if res.verdict != "SKIP"), rho_out):
            res.rho_out = rho
    return results


def _factor_rows(parts: list, p: int, kind: str) -> list:
    """The checked Wigner ("state") or effect ("effect") rows of each
    (part, count) product part on `count` qudits, None for a dense part.
    All product parts' factors are checked and transformed as one stack
    (wigner_of_factors), and projector factors are tested for P^2 = P as one
    stack.  A failing stack is checked again part by part, so a factor is
    named by its place in its own part."""
    what = "input must be a state" if kind == "state" else "projector must act"
    products = []
    for part, count in parts:
        if isinstance(part, tuple):
            if len(part) != count:
                raise ValueError(f"{what} on {count} qudits, got {len(part)} factors")
            products.append(part)
    if not products:
        return [None] * len(parts)
    factors = [factor for part in products for factor in part]
    try:
        rows = wigner_of_factors(factors, p, kind)
    except ValueError:
        for part in products:
            wigner_of_factors(part, p, kind)
        raise
    if kind == "effect":
        _check_projector(np.stack(factors))
    out, at = [], 0
    for part, _ in parts:
        if isinstance(part, tuple):
            out.append(rows[at : at + len(part)])
            at += len(part)
        else:
            out.append(None)
    return out


def _check_projector(P: np.ndarray) -> None:
    """Refuse a projector matrix, or a stack of factors, with P^2 != P."""
    if not np.max(np.abs(P @ P - P)) <= PSD_TOL:
        raise ValueError("projector fails P^2 = P")


def _part_values(part, rows, p: int, count: int, kind: str) -> np.ndarray:
    """Flat Wigner ("state") or effect ("effect") values of an input or
    projector on `count` qudits: the outer product of a product's checked
    factor rows (_factor_rows), the whole transform of a dense matrix."""
    if rows is not None:
        values = np.ones(1)
        for row in rows:
            values = np.multiply.outer(values, row).ravel()
        return values
    W = wigner_of_state(part, p) if kind == "state" else wigner_of_effect(part, p)
    if W.n != count:
        what = "input must be a state" if kind == "state" else "projector must act"
        raise ValueError(f"{what} on {count} qudits (dim {p**count})")
    return W.values


def _channel_values(inst: DistillationInstance, W_in: np.ndarray) -> np.ndarray:
    """W_sigma, the Wigner values of the channel's image of the input: a
    Clifford channel scatters W_in through its image index, a Kraus channel
    is applied to the dense input and transformed."""
    p, n = inst.p, inst.n
    kind, payload = inst.channel[0], inst.channel[1]
    if kind == "gates":
        require_registers([r for call in payload for r in call.regs], n)
        image = _word_image(payload, p, n)
    elif kind == "unitary":
        g = weyl.extract_symplectic(payload, p)
        if g.n != n:
            raise ValueError(f"channel acts on {g.n} qudits, expected {n}")
        image = _image_indices(g)
    elif kind == "kraus":
        if not inst.positivity_asserted:
            raise ValueError("kraus channels need positivity_asserted=True")
        total = sum(K.conj().T @ K for K in payload)
        if not np.max(np.abs(total - np.eye(p**n))) <= PSD_TOL:
            raise ValueError("kraus operators are not trace preserving")
        rho = inst.rho_in
        if isinstance(rho, tuple):
            rho = functools.reduce(np.kron, rho)
        rho_big = sum(K @ rho @ K.conj().T for K in payload)
        return wigner_of_state(rho_big, p).values
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    W_sigma = np.empty_like(W_in)  # a Clifford channel only moves the values
    W_sigma[image] = W_in
    return W_sigma


def _word_image(word, p: int, n: int) -> np.ndarray:
    """Point index of g(u) for every point u, in point-index order, for the
    map g of the generator calls `word` on n registers: each call moves the
    rows of a sparse grid of register digits (`_apply_call`), so a row stays
    broadcast until a sum mixes its axis and no map of the whole word is
    composed, and the rows fold into one index at the end."""
    pts = list(np.indices((p * p,) * n, sparse=True))
    for call in word:
        _apply_call(p, call, pts)
    index = np.zeros((1,) * n, dtype=np.intp)
    for row in pts:  # row k spans axis k, so the fold is full size; scaled in place
        index *= p * p
        index = index + row
    return index.ravel()


def _image_indices(g: CliffordElement) -> np.ndarray:
    """Point index of g(u) = Fu + a for every point u, in point-index order:
    image coordinate i is the sum a_i + sum_j F_ij u_j broadcast over one
    grid axis per u_j, reduced mod p and folded into the index."""
    p, m = g.p, 2 * g.n
    dtype = np.min_scalar_type((p - 1) * (1 + m * (p - 1)))  # holds every unreduced sum
    steps = (g.F.T[:, :, None] * np.arange(p)).astype(dtype)  # steps[j, i, x] = F_ij x
    images = g.a.astype(dtype).reshape((m,) + (1,) * m)
    for j in reversed(range(m)):  # fastest axis first keeps each addition's inner loop long
        images = images + steps[j].reshape((m,) + (1,) * j + (p,) + (1,) * (m - 1 - j))
    index = np.zeros(images.shape[1:], dtype=np.int64)
    for row in images:
        index *= p
        index += row - row // p * p  # numpy vectorizes floor division by a scalar, not %
    return index.ravel()


def _check_distill_size(p: int, n: int, dense: bool = False) -> None:
    """Reject an instance too large for its route before anything is allocated.

    Every route holds p^(2n) Wigner values and needs p^(2n) <=
    PRODUCT_WIGNER_CAP; a dense input, projector or Kraus channel also needs
    p^n <= ORACLE_DIM_CAP.
    """
    # p >= 2, so p^k exceeds a cap once k passes the cap's bit length; the
    # exponent is clipped there so that a huge n costs no huge power
    if p ** min(2 * n, PRODUCT_WIGNER_CAP.bit_length()) > PRODUCT_WIGNER_CAP:
        raise CircuitError(
            f"distillation needs p^(2n) <= {PRODUCT_WIGNER_CAP} Wigner values, "
            f"got p={p}, n={n}"
        )
    if dense and p ** min(n, ORACLE_DIM_CAP.bit_length()) > ORACLE_DIM_CAP:
        raise CircuitError(
            f"a dense distillation part needs p^n <= {ORACLE_DIM_CAP}, got p={p}, n={n}"
        )


@functools.lru_cache(maxsize=None)
def _stacked_mub_states(p: int) -> np.ndarray:
    """The states of `mub_stabilizer_states(p)` as one read-only (p(p+1), p, p) stack."""
    states = np.stack(mub_stabilizer_states(p).states)
    states.flags.writeable = False
    return states


def random_positive_product_state(p: int, n: int, rng) -> tuple:
    """n random mixtures of single-qudit stabilizer states, the p x p factors
    of a positively represented product state: one Dirichlet draw of n
    weight rows, reduced once over the stacked stabilizer states."""
    states = _stacked_mub_states(p)
    w = rng.dirichlet(np.ones(len(states)), size=n)
    return tuple((w[:, :, None, None] * states).sum(axis=1))


# one shared (frozen) GateCall per distinct call, so a batch of drawn words
# holds pointers rather than a few kilobytes of calls per instance; the cache
# holds at most the n p^2 + n p + n^2 distinct calls of each (p, n)
_gate_call = functools.lru_cache(maxsize=None)(GateCall)


def random_distill_instance(p: int, n: int, rng) -> DistillationInstance:
    """Random Clifford channel (a word of 10 generator draws) + product
    stabilizer projector + positive product input."""
    require_odd_prime(p)
    _check_distill_size(p, n)
    kinds = ["fourier", "quadratic", "multiply", "sum", "displace"]
    word = []
    for _ in range(10):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "multiply":
            c = int(rng.integers(1, p))
            word.append(_gate_call(kind, (int(rng.integers(1, n + 1)),), (("c", c),)))
        elif kind == "sum":
            ctrl = int(rng.integers(1, n + 1))
            tgt = int(rng.integers(1, n))
            if tgt >= ctrl:
                tgt += 1
            word.append(_gate_call(kind, (ctrl, tgt)))
        elif kind == "displace":
            # one full-length draw, applied as one displace call per register
            pt = rng.integers(0, p, size=2 * n).tolist()
            word += [
                _gate_call(kind, (r,), (("point", (pt[2 * r - 2], pt[2 * r - 1])),))
                for r in range(1, n + 1)
            ]
        else:
            word.append(_gate_call(kind, (int(rng.integers(1, n + 1)),)))
    mub = mub_stabilizer_states(p)
    anc = tuple(mub.states[rng.integers(len(mub))] for _ in range(n - 1))
    return DistillationInstance(
        p=p,
        n=n,
        rho_in=random_positive_product_state(p, n, rng),
        channel=("gates", word),
        projector=anc,
    )


def parse_distill_file(path) -> DistillationInstance:
    """`distill p=<p> n=<n>`, then input/channel/projector lines.

    `input product` and `projector zero` are kept as tuples of p x p
    factors; `matrix-file:` parts and `kraus-file:` channels are dense and
    checked against the dense cap on their own line, before the file is read.
    """
    path = Path(path)
    base_dir = path.parent
    lines = content_lines(path.read_text())
    if not lines:
        raise CircuitError(f"{path}: empty distillation file")
    num, head = lines[0]
    with at_line(num):
        m = re.match(r"^distill\s+p=(\d+)\s+n=(\d+)$", head)
        if not m:
            raise CircuitError(f"expected 'distill p=<p> n=<n>', got {head!r}")
        p, n = int(m.group(1)), int(m.group(2))
        require_odd_prime(p)
        if n < 2:
            raise CircuitError("distillation needs n >= 2 (output + ancilla)")
        _check_distill_size(p, n)
    rho_in = channel = projector = None
    asserted, seen = False, set()
    for num, line in lines[1:]:
        with at_line(num):
            key, _, rest = line.partition(" ")
            rest = rest.strip()
            if key in seen:
                raise CircuitError(f"duplicate {key!r} line")
            seen.add(key)
            if key == "input":
                if rest.startswith("matrix-file:"):
                    _check_distill_size(p, n, dense=True)
                    rho_in = load_matrix_file(base_dir / rest.split(":", 1)[1])
                elif rest.startswith("product "):
                    specs = rest.split()[1:]
                    if len(specs) != n:
                        raise CircuitError(f"input product needs {n} presets")
                    rho_in = tuple(preset_state(s, p, base_dir)[0] for s in specs)
                else:
                    raise CircuitError(f"bad input spec {rest!r}")
            elif key == "channel":
                if rest.startswith("gates "):
                    word = parse_gate_word(rest.split(" ", 1)[1], p)
                    require_registers([r for call in word for r in call.regs], n)
                    channel = ("gates", word)
                elif rest.startswith("kraus-file:"):
                    _check_distill_size(p, n, dense=True)
                    tokens = rest.split()
                    kfile = tokens[0].split(":", 1)[1]
                    asserted = "positivity-asserted" in tokens[1:]
                    channel = ("kraus", load_kraus_file(base_dir / kfile, p**n))
                else:
                    raise CircuitError(f"bad channel spec {rest!r}")
            elif key == "projector":
                if rest == "zero":
                    projector = (preset_state("zero", p, base_dir)[0],) * (n - 1)
                elif rest.startswith("matrix-file:"):
                    _check_distill_size(p, n, dense=True)
                    projector = load_matrix_file(base_dir / rest.split(":", 1)[1])
                else:
                    raise CircuitError(f"bad projector spec {rest!r}")
            else:
                raise CircuitError(f"unknown distill directive {key!r}")
    if rho_in is None or channel is None or projector is None:
        raise CircuitError(f"{path}: need input, channel and projector lines")
    return DistillationInstance(
        p=p, n=n, rho_in=rho_in, channel=channel, projector=projector,
        positivity_asserted=asserted,
    )
