"""Circuit documents and friends: parsing, file formats, program validation.

Line-oriented grammar (optional leading `format 1` line, `#` comments):

    qudits p=<prime> n=<count>
    input <reg> <preset>         preset: zero | basis(k) | mixed |
                                 wigner-file:<path> | matrix-file:<path>
    gate <word>                  word: generator calls joined by ';'
    displace <reg> (<a1>,<a2>)   a gate item of one displace call
    measure <reg> <povm> [branch: <out>-><label> ...]
    extend <count> <preset>
    label <name>:

Control flow: execution runs item by item; a measure with a branch table
jumps to the chosen label; reaching a label line sequentially (or EOF) ends
the path.  Branch targets must lie strictly ahead.  Every path must measure
each register exactly once, always the highest-indexed unmeasured one.

Each generator call is parsed once into a `GateCall`, and a `displace` line
is a gate item whose word is its one displace call.  A call's map and
unitary live in `weyl`, keyed by the call's kind and params.  An `extend`
item holds one state, which each of its `count` appended registers starts
in.

The same module reads the files a document refers to (Wigner, matrix, POVM
and Kraus files) and slice files.  Matrix, POVM and Kraus files are blocks
of row-major `re imag` pairs under a `dim <d>` or `effect <label>` header,
all read by `_matrix_blocks`.  Every parser, here and in `simulate`, runs
each line inside the `at_line` guard, the one place that names a line in a
CircuitError: an error from within a referenced file names that file and
its own line.
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from .geometry import DEFAULT_AXIS, SliceSpec
from .stabilizer import require_capped_p
from .wigner import NEG_TOL, Povm, state_from_wigner, wigner_of_effect, wigner_of_state

__all__ = [
    "CircuitError",
    "GateCall",
    "GateInstr",
    "MeasureInstr",
    "ExtendInstr",
    "LabelMarker",
    "CircuitProgram",
    "ValidationReport",
    "parse_circuit",
    "parse_circuit_file",
    "validate_circuit",
    "parse_rational",
    "parse_point",
    "load_matrix_file",
    "load_kraus_file",
    "load_wigner_file",
    "load_wigner_state",
    "load_povm_file",
    "computational_povm",
    "preset_state",
    "parse_slice_file",
    "at_line",
    "content_lines",
    "parse_gate_word",
    "require_registers",
    "MAX_REGISTERS",
]

# Registers on any path, so that no per-register list grows without bound
# (the sampler bounds its chunks in bytes)
MAX_REGISTERS = 256


class CircuitError(ValueError):
    """Structured parse/validation failure with a line reference.

    A failed validation also carries the validator's `problems` list.
    """

    def __init__(self, message: str, line: Optional[int] = None, problems: tuple = ()):
        self.line = line
        self.problems = problems
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


@contextlib.contextmanager
def at_line(num: Optional[int], path=None):
    """Re-raise a CircuitError without a line, or a plain ValueError, as a
    CircuitError naming line `num` (and `path`, in a file a document refers
    to); one that names a line already, e.g. from a referenced file, passes."""
    try:
        yield
    except ValueError as exc:
        if isinstance(exc, CircuitError) and exc.line is not None:
            raise
        where = f"{path}: " if path is not None else ""
        raise CircuitError(where + str(exc), num) from exc


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CircuitError(f"bad {what} {text!r}") from None


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CircuitError(f"bad rational {text!r}: {exc}") from exc


_POINT_RE = re.compile(r"^\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")


def parse_point(text: str, p: int) -> tuple[int, int]:
    m = _POINT_RE.match(text.strip())
    if not m:
        raise CircuitError(f"bad phase-space point {text!r}, expected (a1,a2)")
    return int(m.group(1)) % p, int(m.group(2)) % p


# --- matrix / wigner / povm files -------------------------------------------

def content_lines(text: str, path=None) -> list[tuple[int, str]]:
    """Non-empty, comment-stripped lines with 1-based numbers; drops a
    leading `format <k>` line after checking the version (an error names
    `path`, for a file a document refers to)."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    if out and out[0][1].startswith("format"):
        num, head = out.pop(0)
        with at_line(num, path):
            if head.split() != ["format", "1"]:
                raise CircuitError(f"unsupported format version {head!r}")
    return out


def _matrix_blocks(path, lines, keyword: str, size: Optional[int] = None) -> list:
    """(argument, matrix) for each block of `lines`: a `<keyword> <argument>`
    header line, then the matrix's `re imag` pairs, row-major, each a
    finite number.  A `dim` block is d x d for its argument d, which must
    equal size when size is given; an `effect` block (argument: its label)
    is size x size."""
    starts = [k for k, (_, line) in enumerate(lines) if k == 0 or line.startswith(keyword)]
    blocks = []
    for k, end in zip(starts, starts[1:] + [len(lines)]):
        (num, head), rows = lines[k], lines[k + 1 : end]
        values: list[float] = []
        for row_num, row in rows:
            with at_line(row_num, path):
                row_values = [float(t) for t in row.split()]
                if not np.isfinite(row_values).all():  # NaN passes every sign test
                    raise CircuitError(f"non-finite number in {row!r}")
                values += row_values
        with at_line(num, path):
            word, arg = (head.split(None, 1) + [""])[:2]
            if keyword == "dim":
                if word != "dim":
                    raise CircuitError("expected 'dim <d>' block header")
                d = int(arg) if arg.isdecimal() else 0
                if d < 1:
                    raise CircuitError(f"bad dim header {head!r}")
                if size is not None and d != size:
                    raise CircuitError(f"block is dim {d}, expected dim {size}")
                need = f"block needs {2 * d * d} numbers"
            else:
                if word != keyword or not arg:
                    raise CircuitError(f"expected '{keyword} <label>'")
                d = size
                need = f"{keyword} {arg!r} needs {d}x{d} entries"
            if len(values) != 2 * d * d:
                raise CircuitError(need)
        pairs = np.array(values)
        blocks.append((arg, (pairs[0::2] + 1j * pairs[1::2]).reshape(d, d)))
    return blocks


def load_matrix_file(path) -> np.ndarray:
    """One `dim <d>` block: the header, then d*d `re imag` pairs, row-major."""
    blocks = _matrix_blocks(path, content_lines(Path(path).read_text(), path), "dim")
    if len(blocks) != 1:
        raise CircuitError(f"{path}: expected one 'dim <d>' block, found {len(blocks)}")
    return blocks[0][1]


def load_kraus_file(path, dim: int) -> list:
    """Kraus operators: one or more `dim <dim>` blocks, each as in a matrix file."""
    blocks = _matrix_blocks(path, content_lines(Path(path).read_text(), path), "dim", dim)
    if not blocks:
        raise CircuitError(f"{path}: no Kraus blocks found")
    return [K for _, K in blocks]


def load_wigner_file(path, p: int) -> list:
    """`wigner p=<p>` header then p^2 lines `a1 a2 value`, one per point;
    returns exact values in point-index order."""
    lines = content_lines(Path(path).read_text(), path)
    num, head = lines[0] if lines else (None, "")
    with at_line(num, path):
        if not head.startswith("wigner"):
            raise CircuitError("missing 'wigner p=<p>' header")
        m = re.match(r"^wigner\s+p=(\d+)$", head)
        if not m or int(m.group(1)) != p:
            raise CircuitError(f"header {head!r} does not declare p={p}")
    values: dict[int, Fraction] = {}
    for num, line in lines[1:]:
        with at_line(num, path):
            parts = line.split()
            if len(parts) != 3:
                raise CircuitError("expected 'a1 a2 value'")
            a1, a2 = (_int(t, "coordinate") % p for t in parts[:2])
            if a1 * p + a2 in values:
                raise CircuitError(f"point {(a1, a2)} given twice")
            values[a1 * p + a2] = parse_rational(parts[2])
    if len(values) != p * p:
        raise CircuitError(f"{path}: need each of the {p * p} points exactly once")
    return [values[i] for i in range(p * p)]


def load_wigner_state(path, p: int) -> tuple[np.ndarray, list]:
    """A single-qudit Wigner file as (density matrix, its exact values)."""
    w = load_wigner_file(path, p)
    return state_from_wigner([float(x) for x in w], p, 1), w


def computational_povm(p: int) -> Povm:
    effects = []
    for k in range(p):
        E = np.zeros((p, p), dtype=complex)
        E[k, k] = 1.0
        effects.append(E)
    return Povm(tuple(str(k) for k in range(p)), tuple(effects))


def load_povm_file(path, p: int) -> Povm:
    """`povm p=<p> outcomes=<k>` then k `effect <label>` blocks of p x p
    `re imag` pairs."""
    lines = content_lines(Path(path).read_text(), path)
    if not lines:
        raise CircuitError(f"{path}: empty POVM file")
    num, head = lines[0]
    with at_line(num, path):
        m = re.match(r"^povm\s+p=(\d+)\s+outcomes=(\d+)$", head)
        if not m or int(m.group(1)) != p:
            raise CircuitError(f"bad header {head!r}")
    blocks = _matrix_blocks(path, lines[1:], "effect", p)
    if len(blocks) != int(m.group(2)):
        raise CircuitError(f"{path}: header promised {m.group(2)} outcomes, found {len(blocks)}")
    try:
        return Povm(tuple(label for label, _ in blocks), tuple(E for _, E in blocks))
    except ValueError as exc:
        raise CircuitError(f"{path}: {exc}") from exc


# --- input presets ----------------------------------------------------------

_BASIS_RE = re.compile(r"^basis\((\d+)\)$")


def preset_state(spec: str, p: int, base_dir: Path) -> tuple[np.ndarray, str]:
    """Single-qudit density matrix for an input/extend preset."""
    spec = spec.strip()
    if spec == "zero":
        spec = "basis(0)"
    m = _BASIS_RE.match(spec)
    if m:
        k = int(m.group(1))
        if not 0 <= k < p:
            raise CircuitError(f"basis({k}) out of range for p={p}")
        rho = np.zeros((p, p), dtype=complex)
        rho[k, k] = 1.0
        return rho, spec
    if spec == "mixed":
        return np.eye(p, dtype=complex) / p, spec
    if spec.startswith("wigner-file:"):
        rho, _ = load_wigner_state(base_dir / spec.split(":", 1)[1], p)
        return rho, spec
    if spec.startswith("matrix-file:"):
        rho = load_matrix_file(base_dir / spec.split(":", 1)[1])
        if rho.shape != (p, p):
            raise CircuitError(f"{spec}: expected a {p}x{p} state matrix")
        return rho, spec
    raise CircuitError(f"unknown preset {spec!r}")


# --- instructions -----------------------------------------------------------

@dataclass(frozen=True)
class GateCall:
    """A generator call: kind, registers ([ctrl, tgt] for sum) and the other
    parameters as (name, value) pairs (multiply's `c` mod p, displace's `point`)."""

    kind: str
    regs: tuple
    params: tuple = ()


@dataclass
class GateInstr:
    word: list  # [GateCall, ...] in application order; one displace call for a displace line
    line: int


@dataclass
class MeasureInstr:
    reg: int
    povm: Povm
    povm_name: str
    branch: Optional[dict]  # outcome label -> item index
    line: int


@dataclass
class ExtendInstr:
    count: int
    preset: str
    state: np.ndarray  # the density matrix of each appended register
    line: int


@dataclass
class LabelMarker:
    name: str
    line: int


_GATE_CALL_RE = re.compile(r"^(\w+)\(([^()]*)\)$")


def parse_gate_word(word: str, p: int) -> list:
    if not word.strip():
        raise CircuitError("empty gate word")
    calls = []
    for chunk in word.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise CircuitError("empty gate call in word (stray ';'?)")
        m = _GATE_CALL_RE.match(chunk)
        if not m:
            raise CircuitError(f"bad gate call {chunk!r}")
        name = m.group(1)
        args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
        if not all(re.fullmatch(r"[+-]?\d+", a) for a in args):
            raise CircuitError(f"gate arguments must be integers in {chunk!r}")
        nums = [int(a) for a in args]
        if name == "fourier" or name == "quadratic":
            if len(nums) != 1:
                raise CircuitError(f"{name} takes one register argument")
            calls.append(GateCall(name, (nums[0],)))
        elif name == "multiply":
            if len(nums) != 2:
                raise CircuitError("multiply takes (c, register)")
            if nums[0] % p == 0:
                raise CircuitError("multiply constant must be nonzero mod p")
            calls.append(GateCall(name, (nums[1],), (("c", nums[0] % p),)))
        elif name == "sum":
            if len(nums) != 2 or nums[0] == nums[1]:
                raise CircuitError("sum takes distinct (ctrl, tgt)")
            calls.append(GateCall(name, (nums[0], nums[1])))
        else:
            raise CircuitError(f"unknown gate {name!r}")
    return calls


# --- program ----------------------------------------------------------------

@dataclass
class CircuitProgram:
    p: int
    n: int  # initial register count
    inputs: list  # density matrices for registers 1..n
    input_specs: list
    items: list  # instruction/label sequence
    max_registers: int = 0
    reached: set = field(default_factory=set)  # indices of the items some path runs


def parse_circuit_file(path) -> CircuitProgram:
    path = Path(path)
    return parse_circuit(path.read_text(), base_dir=path.parent)


def parse_circuit(text: str, base_dir=None) -> CircuitProgram:
    """Parse and structurally check a circuit document.

    Enforced here: grammar, register ranges, label resolution with strictly
    forward branch targets, total branch tables, and the measurement-order
    rule (always the highest-indexed unmeasured register) on every path.
    """
    base_dir = Path(base_dir) if base_dir is not None else Path(".")
    lines = content_lines(text)
    if not lines:
        raise CircuitError("empty circuit document")
    num, head = lines[0]
    with at_line(num):
        m = re.match(r"^qudits\s+p=(\d+)\s+n=(\d+)$", head)
        if not m:
            raise CircuitError(f"expected 'qudits p=<prime> n=<count>', got {head!r}")
        p, n = int(m.group(1)), int(m.group(2))
        require_capped_p(p)
        if n < 1:
            raise CircuitError(f"need at least one register, got n={n}")
        if n > MAX_REGISTERS:
            raise CircuitError(f"n={n} exceeds the register cap {MAX_REGISTERS}")

    inputs: dict[int, tuple[np.ndarray, str]] = {}
    items: list = []
    labels: dict[str, int] = {}
    pending_branches: list[tuple[int, dict]] = []  # item idx, raw table

    for num, line in lines[1:]:
        with at_line(num):
            parts = line.split(None, 1)
            key, rest = parts[0], (parts[1] if len(parts) > 1 else "")
            if key == "input":
                sub = rest.split(None, 1)
                if len(sub) != 2:
                    raise CircuitError("input needs '<reg> <preset>'")
                reg = _int(sub[0], "register")
                if not 1 <= reg <= n:
                    raise CircuitError(f"input register {reg} out of range 1..{n}")
                if reg in inputs:
                    raise CircuitError(f"register {reg} given two inputs")
                if items:
                    raise CircuitError("inputs must precede instructions")
                inputs[reg] = preset_state(sub[1], p, base_dir)
                last_input = num
            elif key == "gate":
                items.append(GateInstr(parse_gate_word(rest, p), num))
            elif key == "displace":
                sub = rest.split(None, 1)
                if len(sub) != 2:
                    raise CircuitError("displace needs '<reg> (<a1>,<a2>)'")
                reg = _int(sub[0], "register")
                point = (("point", parse_point(sub[1], p)),)
                items.append(GateInstr([GateCall("displace", (reg,), point)], num))
            elif key == "measure":
                sub = rest.split()
                if not sub:
                    raise CircuitError("measure needs '<reg> <povm>'")
                reg = _int(sub[0], "register")
                if len(sub) < 2:
                    raise CircuitError("measure needs a POVM name or file")
                povm_name = sub[1]
                if povm_name == "computational":
                    povm = computational_povm(p)
                elif povm_name.startswith("povm-file:"):
                    povm = load_povm_file(base_dir / povm_name.split(":", 1)[1], p)
                else:
                    raise CircuitError(f"unknown POVM {povm_name!r}")
                branch_raw = None
                if len(sub) > 2:
                    if sub[2] != "branch:":
                        raise CircuitError(f"unexpected token {sub[2]!r} after POVM")
                    branch_raw = {}
                    for tok in sub[3:]:
                        if "->" not in tok:
                            raise CircuitError(f"bad branch entry {tok!r}")
                        out, target = tok.split("->", 1)
                        if out in branch_raw:
                            raise CircuitError(f"duplicate branch outcome {out!r}")
                        branch_raw[out] = target
                    if not branch_raw:
                        raise CircuitError("empty branch table")
                items.append(MeasureInstr(reg, povm, povm_name, None, num))
                if branch_raw is not None:
                    pending_branches.append((len(items) - 1, branch_raw))
            elif key == "extend":
                sub = rest.split(None, 1)
                if len(sub) != 2:
                    raise CircuitError("extend needs '<count> <preset>'")
                count = _int(sub[0], "count")
                if count < 1:
                    raise CircuitError(f"extend count must be positive, got {count}")
                if count > MAX_REGISTERS:
                    raise CircuitError(
                        f"extend count {count} exceeds the register cap {MAX_REGISTERS}"
                    )
                rho, spec = preset_state(sub[1], p, base_dir)
                items.append(ExtendInstr(count, spec, rho, num))
            elif key == "label":
                name = rest.strip()
                if not name.endswith(":"):
                    raise CircuitError("label line must end with ':'")
                name = name[:-1].strip()
                if not name:
                    raise CircuitError("empty label name")
                if name in labels:
                    raise CircuitError(f"duplicate label {name!r}")
                labels[name] = len(items)
                items.append(LabelMarker(name, num))
            else:
                raise CircuitError(f"unknown directive {key!r}")

    missing = [r for r in range(1, n + 1) if r not in inputs]
    if missing:
        raise CircuitError(f"no input given for registers {missing}")

    for item_idx, raw in pending_branches:
        instr = items[item_idx]
        with at_line(instr.line):
            table = {}
            for out, target in raw.items():
                if out not in instr.povm.labels:
                    raise CircuitError(
                        f"branch outcome {out!r} is not a POVM outcome of {instr.povm_name}"
                    )
                if target not in labels:
                    raise CircuitError(f"unknown branch target {target!r}")
                if labels[target] <= item_idx:
                    raise CircuitError(f"branch target {target!r} must lie ahead")
                # resume just past the marker; falling onto a marker sequentially
                # is what ends a path
                table[out] = labels[target] + 1
            if set(table) != set(instr.povm.labels):
                missing_out = sorted(set(instr.povm.labels) - set(table))
                raise CircuitError(f"branch table not total, missing outcomes {missing_out}")
        instr.branch = table

    prog = CircuitProgram(
        p=p,
        n=n,
        inputs=[inputs[r][0] for r in range(1, n + 1)],
        input_specs=[inputs[r][1] for r in range(1, n + 1)],
        items=items,
    )
    prog.max_registers, prog.reached = _check_paths(prog, last_input)
    return prog


def _check_paths(prog: CircuitProgram, start_line: int) -> tuple[int, set]:
    """Walk every control path; enforce the measurement-order rule,
    measure-exactly-once, register ranges and the register cap; return the
    maximum register count and the indices of the items some path runs.

    An error names its item's line; a path that reaches the end of the file
    names the line it came from (its last item, the measure that branched
    into it, or `start_line`, the last input, when it has no item)."""
    max_regs = prog.n
    reached: set = set()
    seen: set = set()
    stack = [(0, prog.n, frozenset(), start_line)]
    while stack:
        i, n_cur, measured, from_line = stack.pop()
        state_key = (i, n_cur, measured)
        if state_key in seen:
            continue
        seen.add(state_key)
        max_regs = max(max_regs, n_cur)
        instr = prog.items[i] if i < len(prog.items) else None
        with at_line(instr.line if instr is not None else from_line):
            if instr is None or isinstance(instr, LabelMarker):
                # path ends here (EOF or fell onto a label)
                unmeasured = [r for r in range(1, n_cur + 1) if r not in measured]
                if unmeasured:
                    raise CircuitError(f"path ends with unmeasured registers {unmeasured}")
                continue
            reached.add(i)
            if isinstance(instr, GateInstr):
                for r in [r for call in instr.word for r in call.regs]:
                    require_registers([r], n_cur)
                    if r in measured:
                        raise CircuitError(f"register {r} already measured")
                stack.append((i + 1, n_cur, measured, instr.line))
            elif isinstance(instr, ExtendInstr):
                if n_cur + instr.count > MAX_REGISTERS:
                    raise CircuitError(
                        f"extend to {n_cur + instr.count} registers exceeds the register cap "
                        f"{MAX_REGISTERS}"
                    )
                stack.append((i + 1, n_cur + instr.count, measured, instr.line))
            elif isinstance(instr, MeasureInstr):
                unmeasured = [r for r in range(1, n_cur + 1) if r not in measured]
                highest = max(unmeasured) if unmeasured else None
                if instr.reg != highest:
                    raise CircuitError(
                        f"measure {instr.reg} violates the order rule; "
                        f"highest unmeasured register is {highest}"
                    )
                measured2 = measured | {instr.reg}
                if instr.branch is None:
                    stack.append((i + 1, n_cur, measured2, instr.line))
                else:
                    for target in instr.branch.values():
                        stack.append((target, n_cur, measured2, instr.line))
            else:
                raise TypeError(f"unexpected item {instr!r}")
    return max_regs, reached


@dataclass
class ValidationReport:
    ok: bool
    problems: list
    # Wigner values of each state that passed its PSD check: one array per
    # input register and one per extend item
    input_wigners: list
    extend_wigners: dict  # item idx -> values
    effect_wigners: dict  # measure item idx -> [values], one per effect


def validate_circuit(prog: CircuitProgram) -> ValidationReport:
    """Physical validation: state and effect positivity, gate registers.

    A gate item is a word of generator calls, each an affine symplectic map
    by construction, so no map is composed and no unitary is built.  The
    parser checked register ranges on every path; an item no path reaches is
    checked here, at the initial register count.
    The Wigner values computed for the sign tests of states and effects are
    kept for the sampler.
    """
    problems = []
    input_wigners = []
    for reg, (rho, spec) in enumerate(zip(prog.inputs, prog.input_specs), start=1):
        try:
            W = wigner_of_state(rho, prog.p)  # validates the state first
        except ValueError as exc:
            problems.append(f"input {reg} ({spec}): {exc}")
            continue
        input_wigners.append(W.values)
        worst = int(np.argmin(W.values))
        if W.values[worst] < -NEG_TOL:
            problems.append(
                f"input {reg} ({spec}): negative Wigner value {W.values[worst]:.6g} "
                f"at point ({worst // prog.p},{worst % prog.p})"
            )
    extend_wigners = {}
    effect_wigners = {}
    for i, instr in enumerate(prog.items):
        if isinstance(instr, ExtendInstr):
            try:
                W = wigner_of_state(instr.state, prog.p)
            except ValueError as exc:
                problems.append(f"extend ({instr.preset}): {exc}")
                continue
            extend_wigners[i] = W.values
            if W.values.min() < -NEG_TOL:
                problems.append(
                    f"extend ({instr.preset}): negative Wigner value {W.values.min():.6g}"
                )
        elif isinstance(instr, MeasureInstr):
            effect_wigners[i] = []
            for label, E in zip(instr.povm.labels, instr.povm.effects):
                WE = wigner_of_effect(E, prog.p)
                effect_wigners[i].append(WE.values)
                worst = int(np.argmin(WE.values))
                if WE.values[worst] < -NEG_TOL:
                    problems.append(
                        f"measure {instr.reg} ({instr.povm_name}) effect {label!r}: "
                        f"negative Wigner value {WE.values[worst]:.6g} "
                        f"at point ({worst // prog.p},{worst % prog.p})"
                    )
    for i, instr in enumerate(prog.items):
        if isinstance(instr, GateInstr) and i not in prog.reached:
            try:
                require_registers([r for c in instr.word for r in c.regs], prog.n)
            except CircuitError as exc:
                problems.append(f"line {instr.line}: {exc}")
    return ValidationReport(
        ok=not problems,
        problems=problems,
        input_wigners=input_wigners,
        extend_wigners=extend_wigners,
        effect_wigners=effect_wigners,
    )


def require_registers(regs, n: int) -> None:
    """Raise for the first of `regs` outside 1..n."""
    for r in regs:
        if not 1 <= r <= n:
            raise CircuitError(f"register {r} out of range 1..{n}")


# --- slice files ------------------------------------------------------------

def parse_slice_file(path):
    """`slice p=3`, then `fixed (a1,a2) <rational>` and `free (a1,a2) ...` lines."""
    lines = content_lines(Path(path).read_text())
    if not lines:
        raise CircuitError(f"{path}: empty slice file")
    num, head = lines[0]
    with at_line(num):
        m = re.match(r"^slice\s+p=(\d+)$", head)
        if not m:
            raise CircuitError(f"expected 'slice p=<prime>', got {head!r}")
        p = int(m.group(1))
        if p != 3:  # before any point is reduced mod p
            raise CircuitError("slice scans are defined for p=3")
    fixed: dict = {}
    free: list = []
    for num, line in lines[1:]:
        with at_line(num):
            parts = line.split()
            if parts[0] == "fixed":
                if len(parts) != 3:
                    raise CircuitError("fixed needs '(a1,a2) <value>'")
                pt = parse_point(parts[1], p)
                if pt in fixed:
                    raise CircuitError(f"point {pt} fixed twice")
                fixed[pt] = parse_rational(parts[2])
            elif parts[0] == "free":
                if len(parts) == 2:
                    free.append((parse_point(parts[1], p), DEFAULT_AXIS))
                elif len(parts) == 3 and parts[2] == "derived":
                    free.append((parse_point(parts[1], p), None))
                elif len(parts) == 5:
                    free.append(
                        (
                            parse_point(parts[1], p),
                            tuple(parse_rational(t) for t in parts[2:5]),
                        )
                    )
                else:
                    raise CircuitError(
                        "free needs '(a1,a2)' plus optional '<lo> <hi> <step>' or 'derived'"
                    )
            else:
                raise CircuitError(f"unknown slice directive {parts[0]!r}")
    try:
        return SliceSpec(p, fixed, free)
    except ValueError as exc:
        raise CircuitError(f"{path}: {exc}") from exc
