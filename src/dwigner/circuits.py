"""Circuit documents and friends: parsing, file formats, program validation.

Line-oriented grammar (optional leading `format 1` line, `#` comments):

    qudits p=<prime> n=<count>
    input <reg> <preset>         preset: zero | basis(k) | mixed |
                                 wigner-file:<path> | matrix-file:<path>
    gate <word>                  word: generator calls joined by ';'
    displace <reg> (<a1>,<a2>)
    measure <reg> <povm> [branch: <out>-><label> ...]
    extend <count> <preset>
    label <name>:

Control flow: execution runs item by item; a measure with a branch table
jumps to the chosen label; reaching a label line sequentially (or EOF) ends
the path.  Branch targets must lie strictly ahead.  Every path must measure
each register exactly once, always the highest-indexed unmeasured one.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from .fields import CliffordElement, require_odd_prime
from .weyl import _embed_F, clifford_generator, extract_symplectic
from .wigner import Povm, state_from_wigner, wigner_of_effect, wigner_of_state

__all__ = [
    "CircuitError",
    "GateInstr",
    "DisplaceInstr",
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
    "write_matrix_file",
    "load_wigner_file",
    "load_povm_file",
    "computational_povm",
    "preset_state",
    "parse_slice_file",
]


class CircuitError(ValueError):
    """Structured parse/validation failure with a line reference.

    A failed validation also carries the validator's `problems` list.
    """

    def __init__(self, message: str, line: Optional[int] = None, problems: tuple = ()):
        self.line = line
        self.problems = problems
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


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

def _content_lines(text: str) -> list[tuple[int, str]]:
    """Non-empty, comment-stripped lines with 1-based numbers; drops a
    leading `format <k>` line after checking the version."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    if out and out[0][1].startswith("format"):
        parts = out[0][1].split()
        if len(parts) != 2 or parts[1] != "1":
            raise CircuitError(f"unsupported format version {out[0][1]!r}", out[0][0])
        out = out[1:]
    return out


def _dim_header(path, num: int, line: str) -> int:
    """d from a `dim <d>` header line."""
    try:
        d = int(line.split()[1])
    except (IndexError, ValueError):
        d = 0
    if d < 1:
        raise CircuitError(f"{path}: bad dim header {line!r}", num)
    return d


def _complex_matrix(tokens: list, d: int) -> np.ndarray:
    """d x d matrix from row-major `re imag` token pairs."""
    vals = np.array([float(t) for t in tokens])
    return (vals[0::2] + 1j * vals[1::2]).reshape(d, d)


def load_matrix_file(path) -> np.ndarray:
    """`dim <d>` header then d*d whitespace-separated `re imag` pairs, row-major."""
    lines = _content_lines(Path(path).read_text())
    if not lines or not lines[0][1].startswith("dim"):
        raise CircuitError(f"{path}: missing 'dim <d>' header")
    d = _dim_header(path, *lines[0])
    tokens = " ".join(line for _, line in lines[1:]).split()
    if len(tokens) != 2 * d * d:
        raise CircuitError(
            f"{path}: expected {2 * d * d} numbers for a {d}x{d} matrix, got {len(tokens)}"
        )
    return _complex_matrix(tokens, d)


def write_matrix_file(path, M: np.ndarray) -> None:
    d = M.shape[0]
    lines = [f"dim {d}"]
    for r in range(d):
        lines.append(
            " ".join(f"{M[r, c].real:.17g} {M[r, c].imag:.17g}" for c in range(d))
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_wigner_file(path, p: int) -> list:
    """`wigner p=<p>` header then p^2 lines `a1 a2 value`; returns exact values
    in point-index order."""
    lines = _content_lines(Path(path).read_text())
    if not lines or not lines[0][1].startswith("wigner"):
        raise CircuitError(f"{path}: missing 'wigner p=<p>' header")
    m = re.match(r"^wigner\s+p=(\d+)$", lines[0][1])
    if not m or int(m.group(1)) != p:
        raise CircuitError(f"{path}: header {lines[0][1]!r} does not declare p={p}")
    values: dict[int, Fraction] = {}
    for num, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise CircuitError(f"{path}: expected 'a1 a2 value'", num)
        a1, a2 = int(parts[0]) % p, int(parts[1]) % p
        values[a1 * p + a2] = parse_rational(parts[2])
    if sorted(values) != list(range(p * p)):
        raise CircuitError(f"{path}: need each of the {p * p} points exactly once")
    return [values[i] for i in range(p * p)]


def computational_povm(p: int) -> Povm:
    effects = []
    for k in range(p):
        E = np.zeros((p, p), dtype=complex)
        E[k, k] = 1.0
        effects.append(E)
    return Povm(tuple(str(k) for k in range(p)), tuple(effects))


def load_povm_file(path, p: int) -> Povm:
    """`povm p=<p> outcomes=<k>` then per effect: `effect <label>` + matrix rows."""
    lines = _content_lines(Path(path).read_text())
    if not lines:
        raise CircuitError(f"{path}: empty POVM file")
    m = re.match(r"^povm\s+p=(\d+)\s+outcomes=(\d+)$", lines[0][1])
    if not m or int(m.group(1)) != p:
        raise CircuitError(f"{path}: bad header {lines[0][1]!r}")
    expected = int(m.group(2))
    labels, effects = [], []
    i = 1
    while i < len(lines):
        num, line = lines[i]
        parts = line.split(None, 1)
        if parts[0] != "effect" or len(parts) != 2:
            raise CircuitError(f"{path}: expected 'effect <label>'", num)
        labels.append(parts[1].strip())
        tokens: list[str] = []
        i += 1
        while i < len(lines) and not lines[i][1].startswith("effect"):
            tokens.extend(lines[i][1].split())
            i += 1
        if len(tokens) != 2 * p * p:
            raise CircuitError(f"{path}: effect {labels[-1]!r} needs {p}x{p} entries", num)
        effects.append(_complex_matrix(tokens, p))
    if len(labels) != expected:
        raise CircuitError(f"{path}: header promised {expected} outcomes, found {len(labels)}")
    try:
        return Povm(tuple(labels), tuple(effects))
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
        w = load_wigner_file(base_dir / spec.split(":", 1)[1], p)
        rho = state_from_wigner([float(x) for x in w], p, 1)
        return rho, spec
    if spec.startswith("matrix-file:"):
        rho = load_matrix_file(base_dir / spec.split(":", 1)[1])
        if rho.shape != (p, p):
            raise CircuitError(f"{spec}: expected a {p}x{p} state matrix")
        return rho, spec
    raise CircuitError(f"unknown preset {spec!r}")


# --- instructions -----------------------------------------------------------

@dataclass
class GateInstr:
    word: list  # [(kind, kwargs), ...] in application order
    text: str
    line: int


@dataclass
class DisplaceInstr:
    reg: int
    point: tuple[int, int]
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
    states: list  # one density matrix per appended register
    line: int


@dataclass
class LabelMarker:
    name: str
    line: int


_GATE_CALL_RE = re.compile(r"^(\w+)\(([^()]*)\)$")


def _parse_gate_word(word: str, p: int, line: int) -> list:
    if not word.strip():
        raise CircuitError("empty gate word", line)
    calls = []
    for chunk in word.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise CircuitError("empty gate call in word (stray ';'?)", line)
        m = _GATE_CALL_RE.match(chunk)
        if not m:
            raise CircuitError(f"bad gate call {chunk!r}", line)
        name = m.group(1)
        args = [a.strip() for a in m.group(2).split(",")] if m.group(2).strip() else []
        try:
            nums = [int(a) for a in args]
        except ValueError as exc:
            raise CircuitError(f"gate arguments must be integers in {chunk!r}", line) from exc
        if name == "fourier" or name == "quadratic":
            if len(nums) != 1:
                raise CircuitError(f"{name} takes one register argument", line)
            calls.append((name, {"register": nums[0]}))
        elif name == "multiply":
            if len(nums) != 2:
                raise CircuitError("multiply takes (c, register)", line)
            if nums[0] % p == 0:
                raise CircuitError("multiply constant must be nonzero mod p", line)
            calls.append((name, {"c": nums[0], "register": nums[1]}))
        elif name == "sum":
            if len(nums) != 2 or nums[0] == nums[1]:
                raise CircuitError("sum takes distinct (ctrl, tgt)", line)
            calls.append((name, {"ctrl": nums[0], "tgt": nums[1]}))
        else:
            raise CircuitError(f"unknown gate {name!r}", line)
    if not calls:
        raise CircuitError("empty gate word", line)
    return calls


def _gate_registers(call) -> list[int]:
    kind, kw = call
    if kind == "sum":
        return [kw["ctrl"], kw["tgt"]]
    return [kw["register"]]


# --- program ----------------------------------------------------------------

@dataclass
class CircuitProgram:
    p: int
    n: int  # initial register count
    inputs: list  # density matrices for registers 1..n
    input_specs: list
    items: list  # instruction/label sequence
    labels: dict  # name -> item index
    max_registers: int = 0
    register_counts: dict = field(default_factory=dict)  # item idx -> set of counts
    source: str = ""


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
    lines = _content_lines(text)
    if not lines:
        raise CircuitError("empty circuit document")
    num, head = lines[0]
    m = re.match(r"^qudits\s+p=(\d+)\s+n=(\d+)$", head)
    if not m:
        raise CircuitError(f"expected 'qudits p=<prime> n=<count>', got {head!r}", num)
    p, n = int(m.group(1)), int(m.group(2))
    try:
        require_odd_prime(p)
    except ValueError as exc:
        raise CircuitError(str(exc), num) from exc
    if n < 1:
        raise CircuitError(f"need at least one register, got n={n}", num)

    inputs: dict[int, tuple[np.ndarray, str]] = {}
    items: list = []
    labels: dict[str, int] = {}
    pending_branches: list[tuple[int, dict, int]] = []  # item idx, raw table, line

    for num, line in lines[1:]:
        parts = line.split(None, 1)
        key, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        if key == "input":
            sub = rest.split(None, 1)
            if len(sub) != 2:
                raise CircuitError("input needs '<reg> <preset>'", num)
            try:
                reg = int(sub[0])
            except ValueError as exc:
                raise CircuitError(f"bad register {sub[0]!r}", num) from exc
            if not 1 <= reg <= n:
                raise CircuitError(f"input register {reg} out of range 1..{n}", num)
            if reg in inputs:
                raise CircuitError(f"register {reg} given two inputs", num)
            if items:
                raise CircuitError("inputs must precede instructions", num)
            try:
                inputs[reg] = (*preset_state(sub[1], p, base_dir),)
            except CircuitError as exc:
                raise CircuitError(str(exc), num) from exc
        elif key == "gate":
            items.append(GateInstr(_parse_gate_word(rest, p, num), rest.strip(), num))
        elif key == "displace":
            sub = rest.split(None, 1)
            if len(sub) != 2:
                raise CircuitError("displace needs '<reg> (<a1>,<a2>)'", num)
            try:
                reg = int(sub[0])
            except ValueError as exc:
                raise CircuitError(f"bad register {sub[0]!r}", num) from exc
            items.append(DisplaceInstr(reg, parse_point(sub[1], p), num))
        elif key == "measure":
            sub = rest.split()
            if not sub:
                raise CircuitError("measure needs '<reg> <povm>'", num)
            try:
                reg = int(sub[0])
            except ValueError as exc:
                raise CircuitError(f"bad register {sub[0]!r}", num) from exc
            if len(sub) < 2:
                raise CircuitError("measure needs a POVM name or file", num)
            povm_name = sub[1]
            if povm_name == "computational":
                povm = computational_povm(p)
            elif povm_name.startswith("povm-file:"):
                povm = load_povm_file(base_dir / povm_name.split(":", 1)[1], p)
            else:
                raise CircuitError(f"unknown POVM {povm_name!r}", num)
            branch_raw = None
            if len(sub) > 2:
                if sub[2] != "branch:":
                    raise CircuitError(f"unexpected token {sub[2]!r} after POVM", num)
                branch_raw = {}
                for tok in sub[3:]:
                    if "->" not in tok:
                        raise CircuitError(f"bad branch entry {tok!r}", num)
                    out, target = tok.split("->", 1)
                    if out in branch_raw:
                        raise CircuitError(f"duplicate branch outcome {out!r}", num)
                    branch_raw[out] = target
                if not branch_raw:
                    raise CircuitError("empty branch table", num)
            items.append(MeasureInstr(reg, povm, povm_name, None, num))
            if branch_raw is not None:
                pending_branches.append((len(items) - 1, branch_raw, num))
        elif key == "extend":
            sub = rest.split(None, 1)
            if len(sub) != 2:
                raise CircuitError("extend needs '<count> <preset>'", num)
            try:
                count = int(sub[0])
            except ValueError as exc:
                raise CircuitError(f"bad count {sub[0]!r}", num) from exc
            if count < 1:
                raise CircuitError(f"extend count must be positive, got {count}", num)
            try:
                rho, spec = preset_state(sub[1], p, base_dir)
            except CircuitError as exc:
                raise CircuitError(str(exc), num) from exc
            items.append(ExtendInstr(count, spec, [rho] * count, num))
        elif key == "label":
            name = rest.strip()
            if not name.endswith(":"):
                raise CircuitError("label line must end with ':'", num)
            name = name[:-1].strip()
            if not name:
                raise CircuitError("empty label name", num)
            if name in labels:
                raise CircuitError(f"duplicate label {name!r}", num)
            labels[name] = len(items)
            items.append(LabelMarker(name, num))
        else:
            raise CircuitError(f"unknown directive {key!r}", num)

    missing = [r for r in range(1, n + 1) if r not in inputs]
    if missing:
        raise CircuitError(f"no input given for registers {missing}")

    for item_idx, raw, num in pending_branches:
        instr = items[item_idx]
        table = {}
        for out, target in raw.items():
            if out not in instr.povm.labels:
                raise CircuitError(
                    f"branch outcome {out!r} is not a POVM outcome of {instr.povm_name}", num
                )
            if target not in labels:
                raise CircuitError(f"unknown branch target {target!r}", num)
            if labels[target] <= item_idx:
                raise CircuitError(f"branch target {target!r} must lie ahead", num)
            # resume just past the marker; falling onto a marker sequentially
            # is what ends a path
            table[out] = labels[target] + 1
        if set(table) != set(instr.povm.labels):
            missing_out = sorted(set(instr.povm.labels) - set(table))
            raise CircuitError(f"branch table not total, missing outcomes {missing_out}", num)
        instr.branch = table

    prog = CircuitProgram(
        p=p,
        n=n,
        inputs=[inputs[r][0] for r in range(1, n + 1)],
        input_specs=[inputs[r][1] for r in range(1, n + 1)],
        items=items,
        labels=labels,
        source=text,
    )
    prog.max_registers, prog.register_counts = _check_paths(prog)
    return prog


def _check_paths(prog: CircuitProgram) -> tuple[int, dict]:
    """Walk every control path; enforce the measurement-order rule and
    measure-exactly-once; return the maximum register count and, per item
    index, the set of register counts it runs under."""
    max_regs = prog.n
    counts: dict[int, set] = {}
    seen: set = set()
    stack = [(0, prog.n, frozenset())]
    while stack:
        i, n_cur, measured = stack.pop()
        state_key = (i, n_cur, measured)
        if state_key in seen:
            continue
        seen.add(state_key)
        max_regs = max(max_regs, n_cur)
        if i >= len(prog.items) or isinstance(prog.items[i], LabelMarker):
            # path ends here (EOF or fell onto a label)
            unmeasured = [r for r in range(1, n_cur + 1) if r not in measured]
            if unmeasured:
                line = prog.items[i].line if i < len(prog.items) else None
                raise CircuitError(
                    f"path ends with unmeasured registers {unmeasured}", line
                )
            continue
        instr = prog.items[i]
        counts.setdefault(i, set()).add(n_cur)
        if isinstance(instr, (GateInstr, DisplaceInstr)):
            regs = (
                [instr.reg]
                if isinstance(instr, DisplaceInstr)
                else [r for call in instr.word for r in _gate_registers(call)]
            )
            for r in regs:
                if not 1 <= r <= n_cur:
                    raise CircuitError(f"register {r} out of range 1..{n_cur}", instr.line)
                if r in measured:
                    raise CircuitError(f"register {r} already measured", instr.line)
            stack.append((i + 1, n_cur, measured))
        elif isinstance(instr, ExtendInstr):
            stack.append((i + 1, n_cur + instr.count, measured))
        elif isinstance(instr, MeasureInstr):
            unmeasured = [r for r in range(1, n_cur + 1) if r not in measured]
            highest = max(unmeasured) if unmeasured else None
            if instr.reg != highest:
                raise CircuitError(
                    f"measure {instr.reg} violates the order rule; "
                    f"highest unmeasured register is {highest}",
                    instr.line,
                )
            measured2 = measured | {instr.reg}
            if instr.branch is None:
                stack.append((i + 1, n_cur, measured2))
            else:
                for target in instr.branch.values():
                    stack.append((target, n_cur, measured2))
        else:
            raise TypeError(f"unexpected item {instr!r}")
    return max_regs, counts


@dataclass
class ValidationReport:
    ok: bool
    problems: list
    gate_maps: dict  # (item idx, register count) -> CliffordElement


def validate_circuit(prog: CircuitProgram) -> ValidationReport:
    """Physical validation: input/effect positivity, per-gate Clifford check.

    Each distinct generator call is certified once per p on its own
    registers: the claimed (F, a) is re-derived by brute-force conjugation of
    its dense unitary and compared, and gates must carry a = 0 (Weyl parts
    belong to displace instructions).  An item's map at each register count
    it runs under is the composition of its embedded certified calls;
    `gate_maps` holds them keyed by (item index, register count).
    """
    problems = []
    for reg, (rho, spec) in enumerate(zip(prog.inputs, prog.input_specs), start=1):
        try:
            W = wigner_of_state(rho, prog.p)  # validates the state first
        except ValueError as exc:
            problems.append(f"input {reg} ({spec}): {exc}")
            continue
        worst = int(np.argmin(W.values))
        if W.values[worst] < -1e-10:
            problems.append(
                f"input {reg} ({spec}): negative Wigner value {W.values[worst]:.6g} "
                f"at point ({worst // prog.p},{worst % prog.p})"
            )
    for instr in prog.items:
        if isinstance(instr, ExtendInstr):
            for rho in instr.states:
                try:
                    W = wigner_of_state(rho, prog.p)
                except ValueError as exc:
                    problems.append(f"extend ({instr.preset}): {exc}")
                    continue
                if W.values.min() < -1e-10:
                    problems.append(
                        f"extend ({instr.preset}): negative Wigner value {W.values.min():.6g}"
                    )
        elif isinstance(instr, MeasureInstr):
            for label, E in zip(instr.povm.labels, instr.povm.effects):
                WE = wigner_of_effect(E, prog.p)
                worst = int(np.argmin(WE.values))
                if WE.values[worst] < -1e-10:
                    problems.append(
                        f"measure {instr.reg} ({instr.povm_name}) effect {label!r}: "
                        f"negative Wigner value {WE.values[worst]:.6g} "
                        f"at point ({worst // prog.p},{worst % prog.p})"
                    )
    gate_maps = {}
    for i, instr in enumerate(prog.items):
        if isinstance(instr, GateInstr):
            calls = instr.word
        elif isinstance(instr, DisplaceInstr):
            calls = [("displace", {"register": instr.reg, "point": instr.point})]
        else:
            continue
        # items no path reaches are still checked, at the initial register count
        for n_cur in prog.register_counts.get(i, {prog.n}):
            g = CliffordElement.identity(prog.p, n_cur)
            try:
                for call in calls:
                    g = _embedded_map(call, prog.p, n_cur).compose(g)
            except CircuitError as exc:
                problems.append(f"line {instr.line}: {exc}")
                continue
            gate_maps[(i, n_cur)] = g
    return ValidationReport(ok=not problems, problems=problems, gate_maps=gate_maps)


@functools.lru_cache(maxsize=None)
def _certified_map(p: int, kind: str, params: tuple) -> CliffordElement:
    """(F, a) of one generator call on its own registers, numbered from 1 in
    their original order: the table's claim, checked against the map
    re-derived from the dense p x p (p^2 x p^2 for sum) unitary."""
    U, claimed = clifford_generator(kind, p, n=2 if kind == "sum" else 1, **dict(params))
    extracted = extract_symplectic(U, p)
    if extracted != claimed:
        raise CircuitError(f"{kind}: extracted (F,a) differs from the claimed map")
    if kind != "displace" and extracted.a.any():
        raise CircuitError(
            f"gate carries a Weyl displacement {tuple(extracted.a)}; use a displace instruction"
        )
    return extracted


def _embedded_map(call, p: int, n: int) -> CliffordElement:
    """The certified map of a generator call, embedded into n registers.

    The call's unitary is its local unitary tensored with the identity on the
    other registers (up to reordering tensor factors, which keeps the local
    order), and T_u factorizes over registers, so (F, a) acts on the call's
    blocks as certified and as the identity elsewhere.
    """
    kind, kw = call
    regs = sorted(_gate_registers(call))
    for r in regs:
        if not 1 <= r <= n:
            raise CircuitError(f"register {r} out of range 1..{n}")
    params = {k: v for k, v in kw.items() if k not in ("register", "ctrl", "tgt")}
    if kind == "sum":
        params["ctrl"], params["tgt"] = (1, 2) if kw["ctrl"] < kw["tgt"] else (2, 1)
    local = _certified_map(p, kind, tuple(sorted(params.items())))
    a = np.zeros(2 * n, dtype=np.int64)
    for j, r in enumerate(regs):
        a[2 * r - 2 : 2 * r] = local.a[2 * j : 2 * j + 2]
    return CliffordElement(_embed_F(local.F, n, regs), a, p)


# --- slice files ------------------------------------------------------------

def parse_slice_file(path):
    """`slice p=3`, then `fixed (a1,a2) <rational>` and `free (a1,a2) ...` lines."""
    from .geometry import DEFAULT_AXIS, SliceSpec

    lines = _content_lines(Path(path).read_text())
    if not lines:
        raise CircuitError(f"{path}: empty slice file")
    num, head = lines[0]
    m = re.match(r"^slice\s+p=(\d+)$", head)
    if not m:
        raise CircuitError(f"expected 'slice p=<prime>', got {head!r}", num)
    p = int(m.group(1))
    fixed: dict = {}
    free: list = []
    for num, line in lines[1:]:
        parts = line.split()
        if parts[0] == "fixed":
            if len(parts) != 3:
                raise CircuitError("fixed needs '(a1,a2) <value>'", num)
            pt = parse_point(parts[1], p)
            if pt in fixed:
                raise CircuitError(f"point {pt} fixed twice", num)
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
                    "free needs '(a1,a2)' plus optional '<lo> <hi> <step>' or 'derived'",
                    num,
                )
        else:
            raise CircuitError(f"unknown slice directive {parts[0]!r}", num)
    try:
        return SliceSpec(p, fixed, free)
    except ValueError as exc:
        raise CircuitError(f"{path}: {exc}") from exc
