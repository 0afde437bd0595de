"""Dense Heisenberg-Weyl operators, phase-point operators, Clifford generators.

Conventions (anchored by tests, not negotiable downstream):
  omega = exp(2*pi*i/p), X|x> = |x+1 mod p>, Z|x> = omega^x |x>,
  T_(a1,a2) = omega^(-a1*a2*inv2(p)) Z^a1 X^a2,
  A_0 = (1/d) sum_u T_u,  A_u = T_u A_0 T_u^dagger.
Multi-qudit operators are tensor products over blocks.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from .fields import (
    CliffordElement,
    as_point,
    inv2,
    require_odd_prime,
    symplectic_form,
)

__all__ = [
    "weyl_operator",
    "phase_point_operator",
    "WeylTable",
    "weyl_table",
    "generator_map",
    "clifford_generator",
    "extract_symplectic",
    "NotCliffordError",
    "PhaseInconsistentError",
]

MATCH_TOL = 1e-8
# WeylTable.A_stack holds at most A_STACK_CAP * p^2 operators
A_STACK_CAP = 1000


class NotCliffordError(ValueError):
    """Conjugation of some Weyl generator left the Heisenberg-Weyl group."""


class PhaseInconsistentError(ValueError):
    """Conjugation phases admit no displacement vector a."""


def _omega(p: int) -> complex:
    return np.exp(2j * np.pi / p)


def _single_weyl(a1: int, a2: int, p: int) -> np.ndarray:
    om = _omega(p)
    phase = om ** ((-a1 * a2 * inv2(p)) % p)
    out = np.zeros((p, p), dtype=complex)
    for x in range(p):
        # Z^a1 X^a2 |x> = omega^(a1*(x+a2)) |x+a2>
        out[(x + a2) % p, x] = phase * om ** ((a1 * (x + a2)) % p)
    return out


def weyl_operator(u, p: int) -> np.ndarray:
    """T_u as a dense p^n x p^n unitary."""
    uu = as_point(u, p)
    out = np.ones((1, 1), dtype=complex)
    for i in range(0, uu.size, 2):
        out = np.kron(out, _single_weyl(int(uu[i]), int(uu[i + 1]), p))
    return out


def _single_parity(p: int) -> np.ndarray:
    """A_0 for one qudit; equals the parity permutation |x> -> |-x>."""
    acc = np.zeros((p, p), dtype=complex)
    for a1 in range(p):
        for a2 in range(p):
            acc += _single_weyl(a1, a2, p)
    return acc / p


def phase_point_operator(u, p: int) -> np.ndarray:
    """A_u = T_u A_0 T_u^dagger; Hermitian, trace 1; factorizes over blocks."""
    uu = as_point(u, p)
    A0 = _single_parity(p)
    out = np.ones((1, 1), dtype=complex)
    for i in range(0, uu.size, 2):
        T = _single_weyl(int(uu[i]), int(uu[i + 1]), p)
        out = np.kron(out, T @ A0 @ T.conj().T)
    return out


class WeylTable:
    """Memoized A_u operators for one (p, n); immutable after build.

    single_A holds the p^2 one-qudit operators indexed by a1*p+a2.  The
    full-system A_stack is built lazily and only for p^{2n} <= A_STACK_CAP * p^2.
    """

    def __init__(self, p: int, n: int):
        self.p = require_odd_prime(p)
        self.n = int(n)
        self.d = p**n
        A0 = _single_parity(p)
        single_T = [_single_weyl(a1, a2, p) for a1 in range(p) for a2 in range(p)]
        self.single_A = np.stack([T @ A0 @ T.conj().T for T in single_T])
        self._A_stack: Optional[np.ndarray] = None
        self._lock = threading.Lock()

    @property
    def A_stack(self) -> np.ndarray:
        """All p^{2n} A_u in point-index order."""
        with self._lock:
            if self._A_stack is None:
                if self.d**2 > A_STACK_CAP * self.p**2:
                    raise ValueError(
                        f"refusing to materialize {self.p ** (2 * self.n)} operators of dim {self.d}"
                    )
                out = self.single_A
                for _ in range(self.n - 1):
                    # kron over both the label axis and the matrix axes
                    out = np.einsum("uij,vkl->uvikjl", out, self.single_A).reshape(
                        out.shape[0] * self.p**2, out.shape[1] * self.p, out.shape[2] * self.p
                    )
                self._A_stack = out
            return self._A_stack


_tables: dict[tuple[int, int], WeylTable] = {}
_tables_lock = threading.Lock()


def weyl_table(p: int, n: int) -> WeylTable:
    key = (int(p), int(n))
    with _tables_lock:
        if key not in _tables:
            _tables[key] = WeylTable(p, n)
        return _tables[key]


def _embed_single(U: np.ndarray, p: int, n: int, register: int) -> np.ndarray:
    if not 1 <= register <= n:
        raise ValueError(f"register {register} out of range 1..{n}")
    out = np.ones((1, 1), dtype=complex)
    for r in range(1, n + 1):
        out = np.kron(out, U if r == register else np.eye(p))
    return out


def _embed_F(Fblock: np.ndarray, n: int, registers: list[int]) -> np.ndarray:
    F = np.eye(2 * n, dtype=np.int64)
    sl = [slice(2 * (r - 1), 2 * r) for r in registers]
    for i, si in enumerate(sl):
        for j, sj in enumerate(sl):
            F[si, sj] = Fblock[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
    return F


def generator_map(kind: str, p: int, c: Optional[int] = None, point=None) -> CliffordElement:
    """(F, a) of one named Clifford generator on its own register, in integers.

    The closed forms hold for every odd prime (Gross 2006, Appleby 2005).
    kinds: fourier, quadratic, multiply (needs c != 0), sum on two registers
    (control first), and displace, whose map is (I, point) on the point's
    registers; only displace has a != 0.
    """
    require_odd_prime(p)
    if kind == "fourier":
        F = np.array([[0, 1], [-1, 0]])
    elif kind == "quadratic":
        F = np.array([[1, 1], [0, 1]])
    elif kind == "multiply":
        if c is None or c % p == 0:
            raise ValueError("multiply needs a nonzero c mod p")
        F = np.array([[pow(c % p, p - 2, p), 0], [0, c % p]])
    elif kind == "sum":
        # Z_c -> Z_c, X_c -> X_c X_t, Z_t -> Z_c^-1 Z_t, X_t -> X_t
        F = np.array([[1, 0, -1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1]])
    elif kind == "displace":
        if point is None:
            raise ValueError("displace needs a phase-space point")
        pt = as_point(point, p)
        return CliffordElement(np.eye(pt.size, dtype=np.int64), pt, p)
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return CliffordElement(F, np.zeros(len(F), dtype=np.int64), p)


def clifford_generator(
    kind: str,
    p: int,
    n: int = 1,
    register: int = 1,
    c: Optional[int] = None,
    ctrl: Optional[int] = None,
    tgt: Optional[int] = None,
    point=None,
) -> tuple[np.ndarray, CliffordElement]:
    """One named Clifford generator as a dense unitary on n registers, with
    its `generator_map` embedded at `register` (at ctrl and tgt for sum).

    A displace point is full-length; the other kinds act on one register
    (two for sum) and as the identity elsewhere.
    """
    local = generator_map(kind, p, c=c, point=point)
    om = _omega(p)
    zero = np.zeros(2 * n, dtype=np.int64)
    if kind == "fourier":
        U1 = np.array([[om ** ((x * y) % p) for x in range(p)] for y in range(p)]) / np.sqrt(p)
    elif kind == "quadratic":
        U1 = np.diag([om ** ((inv2(p) * x * x) % p) for x in range(p)])
    elif kind == "multiply":
        U1 = np.zeros((p, p), dtype=complex)
        for x in range(p):
            U1[(c * x) % p, x] = 1
    elif kind == "sum":
        if ctrl is None or tgt is None or ctrl == tgt:
            raise ValueError("sum needs distinct ctrl and tgt registers")
        for r in (ctrl, tgt):
            if not 1 <= r <= n:
                raise ValueError(f"register {r} out of range 1..{n}")
        d = p**n
        U = np.zeros((d, d), dtype=complex)
        digits = np.stack(
            np.meshgrid(*([np.arange(p)] * n), indexing="ij"), axis=-1
        ).reshape(d, n)
        weights = p ** np.arange(n - 1, -1, -1)
        for col in range(d):
            x = digits[col].copy()
            x[tgt - 1] = (x[tgt - 1] + x[ctrl - 1]) % p
            U[int(x @ weights), col] = 1
        return U, CliffordElement(_embed_F(local.F, n, [ctrl, tgt]), zero, p)
    else:  # displace
        if local.n != n:
            raise ValueError(f"displace point length {local.a.size}, expected {2 * n}")
        return weyl_operator(local.a, p), local
    # a generator on its own single register needs no embedding
    U = U1 if (n, register) == (1, 1) else _embed_single(U1, p, n, register)
    return U, CliffordElement(_embed_F(local.F, n, [register]), zero, p)


def _match_weyl(C: np.ndarray, p: int, n: int) -> tuple[np.ndarray, complex]:
    """Match C against lambda*T_v; return (v, lambda) or raise NotCliffordError.

    Column 0 of T_v has a single nonzero entry at row a2 (as base-p digits),
    and the phase ratio between columns e_j and 0 reveals omega^(a1_j).
    """
    d = p**n
    col0 = C[:, 0]
    mags = np.abs(col0)
    row = int(np.argmax(mags))
    if abs(mags[row] - 1.0) > 1e-6 or np.sum(mags > MATCH_TOL) != 1:
        raise NotCliffordError("conjugated generator is not a Weyl operator")
    a2 = np.array(np.unravel_index(row, (p,) * n), dtype=np.int64)
    om = _omega(p)
    a1 = np.zeros(n, dtype=np.int64)
    weights = p ** np.arange(n - 1, -1, -1)
    for j in range(n):
        colj = int(weights[j])  # basis state e_j = |0..010..0|
        target_row = int((a2 + np.eye(n, dtype=np.int64)[j]) % p @ weights)
        entry = C[target_row, colj]
        if abs(abs(entry) - 1.0) > 1e-6:
            raise NotCliffordError("conjugated generator is not a Weyl operator")
        ratio = entry / col0[row]
        a1[j] = int(np.round(np.angle(ratio) / (2 * np.pi / p))) % p
    v = np.empty(2 * n, dtype=np.int64)
    v[0::2] = a1
    v[1::2] = a2
    T = weyl_operator(v, p)
    lam = col0[row] / T[row, 0]
    if np.max(np.abs(C - lam * T)) > MATCH_TOL:
        raise NotCliffordError("conjugated generator is not a Weyl operator")
    return v, lam


def _phase_power(lam: complex, p: int) -> int:
    """lam as omega^c; raise PhaseInconsistentError if it is no p-th root of unity."""
    k = np.angle(lam) / (2 * np.pi / p)
    c = int(np.round(k))
    if abs(k - c) > 1e-6:
        raise PhaseInconsistentError(f"phase {lam} is not an omega power")
    return c % p


def extract_symplectic(U: np.ndarray, p: int) -> CliffordElement:
    """Recover (F, a) with U A_u U^dagger = A_(Fu+a) by conjugating Weyl generators.

    Writes U = T_a U_F; then U T_u U^dagger = omega^([a, Fu]) T_(Fu).  F columns
    come from the matched points, a from the matched phases, and the result is
    verified on probe points before being returned.
    """
    require_odd_prime(p)
    d = U.shape[0]
    n = int(round(np.log(d) / np.log(p)))
    if p**n != d or U.shape != (d, d):
        raise ValueError(f"operator dim {U.shape} is not a power of p={p}")
    if np.max(np.abs(U @ U.conj().T - np.eye(d))) > 1e-8:
        raise ValueError("operator is not unitary")
    Uh = U.conj().T
    F = np.zeros((2 * n, 2 * n), dtype=np.int64)
    b = np.zeros(2 * n, dtype=np.int64)  # b = F^-1 a, read off generator phases
    s = inv2(p)
    for i in range(2 * n):
        e = np.zeros(2 * n, dtype=np.int64)
        e[i] = 1
        C = U @ weyl_operator(e, p) @ Uh
        v, lam = _match_weyl(C, p, n)
        F[:, i] = v
        # [b, e] for e = Z-type (slot 2j) gives -b2_j; for X-type (slot 2j+1) gives b1_j
        c = _phase_power(lam, p)
        if i % 2 == 0:
            b[i + 1] = (-c) % p
        else:
            b[i - 1] = c
    try:
        g = CliffordElement(F, (F @ b) % p, p)
    except ValueError as exc:
        raise NotCliffordError(f"extracted map is not affine symplectic: {exc}") from exc
    # probe points catch phase patterns no single generator can expose
    rng = np.random.default_rng(0)
    probes = [rng.integers(0, p, size=2 * n) for _ in range(3)]
    probes.append((np.arange(2 * n) % p).astype(np.int64))
    for w in probes:
        expected_phase = _omega(p) ** (symplectic_form(g.a, (g.F @ w) % p, p))
        lhs = U @ weyl_operator(w, p) @ Uh
        rhs = expected_phase * weyl_operator((g.F @ w) % p, p)
        if np.max(np.abs(lhs - rhs)) > MATCH_TOL:
            raise PhaseInconsistentError(
                "generator matches admit no consistent displacement"
            )
    return g
