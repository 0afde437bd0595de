"""Dense Heisenberg-Weyl operators, phase-point operators, Clifford generators.

Conventions (anchored by tests, not negotiable downstream):
  omega = exp(2*pi*i/p), X|x> = |x+1 mod p>, Z|x> = omega^x |x>,
  T_(a1,a2) = omega^(-a1*a2*inv2(p)) Z^a1 X^a2,
  A_0 = (1/d) sum_u T_u,  A_u = T_u A_0 T_u^dagger.
Multi-qudit operators are tensor products over blocks.

A generator call's map and unitary live here, keyed by the call's kind and
params (`circuits.GateCall`): its map on its own registers (`generator_map`),
its unitary there (`call_unitary`), a word's composed map (`word_map`), and
both lifted to n registers (`clifford_generator`).
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .fields import (
    CliffordElement,
    as_point,
    index_point,
    inv2,
    require_odd_prime,
    widen_map,
)

__all__ = [
    "weyl_operator",
    "phase_point_operator",
    "WeylTable",
    "weyl_table",
    "embed_operator",
    "generator_map",
    "call_unitary",
    "word_map",
    "clifford_generator",
    "extract_symplectic",
    "NotCliffordError",
]

MATCH_TOL = 1e-8
# WeylTable.A_stack holds at most A_STACK_CAP * p^2 operators
A_STACK_CAP = 1000


class NotCliffordError(ValueError):
    """Conjugation took some phase-point operator to an operator that is not one."""


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

    @functools.cached_property
    def A_stack(self) -> np.ndarray:
        """All p^{2n} A_u in point-index order."""
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
        return out


@functools.lru_cache(maxsize=None)
def weyl_table(p: int, n: int) -> WeylTable:
    return WeylTable(p, n)


def embed_operator(U: np.ndarray, p: int, n: int, regs) -> np.ndarray:
    """Dense p^n x p^n operator that acts as the p^k x p^k operator U on the
    k registers `regs`, U's tensor factors in that order, and as the identity
    on the others.  Raises for the first register outside 1..n."""
    for r in regs:
        if not 1 <= r <= n:
            raise ValueError(f"register {r} out of range 1..{n}")
    rest = [r for r in range(1, n + 1) if r not in regs]
    full = np.kron(U, np.eye(p ** len(rest), dtype=complex)).reshape((p,) * (2 * n))
    # row axis j and column axis n + j of U (x) I belong to register order[j]
    order = np.array([*regs, *rest]) - 1
    return np.moveaxis(full, range(2 * n), [*order, *(order + n)]).reshape(p**n, p**n)


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


@functools.lru_cache(maxsize=None)
def call_unitary(p: int, kind: str, params: tuple = ()) -> np.ndarray:
    """The dense unitary of one generator call on its own registers, keyed
    by its GateCall kind and params: p x p, p^2 x p^2 for sum (control
    first), and T_point on the point's registers for displace.  The cached
    array is read-only."""
    generator_map(kind, p, **dict(params))  # rejects an unknown kind or a bad parameter
    om = _omega(p)
    if kind == "fourier":
        U = np.array([[om ** ((x * y) % p) for x in range(p)] for y in range(p)]) / np.sqrt(p)
    elif kind == "quadratic":
        U = np.diag([om ** ((inv2(p) * x * x) % p) for x in range(p)])
    elif kind == "multiply":
        c = dict(params)["c"]
        U = np.zeros((p, p), dtype=complex)
        for x in range(p):
            U[(c * x) % p, x] = 1
    elif kind == "sum":
        x_c, x_t = np.divmod(np.arange(p * p), p)  # |x_c, x_t> -> |x_c, x_t + x_c>
        U = np.zeros((p * p, p * p), dtype=complex)
        U[x_c * p + (x_t + x_c) % p, x_c * p + x_t] = 1
    else:  # displace
        U = weyl_operator(dict(params)["point"], p)
    U.flags.writeable = False
    return U


def word_map(word, p: int) -> tuple[tuple, CliffordElement]:
    """(regs, (F, a)) of generator calls in application order, on the
    registers they touch in first-touch order, from the generator table.

    A call's unitary is its local unitary tensored with the identity on the
    other registers (up to reordering tensor factors, which keeps the local
    order), and T_u factorizes over registers, so its (F, a) acts on the
    call's blocks as its local map and as the identity elsewhere: each call
    updates only the rows of its own registers.  The symplectic check runs
    once, on the 2k x 2k map of the word's k registers.
    """
    regs = tuple(dict.fromkeys(r for call in word for r in call.regs))
    block = {r: 2 * k for k, r in enumerate(regs)}
    F = np.eye(2 * len(regs), dtype=np.int64)
    a = np.zeros(2 * len(regs), dtype=np.int64)
    for call in word:
        local = generator_map(call.kind, p, **dict(call.params))
        rows = np.array([block[r] + k for r in call.regs for k in (0, 1)])
        F[rows] = (local.F @ F[rows]) % p
        a[rows] = (local.F @ a[rows] + local.a) % p
    return regs, CliffordElement(F, a, p)


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
    its map: `call_unitary` and `generator_map` on the generator's own
    registers, lifted to n by `embed_operator` and `fields.widen_map`.

    A displace point is full-length; the other kinds act on `register` (on
    ctrl and tgt, in that order, for sum) and as the identity elsewhere.  A
    generator whose registers are 1..n in order is returned unembedded, as a
    writable copy.
    """
    local = generator_map(kind, p, c=c, point=point)
    if kind == "displace":  # on all n registers
        if local.n != n:
            raise ValueError(f"displace point length {local.a.size}, expected {2 * n}")
        return weyl_operator(local.a, p), local
    if kind == "sum" and (ctrl is None or tgt is None or ctrl == tgt):
        raise ValueError("sum needs distinct ctrl and tgt registers")
    regs = (ctrl, tgt) if kind == "sum" else (register,)
    U = call_unitary(p, kind, (("c", c),) if kind == "multiply" else ())
    U = U.copy() if regs == tuple(range(1, n + 1)) else embed_operator(U, p, n, regs)
    return U, CliffordElement(*widen_map(regs, local, n), p)


def extract_symplectic(U: np.ndarray, p: int) -> CliffordElement:
    """Recover (F, a) with U A_u U^dagger = A_(Fu+a) from 2n + 1 phase-point images.

    The image C of A_u is the phase-point operator A_v exactly when its Wigner
    values (1/d) Tr(A_w C) are 1 at w = v and 0 elsewhere (the A_w are an
    orthogonal basis).  The image of A_0 gives a; column i of F is the image
    point of A_(e_i) minus a.  These images are a complete test: A_(e_i) A_0
    = T_(2 e_i) and 2 is invertible mod p, so a U that maps all of them to
    phase-point operators maps every Weyl operator to a Weyl operator up to
    phase.  Such a U is Clifford, with exactly this affine map.  Any other
    image raises NotCliffordError.
    """
    from .wigner import phase_point_traces  # wigner imports this module

    require_odd_prime(p)
    d = U.shape[0]
    n = int(round(np.log(d) / np.log(p)))
    if p**n != d or U.shape != (d, d):
        raise ValueError(f"operator dim {U.shape} is not a power of p={p}")
    if np.max(np.abs(U @ U.conj().T - np.eye(d))) > 1e-8:
        raise ValueError("operator is not unitary")
    Uh = U.conj().T
    single_A = weyl_table(p, 1).single_A
    images = []
    for u in np.vstack([np.zeros(2 * n, dtype=np.int64), np.eye(2 * n, dtype=np.int64)]):
        A = np.ones((1, 1), dtype=complex)
        for j in range(n):
            A = np.kron(A, single_A[u[2 * j] * p + u[2 * j + 1]])
        W = phase_point_traces(U @ A @ Uh, p, n) / d
        v = int(np.argmax(W))
        W[v] -= 1.0
        if np.max(np.abs(W)) > MATCH_TOL:
            raise NotCliffordError("a phase-point operator's image is not a phase-point operator")
        images.append(index_point(v, p, n))
    a = images[0]
    return CliffordElement(np.stack(images[1:], axis=1) - a[:, None], a, p)
