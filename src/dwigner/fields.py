"""Exact arithmetic over Z_p phase space: points, symplectic matrices, affine maps.

All phase-space data is integer and reduced mod p; nothing in this module
touches floating point.  A point of an n-qudit phase space is a length-2n
integer vector arranged as n blocks (a1, a2), one block per qudit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "require_odd_prime",
    "inv2",
    "as_point",
    "symplectic_J",
    "is_symplectic",
    "CliffordElement",
    "widen_map",
    "apply_affine",
    "point_index",
    "index_point",
    "all_points",
]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


def require_odd_prime(p: int) -> int:
    """Return p unchanged; raise if p is not an odd prime (d=2 is rejected everywhere)."""
    if not isinstance(p, (int, np.integer)) or not _is_prime(int(p)) or p == 2:
        raise ValueError(f"dimension must be an odd prime, got {p!r}")
    return int(p)


def inv2(p: int) -> int:
    """Multiplicative inverse of 2 mod p, the meaning of the 1/2 in Weyl phases."""
    require_odd_prime(p)
    return (p + 1) // 2  # 2*(p+1)/2 = p+1 = 1 mod p


def as_point(u, p: int) -> np.ndarray:
    """Coerce to a reduced length-2n integer vector."""
    arr = np.asarray(u, dtype=np.int64).ravel() % p
    if arr.size == 0 or arr.size % 2 != 0:
        raise ValueError(f"phase-space point needs even length, got {arr.size}")
    return arr


def symplectic_J(n: int) -> np.ndarray:
    """Block-diagonal J with per-qudit blocks [[0,1],[-1,0]]."""
    J = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for i in range(n):
        J[2 * i, 2 * i + 1] = 1
        J[2 * i + 1, 2 * i] = -1
    return J


def is_symplectic(F, p: int) -> bool:
    """True iff F^T J F = J mod p, computed in float64 so that BLAS runs the
    products; exact, since every entry of F^T J F lies below 2n p^2, which
    must stay below 2^53 (p up to about 4 million at n = 256)."""
    require_odd_prime(p)
    M = (np.asarray(F, dtype=np.int64) % p).astype(np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 != 0:
        raise ValueError(f"expected a square 2n x 2n matrix, got shape {M.shape}")
    n = M.shape[0] // 2
    if 2 * n * p * p >= 2**53:
        raise ValueError(f"p={p} at n={n} is past the exact float64 range")
    J = symplectic_J(n)
    return bool(np.array_equal((M.T @ (J @ M)) % p, J % p))


@dataclass(frozen=True)
class CliffordElement:
    """Affine symplectic map u -> Fu + a, the phase-space shadow of a Clifford unitary."""

    F: np.ndarray
    a: np.ndarray
    p: int

    def __post_init__(self):
        p = require_odd_prime(self.p)
        F = np.asarray(self.F, dtype=np.int64) % p
        a = as_point(self.a, p)
        if F.shape != (a.size, a.size):
            raise ValueError(f"F shape {F.shape} does not match displacement length {a.size}")
        if not is_symplectic(F, p):
            raise ValueError("F is not symplectic mod p")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.a.size // 2

    @classmethod
    def identity(cls, p: int, n: int) -> "CliffordElement":
        return cls(np.eye(2 * n, dtype=np.int64), np.zeros(2 * n, dtype=np.int64), p)

    def compose(self, first: "CliffordElement") -> "CliffordElement":
        """self after first: (F2, a2) o (F1, a1) = (F2 F1, F2 a1 + a2)."""
        if first.p != self.p or first.n != self.n:
            raise ValueError("cannot compose maps on different phase spaces")
        F = (self.F @ first.F) % self.p
        a = (self.F @ first.a + self.a) % self.p
        return CliffordElement(F, a, self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return (
            self.p == other.p
            and np.array_equal(self.F, other.F)
            and np.array_equal(self.a, other.a)
        )

    def __hash__(self):
        return hash((self.p, self.F.tobytes(), self.a.tobytes()))


def widen_map(regs, g: CliffordElement, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(F, a) on n registers of the map g on registers `regs` (in 1..n, in
    g's block order): g on their blocks, the identity elsewhere."""
    cols = np.array([2 * r - 2 + k for r in regs for k in (0, 1)], dtype=np.intp)
    F = np.eye(2 * n, dtype=np.int64)
    F[np.ix_(cols, cols)] = g.F
    a = np.zeros(2 * n, dtype=np.int64)
    a[cols] = g.a
    return F, a


def apply_affine(g: CliffordElement, u) -> np.ndarray:
    """Image Fu + a mod p; bijective on the phase space for fixed g."""
    uu = as_point(u, g.p)
    if uu.size != g.a.size:
        raise ValueError(f"point length {uu.size} does not match map size {g.a.size}")
    return (g.F @ uu + g.a) % g.p


# Serialization order for the p^{2n} grid: base-p digits (a1_1, a2_1, a1_2, a2_2, ...)
# with block 1 slowest and a1 before a2 inside each block.

def point_index(u, p: int) -> int:
    uu = as_point(u, p)
    idx = 0
    for digit in uu:
        idx = idx * p + int(digit)
    return idx


def index_point(idx: int, p: int, n: int) -> np.ndarray:
    digits = np.zeros(2 * n, dtype=np.int64)
    for i in range(2 * n - 1, -1, -1):
        digits[i] = idx % p
        idx //= p
    return digits


def all_points(p: int, n: int) -> np.ndarray:
    """All p^{2n} points as rows, in index order."""
    grids = np.meshgrid(*([np.arange(p)] * (2 * n)), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
