"""Wigner transforms, their inverse, and negativity.

W_rho(u) = (1/d) Tr(A_u rho) for states; W_E(u) = Tr(A_u E) for effects
(no 1/d).  Values are stored flat in phase-point index order.  Transforms
contract one qudit at a time, so no p^{2n} operator stack is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import require_odd_prime
from .weyl import weyl_table

__all__ = [
    "WignerFunction",
    "Povm",
    "validate_hermitian_unit_trace",
    "validate_state",
    "wigner_of_state",
    "wigner_of_effect",
    "wigner_of_factors",
    "phase_point_traces",
    "state_from_wigner",
    "negativity_F",
]


@dataclass(frozen=True)
class WignerFunction:
    """Real quasi-probability values over the p^{2n} grid, flat in index order."""

    values: np.ndarray
    p: int
    n: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size != self.p ** (2 * self.n):
            raise ValueError(f"expected {self.p ** (2 * self.n)} values, got {v.size}")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Povm:
    """Named effects; complete (sum to identity) and PSD up to tolerance."""

    labels: tuple
    effects: tuple  # matching tuple of dense matrices

    def __post_init__(self):
        if len(self.labels) != len(self.effects) or not self.effects:
            raise ValueError("labels and effects must align and be nonempty")
        dim = self.effects[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for label, E in zip(self.labels, self.effects):
            if E.shape != (dim, dim):
                raise ValueError(f"effect {label} has shape {E.shape}")
            if np.max(np.abs(E - E.conj().T)) > 1e-9:
                raise ValueError(f"effect {label} is not Hermitian")
            if np.linalg.eigvalsh(E).min() < -1e-9:
                raise ValueError(f"effect {label} is not PSD")
            total += E
        if np.max(np.abs(total - np.eye(dim))) > 1e-9:
            raise ValueError("effects do not sum to the identity")


def _dims(M: np.ndarray, p: int) -> int:
    d = M.shape[0]
    n = int(round(np.log(d) / np.log(p)))
    if p**n != d or M.shape != (d, d):
        raise ValueError(f"matrix shape {M.shape} is not p^n x p^n for p={p}")
    return n


def validate_hermitian_unit_trace(rho: np.ndarray, p: int) -> None:
    """A p^n x p^n operator, Hermitian to 1e-12, with trace 1 to 1e-10."""
    require_odd_prime(p)
    _dims(rho, p)
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError(f"state trace {np.trace(rho).real} != 1")


def validate_state(rho: np.ndarray, p: int) -> None:
    """`validate_hermitian_unit_trace`, then min eigenvalue >= -1e-9."""
    validate_hermitian_unit_trace(rho, p)
    low = np.linalg.eigvalsh(rho).min()
    if low < -1e-9:
        raise ValueError(f"state has negative eigenvalue {low}")


def phase_point_traces(M: np.ndarray, p: int, n: int) -> np.ndarray:
    """Tr(A_u M) for all u, as a flat real array in point-index order."""
    singles = weyl_table(p, 1).single_A  # (p^2, p, p), A[u, row, col]
    out = M.reshape((p,) * (2 * n))
    for j in range(n):
        # contract row axis 0 and matching col axis (n - j) of the remainder
        out = np.tensordot(out, singles, axes=([0, n - j], [2, 1]))
    return np.real(out.reshape(-1))


def wigner_of_state(rho: np.ndarray, p: int) -> WignerFunction:
    """W_rho(u) = (1/d) Tr(A_u rho); sums to 1 for a valid state."""
    validate_state(rho, p)
    n = _dims(rho, p)
    return WignerFunction(phase_point_traces(rho, p, n) / p**n, p, n)


def wigner_of_effect(E: np.ndarray, p: int) -> WignerFunction:
    """W_E(u) = Tr(A_u E); all-ones for E = I."""
    require_odd_prime(p)
    n = _dims(E, p)
    if np.max(np.abs(E - E.conj().T)) > 1e-9:
        raise ValueError("effect is not Hermitian")
    return WignerFunction(phase_point_traces(E, p, n), p, n)


def _first_bad(bad: np.ndarray, message: str, values=None) -> None:
    """Raise ValueError naming the first flagged factor (1-based) and its value."""
    hits = np.flatnonzero(bad)
    if hits.size:
        k = int(hits[0])
        raise ValueError(message.format(k + 1, None if values is None else values[k]))


def wigner_of_factors(factors, p: int, kind: str = "state") -> np.ndarray:
    """Wigner values of k single-qudit p x p factors, one row of p^2 each.

    A_u of a product point is the product of the single-qudit A_u, so the
    Wigner function of M_1 (x) ... (x) M_k is the outer product of the rows
    and the product is never built.  kind "state" checks each factor as
    validate_state checks a state and divides by p; kind "effect" checks
    Hermiticity as wigner_of_effect does.  The factors are checked and
    transformed as one (k, p, p) stack.
    """
    require_odd_prime(p)
    M = np.stack(factors)
    if M.shape[1:] != (p, p):
        raise ValueError(f"factors must be {p} x {p} matrices, got shape {M.shape[1:]}")
    skew = np.abs(M - M.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    if kind == "state":
        trace = np.trace(M, axis1=1, axis2=2).real
        _first_bad(skew > 1e-12, "state factor {} is not Hermitian")
        _first_bad(np.abs(trace - 1.0) > 1e-10, "state factor {} has trace {}, not 1", trace)
        low = np.linalg.eigvalsh(M).min(axis=1)
        _first_bad(low < -1e-9, "state factor {} has negative eigenvalue {}", low)
    elif kind == "effect":
        _first_bad(skew > 1e-9, "effect factor {} is not Hermitian")
    else:
        raise ValueError(f"kind must be state or effect, got {kind!r}")
    values = np.tensordot(M, weyl_table(p, 1).single_A, axes=([1, 2], [2, 1])).real
    return values / p if kind == "state" else values


def state_from_wigner(W, p: int, n: int) -> np.ndarray:
    """Sum_u W(u) A_u; Hermitian with trace = sum(W), not necessarily PSD."""
    require_odd_prime(p)
    values = W.values if isinstance(W, WignerFunction) else np.asarray(W, dtype=float).ravel()
    if values.size != p ** (2 * n):
        raise ValueError(f"expected {p ** (2 * n)} values, got {values.size}")
    singles = weyl_table(p, 1).single_A
    out = values.reshape((p**2,) * n)
    for _ in range(n):
        out = np.tensordot(out, singles, axes=([0], [0]))
    # axes are now (r1, c1, r2, c2, ...); interleave back to (rows..., cols...)
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return np.transpose(out, perm).reshape(p**n, p**n)


def negativity_F(rho: np.ndarray, p: int) -> float:
    """F(rho) = min_u Tr(A_u rho) = d * min_u W_rho(u); >= 0 iff positively represented."""
    W = wigner_of_state(rho, p)
    return float(p**W.n * W.values.min())
