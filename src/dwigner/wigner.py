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

STATE_HERM_TOL = 1e-12  # largest |rho - rho^dagger| entry of a state
TRACE_TOL = 1e-10  # |Tr rho - 1| of a state
PSD_TOL = 1e-9  # effect Hermiticity, -min eigenvalue, POVM completeness, P^2 = P
NEG_TOL = 1e-12  # a Wigner value below -NEG_TOL is negative
# distillation's sign tests: F(rho_in) or a projector's effect value below
# -DISTILL_NEG_TOL is negative, and F(rho_out) below -DISTILL_FAIL_TOL fails
DISTILL_NEG_TOL = 1e-10
DISTILL_FAIL_TOL = 1e-8

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
        for label, E in zip(self.labels, self.effects):
            if E.shape != (dim, dim):
                raise ValueError(f"effect {label} has shape {E.shape}")
        M = np.stack(self.effects)
        _check_stack(M, "effect", self.labels, state=False)
        if not np.max(np.abs(M.sum(axis=0) - np.eye(dim))) <= PSD_TOL:
            raise ValueError("effects do not sum to the identity")


def _dims(M: np.ndarray, p: int) -> int:
    d = M.shape[0]
    n = int(round(np.log(d) / np.log(p)))
    if p**n != d or M.shape != (d, d):
        raise ValueError(f"matrix shape {M.shape} is not p^n x p^n for p={p}")
    return n


def _check_stack(M: np.ndarray, what: str, labels=None, state=True, psd=True) -> None:
    """Refuse the first matrix of the (k, d, d) stack M, naming `what` and
    labels[k], that is not Hermitian (to STATE_HERM_TOL for a state, else
    PSD_TOL), a state without trace 1 or, with psd, has an eigenvalue below
    -PSD_TOL.  Each test reads "inside its tolerance", so NaN or inf fails."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails quietly
        value = np.abs(M - M.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    ok, why = value <= (STATE_HERM_TOL if state else PSD_TOL), "is not Hermitian"
    if state and ok.all():
        value = np.trace(M, axis1=1, axis2=2).real
        ok, why = np.abs(value - 1.0) <= TRACE_TOL, "has trace {}, not 1"
    if psd and ok.all():
        value = np.linalg.eigvalsh(M).min(axis=1)
        ok, why = value >= -PSD_TOL, "has negative eigenvalue {}"
    if not ok.all():
        k = int(np.argmin(ok))
        name = what if labels is None else f"{what} {labels[k]}"
        raise ValueError(f"{name} {why.format(value[k])}")


def validate_hermitian_unit_trace(rho: np.ndarray, p: int) -> None:
    """A p^n x p^n operator, Hermitian to STATE_HERM_TOL, with trace 1 to TRACE_TOL."""
    require_odd_prime(p)
    _dims(rho, p)
    _check_stack(rho[None], "state", psd=False)


def validate_state(rho: np.ndarray, p: int) -> None:
    """`validate_hermitian_unit_trace`, then min eigenvalue >= -PSD_TOL.  A
    nonempty (k, d, d) stack is checked as k states in one pass, and the
    first failing one is refused with the message it gives alone."""
    require_odd_prime(p)
    stacked = rho.ndim == 3
    _dims(rho[0] if stacked else rho, p)
    _check_stack(rho if stacked else rho[None], "state")


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
    _check_stack(E[None], "effect", state=False, psd=False)
    return WignerFunction(phase_point_traces(E, p, n), p, n)


def wigner_of_factors(factors, p: int, kind: str = "state") -> np.ndarray:
    """Wigner values of k single-qudit p x p factors, one row of p^2 each.

    A_u of a product point is the product of the single-qudit A_u, so the
    Wigner function of M_1 (x) ... (x) M_k is the outer product of the rows
    and the product is never built.  kind "state" checks each factor as
    validate_state checks a state and divides by p; kind "effect" checks
    Hermiticity as wigner_of_effect does.  The factors are checked and
    transformed as one (k, p, p) stack, and a factor's row does not depend
    on the other factors in it.
    """
    require_odd_prime(p)
    M = np.stack(factors)
    if M.shape[1:] != (p, p):
        raise ValueError(f"factors must be {p} x {p} matrices, got shape {M.shape[1:]}")
    if kind not in ("state", "effect"):
        raise ValueError(f"kind must be state or effect, got {kind!r}")
    state = kind == "state"
    _check_stack(M, f"{kind} factor", range(1, len(M) + 1), state=state, psd=state)
    # one row-vector product per factor: a stack of one and a stack of many
    # would otherwise take different BLAS paths and differ in the last bits
    traces = weyl_table(p, 1).single_A.transpose(2, 1, 0).reshape(p * p, p * p)
    values = np.matmul(M.reshape(-1, 1, p * p), traces).reshape(-1, p * p).real
    return values / p if state else values


def state_from_wigner(W, p: int, n: int) -> np.ndarray:
    """Sum_u W(u) A_u; Hermitian with trace = sum(W), not necessarily PSD."""
    require_odd_prime(p)
    values = W.values if isinstance(W, WignerFunction) else np.asarray(W, dtype=float).ravel()
    if values.size != p ** (2 * n):
        raise ValueError(f"expected {p ** (2 * n)} values, got {values.size}")
    singles = weyl_table(p, 1).single_A
    out = values.reshape((p**2,) * n)
    with np.errstate(invalid="ignore"):  # a non-finite value gives NaN entries, for the caller to refuse
        for _ in range(n):
            out = np.tensordot(out, singles, axes=([0], [0]))
    # axes are now (r1, c1, r2, c2, ...); interleave back to (rows..., cols...)
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return np.transpose(out, perm).reshape(p**n, p**n)


def negativity_F(rho: np.ndarray, p: int) -> float:
    """F(rho) = min_u Tr(A_u rho) = d * min_u W_rho(u); >= 0 iff positively represented."""
    W = wigner_of_state(rho, p)
    return float(p**W.n * W.values.min())
