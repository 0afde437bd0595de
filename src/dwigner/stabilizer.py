"""Single-qudit stabilizer states from the mutually unbiased bases.

Single-qudit stabilizer states are the p+1 mutually unbiased eigenbases of
Z and XZ^k (k = 0..p-1), p(p+1) states in total.  The set is built once per
p and shared, so it is immutable: tuples of read-only arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import inv2, require_odd_prime
from .wigner import wigner_of_state

__all__ = ["StabilizerSet", "mub_stabilizer_states", "MAX_MUB_P"]

# The set holds p(p+1) dense p x p states plus their Wigner rows, about
# 24 p^3 (p+1) bytes, and stays cached for the process: 23 MB at p = 31.
MAX_MUB_P = 31


@dataclass(frozen=True)
class StabilizerSet:
    p: int
    n: int
    states: tuple  # rank-1 projectors, d x d, read-only
    labels: tuple
    wigner_matrix: np.ndarray  # row i = Wigner values of state i, (count, p^{2n})

    def __len__(self) -> int:
        return len(self.states)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=None)
def mub_stabilizer_states(p: int) -> StabilizerSet:
    """The p+1 MUB eigenbases at n=1: Z basis, then XZ^k bases for k = 0..p-1.

    XZ^k eigenvectors: v_m[x] = omega^(inv2(p)*k*x^2 + m*x)/sqrt(p), m = 0..p-1.
    Raises ValueError for p above MAX_MUB_P.
    """
    require_odd_prime(p)
    if p > MAX_MUB_P:
        raise ValueError(f"stabilizer states are built for p <= {MAX_MUB_P}, got p = {p}")
    om = np.exp(2j * np.pi / p)
    s = inv2(p)
    states, labels = [], []
    for m in range(p):
        v = np.zeros(p, dtype=complex)
        v[m] = 1.0
        states.append(_read_only(np.outer(v, v.conj())))
        labels.append(f"Z:{m}")
    for k in range(p):
        for m in range(p):
            x = np.arange(p)
            v = om ** ((s * k * x * x + m * x) % p) / np.sqrt(p)
            states.append(_read_only(np.outer(v, v.conj())))
            labels.append(f"XZ^{k}:{m}")
    W = np.stack([wigner_of_state(P, p).values for P in states])
    return StabilizerSet(p, 1, tuple(states), tuple(labels), _read_only(W))
