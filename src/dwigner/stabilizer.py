"""Single-qudit stabilizer states from the mutually unbiased bases.

Single-qudit stabilizer states are the p+1 mutually unbiased eigenbases of
Z and XZ^k (k = 0..p-1), p(p+1) states in total.  The set is built once per
p and shared, so it is immutable: tuples of read-only arrays.

Each state's Wigner function is 1/p on one line of Z_p^2 and 0 elsewhere,
and the p(p+1) states are the p(p+1) lines (Gross 2006, J. Math. Phys. 47,
122107, the discrete Hudson theorem).  `line_incidence` states that fact in
integers; every exact fact about the stabilizer polytope is read from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import inv2, require_odd_prime
from .wigner import wigner_of_state

__all__ = ["StabilizerSet", "mub_stabilizer_states", "line_incidence", "MAX_MUB_P", "require_capped_p"]

# The one cap on p for every command.  The set holds p(p+1) dense p x p states
# plus their Wigner rows, about 24 p^3 (p+1) bytes, and stays cached for the
# process: 23 MB at p = 31.  A Weyl table's one-qudit operators take 32 p^4
# bytes: 30 MB at p = 31, 3.3 GB at p = 101.  The sampler's cached table for
# a `sum` call holds 2 p^4 int64 digits, 14.8 MB at p = 31, once per process:
# a two-register p = 31 circuit with one `sum`, sampled at 1e5 shots, peaks
# at 88.0 MB RSS against 81.6 MB when no table is built (2-CPU x86-64 VM,
# Python 3.11, numpy 2.4).
MAX_MUB_P = 31


def require_capped_p(p: int) -> int:
    """Return p unchanged; raise ValueError unless p is an odd prime <= MAX_MUB_P."""
    require_odd_prime(p)
    if p > MAX_MUB_P:
        raise ValueError(f"p = {p} is above the cap p <= {MAX_MUB_P}")
    return int(p)


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
    require_capped_p(p)
    om = np.exp(2j * np.pi / p)
    s = inv2(p)
    x = np.arange(p)
    kets = list(np.eye(p, dtype=complex))
    kets += [om ** ((s * k * x * x + m * x) % p) / np.sqrt(p) for k in range(p) for m in range(p)]
    labels = [f"Z:{m}" for m in range(p)] + [f"XZ^{k}:{m}" for k in range(p) for m in range(p)]
    states = [_read_only(np.outer(v, v.conj())) for v in kets]
    W = np.stack([wigner_of_state(P, p).values for P in states])
    return StabilizerSet(p, 1, tuple(states), tuple(labels), _read_only(W))


@functools.lru_cache(maxsize=None)
def line_incidence(p: int) -> np.ndarray:
    """The lines of Z_p^2 as a read-only (p(p+1), p^2) int64 0/1 matrix, one
    row per state of `mub_stabilizer_states(p)` in its order: p times that
    state's Wigner function.  With point index a1 p + a2, `Z:m` is the line
    a2 = m and `XZ^k:m` the line a1 - k a2 = m.
    """
    require_capped_p(p)
    a1, a2 = np.divmod(np.arange(p * p), p)
    k, m = np.arange(p)[:, None, None], np.arange(p)[:, None]
    lines = np.vstack([a2 == m, ((a1 - k * a2) % p == m).reshape(p * p, p * p)])
    return _read_only(lines.astype(np.int64))
