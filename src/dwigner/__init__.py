"""Discrete Wigner machinery for odd-prime qudits.

Phase-space arithmetic over Z_p, Heisenberg-Weyl and phase-point operators,
Wigner transforms and negativity, stabilizer-state geometry with LP hull
membership, a classical hidden-variable sampler for Clifford circuits with a
tensor-based Born-rule oracle that never builds a p^n x p^n matrix, and a
distillation positivity check.
"""

__version__ = "0.1.0"

FORMAT_VERSION = 1


def fmt_number(x) -> str:
    """A number as printed in every output: 12 significant digits, with
    representation noise below 1e-13 shown as 0."""
    x = float(x)
    if abs(x) < 1e-13:
        x = 0.0
    return f"{x:.12g}"
