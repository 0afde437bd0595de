"""Stabilizer-polytope geometry: facets, hull membership, classification, slices.

The phase-point inequalities Tr(A_u rho) >= 0 are checked as facets against
the enumerated vertex set.  An exact rational qutrit Wigner vector is placed
in or out of the hull by the polytope's 81 integer facets, enumerated once
per process; every other input runs a floating-point LP.  Outside points get
a separating dual witness from a second LP in both cases.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from . import FORMAT_VERSION, fmt_number
from .fields import all_points, as_point, point_index, require_odd_prime
from .stabilizer import StabilizerSet, mub_stabilizer_states
from .weyl import weyl_table
from .wigner import state_from_wigner

__all__ = [
    "FacetReport",
    "HullCertificate",
    "SliceSpec",
    "SliceRow",
    "SolverFailure",
    "facet_check",
    "hull_membership",
    "classify_state",
    "slice_scan",
    "slice_csv",
    "exact_vertex_matrix",
    "qutrit_facets",
]

HULL_TOL = 1e-8
PSD_TOL = 1e-9
NEG_TOL = 1e-12
SAT_TOL = 1e-8
VERTEX_TOL = 1e-10


class SolverFailure(RuntimeError):
    """LP solver did not converge; distinct from a clean infeasibility verdict."""


@dataclass(frozen=True)
class FacetReport:
    point: tuple
    all_vertices_nonnegative: bool
    saturating_count: int
    saturating_span_dim: int
    is_facet: bool
    min_vertex_value: float


@dataclass
class HullCertificate:
    """A hull verdict with its evidence.

    Inside: `weights` over the vertices and the float `residual` of that
    decomposition; an exact verdict carries no weights and residual 0.
    Outside: the dual witness `witness_y` and its gap `violation`.
    `disputed` means the float LP disagrees with the exact verdict; on the
    exact route that is an outside point whose witness gap is within `tol`.
    """

    inside: bool
    weights: Optional[np.ndarray] = None
    residual: float = 0.0
    violation: float = 0.0
    witness_y: Optional[np.ndarray] = None
    disputed: bool = False

    def witness_operator(self, p: int, n: int) -> np.ndarray:
        """H = sum_u y_u A_u with Tr(H rho) > max_i Tr(H S_i) for outside points."""
        if self.witness_y is None:
            raise ValueError("no witness for an inside verdict")
        return state_from_wigner(self.witness_y, p, n)


def facet_check(u, S: StabilizerSet) -> FacetReport:
    """Is the inequality Tr(A_u rho) >= 0 a facet of conv(S)?

    Saturating vertices span must have affine rank d^2 - 1 relative to the
    trace-1 slice; computed as the numerical rank of their Gram matrix.
    """
    p, n = S.p, S.n
    d = p**n
    uu = as_point(u, p)
    idx = point_index(uu, p)
    tr_values = d * S.wigner_matrix[:, idx]  # Tr(A_u S_i) = d * W_i(u)
    nonneg = bool(tr_values.min() >= -VERTEX_TOL)
    sat_idx = np.nonzero(np.abs(tr_values) <= SAT_TOL)[0]
    span = 0
    if sat_idx.size:
        sats = np.stack([S.states[i] for i in sat_idx])
        gram = np.einsum("aij,bji->ab", sats, sats).real
        svals = np.linalg.svd(gram, compute_uv=False)
        span = int(np.sum(svals > 1e-8 * svals[0]))
    is_facet = nonneg and span == d**2 - 1
    return FacetReport(
        point=tuple(int(x) for x in uu),
        all_vertices_nonnegative=nonneg,
        saturating_count=int(sat_idx.size),
        saturating_span_dim=span,
        is_facet=is_facet,
        min_vertex_value=float(tr_values.min()),
    )


def exact_vertex_matrix(S: StabilizerSet) -> list:
    """Stabilizer Wigner vectors snapped to exact rationals {0, 1/d}.

    Valid because stabilizer-state Wigner functions are uniform on their
    support; snapping is verified against the float values.
    """
    d = S.p**S.n
    W = S.wigner_matrix
    out = []
    for row in W:
        snapped = []
        for x in row:
            if abs(x) < 1e-6:
                snapped.append(Fraction(0))
            elif abs(x - 1 / d) < 1e-6:
                snapped.append(Fraction(1, d))
            else:
                raise ValueError(f"vertex Wigner value {x} is not 0 or 1/{d}")
        out.append(snapped)
    return out


@functools.lru_cache(maxsize=None)
def qutrit_facets() -> tuple:
    """Facets of the qutrit stabilizer polytope, as integer normals g with g . W >= 0.

    Every vertex has sum_u W(u) = 1, so each facet's constant is folded into
    its normal, which is then unique once reduced by its gcd.  The 12 vertices,
    scaled by 3 to 0/1 vectors, span all 9 dimensions, so a facet is tight on
    8 linearly independent vertices and its normal is the cofactor vector of
    those 8 rows.  Float determinants over the C(12, 8) = 495 subsets propose
    the normals; each one kept is checked in integers to vanish on its subset
    and to be nonnegative on all 12 vertices.  Returns 81 sorted tuples.
    """
    V = np.array(
        [[int(3 * x) for x in row] for row in exact_vertex_matrix(mub_stabilizer_states(3))],
        dtype=np.int64,
    )
    subsets = np.array(list(itertools.combinations(range(len(V)), 8)))
    rows = V[subsets]
    minors = np.stack([np.linalg.det(np.delete(rows, j, axis=2)) for j in range(V.shape[1])], axis=1)
    normals = np.rint(minors).astype(np.int64) * (-1) ** np.arange(V.shape[1])
    facets = set()
    for subset, g in zip(subsets, normals):
        values = V @ g
        if values.min() < 0:
            g, values = -g, -values
        if g.any() and values.min() >= 0 and not values[subset].any():
            facets.add(tuple(int(x) for x in g // np.gcd.reduce(g)))
    return tuple(sorted(facets))


def _in_qutrit_hull(exact_w) -> bool:
    """Exact membership of a rational qutrit Wigner vector, on integer numerators."""
    w = [Fraction(x) for x in exact_w]
    den = math.lcm(*(x.denominator for x in w))
    num = [x.numerator * (den // x.denominator) for x in w]
    return sum(num) == den and all(
        sum(g * x for g, x in zip(facet, num, strict=True)) >= 0 for facet in qutrit_facets()
    )


def _chebyshev_lp(V: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """min t s.t. |[V^T; 1^T] w - [target; 1]|_inf <= t, w >= 0."""
    count = V.shape[0]
    A_eq_like = np.vstack([V.T, np.ones(count)])
    b = np.concatenate([target, [1.0]])
    rows = []
    rhs = []
    for i in range(A_eq_like.shape[0]):
        rows.append(np.concatenate([A_eq_like[i], [-1.0]]))
        rhs.append(b[i])
        rows.append(np.concatenate([-A_eq_like[i], [-1.0]]))
        rhs.append(-b[i])
    c = np.zeros(count + 1)
    c[-1] = 1.0
    res = linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(0, None)] * count + [(0, None)],
        method="highs",
    )
    if res.status != 0:
        raise SolverFailure(f"feasibility LP did not converge: {res.message}")
    return float(res.fun), res.x[:count]


def _separating_witness(V: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray, float]:
    """max_{|y|<=1, s} y . target - s  s.t.  y . V_i <= s for all vertices."""
    count, m = V.shape
    A_ub = np.hstack([V, -np.ones((count, 1))])
    b_ub = np.zeros(count)
    c = np.concatenate([-target, [1.0]])
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(-1, 1)] * m + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise SolverFailure(f"witness LP did not converge: {res.message}")
    y = res.x[:m]
    gap = float(y @ target - np.max(V @ y))
    return gap, y, float(-res.fun)


def hull_membership(
    rho_or_w,
    S: StabilizerSet,
    tol: float = HULL_TOL,
    exact_w=None,
) -> HullCertificate:
    """Decide rho in conv(S) in Wigner coordinates; certify either verdict.

    Accepts a Hermitian unit-trace operator or a flat Wigner vector.  When
    exact_w (the same vector as Fractions) is supplied and the vertex set is
    the 12-state qutrit one, the verdict is exact, from `qutrit_facets`; only
    an outside point then runs an LP, for its witness.  Otherwise a Chebyshev
    LP decides, with `tol` on its optimum.
    """
    p, n = S.p, S.n
    V = S.wigner_matrix
    if isinstance(rho_or_w, np.ndarray) and rho_or_w.ndim == 2:
        from .wigner import _contract  # local import to avoid cycle at module load

        target = _contract(rho_or_w, p, n) / p**n
    else:
        target = np.asarray(rho_or_w, dtype=float).ravel()
    if exact_w is not None and (p, n) == (3, 1):
        if _in_qutrit_hull(exact_w):
            return HullCertificate(inside=True)
        gap, y, _ = _separating_witness(V, target)
        return HullCertificate(inside=False, violation=gap, witness_y=y, disputed=gap <= tol)
    tstar, weights = _chebyshev_lp(V, target)
    if tstar <= tol:
        recon = V.T @ weights
        residual = float(
            max(np.max(np.abs(recon - target)), abs(weights.sum() - 1.0))
        )
        return HullCertificate(inside=True, weights=weights, residual=residual)
    gap, y, _ = _separating_witness(V, target)
    return HullCertificate(inside=False, violation=gap, witness_y=y)


def classify_state(
    rho: Optional[np.ndarray] = None,
    W=None,
    p: int = 3,
    S: Optional[StabilizerSet] = None,
    exact_w=None,
) -> tuple[str, dict]:
    """NONPHYSICAL -> NEGATIVE -> STABILIZER_MIX -> BOUND, first match wins.

    Returns (label, details) with min_eig, min_wigner and the hull
    certificate when one was computed.  With exact_w (Fractions) the sign
    test is exact, and for p = 3 so is the hull verdict (`hull_membership`).
    """
    require_odd_prime(p)
    if S is None:
        S = mub_stabilizer_states(p)
    n = S.n
    if W is None:
        if rho is None:
            raise ValueError("need rho or W")
        from .wigner import _contract

        W = _contract(rho, p, n) / p**n
    W = np.asarray(W, dtype=float).ravel()
    if rho is None:
        rho = state_from_wigner(W, p, n)
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if exact_w is not None:
        min_w_exact = min(exact_w)
        min_w = float(min_w_exact)
        negative = min_w_exact < 0
    else:
        min_w = float(W.min())
        negative = min_w < -NEG_TOL
    details = {"min_eig": min_eig, "min_wigner": min_w, "certificate": None}
    if min_eig < -PSD_TOL:
        return "NONPHYSICAL", details
    if negative:
        return "NEGATIVE", details
    cert = hull_membership(W, S, exact_w=exact_w)
    details["certificate"] = cert
    return ("STABILIZER_MIX" if cert.inside else "BOUND"), details


@dataclass
class SliceSpec:
    """Qutrit slice: fixed W values plus 2-3 free points with axis ranges.

    Each free entry is (point, axes) where axes = (lo, hi, step) as Fractions,
    or None for a derived value (allowed only on the last free point, value
    forced by normalization).
    """

    p: int
    fixed: dict  # point tuple -> Fraction
    free: list  # [(point tuple, (lo, hi, step) | None), ...]

    def __post_init__(self):
        if self.p != 3:
            raise ValueError("slice scans are defined for p=3")
        pts = [tuple(int(x) for x in pt) for pt in self.fixed] + [
            tuple(int(x) for x in pt) for pt, _ in self.free
        ]
        if sorted(pts) != sorted(
            tuple(int(x) for x in u) for u in all_points(3, 1)
        ):
            raise ValueError("fixed + free must cover all 9 phase points exactly once")
        if not 2 <= len(self.free) <= 3:
            raise ValueError("need 2 or 3 free points")
        for i, (_, axes) in enumerate(self.free):
            if axes is None and i != len(self.free) - 1:
                raise ValueError("only the last free point may be derived")

    @property
    def swept(self) -> list:
        return [(pt, axes) for pt, axes in self.free if axes is not None]

    @property
    def derived_point(self):
        pt, axes = self.free[-1]
        return tuple(int(x) for x in pt) if axes is None else None


DEFAULT_AXIS = (Fraction(0), Fraction(1, 3), Fraction(1, 90))


@dataclass
class SliceRow:
    coords: tuple  # Fractions, one per free point (derived included)
    label: str
    min_eig: float
    min_wigner: float
    lp_margin: Optional[float]


def _axis_values(axes) -> list:
    lo, hi, step = (Fraction(x) for x in axes)
    if step <= 0 or hi < lo:
        raise ValueError(f"bad axis range {axes}")
    count = int((hi - lo) / step)
    vals = [lo + k * step for k in range(count + 1)]
    if vals[-1] != hi:
        vals.append(hi)
    return vals


def slice_scan(spec: SliceSpec, S: Optional[StabilizerSet] = None) -> list:
    """Classify every grid point of the slice; deterministic row order.

    Rows where the nine values cannot sum to 1 are labelled INVALID (possible
    only when no axis is derived).  Margins are filled for the labels that ran
    the hull test: the feasibility residual for STABILIZER_MIX (0, since the
    verdict is exact), the dual witness gap for BOUND.
    """
    if S is None:
        S = mub_stabilizer_states(3)
    fixed_total = sum(Fraction(v) for v in spec.fixed.values())
    idx_fixed = {point_index(pt, 3): Fraction(v) for pt, v in spec.fixed.items()}
    swept = spec.swept
    grids = [_axis_values(axes) for _, axes in swept]
    rows = []
    for combo in itertools.product(*grids):
        values = dict(idx_fixed)
        for (pt, _), val in zip(swept, combo):
            values[point_index(pt, 3)] = val
        coords = list(combo)
        if spec.derived_point is not None:
            derived_val = 1 - fixed_total - sum(combo)
            values[point_index(spec.derived_point, 3)] = derived_val
            coords.append(derived_val)
        exact_w = [values[i] for i in range(9)]
        total = sum(exact_w)
        wfloat = np.array([float(x) for x in exact_w])
        if total != 1:
            recon = state_from_wigner(wfloat, 3, 1)
            rows.append(
                SliceRow(
                    coords=tuple(coords),
                    label="INVALID",
                    min_eig=float(np.linalg.eigvalsh(recon).min()),
                    min_wigner=float(min(exact_w)),
                    lp_margin=None,
                )
            )
            continue
        label, details = classify_state(W=wfloat, p=3, S=S, exact_w=exact_w)
        cert = details["certificate"]
        margin = None
        if cert is not None:
            margin = cert.residual if cert.inside else cert.violation
        rows.append(
            SliceRow(
                coords=tuple(coords),
                label=label,
                min_eig=details["min_eig"],
                min_wigner=details["min_wigner"],
                lp_margin=margin,
            )
        )
    return rows


def slice_csv(rows: list, spec: SliceSpec) -> str:
    axes = len(spec.free)
    header = ",".join([f"axis{i + 1}" for i in range(axes)] + ["label", "min_eig", "min_wigner", "lp_margin"])
    lines = [f"# format-version {FORMAT_VERSION}", header]
    for row in rows:
        cells = [fmt_number(c) for c in row.coords]
        cells += [row.label, fmt_number(row.min_eig), fmt_number(row.min_wigner)]
        cells.append("" if row.lp_margin is None else fmt_number(row.lp_margin))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
