"""Stabilizer-polytope geometry: facets, hull membership, classification, slices.

The phase-point inequalities Tr(A_u rho) >= 0 are checked as facets exactly,
on the lines of Z_p^2.  The qutrit polytope is described once, by its
witness LP's 1520 vertices (21 orbit representatives), 81 of which are its
facets.  Hull membership takes one route per input.  An exact rational qutrit
Wigner vector that sums to 1 gets its exact L1 distance to the hull, and the
witness that attains it, from the vertex table in integer matrix products,
with no LP (`_hull_distances`, the one exact qutrit hull test).  Every other
input runs one floating-point witness LP, whose optimum is that L1 distance:
a gap within HULL_TOL is inside, certified by the LP's dual weights on the
vertices.  That LP is the only code that loads scipy.  A slice scan decides
its grid in blocks of array operations on integer numerators over one common
denominator, with no LP, and each block is written as it is decided: the rows
that pass the sign and eigenvalue tests get their distance from the vertex
table, which is both the hull verdict and the margin.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

from . import FORMAT_VERSION, PRINT_ZERO_BELOW, fmt_number
from .fields import all_points, as_point, point_index, require_odd_prime
from .stabilizer import StabilizerSet, line_incidence, mub_stabilizer_states
from .weyl import weyl_table
from .wigner import NEG_TOL, PSD_TOL, phase_point_traces, state_from_wigner, validate_hermitian_unit_trace

__all__ = [
    "FacetReport",
    "HullCertificate",
    "SliceSpec",
    "SliceRow",
    "SolverFailure",
    "facet_check",
    "facet_reports",
    "hull_membership",
    "classify_state",
    "slice_blocks",
    "slice_scan",
    "slice_csv_blocks",
    "exact_vertex_matrix",
]

HULL_TOL = 1e-8
# integers below this stay exact in int64 through a witness-vertex product
# (|45 y|_inf <= 45) and in a float64 quotient; larger slice numerators fall
# back to Python ints
EXACT_INT_BOUND = 2**50
MAX_SLICE_POINTS = 10**6  # the largest pinned grid has 6561 points
SLICE_BLOCK = 4096  # grid points decided per array block
SLICE_LABELS = np.array(["INVALID", "NONPHYSICAL", "NEGATIVE", "STABILIZER_MIX", "BOUND"], dtype=object)
HULL_CODE = 3  # the codes of the hull rows, STABILIZER_MIX and BOUND, are HULL_CODE and up
WITNESS_ROWS = 512  # cut rows per witness-vertex product: 6 MB of int64, not 50 MB per block

# The witness LP of a qutrit point t, max y . t - s over the polyhedron
# {|y|_inf <= 1, y . V_i <= s for the 12 stabilizer states V_i}, has the L1
# distance from t to the hull as its optimum.  The polyhedron has 1520
# vertices in 21 orbits under the affine maps of the phase points.  One
# vertex per orbit, as the integers 15 y in point-index order; s is
# max_i y . V_i.
_WITNESS_ORBITS = (
    (-15, -15, -15, -15, -15, -15, -15, -15, -15),
    (-15, -15, -15, -15, -15, -15, -15, -15, 15),
    (-15, -15, -15, -15, -15, -15, -15, 15, 15),
    (-15, -15, -15, -15, -15, -15, 15, 15, 15),
    (-15, -15, -15, -15, -15, 15, -15, 15, 15),
    (-15, -15, -15, -15, -15, 15, 0, 0, 0),
    (-15, -15, -15, -15, -15, 15, 15, 15, 15),
    (-15, -15, -15, -15, 0, 15, 0, 0, 0),
    (-15, -15, -15, -15, 15, 15, -15, 15, 15),
    (-15, -15, -15, -15, 15, 15, 15, 15, 15),
    (-15, -15, -15, 15, 15, 15, 15, 15, 15),
    (-15, -15, -5, -15, 5, 15, 5, 5, -5),
    (-15, -15, 0, -15, 15, 15, 0, 15, 0),
    (-15, -15, 3, -9, 9, 9, -3, 15, -3),
    (-15, -15, 5, -5, 5, 15, 5, 15, -5),
    (-15, -15, 15, -15, -15, 15, 15, 15, 15),
    (-15, -15, 15, -15, 15, 15, 15, 15, 15),
    (-15, -15, 15, 15, 15, 15, 15, 15, 15),
    (-15, -5, 5, -5, 5, 15, 5, 15, -5),
    (-15, 15, 15, 15, 15, 15, 15, 15, 15),
    (15, 15, 15, 15, 15, 15, 15, 15, 15),
)


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
    Outside: the witness `witness_y` and its gap `violation`, the L1 distance
    to the hull: exact up to one rounding on the exact route, and above
    HULL_TOL on the float route.
    """

    inside: bool
    weights: Optional[np.ndarray] = None
    residual: float = 0.0
    violation: float = 0.0
    witness_y: Optional[np.ndarray] = None

    def witness_operator(self, p: int, n: int) -> np.ndarray:
        """H = sum_u y_u A_u with Tr(H rho) > max_i Tr(H S_i) for outside points."""
        if self.witness_y is None:
            raise ValueError("no witness for an inside verdict")
        return state_from_wigner(self.witness_y, p, n)


@functools.lru_cache(maxsize=None)
def _certified_span(p: int) -> int:
    """p^2 - 1, the dimension spanned by the rows of N = `line_incidence(p)`,
    the lines of Z_p^2 in p + 1 classes of p rows, that miss any one point.

    Certified once per p: N^T N = p I + J, so N has rank p^2, and each class
    sums to the all-ones row.  A class's row through the point is then the
    all-ones row minus the others, so the rows that miss it span every row
    with the all-ones row, rank >= p^2 - 1, and vanish at it, rank <= p^2 - 1.
    A float64 product of 0/1 matrices is exact.
    """
    N = line_incidence(p)
    gram = N.T.astype(float) @ N
    if not ((gram == p * np.eye(p * p) + 1).all() and (N.reshape(p + 1, p, -1).sum(axis=1) == 1).all()):
        raise RuntimeError(f"the lines of Z_{p}^2 fail their span certificate")
    return p * p - 1


@functools.lru_cache(maxsize=None)
def facet_reports(p: int) -> tuple:
    """`facet_check` at every point of Z_p^2, in point-index order, from one
    pass over the columns of `line_incidence(p)`; built once per p."""
    N, span = line_incidence(p), _certified_span(p)
    lows, zeros = N.min(axis=0).tolist(), np.count_nonzero(N == 0, axis=0).tolist()
    return tuple(
        FacetReport(divmod(i, p), low >= 0, zero, span, low >= 0 and span == p * p - 1, float(low))
        for i, (low, zero) in enumerate(zip(lows, zeros))
    )


def facet_check(u, S: StabilizerSet) -> FacetReport:
    """Is the inequality Tr(A_u rho) >= 0 a facet of conv(S)?

    Exact, on the line incidence: Tr(A_u S_i) = p W_i(u) is 1 when line i
    passes through u and 0 when it misses it.  The saturating states are the
    lines that miss u, and their span has dimension p^2 - 1, the facet's
    (`_certified_span`).  u is a one-qudit point (a1, a2); any other length
    raises ValueError.
    """
    p = S.p
    uu = as_point(u, p)
    if uu.size != 2:
        raise ValueError(f"facet_check takes a one-qudit point (a1, a2), got length {uu.size}")
    return facet_reports(p)[point_index(uu, p)]


def exact_vertex_matrix(S: StabilizerSet) -> list:
    """The stabilizer states' Wigner vectors as exact rationals, the lines of
    `line_incidence` over p: 1/p on the line and 0 elsewhere."""
    return [[Fraction(int(x), S.p) for x in row] for row in line_incidence(S.p)]


@functools.lru_cache(maxsize=None)
def _witness_vertices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every vertex (y, s) of the qutrit witness polyhedron, as read-only int64
    arrays 45 y, shape (1520, 9), and 45 s, shape (1520,), and the indexes of
    its 81 facet rows.

    The affine maps u -> M u + a of Z_3^2 (M in GL(2, 3), 432 maps) send lines
    to lines, so they permute the 12 stabilizer states and map vertices to
    vertices; the table is the union of the images of `_WITNESS_ORBITS`.
    Each row gives the valid inequality (s 1 - y) . W >= 0 on the polytope,
    since y . V_i <= s; the rows tight on 8 of the 12 stabilizer states are
    its facets, one row per facet.
    """
    pts = all_points(3, 1)
    mats = [m for m in itertools.product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3]
    images = np.einsum("gij,uj->gui", np.reshape(mats, (-1, 2, 2)), pts)
    # perms[g, a, u] = point_index(M_g u + a)
    perms = ((images[:, None] + pts[None, :, None]) % 3) @ np.array([3, 1])
    Y = np.unique(np.array(_WITNESS_ORBITS)[:, perms.reshape(-1, 9)].reshape(-1, 9), axis=0)
    values = Y @ line_incidence(3).T
    s = values.max(axis=1)
    facets = np.flatnonzero((values == s[:, None]).sum(axis=1) == 8)
    Y = 3 * Y
    Y.flags.writeable = s.flags.writeable = facets.flags.writeable = False
    return Y, s, facets


def _int_array(values, bound: int) -> np.ndarray:
    """Integers whose magnitude is at most `bound`, as an int64 array when every
    witness-vertex product of them and their quotient by a denominator up to
    `bound` is exact in int64 and float64 (`bound < EXACT_INT_BOUND`), else as
    Python ints."""
    return np.array(values, dtype=np.int64 if bound < EXACT_INT_BOUND else object)


def _separating_witness(V: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """max_{|y|<=1, s} y . t - s  s.t.  y . V_i <= s for all vertices V_i.

    Returns the gap y . t - max_i V_i . y, the witness y and the dual values
    w_i >= 0 of the vertex rows.  The gap is the LP optimum, the L1 distance
    from t to the hull, unique even where y is not.  The free s makes
    sum_i w_i = 1, and V^T w differs from t by the bound duals of y, whose L1
    norm is the gap: for an inside point w is a convex decomposition of t.
    """
    from scipy.optimize import linprog  # loaded by the first LP only

    count, m = V.shape
    res = linprog(
        np.append(-target, 1.0),
        A_ub=np.hstack([V, -np.ones((count, 1))]),
        b_ub=np.zeros(count),
        bounds=[(-1.0, 1.0)] * m + [(-np.inf, np.inf)],
        method="highs",
    )
    if res.status != 0:
        raise SolverFailure(f"witness LP did not converge: {res.message}")
    y = res.x[:m]
    return float(np.einsum("i,i->", y, target) - (y @ V.T).max()), y, -res.ineqlin.marginals


def hull_membership(
    rho_or_w,
    S: StabilizerSet,
    exact_w=None,
) -> HullCertificate:
    """Decide rho in conv(S) in Wigner coordinates; certify either verdict.

    Accepts a Hermitian unit-trace operator or a flat Wigner vector.  When
    exact_w (the same vector as Fractions) sums to 1 and the vertex set is
    the 12-state qutrit one, the verdict is exact and runs no LP: the
    witness-vertex table gives the exact L1 distance to the hull and a
    vertex y that attains it (`_hull_distances`), and distance 0 is
    inside.  Every other input runs the witness LP (`_separating_witness`)
    alone: a gap within HULL_TOL is inside, with the LP's dual weights as
    the decomposition, and a larger gap is outside, with the LP's witness.
    """
    p, n = S.p, S.n
    if exact_w is not None and (p, n) == (3, 1) and sum(exact_w) == 1:
        w = [Fraction(x) for x in exact_w]
        den = math.lcm(*(x.denominator for x in w))
        num = [x.numerator * (den // x.denominator) for x in w]
        (scaled,), (row,) = _hull_distances(_int_array([num], max(den, *map(abs, num))), den)
        if scaled == 0:
            return HullCertificate(inside=True)
        y = _witness_vertices()[0][row] / 45
        return HullCertificate(inside=False, violation=scaled / (45 * den), witness_y=y)
    V = S.wigner_matrix
    if isinstance(rho_or_w, np.ndarray) and rho_or_w.ndim == 2:
        target = phase_point_traces(rho_or_w, p, n) / p**n
    else:
        target = np.asarray(rho_or_w, dtype=float).ravel()
    gap, y, weights = _separating_witness(V, target)
    if gap <= HULL_TOL:
        recon = V.T @ weights
        residual = float(max(np.max(np.abs(recon - target)), abs(weights.sum() - 1.0)))
        return HullCertificate(inside=True, weights=weights, residual=residual)
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
    test is exact, and for p = 3 and a vector summing to 1 so is the hull
    verdict, from the witness-vertex table with no LP; otherwise the witness
    LP decides, with HULL_TOL on the L1 gap (`hull_membership`); the
    stabilizer set, S or `mub_stabilizer_states(p)`, is read only there.
    An operator that fails `validate_hermitian_unit_trace` gets no label: ValueError.
    """
    require_odd_prime(p)
    if W is None:
        if rho is None:
            raise ValueError("need rho or W")
        W = phase_point_traces(rho, p, 1) / p
    W = np.asarray(W, dtype=float).ravel()
    if rho is None:
        rho = state_from_wigner(W, p, 1)
    validate_hermitian_unit_trace(rho, p)
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
    cert = hull_membership(W, mub_stabilizer_states(p) if S is None else S, exact_w=exact_w)
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


@dataclass(frozen=True)
class SliceBlock:
    """Up to SLICE_BLOCK grid points of a slice as columns of integer numerators over `den`."""

    den: int
    axes: list  # per swept axis, the numerators of its grid values (shared by all blocks)
    index: tuple  # per swept axis, each point's index into `axes`
    derived: Optional[np.ndarray]  # numerators of the derived coordinate, when there is one
    code: np.ndarray  # index into SLICE_LABELS
    min_eig: np.ndarray
    min_num: np.ndarray  # numerator of min_wigner
    distance: np.ndarray  # 45 den times the hull distance; 0 off the hull


def _axis_count(axes) -> int:
    """Number of grid values on one axis: lo, lo + step, ... up to hi, plus hi if off the grid."""
    lo, hi, step = (Fraction(x) for x in axes)
    if step <= 0 or hi < lo:
        raise ValueError(f"bad axis range {axes}")
    count = int((hi - lo) / step)
    return count + 1 + (lo + count * step != hi)


def slice_blocks(spec: SliceSpec) -> Iterator[SliceBlock]:
    """Classify every grid point of the slice, block by block in row order.

    The grid is decided in blocks of array operations on integer numerators
    over one common denominator D: a row summing to anything but D is INVALID
    (possible only when no axis is derived), the sign test is the minimum
    numerator, and the minimum eigenvalue comes from a stacked `eigvalsh`.
    Labels then follow `classify_state`.  Each row that passes those tests
    gets its exact L1 distance to the hull from the witness-vertex table
    (`_hull_distances`): BOUND when it is positive, STABILIZER_MIX when it
    is 0.  No LP runs and scipy is not loaded.  A grid above
    MAX_SLICE_POINTS points raises ValueError before any allocation; each
    block is decided as it is drawn.
    """
    swept = spec.swept
    shape = tuple(_axis_count(axes) for _, axes in swept)
    total = math.prod(shape)
    if total > MAX_SLICE_POINTS:
        raise ValueError(f"slice grid has {total} points, above the cap of {MAX_SLICE_POINTS}")

    fixed = {point_index(pt, 3): Fraction(v) for pt, v in spec.fixed.items()}
    axes = [tuple(Fraction(x) for x in a) for _, a in swept]
    D = math.lcm(*(x.denominator for x in fixed.values()), *(x.denominator for a in axes for x in a))
    fixed_num = {i: int(v * D) for i, v in fixed.items()}
    grid = [list(range(int(lo * D), int(hi * D), int(step * D))) + [int(hi * D)] for lo, hi, step in axes]
    bound = D + sum(map(abs, fixed_num.values())) + sum(max(map(abs, a)) for a in grid)
    fixed_cols = list(fixed)
    fixed_row = _int_array(list(fixed_num.values()), bound)
    axis_num = [_int_array(a, bound) for a in grid]
    swept_cols = [point_index(pt, 3) for pt, _ in swept]
    derived_col = None if spec.derived_point is None else point_index(spec.derived_point, 3)
    single_A = weyl_table(3, 1).single_A.reshape(9, 9)

    def blocks():
        for start in range(0, total, SLICE_BLOCK):
            index = np.unravel_index(np.arange(start, min(start + SLICE_BLOCK, total)), shape)
            num = np.zeros((index[0].size, 9), dtype=fixed_row.dtype)
            num[:, fixed_cols] = fixed_row
            for col, values, k in zip(swept_cols, axis_num, index):
                num[:, col] = values[k]
            if derived_col is not None:
                num[:, derived_col] = D - num.sum(axis=1)
            min_num = num.min(axis=1)
            w = (num / D).astype(float)
            # the row-vector matmul reproduces `state_from_wigner` bit for bit
            rho = np.matmul(w[:, None, :], single_A).reshape(-1, 3, 3)
            min_eig = np.linalg.eigvalsh(rho).min(axis=1)
            code = np.select([num.sum(axis=1) != D, min_eig < -PSD_TOL, min_num < 0], [0, 1, 2], HULL_CODE)
            hull = code == HULL_CODE
            distance = np.zeros(len(num), dtype=num.dtype)
            distance[hull] = _hull_distances(num[hull], D)[0]
            code += distance > 0
            derived = None if derived_col is None else num[:, derived_col]
            yield SliceBlock(D, grid, index, derived, code, min_eig, min_num, distance)

    return blocks()


def slice_scan(spec: SliceSpec) -> list:
    """The grid of `slice_blocks` as one SliceRow per point.  A hull row's margin
    is its exact L1 distance to the hull rounded once to a float: the dual
    witness gap for BOUND, 0.0 (an exact verdict's residual) for STABILIZER_MIX."""
    rows = []
    for b in slice_blocks(spec):
        cols = [[Fraction(a[i], b.den) for i in k.tolist()] for a, k in zip(b.axes, b.index)]
        if b.derived is not None:
            cols.append([Fraction(x, b.den) for x in b.derived.tolist()])
        cols += [b.code.tolist(), b.min_eig.tolist(), b.min_num.tolist(), b.distance.tolist()]
        for *coords, code, eig, low, dist in zip(*cols):
            margin = dist / (45 * b.den) if code >= HULL_CODE else None
            rows.append(SliceRow(tuple(coords), SLICE_LABELS[code], eig, low / b.den, margin))
    return rows


def _hull_distances(num: np.ndarray, den: int) -> tuple[list, list]:
    """L1 distance to the qutrit stabilizer hull of each row of Wigner
    numerators over `den`, each row summing to `den`, as the exact integer
    45 den times it, and the first row of the vertex table that attains it.

    By LP duality the distance is the witness LP's optimum, so it is the
    largest 45 (y . t - s) over the vertex table.  A row that no facet row of
    the table cuts is inside, at distance 0, attained first by table row 0,
    y = -1, on which every unit-sum point has value 0.  Only the cut rows
    take the product with the whole table, WITNESS_ROWS rows at a time.
    Callers divide by 45 den once; the integer is 0 exactly when the row is
    inside, even where that quotient underflows.
    """
    Y, s, facets = _witness_vertices()
    if num.dtype != np.int64:
        Y, s = Y.astype(object), s.astype(object)
    cut = np.flatnonzero((num @ Y[facets].T > den * s[facets]).any(axis=1))
    best, rows = np.zeros(len(num), dtype=num.dtype), np.zeros(len(num), dtype=np.int64)
    for start in range(0, len(cut), WITNESS_ROWS):
        part = cut[start : start + WITNESS_ROWS]
        values = num[part] @ Y.T
        values -= den * s
        rows[part] = values.argmax(axis=1)
        best[part] = values[np.arange(len(part)), rows[part]]
    return best.tolist(), rows.tolist()


def _distinct_text(num: np.ndarray, den: int) -> np.ndarray:
    """fmt_number(x / den) of each integer numerator x, once per distinct x."""
    text = {x: fmt_number(x / den) for x in set(num.tolist())}
    return np.array([text[x] for x in num.tolist()], dtype=object)


def slice_csv_blocks(spec: SliceSpec, blocks: Iterable[SliceBlock]) -> Iterator[str]:
    """The CSV text of a slice scan, `fmt_number` on each cell: the header,
    then one string per block.  Each axis value is formatted once per axis,
    and the derived coordinate, min_wigner and lp_margin once per distinct
    numerator in a block; only min_eig is formatted per point."""
    names = [f"axis{i + 1}" for i in range(len(spec.free))] + ["label", "min_eig", "min_wigner", "lp_margin"]
    yield f"# format-version {FORMAT_VERSION}\n" + ",".join(names) + "\n"
    axes = []
    for b in blocks:
        axes = axes or [np.array([fmt_number(x / b.den) for x in a], dtype=object) for a in b.axes]
        cols = [text[k] for text, k in zip(axes, b.index)]
        if b.derived is not None:
            cols.append(_distinct_text(b.derived, b.den))
        eig = np.where(np.abs(b.min_eig) < PRINT_ZERO_BELOW, 0.0, b.min_eig).tolist()
        margin = np.where(b.code >= HULL_CODE, _distinct_text(b.distance, 45 * b.den), "")
        cols += [SLICE_LABELS[b.code], [f"{x:.12g}" for x in eig], _distinct_text(b.min_num, b.den), margin]
        yield "\n".join(map(",".join, zip(*cols))) + "\n"
