import collections
import itertools
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dwigner import FORMAT_VERSION, fmt_number, geometry, wigner
from dwigner.circuits import parse_slice_file
from dwigner.geometry import (
    HULL_TOL,
    SliceRow,
    SliceSpec,
    classify_state,
    facet_check,
    hull_membership,
    slice_blocks,
    slice_csv_blocks,
    slice_scan,
)
from dwigner.fields import all_points, point_index
from dwigner.stabilizer import line_incidence, mub_stabilizer_states
from dwigner.wigner import state_from_wigner, wigner_of_state

from conftest import beyond_int64_slice_spec, cofactor_facets


def F(a, b=1):
    return Fraction(a, b)


def _axis_values(axes) -> list:
    lo, hi, step = (Fraction(x) for x in axes)
    count = int((hi - lo) / step)
    vals = [lo + k * step for k in range(count + 1)]
    if vals[-1] != hi:
        vals.append(hi)
    return vals


def reference_slice_scan(spec, S):
    """One `classify_state` call per grid point, in Fractions: the scan's reference."""
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
        wfloat = np.array([float(x) for x in exact_w])
        if sum(exact_w) != 1:
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


def reference_slice_csv(rows, spec) -> str:
    """`fmt_number` on every cell of every row: the slice writer's reference."""
    axes = len(spec.free)
    header = ",".join([f"axis{i + 1}" for i in range(axes)] + ["label", "min_eig", "min_wigner", "lp_margin"])
    lines = [f"# format-version {FORMAT_VERSION}", header]
    for row in rows:
        cells = [fmt_number(c) for c in row.coords]
        cells += [row.label, fmt_number(row.min_eig), fmt_number(row.min_wigner)]
        cells.append("" if row.lp_margin is None else fmt_number(row.lp_margin))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def slice_text(spec) -> str:
    return "".join(slice_csv_blocks(spec, slice_blocks(spec)))


def test_facets_qutrit(mub3):
    for u in all_points(3, 1):
        r = facet_check(u, mub3)
        assert r.all_vertices_nonnegative
        assert r.is_facet
        assert r.saturating_count == 8
        assert r.saturating_span_dim == 8
        assert r.min_vertex_value >= -1e-12


def test_facet_p5_spot_check(mub5):
    r = facet_check((0, 0), mub5)
    assert r.is_facet
    assert r.saturating_span_dim == 24
    assert r.all_vertices_nonnegative


@pytest.mark.parametrize("p", [3, 5, 7])
def test_facets_match_the_rank_of_the_float_wigner_rows(p):
    # the float reference: the saturating states are the Wigner rows that
    # vanish at u, and their span is the numerical rank of those rows
    S = mub_stabilizer_states(p)
    for u in all_points(p, 1):
        r = facet_check(u, S)
        column = S.wigner_matrix[:, point_index(u, p)]
        saturating = S.wigner_matrix[np.abs(column) < 1e-9]
        assert r.saturating_count == len(saturating) == p * p - 1
        assert r.saturating_span_dim == np.linalg.matrix_rank(saturating)
        assert r.min_vertex_value == 0 and r.is_facet


@pytest.mark.parametrize("u", [(0, 0, 0, 0), (1, 1, 0, 0), (2, 0, 1, 1, 0, 2)])
def test_facet_check_refuses_a_point_of_the_wrong_length(mub3, u):
    # a one-qudit set has points (a1, a2); a longer point once read a column
    # of the wrong point, or past the last one
    with pytest.raises(ValueError, match=f"length {len(u)}"):
        facet_check(u, mub3)


@pytest.mark.parametrize("p", [3, 7, 31])
def test_span_certificate_fails_when_one_incidence_moves(p, monkeypatch):
    # moving one 1 along one row leaves a 0/1 matrix of the same shape and
    # row sums that is no longer the lines of Z_p^2, and the check sees it
    certify = geometry._certified_span.__wrapped__  # the uncached check
    N = line_incidence(p)
    assert certify(p) == p * p - 1
    for row in (0, p, len(N) - 1):
        moved = N.copy()
        on, off = np.flatnonzero(moved[row])[0], np.flatnonzero(moved[row] == 0)[0]
        moved[row, [on, off]] = 0, 1
        monkeypatch.setattr(geometry, "line_incidence", lambda q: moved)
        with pytest.raises(RuntimeError, match="span certificate"):
            certify(p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hull_mixed_inside(p):
    # the witness LP's dual weights decompose the maximally mixed state and a
    # random stabilizer mixture
    S = mub_stabilizer_states(p)
    mix = np.random.default_rng(p).dirichlet(np.ones(len(S)))
    for rho in (np.eye(p, dtype=complex) / p, np.einsum("i,ijk->jk", mix, S.states)):
        cert = hull_membership(rho, S)
        assert cert.inside
        assert cert.residual < 1e-9
        assert abs(cert.weights.sum() - 1) < 1e-9
        assert cert.weights.min() >= -1e-12


def test_hull_each_vertex_inside(mub3):
    for rho in mub3.states[:4]:
        cert = hull_membership(rho, mub3)
        assert cert.inside


def test_hull_strange_outside_with_witness(mub3, strange_state):
    cert = hull_membership(strange_state, mub3)
    assert not cert.inside
    assert abs(cert.violation - 2 / 3) < 1e-8
    # dense witness separates: Tr(H rho) - max_i Tr(H S_i) = d * violation
    H = cert.witness_operator(3, 1)
    lhs = np.trace(H @ strange_state).real
    best = max(np.trace(H @ s).real for s in mub3.states)
    assert abs((lhs - best) - 3 * cert.violation) < 1e-8


def test_classify_chain(mub3, strange_state):
    label, det = classify_state(rho=np.eye(3, dtype=complex) / 3, S=mub3)
    assert label == "STABILIZER_MIX"
    assert det["certificate"].inside

    label, det = classify_state(rho=strange_state, S=mub3)
    assert label == "NEGATIVE"
    assert abs(det["min_wigner"] + 1 / 3) < 1e-12

    # nonnegative Wigner vector that is not a physical state
    w = np.zeros(9)
    w[0] = 1.0
    label, _ = classify_state(W=w, S=mub3)
    assert label == "NONPHYSICAL"


def test_classify_bound_point(mub3):
    # frozen from the 1/9-pinned 3-coordinate scan: first BOUND grid point
    vals = {
        (0, 0): F(0),
        (0, 1): F(1, 45),
        (1, 0): F(14, 45),
    }
    w = []
    for u in all_points(3, 1):
        w.append(float(vals.get(tuple(u), F(1, 9))))
    exact = [vals.get(tuple(u), F(1, 9)) for u in all_points(3, 1)]
    label, det = classify_state(W=np.array(w), S=mub3, exact_w=exact)
    assert label == "BOUND"
    assert det["certificate"].violation > 1e-6


def test_slice_spec_validation():
    fixed = {tuple(u): F(1, 9) for u in all_points(3, 1)[3:]}
    free = [((0, 0), (F(-1, 3), F(1, 3), F(1, 6))), ((0, 1), (F(-1, 3), F(1, 3), F(1, 6))), ((0, 2), None)]
    SliceSpec(p=3, fixed=fixed, free=free)
    # missing point
    with pytest.raises(ValueError):
        SliceSpec(p=3, fixed=dict(list(fixed.items())[:-1]), free=free)
    # derived not last
    with pytest.raises(ValueError):
        SliceSpec(p=3, fixed=fixed, free=[free[2], free[0], free[1]])
    # wrong p
    with pytest.raises(ValueError):
        SliceSpec(p=5, fixed=fixed, free=free)


def test_slice_scan_coarse_derived():
    fixed = {tuple(u): F(1, 9) for u in all_points(3, 1)[3:]}
    free = [
        ((0, 0), (F(-1, 3), F(1, 3), F(1, 6))),
        ((0, 1), (F(-1, 3), F(1, 3), F(1, 6))),
        ((0, 2), None),
    ]
    rows = slice_scan(SliceSpec(p=3, fixed=fixed, free=free))
    assert len(rows) == 25
    assert all(r.label != "INVALID" for r in rows)
    # every row's three coordinates sum to 1/3 (normalization)
    for r in rows:
        assert sum(r.coords) == F(1, 3)
    labels = {r.label for r in rows}
    assert "STABILIZER_MIX" in labels
    assert "NONPHYSICAL" in labels


def test_slice_scan_coarse_two_free():
    fixed = {tuple(u): F(1, 9) for u in all_points(3, 1)[2:]}
    free = [
        ((0, 0), (F(-1, 3), F(5, 9), F(1, 9))),
        ((0, 1), (F(-1, 3), F(5, 9), F(1, 9))),
    ]
    spec = SliceSpec(p=3, fixed=fixed, free=free)
    rows = slice_scan(spec)
    assert len(rows) == 81
    invalid = [r for r in rows if r.label == "INVALID"]
    valid = [r for r in rows if r.label != "INVALID"]
    # the valid rows sit on the X + Y = 2/9 line
    for r in valid:
        assert sum(r.coords) == F(2, 9)
    assert len(invalid) == 81 - len(valid)
    assert len(valid) >= 5


def test_slice_csv_format():
    fixed = {tuple(u): F(1, 9) for u in all_points(3, 1)[3:]}
    free = [
        ((0, 0), (F(0), F(1, 3), F(1, 3))),
        ((0, 1), (F(0), F(1, 3), F(1, 3))),
        ((0, 2), None),
    ]
    spec = SliceSpec(p=3, fixed=fixed, free=free)
    rows = slice_scan(spec)
    text = slice_text(spec)
    lines = text.strip().split("\n")
    assert lines[0] == "# format-version 1"
    assert lines[1] == "axis1,axis2,axis3,label,min_eig,min_wigner,lp_margin"
    assert len(lines) == 2 + len(rows)
    first = lines[2].split(",")
    assert len(first) == 7
    float(first[0])  # numeric cells parse
    float(first[4])


def test_hull_membership_accepts_wigner_vector(mub3):
    w = np.full(9, 1 / 9)
    cert = hull_membership(w, mub3)
    assert cert.inside


def test_exact_route_dispute_handling(mub3):
    # X = 0 boundary row of the seven-pinned scan: exact route must land inside
    exact = [F(0), F(2, 9)] + [F(1, 9)] * 7
    w = np.array([float(x) for x in exact])
    label, det = classify_state(W=w, S=mub3, exact_w=exact)
    assert label == "STABILIZER_MIX"


def _exact_rank(rows) -> int:
    """Rank of a list of rational rows by Gauss-Jordan elimination in Fractions."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_qutrit_facet_table(exact_vertices3):
    vertices = exact_vertices3
    facets = cofactor_facets()
    assert len(facets) == 81 == len(set(facets))
    for g in facets:
        values = [sum(gi * vi for gi, vi in zip(g, v)) for v in vertices]
        assert min(values) >= 0
        tight = [v for v, val in zip(vertices, values) if val == 0]
        assert _exact_rank(tight) == 8
    # the phase-point facets W(u) >= 0 of criterion 6 are among them
    for u in all_points(3, 1):
        e_u = [0] * 9
        e_u[point_index(u, 3)] = 1
        assert tuple(e_u) in facets


def test_witness_table_facet_rows_are_the_facets():
    # each table row (y, s) gives (s 1 - y) . W >= 0; its 81 facet rows, the
    # first step of `_hull_distances`, are the enumerated facets, once each
    Y, s, facets = geometry._witness_vertices()
    G = s[facets, None] - Y[facets]
    assert len(facets) == 81
    assert sorted(tuple(g) for g in (G // np.gcd.reduce(G, axis=1)[:, None]).tolist()) == list(cofactor_facets())


def test_witness_table_is_the_row_sort_of_the_orbit_images():
    # the reference is the row dedupe the packed keys replace: every image of
    # the orbit representatives under the 432 affine maps of Z_3^2, sorted and
    # deduped as rows by np.unique(axis=0)
    pts = all_points(3, 1)
    perms = [
        [point_index((np.reshape(m, (2, 2)) @ u + a) % 3, 3) for u in pts]
        for m in itertools.product(range(3), repeat=4)
        if (m[0] * m[3] - m[1] * m[2]) % 3
        for a in pts
    ]
    assert len(perms) == 432
    ref = np.unique(np.array(geometry._WITNESS_ORBITS)[:, perms].reshape(-1, 9), axis=0)
    values = ref @ line_incidence(3).T
    ref_s = values.max(axis=1)
    ref_facets = np.flatnonzero((values == ref_s[:, None]).sum(axis=1) == 8)
    Y, s, facets = geometry._witness_vertices()
    assert (Y.shape, s.shape, facets.shape) == ((1520, 9), (1520,), (81,))
    for got, want in ((Y, 3 * ref), (s, ref_s), (facets, ref_facets)):
        assert got.dtype == np.int64 and not got.flags.writeable
        assert np.array_equal(got, want)


def test_facet_table_not_built_at_import():
    code = "import dwigner.cli, dwigner.geometry as g; print(g._witness_vertices.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_slice_scan_runs_no_feasibility_lp(monkeypatch, samples_dir):
    calls = []
    real = geometry._separating_witness

    def spy(V, target):
        calls.append(target)
        return real(V, target)

    monkeypatch.setattr(geometry, "_separating_witness", spy)
    rows = slice_scan(parse_slice_file(samples_dir / "pinned_ninth_3d.slice"))
    assert calls == []
    labels = [r.label for r in rows]
    assert "BOUND" in labels and "STABILIZER_MIX" in labels
    assert all(r.lp_margin == 0.0 for r in rows if r.label == "STABILIZER_MIX")


@given(st.lists(st.integers(0, 20), min_size=12, max_size=12).filter(any))
def test_rational_vertex_mixtures_are_inside(mub3, exact_vertices3, counts):
    vertices = exact_vertices3
    total = sum(counts)
    exact = [sum(Fraction(c, total) * v[u] for c, v in zip(counts, vertices)) for u in range(9)]
    cert = hull_membership(np.array([float(x) for x in exact]), mub3, exact_w=exact)
    assert cert.inside and cert.residual == 0.0


@given(st.lists(st.integers(0, 20), min_size=9, max_size=9).filter(any))
def test_facet_verdict_matches_float_lp(mub3, counts):
    exact = [Fraction(c, sum(counts)) for c in counts]
    w = np.array([float(x) for x in exact])
    gap, _, _ = geometry._separating_witness(mub3.wigner_matrix, w)
    # the float LP is the reference except in a collar just above its threshold
    if HULL_TOL < gap <= HULL_TOL + 1e-6:
        return
    cert = hull_membership(w, mub3, exact_w=exact)
    assert cert.inside == (gap <= HULL_TOL)


def test_unnormalized_exact_vector_takes_the_float_route(mub3):
    # 1/9 to 12 digits sums to 0.999999999999: not a point of the exact
    # route, so the witness LP decides with its tolerance
    exact = [Fraction("0.111111111111")] * 9
    label, det = classify_state(W=np.array([float(x) for x in exact]), S=mub3, exact_w=exact)
    assert label == "STABILIZER_MIX"
    assert det["certificate"].weights is not None and det["certificate"].residual < 1e-9


@st.composite
def small_slice_specs(draw):
    """Fixed values over 9, 18 or 90 near the maximally mixed 1/9; 2 or 3 free
    points, the last one derived or not, with short axes centred where the
    free values sum to what the fixed ones leave."""
    points = draw(st.permutations([tuple(u) for u in all_points(3, 1)]))
    free_count = draw(st.integers(2, 3))
    derived = draw(st.booleans())
    fixed = {}
    for pt in points[free_count:]:
        den = draw(st.sampled_from((9, 18, 90)))
        fixed[pt] = Fraction(draw(st.integers(den // 9 - den // 18, den // 9 + den // 18)), den)
    centre = (1 - sum(fixed.values())) / free_count
    free = []
    for i, pt in enumerate(points[:free_count]):
        if derived and i == free_count - 1:
            free.append((pt, None))
            continue
        den = draw(st.sampled_from((9, 18, 90)))
        step = Fraction(draw(st.integers(1, 4)), den)
        lo = Fraction(int(centre * den) - draw(st.integers(0, 6)), den)
        hi = lo + Fraction(draw(st.integers(0, 12)), den)
        free.append((pt, (lo, hi, step)))
    return SliceSpec(p=3, fixed=fixed, free=free)


def assert_rows_match(rows, expected):
    """Equal rows, except that lp_margin may differ by 1e-12: the scan's margin
    is the exact hull distance rounded once, the reference's the float
    witness LP's optimum, which agrees with it only to rounding."""
    assert len(rows) == len(expected)
    for row, ref in zip(rows, expected):
        assert (row.coords, row.label, row.min_eig, row.min_wigner) == (
            ref.coords, ref.label, ref.min_eig, ref.min_wigner
        )
        if ref.lp_margin is None:
            assert row.lp_margin is None
        else:
            assert row.lp_margin == pytest.approx(ref.lp_margin, rel=0, abs=1e-12)


def assert_hull_rows_match_facets(spec, rows):
    """Every STABILIZER_MIX or BOUND row agrees with the facet reference:
    inside exactly when no facet is negative at its exact Wigner vector."""
    free = [point_index(pt, 3) for pt, _ in spec.free]
    hull = [r for r in rows if r.label in ("STABILIZER_MIX", "BOUND")]
    exact = []
    for r in hull:
        w = {point_index(pt, 3): Fraction(v) for pt, v in spec.fixed.items()}
        w.update(zip(free, r.coords))
        exact.append([w[i] for i in range(9)])
    den = math.lcm(1, *(x.denominator for w in exact for x in w))
    num = np.array([[x.numerator * (den // x.denominator) for x in w] for w in exact], dtype=object)
    values = num.reshape(-1, 9) @ np.array(cofactor_facets(), dtype=object).T
    assert [r.label == "STABILIZER_MIX" for r in hull] == (values.min(axis=1) >= 0).tolist()


@given(small_slice_specs())
def test_slice_scan_matches_per_point_reference(mub3, spec):
    rows = slice_scan(spec)
    assert_rows_match(rows, reference_slice_scan(spec, mub3))
    assert_hull_rows_match_facets(spec, rows)
    assert slice_text(spec) == reference_slice_csv(rows, spec)


@pytest.mark.parametrize("name", ["pinned_ninth_2d", "pinned_ninth_3d", "pinned_sixth_3d"])
def test_pinned_slice_hull_rows_match_the_facets(samples_dir, name):
    spec = parse_slice_file(samples_dir / f"{name}.slice")
    rows = slice_scan(spec)
    assert {"STABILIZER_MIX", "BOUND"} & {r.label for r in rows}
    assert_hull_rows_match_facets(spec, rows)


def test_slice_scan_exact_beyond_int64(mub3):
    spec = beyond_int64_slice_spec()
    rows = slice_scan(spec)
    assert_rows_match(rows, reference_slice_scan(spec, mub3))
    assert len({r.label for r in rows}) >= 3
    assert slice_text(spec) == reference_slice_csv(rows, spec)


def test_slice_scan_decides_the_grid_at_once(monkeypatch, samples_dir, mub3):
    import scipy.optimize

    def no_inverse(*args, **kwargs):
        raise AssertionError("state_from_wigner called during a slice scan")

    def no_lp(*args, **kwargs):
        raise AssertionError("LP solved during a slice scan")

    spec = parse_slice_file(samples_dir / "pinned_ninth_3d.slice")
    expected = reference_slice_scan(spec, mub3)
    monkeypatch.setattr(geometry, "state_from_wigner", no_inverse)
    monkeypatch.setattr(wigner, "state_from_wigner", no_inverse)
    monkeypatch.setattr(geometry, "_separating_witness", no_lp)
    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    # blocks of 512 split the 3721 points into 8 blocks, and witness products
    # of 40 rows split a block's BOUND rows
    monkeypatch.setattr(geometry, "SLICE_BLOCK", 512)
    monkeypatch.setattr(geometry, "WITNESS_ROWS", 40)
    rows = slice_scan(spec)
    assert_rows_match(rows, expected)
    per_block = collections.Counter(i // 512 for i, r in enumerate(rows) if r.label == "BOUND")
    assert len(per_block) >= 2 and max(per_block.values()) > 40


def _affine_permutations() -> np.ndarray:
    """perms[g, u] = point_index(M u + a) for the 432 affine maps of Z_3^2."""
    perms = []
    for m in itertools.product(range(3), repeat=4):
        if (m[0] * m[3] - m[1] * m[2]) % 3:
            for a in all_points(3, 1):
                perms.append([point_index(np.reshape(m, (2, 2)) @ u + a, 3) for u in all_points(3, 1)])
    return np.array(perms)


def _line_zero_vertices(lines) -> set:
    """15 y of every vertex (y, s) of {|y|_inf <= 1, 3 y . V_i <= 3 s} at which
    line 0 is tight, by brute force.  A vertex has 10 independent tight
    constraints, line 0 among them: 9 - f coordinates at +-1 and f + 1 lines
    that fix the f free coordinates and s.  Each choice of free set and lines
    is one square system, solved for every sign pattern at once."""
    found = set()
    for f in range(10):
        subsets = np.array([(0,) + c for c in itertools.combinations(range(1, 12), f)])
        signs = np.array(list(itertools.product((-1, 1), repeat=9 - f)))
        for free in itertools.combinations(range(9), f):
            free, fixed = list(free), [u for u in range(9) if u not in free]
            # the tight lines i: 3 V_i[free] . y_free - 3 s = -3 V_i[fixed] . y_fixed
            A = np.concatenate([lines[subsets][:, :, free], -np.ones((len(subsets), f + 1, 1))], axis=2)
            square = np.abs(np.linalg.det(A)) > 0.5  # the determinants are integers
            if not square.any():
                continue
            rhs = -lines[subsets[square]][:, :, fixed] @ signs.T
            X = np.linalg.solve(A[square], rhs.astype(float))  # (systems, f + 1, signs)
            y = np.empty((len(X), len(signs), 9))
            y[:, :, fixed] = signs
            y[:, :, free] = X[:, :f].transpose(0, 2, 1)
            y, s = y.reshape(-1, 9), X[:, f].ravel()
            feasible = (np.abs(y).max(axis=1) <= 1 + 1e-9) & ((y @ lines.T).max(axis=1) <= s + 1e-9)
            scaled = 15 * y[feasible]
            assert np.abs(scaled - np.rint(scaled)).max(initial=0) < 1e-9
            found |= {tuple(r) for r in np.rint(scaled).astype(int).tolist()}
    return found


def test_witness_vertex_table_is_complete():
    lines = line_incidence(3)
    Y, s, _ = geometry._witness_vertices()
    assert Y.shape == (1520, 9) and s.shape == (1520,)
    assert len({tuple(r) for r in Y.tolist()}) == 1520
    # feasible in integers: |45 y| <= 45 and 45 y . 3 V_i <= 3 (45 s)
    assert np.abs(Y).max() == 45 and not (Y % 3).any()
    values = Y @ lines.T
    assert (values <= 3 * s[:, None]).all()
    # each vertex's tight constraints, coordinates at +-1 and lines, have rank
    # 10: det(C^T C) != 0 for the integer matrix C of its tight rows
    constraints = np.vstack([np.hstack([np.eye(9, dtype=int), np.zeros((9, 1), dtype=int)]),
                             np.hstack([lines, -3 * np.ones((12, 1), dtype=int)])])
    tight = np.hstack([np.abs(Y) == 45, values == 3 * s[:, None]])
    gram = np.einsum("ki,vk,kj->vij", constraints, tight.astype(int), constraints)
    assert (np.rint(np.linalg.det(gram)) != 0).all()
    # the affine maps permute the table and carry line 0 to every line
    perms = _affine_permutations()
    assert len(perms) == 432
    for perm in perms:
        assert np.array_equal(np.unique(Y[:, perm], axis=0), np.unique(Y, axis=0))
    assert {tuple(lines[0][perm]) for perm in perms} == {tuple(r) for r in lines}
    # so the table is every vertex if it holds every vertex with line 0 tight
    at_line_zero = {tuple(r) for r in (Y[values[:, 0] == 3 * s] // 3).tolist()}
    assert _line_zero_vertices(lines) == at_line_zero


@st.composite
def unit_sum_vectors(draw):
    """A rational qutrit Wigner vector with sum 1, some entries maybe negative."""
    counts = draw(st.lists(st.integers(-4, 20), min_size=9, max_size=9).filter(lambda c: sum(c) > 0))
    return [Fraction(c, sum(counts)) for c in counts]


@given(unit_sum_vectors())
def test_hull_distance_matches_facets_and_witness_lp(mub3, exact):
    den = math.lcm(*(x.denominator for x in exact))
    num = np.array([[int(x * den) for x in exact]], dtype=np.int64)
    (scaled,), (row,) = geometry._hull_distances(num, den)
    assert (scaled == 0) == (min(sum(g * x for g, x in zip(facet, exact)) for facet in cofactor_facets()) >= 0)
    # the returned vertex attains the distance
    Y, s, _ = geometry._witness_vertices()
    values = num[0] @ Y.T - den * s
    assert values[row] == values.max() == scaled
    distance = scaled / (45 * den)
    gap, _, _ = geometry._separating_witness(mub3.wigner_matrix, np.array([float(x) for x in exact]))
    assert distance == pytest.approx(gap, rel=0, abs=1e-12)
