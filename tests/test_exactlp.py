"""Exact feasibility of rational qutrit Wigner vectors in the stabilizer polytope.

The exact route of `hull_membership` reads a vector's L1 distance to the hull
off the witness-vertex table, with no LP, and calls distance 0 inside.  These
tests hold that verdict to the facets enumerated in `conftest.cofactor_facets`
and to the cases an exact LP must get right: negativity, boundary points, the
boundary row of the pinned scan, and agreement with a float feasibility LP.
"""
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from dwigner.geometry import exact_vertex_matrix, hull_membership

from conftest import cofactor_facets


def F(a, b=1):
    return Fraction(a, b)


def _exact_verdict(exact, S):
    return hull_membership(np.array([float(x) for x in exact]), S, exact_w=exact)


def _facet_values(exact):
    return [sum(g * x for g, x in zip(facet, exact)) for facet in cofactor_facets()]


def test_negativity_blocks_feasibility(mub3):
    # unit sum and W(0, 0) = -1/90 < 0, the rest uniform: only the phase-point
    # facet W(0, 0) >= 0 cuts it off, so no convex mixture of vertices reaches it
    exact = [F(-1, 90)] + [F(91, 720)] * 8
    assert sum(exact) == 1
    cert = _exact_verdict(exact, mub3)
    assert not cert.inside
    assert cert.violation > 0 and cert.witness_y is not None
    values = _facet_values(exact)
    assert [g for g, v in zip(cofactor_facets(), values) if v < 0] == [(1,) + (0,) * 8]


def test_degenerate_boundary_case(mub3):
    # the midpoint of two vertices is inside, on facets tight on both vertices
    rows = exact_vertex_matrix(mub3)
    exact = [(a + b) / 2 for a, b in zip(rows[0], rows[1])]
    cert = _exact_verdict(exact, mub3)
    assert cert.inside and cert.residual == 0.0
    assert min(_facet_values(exact)) == 0


def test_matches_float_lp_on_random_instances(mub3):
    rows = exact_vertex_matrix(mub3)
    A = np.array([[float(x) for x in row] for row in rows]).T
    A_eq = np.vstack([A, np.ones(12)])
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(25):
        # either a random nonnegative mixture of vertices (inside) or a random
        # rational unit-sum vector (inside or outside)
        if rng.random() < 0.5:
            c = rng.integers(0, 3, size=12)
            c[rng.integers(12)] += 1
            exact = [sum(F(int(ci), int(c.sum())) * r[u] for ci, r in zip(c, rows)) for u in range(9)]
        else:
            c = rng.integers(-1, 4, size=9)
            c[rng.integers(9)] += 10
            exact = [F(int(x), int(c.sum())) for x in c]
        b = np.array([float(x) for x in exact] + [1.0])
        res = linprog(np.zeros(12), A_eq=A_eq, b_eq=b, bounds=[(0, None)] * 12, method="highs")
        cert = _exact_verdict(exact, mub3)
        assert cert.inside == res.success
        assert cert.inside == (min(_facet_values(exact)) >= 0)
        seen.add(cert.inside)
    assert seen == {True, False}


def test_exact_qutrit_boundary_row(mub3):
    # the X = 0 row of the seven-pinned 2-coordinate scan lies exactly on the
    # hull boundary; floats can wobble here, the exact route must say inside
    target = [F(0), F(2, 9)] + [F(1, 9)] * 7
    cert = _exact_verdict(target, mub3)
    assert cert.inside and cert.residual == 0.0 and cert.weights is None
    assert min(_facet_values(target)) == 0
