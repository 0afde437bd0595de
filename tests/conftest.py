import functools
import itertools
import pathlib

import numpy as np
import pytest
from hypothesis import settings

from dwigner.stabilizer import line_incidence, mub_stabilizer_states
from dwigner.weyl import clifford_generator

# the same examples on every run, and no per-example deadline on a busy machine
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"


@pytest.fixture(scope="session")
def samples_dir():
    return SAMPLES


@pytest.fixture(scope="session")
def mub3():
    return mub_stabilizer_states(3)


@pytest.fixture(scope="session")
def mub5():
    return mub_stabilizer_states(5)


@pytest.fixture(scope="session")
def strange_state():
    v = np.zeros(3, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = -1 / np.sqrt(2)
    return np.outer(v, v.conj())


def word_unitary(p: int, n: int, word) -> np.ndarray:
    """The tests' dense reference for a gate word: the product of GateCalls in
    application order, each call's unitary built on all n registers; a
    displace call's point covers all its regs."""
    U = np.eye(p**n, dtype=complex)
    for call in word:
        kw = dict(call.params)
        if call.kind == "displace":
            pt = np.zeros(2 * n, dtype=np.int64)
            pt[[2 * r - 2 + k for r in call.regs for k in (0, 1)]] = kw["point"]
            kw["point"] = pt
        elif call.kind == "sum":
            kw["ctrl"], kw["tgt"] = call.regs
        else:
            kw["register"] = call.regs[0]
        U = clifford_generator(call.kind, p, n=n, **kw)[0] @ U
    return U


@functools.lru_cache(maxsize=None)
def cofactor_facets() -> tuple:
    """The facets of the qutrit stabilizer polytope by enumeration, the tests'
    reference for the hull verdict: sorted integer normals g, reduced by their
    gcd, with g . W >= 0 on the polytope (each constant is folded into its
    normal, as every vertex sums to 1).

    The 12 vertices, scaled by 3 to 0/1 vectors, span all 9 dimensions, so a
    facet is tight on 8 linearly independent vertices and its normal is the
    cofactor vector of those 8 rows.  Float determinants over the
    C(12, 8) = 495 subsets propose the normals; each one kept is checked in
    integers to vanish on its subset and to be nonnegative on all 12 vertices.
    """
    lines = line_incidence(3)
    subsets = np.array(list(itertools.combinations(range(len(lines)), 8)))
    rows = lines[subsets]
    minors = np.stack([np.linalg.det(np.delete(rows, j, axis=2)) for j in range(9)], axis=1)
    normals = np.rint(minors).astype(np.int64) * (-1) ** np.arange(9)
    facets = set()
    for subset, g in zip(subsets, normals):
        values = lines @ g
        if values.min() < 0:
            g, values = -g, -values
        if g.any() and values.min() >= 0 and not values[subset].any():
            facets.add(tuple(int(x) for x in g // np.gcd.reduce(g)))
    return tuple(sorted(facets))
