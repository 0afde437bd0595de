import dataclasses

import numpy as np
import pytest

from dwigner.stabilizer import line_incidence, mub_stabilizer_states
from dwigner.weyl import clifford_generator
from dwigner.wigner import wigner_of_state


def clifford_orbit(p, n):
    """Projectors of the closure of |0...0> under the dense Clifford generators.

    An independent reference for the MUB construction: it knows nothing of
    the bases, only the generator unitaries.
    """
    gens = []
    for r in range(1, n + 1):
        gens.append(clifford_generator("fourier", p, n=n, register=r)[0])
        gens.append(clifford_generator("quadratic", p, n=n, register=r)[0])
        for slot in (0, 1):  # Z and X unit displacements
            pt = np.zeros(2 * n, dtype=np.int64)
            pt[2 * (r - 1) + slot] = 1
            gens.append(clifford_generator("displace", p, n=n, point=pt)[0])
    for ctrl in range(1, n + 1):
        for tgt in range(1, n + 1):
            if ctrl != tgt:
                gens.append(clifford_generator("sum", p, n=n, ctrl=ctrl, tgt=tgt)[0])

    def key(P):
        # equal projectors round alike: their entries (roots of unity over d)
        # lie far from rounding boundaries; + 0.0 folds -0.0 into 0.0
        return (np.round(P, 6) + 0.0).tobytes()

    P0 = np.zeros((p**n, p**n), dtype=complex)
    P0[0, 0] = 1.0
    found = {key(P0): P0}
    frontier = [P0]
    while frontier:
        nxt = []
        for P in frontier:
            for U in gens:
                Q = U @ P @ U.conj().T
                if key(Q) not in found:
                    found[key(Q)] = Q
                    nxt.append(Q)
        frontier = nxt
    return list(found.values())


@pytest.mark.parametrize("p,count", [(3, 12), (5, 30)])
def test_mub_counts(p, count, mub3, mub5):
    S = mub3 if p == 3 else mub5
    assert len(S.states) == count
    for rho in S.states:
        assert abs(np.trace(rho) - 1) < 1e-12
        assert np.max(np.abs(rho @ rho - rho)) < 1e-10  # pure projector


def test_mub_unbiasedness(mub3):
    # |<phi|psi>|^2 = 1/p across bases, in {0,1} within a basis
    p = 3
    S = mub3.states
    labels = mub3.labels
    for i in range(len(S)):
        for j in range(i + 1, len(S)):
            ov = np.trace(S[i] @ S[j]).real
            same_basis = labels[i].split(":")[0] == labels[j].split(":")[0]
            if same_basis:
                assert abs(ov) < 1e-12
            else:
                assert abs(ov - 1 / p) < 1e-12


@pytest.mark.parametrize("p", [3, 5])
def test_mub_states_positively_represented(p, mub3, mub5):
    S = mub3 if p == 3 else mub5
    for rho in S.states:
        assert wigner_of_state(rho, p).values.min() >= -1e-12


def test_orbit_matches_mub_single_qutrit(mub3):
    orbit = clifford_orbit(3, 1)
    assert len(orbit) == 12
    # set equality with the MUB construction
    for rho in orbit:
        dists = [np.max(np.abs(rho - s)) for s in mub3.states]
        assert min(dists) < 1e-8


def test_orbit_count_p5(mub5):
    orbit = clifford_orbit(5, 1)
    assert len(orbit) == 30
    # set equality with the MUB construction
    for rho in orbit:
        dists = [np.max(np.abs(rho - s)) for s in mub5.states]
        assert min(dists) < 1e-8


def test_orbit_two_qutrits():
    orbit = clifford_orbit(3, 2)
    assert len(orbit) == 360
    # Hudson: every orbit state is nonnegative, values on the 1/d grid
    for rho in orbit[:40]:
        W = wigner_of_state(rho, 3).values
        assert W.min() >= -1e-10
        on_grid = np.minimum(np.abs(W), np.abs(W - 1 / 9))
        assert np.max(on_grid) < 1e-10


def test_wigner_matrix_shape(mub3):
    M = mub3.wigner_matrix
    assert M.shape == (12, 9)
    assert np.allclose(M.sum(axis=1), 1.0, atol=1e-12)
    # cached object identity
    assert mub3.wigner_matrix is M


def test_mub_set_is_cached_and_read_only(mub3):
    assert mub_stabilizer_states(3) is mub3
    with pytest.raises(ValueError):
        mub3.states[0][0, 0] = 0.5
    with pytest.raises(ValueError):
        mub3.wigner_matrix[0, 0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        mub3.states = ()
    assert isinstance(mub3.states, tuple) and isinstance(mub3.labels, tuple)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_line_incidence_is_p_times_the_wigner_rows(p):
    # each stabilizer state's Wigner function is 1/p on one line of Z_p^2
    S = mub_stabilizer_states(p)
    N = line_incidence(p)
    assert N.dtype == np.int64 and N.shape == (p * (p + 1), p * p)
    assert np.array_equal(N, np.rint(p * S.wigner_matrix))
    assert np.abs(S.wigner_matrix - N / p).max() <= 1e-15


def test_line_incidence_is_cached_and_read_only():
    N = line_incidence(3)
    assert line_incidence(3) is N
    with pytest.raises(ValueError):
        N[0, 0] = 0
    # Z:0 is the line a2 = 0 and XZ^1:0 the line a1 = a2, point index 3 a1 + a2
    assert np.flatnonzero(N[0]).tolist() == [0, 3, 6]
    assert np.flatnonzero(N[6]).tolist() == [0, 4, 8]
