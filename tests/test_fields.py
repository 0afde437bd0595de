import numpy as np
import pytest

from dwigner.fields import (
    CliffordElement,
    all_points,
    apply_affine,
    index_point,
    inv2,
    is_symplectic,
    point_index,
    require_odd_prime,
    symplectic_J,
)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_inv2_is_inverse_of_two(p):
    assert (2 * inv2(p)) % p == 1


@pytest.mark.parametrize("bad", [0, 1, 2, 4, 9, 15, -3])
def test_require_odd_prime_rejects(bad):
    with pytest.raises(ValueError):
        require_odd_prime(bad)


def test_require_odd_prime_accepts():
    for p in (3, 5, 7, 11, 13):
        require_odd_prime(p)


def test_symplectic_J_blocks():
    J = symplectic_J(2)
    assert J.shape == (4, 4)
    block = np.array([[0, 1], [-1, 0]])
    assert np.array_equal(J[:2, :2], block)
    assert np.array_equal(J[2:, 2:], block)
    assert np.array_equal(J[:2, 2:], np.zeros((2, 2)))


def test_point_index_round_trip():
    for p, n in ((3, 1), (3, 2), (5, 1), (3, 3)):
        for i in range(p ** (2 * n)):
            assert point_index(index_point(i, p, n), p) == i


def test_all_points_order():
    pts = all_points(3, 1)
    assert tuple(pts[0]) == (0, 0)
    assert tuple(pts[1]) == (0, 1)
    assert tuple(pts[3]) == (1, 0)
    assert len(pts) == 9
    assert len(all_points(3, 2)) == 81


def test_is_symplectic():
    F = np.array([[0, 1], [2, 0]])  # fourier map
    assert is_symplectic(F, 3)
    assert not is_symplectic(np.array([[1, 0], [0, 2]]), 3)  # det = 2
    assert is_symplectic(np.array([[1, 1], [0, 1]]), 3)


def test_clifford_element_compose_inverse():
    p = 3
    F1 = np.array([[0, 1], [2, 0]])
    g1 = CliffordElement(F1, np.array([1, 2]), p)
    g2 = CliffordElement(np.array([[1, 1], [0, 1]]), np.array([0, 1]), p)
    ident = CliffordElement.identity(p, 1)
    assert g1.compose(ident) == g1 == ident.compose(g1)
    # compose acts as g2 after g1 on points
    for u in all_points(p, 1):
        lhs = apply_affine(g2.compose(g1), u)
        rhs = apply_affine(g2, apply_affine(g1, u))
        assert np.array_equal(lhs, rhs)


def test_clifford_element_hashable():
    p = 3
    a = CliffordElement.identity(p, 1)
    b = CliffordElement(np.eye(2, dtype=np.int64), np.zeros(2, dtype=np.int64), p)
    assert a == b
    assert len({a, b}) == 1


def test_clifford_element_rejects_non_symplectic():
    with pytest.raises(ValueError):
        CliffordElement(np.array([[1, 0], [0, 2]]), np.zeros(2, dtype=int), 3)
