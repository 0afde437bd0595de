import numpy as np
import pytest

from dwigner.fields import all_points, point_index
from dwigner.weyl import phase_point_operator, weyl_table
from dwigner.wigner import (
    Povm,
    negativity_F,
    state_from_wigner,
    validate_state,
    wigner_of_effect,
    wigner_of_factors,
    wigner_of_state,
)


def random_density(rng, d):
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def test_wigner_zero_state():
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1
    W = wigner_of_state(rho, 3).values
    # 1/3 on the a2 = 0 column of each a1, zero elsewhere
    for i, u in enumerate(all_points(3, 1)):
        expect = 1 / 3 if u[1] == 0 else 0.0
        assert abs(W[i] - expect) < 1e-12


def test_wigner_mixed_state():
    W = wigner_of_state(np.eye(3) / 3, 3).values
    assert np.allclose(W, 1 / 9, atol=1e-14)
    assert abs(negativity_F(np.eye(3) / 3, 3) - 1 / 3) < 1e-12


def test_wigner_strange_state(strange_state):
    W = wigner_of_state(strange_state, 3).values
    assert abs(W[point_index((0, 0), 3)] + 1 / 3) < 1e-12
    others = [W[i] for i, u in enumerate(all_points(3, 1)) if tuple(u) != (0, 0)]
    assert np.allclose(others, 1 / 6, atol=1e-12)
    assert abs(negativity_F(strange_state, 3) + 1.0) < 1e-12


def test_wigner_normalization_and_round_trip():
    rng = np.random.default_rng(3)
    for p, n in ((3, 1), (3, 2), (5, 1)):
        rho = random_density(rng, p**n)
        W = wigner_of_state(rho, p)
        assert abs(W.values.sum() - 1.0) < 1e-10
        back = state_from_wigner(W.values, p, n)
        assert np.max(np.abs(back - rho)) < 1e-10


def test_born_rule_in_phase_space():
    rng = np.random.default_rng(5)
    p = 3
    for n in (1, 2):
        rho = random_density(rng, p**n)
        G = rng.normal(size=(p**n, p**n)) + 1j * rng.normal(size=(p**n, p**n))
        E = G @ G.conj().T
        E /= np.linalg.norm(E, 2) * 1.01  # PSD with norm < 1
        pr = np.dot(wigner_of_state(rho, p).values, wigner_of_effect(E, p).values)
        assert abs(pr - np.trace(rho @ E).real) < 1e-10


def test_purity_identity():
    # Tr(rho sigma) = d * sum_u W_rho(u) W_sigma(u)
    rng = np.random.default_rng(8)
    p = 3
    rho = random_density(rng, p)
    sig = random_density(rng, p)
    lhs = np.trace(rho @ sig).real
    rhs = p * np.dot(wigner_of_state(rho, p).values, wigner_of_state(sig, p).values)
    assert abs(lhs - rhs) < 1e-12


def test_factorization_of_products():
    rng = np.random.default_rng(11)
    p = 3
    r1 = random_density(rng, p)
    r2 = random_density(rng, p)
    W12 = wigner_of_state(np.kron(r1, r2), p).values
    W1 = wigner_of_state(r1, p).values
    W2 = wigner_of_state(r2, p).values
    assert np.allclose(W12, np.outer(W1, W2).ravel(), atol=1e-12)


def test_wigner_of_factors_matches_the_dense_product():
    rng = np.random.default_rng(12)
    for p in (3, 5):
        factors = [random_density(rng, p) for _ in range(3)]
        rows = wigner_of_factors(factors, p)
        dense = wigner_of_state(np.kron(np.kron(factors[0], factors[1]), factors[2]), p).values
        assert np.allclose(np.einsum("i,j,k->ijk", *rows).ravel(), dense, atol=1e-15)
        for M, row in zip(factors, wigner_of_factors(factors, p, kind="effect")):
            assert np.allclose(row, wigner_of_effect(M, p).values, atol=1e-14)


def test_wigner_of_factors_names_the_bad_factor():
    good = np.eye(3, dtype=complex) / 3
    neg = np.diag([1.5, -0.5, 0.0]).astype(complex)
    skew = good.copy()
    skew[0, 1] = 1e-6j
    with pytest.raises(ValueError, match="state factor 2 has negative eigenvalue"):
        wigner_of_factors([good, neg, good], 3)
    with pytest.raises(ValueError, match="state factor 3 has trace 3"):
        wigner_of_factors([good, good, 3 * good], 3)
    with pytest.raises(ValueError, match="state factor 1 is not Hermitian"):
        wigner_of_factors([skew, good], 3)
    with pytest.raises(ValueError, match="effect factor 1 is not Hermitian"):
        wigner_of_factors([1e3 * skew], 3, kind="effect")
    with pytest.raises(ValueError, match="3 x 3"):
        wigner_of_factors([np.eye(5) / 5], 3)
    # an effect is not a state: trace and sign are not checked
    assert wigner_of_factors([3 * good, neg], 3, kind="effect").shape == (2, 9)


def test_validate_state_rejections():
    with pytest.raises(ValueError):
        validate_state(np.array([[1, 1], [0, 0]], dtype=complex), 3)  # wrong dim
    bad_herm = np.eye(3, dtype=complex)
    bad_herm[0, 1] = 1j
    with pytest.raises(ValueError):
        validate_state(bad_herm / np.trace(bad_herm), 3)
    with pytest.raises(ValueError):
        validate_state(np.eye(3, dtype=complex), 3)  # trace 3
    neg = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        validate_state(neg, 3)


def test_povm_validation():
    p = 3
    effects = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    Povm(labels=("0", "1", "2"), effects=[e.astype(complex) for e in effects])
    # A_0 is not PSD, so it cannot be a POVM effect
    A0 = phase_point_operator((0, 0), p)
    comp = np.eye(p) - A0
    with pytest.raises(ValueError):
        Povm(labels=("a", "b"), effects=[A0, comp])
    # incomplete set
    with pytest.raises(ValueError):
        Povm(labels=("a",), effects=[np.diag([1.0, 0, 0]).astype(complex)])


def test_wigner_effect_scaling():
    # W_E = Tr(A_u E): identity gives 1 everywhere
    WE = wigner_of_effect(np.eye(3), 3).values
    assert np.allclose(WE, 1.0, atol=1e-12)


def test_sum_of_phase_points_is_d_identity():
    tab = weyl_table(3, 1)
    total = tab.A_stack.sum(axis=0)
    assert np.allclose(total, 3 * np.eye(3), atol=1e-10)
