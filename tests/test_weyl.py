import numpy as np
import pytest

from dwigner.fields import (
    CliffordElement,
    all_points,
    apply_affine,
    inv2,
    point_index,
    symplectic_J,
)
from dwigner.weyl import (
    NotCliffordError,
    clifford_generator,
    extract_symplectic,
    generator_map,
    phase_point_operator,
    weyl_operator,
    weyl_table,
)


def om(p):
    return np.exp(2j * np.pi / p)


@pytest.mark.parametrize("p", [3, 5])
def test_weyl_unitary_and_identity(p):
    assert np.allclose(weyl_operator((0, 0), p), np.eye(p))
    for u in all_points(p, 1):
        T = weyl_operator(u, p)
        assert np.allclose(T @ T.conj().T, np.eye(p), atol=1e-12)


def test_weyl_generators_match_convention():
    # T_(0,1) = X shifts |x> -> |x+1>; T_(1,0) = Z puts omega^x phases
    p = 3
    X = weyl_operator((0, 1), p)
    Z = weyl_operator((1, 0), p)
    e0 = np.zeros(p)
    e0[0] = 1
    assert np.allclose(X @ e0, np.eye(p)[:, 1])
    assert np.allclose(Z, np.diag([om(p) ** x for x in range(p)]))


@pytest.mark.parametrize("p", [3, 5])
def test_weyl_composition_rule(p):
    w = om(p)
    for u in all_points(p, 1):
        for v in all_points(p, 1):
            lhs = weyl_operator(u, p) @ weyl_operator(v, p)
            s = (int(u @ symplectic_J(1) @ v % p) * inv2(p)) % p
            uv = tuple((a + b) % p for a, b in zip(u, v))
            rhs = w**s * weyl_operator(uv, p)
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_weyl_composition_two_qudits():
    p = 3
    w = om(p)
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = tuple(rng.integers(0, p, size=4))
        v = tuple(rng.integers(0, p, size=4))
        lhs = weyl_operator(u, p) @ weyl_operator(v, p)
        s = (int(u @ symplectic_J(2) @ v % p) * inv2(p)) % p
        uv = tuple((a + b) % p for a, b in zip(u, v))
        assert np.allclose(lhs, w**s * weyl_operator(uv, p), atol=1e-12)


def test_weyl_adjoint_is_negation():
    p = 3
    for u in all_points(p, 1):
        neg = tuple((-c) % p for c in u)
        assert np.allclose(weyl_operator(u, p).conj().T, weyl_operator(neg, p))


@pytest.mark.parametrize("p", [3, 5])
def test_phase_point_hermitian_trace_one(p):
    for u in all_points(p, 1):
        A = phase_point_operator(u, p)
        assert np.allclose(A, A.conj().T, atol=1e-12)
        assert abs(np.trace(A) - 1) < 1e-10


def test_phase_point_zero_is_parity():
    p = 3
    A0 = phase_point_operator((0, 0), p)
    par = np.zeros((p, p))
    for x in range(p):
        par[(-x) % p, x] = 1
    assert np.allclose(A0, par, atol=1e-12)


def test_phase_point_covariant_under_weyl():
    p = 3
    for u in all_points(p, 1):
        T = weyl_operator(u, p)
        A = T @ phase_point_operator((0, 0), p) @ T.conj().T
        assert np.allclose(A, phase_point_operator(u, p), atol=1e-12)


def test_weyl_table_stacks():
    tab = weyl_table(3, 2)
    assert tab.A_stack.shape == (81, 9, 9)
    # stack index agrees with point_index
    u = (1, 2, 0, 1)
    i = point_index(u, 3)
    assert np.allclose(tab.A_stack[i], phase_point_operator(u, 3))


GEN_CASES = [
    ("fourier", {"register": 1}),
    ("quadratic", {"register": 1}),
    ("multiply", {"c": 2, "register": 1}),
    ("displace", {"point": (1, 2)}),
]


@pytest.mark.parametrize("kind,kw", GEN_CASES)
def test_generator_covariance_single(kind, kw):
    p = 3
    U, g = clifford_generator(kind, p, n=1, **kw)
    assert np.allclose(U @ U.conj().T, np.eye(p), atol=1e-12)
    for u in all_points(p, 1):
        lhs = U @ phase_point_operator(u, p) @ U.conj().T
        rhs = phase_point_operator(apply_affine(g, u), p)
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_generator_covariance_sum():
    p = 3
    U, g = clifford_generator("sum", p, n=2, ctrl=1, tgt=2)
    tab = weyl_table(p, 2)
    for u in all_points(p, 2):
        lhs = U @ tab.A_stack[point_index(u, p)] @ U.conj().T
        rhs = tab.A_stack[point_index(apply_affine(g, u), p)]
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_sum_gate_truth_table():
    p = 3
    U, _ = clifford_generator("sum", p, n=2, ctrl=1, tgt=2)
    for x in range(p):
        for y in range(p):
            col = np.zeros(p * p)
            col[x * p + y] = 1
            out = U @ col
            hit = int(np.argmax(np.abs(out)))
            assert hit == x * p + (y + x) % p
            assert abs(out[hit] - 1) < 1e-12


@pytest.mark.parametrize("p", [3, 5])
def test_generators_on_three_registers_match_kron_reference(p):
    I = np.eye(p)
    for kind, kw in [("fourier", {}), ("quadratic", {}), ("multiply", {"c": 2})]:
        U1 = clifford_generator(kind, p, **kw)[0]
        for r in (1, 2, 3):
            f1, f2, f3 = (U1 if s == r else I for s in (1, 2, 3))
            U, _ = clifford_generator(kind, p, n=3, register=r, **kw)
            assert np.array_equal(U, np.kron(np.kron(f1, f2), f3))
    # sum with control 3 and target 1: the two-register sum (control first)
    # (x) I on register 2 has tensor axes (3, 1, 2), moved to (1, 2, 3)
    S = np.zeros((p * p, p * p))
    for xc in range(p):
        for xt in range(p):
            S[xc * p + (xt + xc) % p, xc * p + xt] = 1
    ref = np.kron(S, I).reshape((p,) * 6).transpose(1, 2, 0, 4, 5, 3).reshape(p**3, p**3)
    U, _ = clifford_generator("sum", p, n=3, ctrl=3, tgt=1)
    assert np.array_equal(U, ref)


def test_generators_symplectic_part_matches():
    p = 3
    _, g = clifford_generator("fourier", p)
    assert np.array_equal(g.F, np.array([[0, 1], [p - 1, 0]]))
    assert np.array_equal(g.a, np.zeros(2, dtype=np.int64))
    _, g = clifford_generator("quadratic", p)
    assert np.array_equal(g.F, np.array([[1, 1], [0, 1]]))
    _, g = clifford_generator("multiply", p, c=2)
    assert np.array_equal(g.F, np.array([[2, 0], [0, 2]]))  # inv(2)=2 mod 3
    _, g = clifford_generator("displace", p, point=(1, 2))
    assert np.array_equal(g.F, np.eye(2, dtype=np.int64))
    assert np.array_equal(g.a, np.array([1, 2]))


def test_extract_symplectic_round_trips_generators():
    p = 3
    for kind, kw in GEN_CASES:
        U, g = clifford_generator(kind, p, n=1, **kw)
        assert extract_symplectic(U, p) == g
    U, g = clifford_generator("sum", p, n=2, ctrl=2, tgt=1)
    assert extract_symplectic(U, p) == g


@pytest.mark.parametrize("p", [7, 11, 13, 37])
def test_extract_symplectic_round_trips_generators_at_larger_p(p):
    # row digits of 10 and above, and bases above 36, decode as integers
    cases = [("fourier", {}), ("quadratic", {}), ("displace", {"point": (p - 1, p - 2)})]
    cases += [("multiply", {"c": c}) for c in (2, 10, p - 1) if c < p]
    for kind, kw in cases:
        U, g = clifford_generator(kind, p, **kw)
        assert g == generator_map(kind, p, **kw)
        assert extract_symplectic(U, p) == g
    if p <= 13:
        U, g = clifford_generator("sum", p, n=2, ctrl=1, tgt=2)
        assert g == generator_map("sum", p)
        assert extract_symplectic(U, p) == g
        U, g = clifford_generator("sum", p, n=2, ctrl=2, tgt=1)
        assert extract_symplectic(U, p) == g


def test_extract_symplectic_random_words():
    p = 3
    rng = np.random.default_rng(7)
    for n in (1, 2):
        for _ in range(10):
            U = np.eye(p**n, dtype=complex)
            g = CliffordElement.identity(p, n)
            for _ in range(6):
                kinds = ["fourier", "quadratic", "multiply", "displace"]
                if n > 1:
                    kinds.append("sum")
                kind = kinds[rng.integers(len(kinds))]
                if kind == "sum":
                    ctrl = int(rng.integers(1, n + 1))
                    tgt = 1 + (ctrl % n)
                    Ui, gi = clifford_generator(kind, p, n=n, ctrl=ctrl, tgt=tgt)
                elif kind == "multiply":
                    Ui, gi = clifford_generator(
                        kind, p, n=n, c=int(rng.integers(1, p)),
                        register=int(rng.integers(1, n + 1)),
                    )
                elif kind == "displace":
                    Ui, gi = clifford_generator(
                        kind, p, n=n, point=rng.integers(0, p, size=2 * n)
                    )
                else:
                    Ui, gi = clifford_generator(
                        kind, p, n=n, register=int(rng.integers(1, n + 1))
                    )
                U = Ui @ U
                g = gi.compose(g)
            assert extract_symplectic(U, p) == g


def test_extract_symplectic_rejects_non_clifford():
    # a non-Clifford diagonal unitary
    U = np.diag([1.0, np.exp(0.4j), 1.0])
    with pytest.raises(NotCliffordError):
        extract_symplectic(U, 3)


def test_extract_symplectic_rejects_non_unitary():
    with pytest.raises(ValueError):
        extract_symplectic(np.ones((3, 3)), 3)


def _random_clifford(p, n, rng, length=8):
    """A dense word of random generators and its composed (F, a)."""
    U = np.eye(p**n, dtype=complex)
    g = CliffordElement.identity(p, n)
    kinds = ["fourier", "quadratic", "multiply", "displace"] + (["sum"] if n > 1 else [])
    for _ in range(length):
        kind = kinds[rng.integers(len(kinds))]
        reg = int(rng.integers(1, n + 1))
        if kind == "sum":
            Ui, gi = clifford_generator(kind, p, n=n, ctrl=reg, tgt=1 + reg % n)
        elif kind == "multiply":
            Ui, gi = clifford_generator(kind, p, n=n, c=int(rng.integers(1, p)), register=reg)
        elif kind == "displace":
            Ui, gi = clifford_generator(kind, p, n=n, point=rng.integers(0, p, size=2 * n))
        else:
            Ui, gi = clifford_generator(kind, p, n=n, register=reg)
        U = Ui @ U
        g = gi.compose(g)
    return U, g


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2)])
def test_extract_symplectic_random_words_wider(p, n):
    rng = np.random.default_rng(11)
    for _ in range(4):
        U, g = _random_clifford(p, n, rng)
        assert extract_symplectic(U, p) == g


def test_extract_symplectic_ignores_a_global_phase():
    rng = np.random.default_rng(3)
    for p, n in [(3, 1), (3, 2), (5, 1)]:
        U, g = _random_clifford(p, n, rng)
        for theta in (0.3, np.pi / 2, 2.5):
            assert extract_symplectic(np.exp(1j * theta) * U, p) == g


@pytest.mark.parametrize("p", [3, 5, 7])
def test_extract_symplectic_rejects_non_clifford_fixing_the_parity(p):
    # U commutes with A_0, so the image of A_0 passes the test and only the
    # images of the A_(e_i) can expose U
    from scipy.linalg import expm

    rng = np.random.default_rng(p)
    A0 = phase_point_operator((0, 0), p)
    for _ in range(10):
        X = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        H = X + X.conj().T
        U = expm(0.5j * (H + A0 @ H @ A0))
        assert np.allclose(U @ A0 @ U.conj().T, A0, atol=1e-10)
        with pytest.raises(NotCliffordError):
            extract_symplectic(U, p)
