"""Shared fixtures and object builders for the test suite."""

import math

import numpy as np
import pytest

import spinplanar as sp


@pytest.fixture
def ctx2():
    return sp.SpinContext(2)


@pytest.fixture
def ctx3():
    return sp.SpinContext(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


# the 5x5 Latin square used throughout (rows over symbols 1..5)
LATIN5_ROWS = np.array([
    [1, 2, 3, 4, 5],
    [2, 4, 1, 5, 3],
    [3, 5, 4, 2, 1],
    [4, 1, 5, 3, 2],
    [5, 3, 2, 1, 4],
])


def latin5() -> sp.LatinSquare:
    return sp.LatinSquare(LATIN5_ROWS.copy())


def haar_unitary(n: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    z = g.normal(size=(n, n)) + 1j * g.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_qls(square: sp.LatinSquare, seed: int) -> sp.QuantumLatinSquare:
    """A dense quantum Latin square: the square's basis vectors all turned
    by one Haar-random unitary."""
    return sp.QuantumLatinSquare(sp.latin_to_qls(square).vectors
                                 @ haar_unitary(square.n, seed).T)


def z3_latin() -> sp.LatinSquare:
    return sp.LatinSquare(np.array(sp.cyclic_table(3)))


def hadamard_equivalent(n: int, seed: int) -> sp.HadamardMatrix:
    """D1 P1 F_n P2 D2 with seeded phases and permutations."""
    rng = np.random.default_rng(seed)
    d1, d2 = (np.exp(2j * np.pi * rng.random(n)) for _ in range(2))
    f = sp.fourier_hadamard(n).entries[np.ix_(rng.permutation(n), rng.permutation(n))]
    return sp.HadamardMatrix(d1[:, None] * f * d2[None, :])


def tensor_biunitary(n: int, seed: int = 11) -> sp.BiunitaryMatrix:
    """A (x) B for Haar-random unitaries A, B: always biunitary."""
    return sp.BiunitaryMatrix(np.kron(haar_unitary(n, seed), haar_unitary(n, seed + 1)))


def tower_dims(u: sp.SpinElement, levels: int = 3) -> list[int]:
    """Dimensions of the plus-shaded kernels of a {0,1}-biunitary, levels 0..levels."""
    return [r.dim for r in sp.q_tower(sp.build_staircase(u, 1, levels), levels)]


def rotation_formula(idx: sp.SpinIndex, color: sp.SpinColor, n: int):
    """One rotation click on a basis index, written directly from the
    four boundary cases (even/odd width, each shading) plus the width-1
    degenerations. Deliberately separate from the library implementation."""
    rn = math.sqrt(n)
    k = color.width
    if k == 1 and color.shading == sp.PLUS:
        return {sp.SpinIndex(idx.right, (), (), None): 1.0}
    if k == 1 and color.shading == sp.MINUS:
        return {sp.SpinIndex(None, (), (), idx.left): 1.0}
    top, bottom = idx.top, idx.bottom
    if color.shading == sp.PLUS and k % 2 == 0:
        return {sp.SpinIndex(bottom[0], top[:-1], bottom[1:], top[-1]): rn}
    if color.shading == sp.MINUS and k % 2 == 0:
        return {sp.SpinIndex(None, (idx.left,) + top, bottom + (idx.right,), None): 1.0 / rn}
    if color.shading == sp.PLUS:
        return {sp.SpinIndex(bottom[0], top, bottom[1:] + (idx.right,), None): 1.0}
    return {sp.SpinIndex(None, (idx.left,) + top[:-1], bottom, top[-1]): 1.0}


def matrix_unit_product(x: sp.SpinElement, y: sp.SpinElement) -> dict:
    """x . y term by term from the matrix-unit rule, as a coefficient dict:
    e[p)^I_J(q] . e[p')^K_L(q'] = delta_pp' delta_JK delta_qq' e[p)^I_L(q],
    the S slot of (0,-) agreeing like the left one. Deliberately separate
    from the library's blockwise product."""
    buckets = {}
    for idx, c in y.coeffs.items():
        buckets.setdefault((idx.left, idx.top, idx.right, idx.s), []).append((idx.bottom, c))
    out = {}
    for idx, c in x.coeffs.items():
        for bottom, d in buckets.get((idx.left, idx.bottom, idx.right, idx.s), ()):
            key = sp.SpinIndex(idx.left, idx.top, bottom, idx.right, idx.s)
            out[key] = out.get(key, 0j) + c * d
    return {idx: c for idx, c in out.items() if c != 0}
