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


def tensor_biunitary(n: int, seed: int = 11) -> sp.BiunitaryMatrix:
    """A (x) B for Haar-random unitaries A, B: always biunitary."""
    return sp.BiunitaryMatrix(n, np.kron(haar_unitary(n, seed),
                                         haar_unitary(n, seed + 1)))


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
