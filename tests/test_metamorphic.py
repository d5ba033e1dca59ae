"""Relations that must leave a tower unchanged, driven by fixed-seed hypothesis.

Every test here is deterministic: examples are derived from the test itself
(derandomize) and nothing is stored between runs (no database).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinplanar as sp
from conftest import f4q, latin5, tower_dims


def fixed(max_examples):
    return settings(derandomize=True, database=None, max_examples=max_examples, deadline=None)


def isotopes(n):
    """Row, column and symbol permutations of an order-n Latin square."""
    perm = st.permutations(range(n))
    return st.tuples(perm, perm, perm)


def isotope(rows, rho, gamma, pi):
    # row i of the result is row rho[i], column j is column gamma[j], and
    # symbol s (1-based) becomes pi[s - 1] + 1
    return sp.LatinSquare(np.asarray(pi)[rows[np.ix_(rho, gamma)] - 1] + 1)


# Permuting rows or symbols leaves the group G = <R_a^-1 R_b> generated by the
# rows fixed, and permuting columns conjugates it, so the orbit counts, and
# with them the tower, stay.  Transposition is left out: it kept the tower in
# every case tried, but there is no proof of it here.


@fixed(5)
@given(isotopes(6))
def test_s3_isotopes_keep_the_tower(perms):
    rows = np.array(sp.s3_table())
    assert tower_dims(isotope(rows, *perms).to_element()) == [1, 1, 6, 36]


@fixed(8)
@given(isotopes(5))
def test_latin5_isotopes_keep_the_tower(perms):
    rows = latin5().rows
    assert tower_dims(isotope(rows, *perms).to_element()) == [1, 1, 2, 5]


# Hadamard matrices: D1 P1 H P2 D2 (phases D, permutations P), complex
# conjugation and transposition all keep the tower (Banica-Nicoara).  F4(q) at
# q = e^{0.7i} is not symmetric, so transposing it is not the identity.

HADAMARDS = [pytest.param(sp.fourier_hadamard(3).entries, [1, 1, 3, 9], id="F3"),
             pytest.param(f4q(np.exp(0.7j)), [1, 1, 3, 10], id="F4(exp(0.7i))")]


def hadamard_dims(h):
    return tower_dims(sp.HadamardMatrix(h).to_element())


def equivalences(n):
    """Row and column permutations and phases, one set each side."""
    perm = st.permutations(range(n))
    phases = st.lists(st.floats(0, 1), min_size=n, max_size=n)
    return st.tuples(perm, perm, phases, phases)


def equivalent(h, rho, gamma, left, right):
    # D1 P1 H P2 D2 with D = diag(exp(2 pi i phases))
    d1, d2 = (np.exp(2j * np.pi * np.asarray(p)) for p in (left, right))
    return d1[:, None] * np.asarray(h)[np.ix_(rho, gamma)] * d2[None, :]


@pytest.mark.parametrize("h, dims", HADAMARDS)
@fixed(5)
@given(data=st.data())
def test_hadamard_equivalents_conjugates_and_transposes_keep_the_tower(h, dims, data):
    g = equivalent(h, *data.draw(equivalences(len(h))))
    assert hadamard_dims(g) == dims
    assert hadamard_dims(g.conj()) == dims
    assert hadamard_dims(g.T) == dims
