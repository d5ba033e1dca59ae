"""Relations that must leave a tower unchanged, driven by fixed-seed hypothesis.

Every test here is deterministic: examples are derived from the test itself
(derandomize) and nothing is stored between runs (no database).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import spinplanar as sp
from conftest import latin5, tower_dims


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
