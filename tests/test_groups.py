"""Group multiplication tables and their spin-algebra images."""

import numpy as np
import pytest

import spinplanar as sp
from spinplanar.groups import BUILTIN_GROUPS


def test_builtin_tables_are_valid_groups():
    for name in BUILTIN_GROUPS:
        table = sp.builtin_group(name)
        e = sp.validate_group(table)
        n = len(table)
        assert all(table[e - 1][g] == g + 1 for g in range(n))
    assert sp.builtin_group("z4") == sp.builtin_group("Z4")
    with pytest.raises(sp.GroupValidationError):
        sp.builtin_group("Z99")


def test_axiom_violations_are_named():
    with pytest.raises(sp.GroupValidationError) as err:
        sp.validate_group([[1, 2], [2, 3]])
    assert err.value.axiom == "closure"

    with pytest.raises(sp.GroupValidationError) as err:
        sp.validate_group([[1, 1], [2, 2]])
    assert err.value.axiom == "identity"

    # monoid with an absorbing element: identity exists, 2 has no inverse
    with pytest.raises(sp.GroupValidationError) as err:
        sp.validate_group([[1, 2, 3], [2, 2, 2], [3, 2, 3]])
    assert err.value.axiom == "inverses"

    # JSON true is not the element 1, although bool is an int subclass
    with pytest.raises(sp.GroupValidationError) as err:
        sp.validate_group([[True]])
    assert err.value.axiom == "closure"

    # relabeled identity is still found
    assert sp.validate_group([[2, 1], [1, 2]]) == 2

    # loop with identity and self-inverse elements but no associativity
    rows = [
        [1, 2, 3, 4, 5],
        [2, 1, 4, 5, 3],
        [3, 5, 1, 2, 4],
        [4, 3, 5, 1, 2],
        [5, 4, 2, 3, 1],
    ]
    with pytest.raises(sp.GroupValidationError) as err:
        sp.validate_group(rows)
    assert err.value.axiom == "associativity"


def test_s3_table_structure():
    table = sp.s3_table()
    assert sp.validate_group(table) == 1
    arr = np.array(table)
    assert not np.array_equal(arr, arr.T)  # non-abelian
    orders = []
    for g in range(1, 7):
        p, k = g, 1
        while p != 1:
            p = table[p - 1][g - 1]
            k += 1
        orders.append(k)
    assert sorted(orders) == [1, 2, 2, 2, 3, 3]


def test_x_elements_multiply_exactly():
    table = sp.s3_table()
    ctx = sp.SpinContext(6)
    for g in range(1, 7):
        for h in range(1, 7):
            xg = sp.x_element(ctx, table, g)
            xh = sp.x_element(ctx, table, h)
            gh = table[g - 1][h - 1]
            assert sp.coeff_distance(sp.mult(xg, xh), sp.x_element(ctx, table, gh)) == 0.0


def test_x_identity_is_unit():
    table = sp.cyclic_table(4)
    ctx = sp.SpinContext(4)
    one = sp.unit(ctx, sp.SpinColor(2, sp.PLUS))
    assert sp.coeff_distance(sp.x_element(ctx, table, 1), one) == 0.0


def test_orbit_counts():
    for n, table in ((2, sp.cyclic_table(2)), (3, sp.cyclic_table(3)), (6, sp.s3_table())):
        for m in (1, 2):
            reps = sp.orbit_representatives(table, m)
            assert len(reps) == n ** (2 * m - 1)


def test_orbit_sum_shape_and_invariance():
    table = sp.cyclic_table(3)
    ctx = sp.SpinContext(3)
    reps = sp.orbit_representatives(table, 1)
    total = None
    for top, bottom in reps:
        s = sp.orbit_sum(ctx, table, top, bottom)
        assert s.color == sp.SpinColor(2, sp.PLUS)
        total = s if total is None else sp.add(total, s)
    # orbits partition the index set: the three sums cover all 9 matrix units
    assert len(total.coeffs) == 9
    assert all(abs(c - 1.0) < 1e-15 for c in total.coeffs.values())


def test_predicted_dims():
    assert sp.predicted_group_dims(3, 4) == [1, 1, 3, 9, 27]
    assert sp.predicted_group_dims(6, 3) == [1, 1, 6, 36]
