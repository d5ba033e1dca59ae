"""Basis layout, multiplication, star, traces, and block structure."""

import numpy as np
import pytest

import spinplanar as sp
from spinplanar.core import SCALAR_INDEX
from conftest import matrix_unit_product

ALL_COLORS = [sp.SpinColor(k, sh) for k in range(0, 6) for sh in (sp.PLUS, sp.MINUS)]


def _sparse_element(ctx, color, rng, density):
    """A random element keeping each coefficient with the given probability."""
    x = sp.random_element(ctx, color, rng)
    return sp.from_coeffs(ctx, color, {idx: c for idx, c in x.terms()
                                       if rng.random() < density})


def test_color_layout_and_dims(ctx2, ctx3):
    # (0,+) is scalars, (0,-) is N-dimensional, (k,+-) has dimension N^k
    for ctx in (ctx2, ctx3):
        assert sp.color_dim(ctx, sp.SpinColor(0, sp.PLUS)) == 1
        assert sp.color_dim(ctx, sp.SpinColor(0, sp.MINUS)) == ctx.N
        for k in range(1, 6):
            for sh in (sp.PLUS, sp.MINUS):
                assert sp.color_dim(ctx, sp.SpinColor(k, sh)) == ctx.N ** k
                assert len(sp.basis_order(ctx, sp.SpinColor(k, sh))) == ctx.N ** k


def test_index_color_derivation(ctx2):
    assert sp.core.index_color(sp.SpinIndex(None, (1,), (2,), None)) == sp.SpinColor(2, sp.PLUS)
    assert sp.core.index_color(sp.SpinIndex(2, (), (), 1)) == sp.SpinColor(2, sp.MINUS)
    assert sp.core.index_color(sp.SpinIndex(None, (1,), (2,), 1)) == sp.SpinColor(3, sp.PLUS)
    assert sp.core.index_color(sp.SpinIndex(1, (2,), (1,), None)) == sp.SpinColor(3, sp.MINUS)
    assert sp.core.index_color(sp.spin_state(1)) == sp.SpinColor(0, sp.MINUS)
    assert sp.core.index_color(SCALAR_INDEX) == sp.SpinColor(0, sp.PLUS)
    with pytest.raises(ValueError):
        sp.core.index_color(sp.SpinIndex(None, (1,), (), None))  # ragged pair


def test_mult_matrix_units(ctx2):
    e12 = sp.make_basis(ctx2, sp.SpinIndex(None, (1,), (2,), None))
    e21 = sp.make_basis(ctx2, sp.SpinIndex(None, (2,), (1,), None))
    e11 = sp.make_basis(ctx2, sp.SpinIndex(None, (1,), (1,), None))
    assert sp.coeff_distance(sp.mult(e12, e21), e11) == 0.0
    assert sp.mult(e12, e12).nnz == 0


def test_mult_right_slot_diagonal(ctx2):
    a = sp.make_basis(ctx2, sp.SpinIndex(None, (1,), (2,), 1))
    b = sp.make_basis(ctx2, sp.SpinIndex(None, (2,), (1,), 2))
    c = sp.make_basis(ctx2, sp.SpinIndex(None, (2,), (1,), 1))
    want = sp.make_basis(ctx2, sp.SpinIndex(None, (1,), (1,), 1))
    assert sp.mult(a, b).nnz == 0
    assert sp.coeff_distance(sp.mult(a, c), want) == 0.0


def test_zero_minus_projections(ctx3):
    s1 = sp.make_basis(ctx3, sp.spin_state(1))
    s2 = sp.make_basis(ctx3, sp.spin_state(2))
    assert sp.coeff_distance(sp.mult(s1, s1), s1) == 0.0
    assert sp.mult(s1, s2).nnz == 0
    assert sp.normalized_trace(s1) == pytest.approx(1 / 3)


def test_unit_is_identity_everywhere(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        for k in range(0, 5):
            for sh in (sp.PLUS, sp.MINUS):
                c = sp.SpinColor(k, sh)
                x = sp.random_element(ctx, c, rng)
                one = sp.unit(ctx, c)
                assert sp.coeff_distance(sp.mult(one, x), x) < 1e-14
                assert sp.coeff_distance(sp.mult(x, one), x) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mult_matches_matrix_unit_product(n):
    ctx = sp.SpinContext(n)
    rng = np.random.default_rng(1300 + n)
    for c in ALL_COLORS:
        for density in (0.2, 1.0):
            x, y = _sparse_element(ctx, c, rng, density), _sparse_element(ctx, c, rng, density)
            got, want = sp.mult(x, y), matrix_unit_product(x, y)
            assert set(got.coeffs) == set(want)
            assert max((abs(got.coefficient(k) - v) for k, v in want.items()),
                       default=0.0) <= 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_mult_of_zero_one_elements_is_exact(n):
    # 0/1 coefficients (group elements and random 0/1 elements) multiply exactly
    ctx = sp.SpinContext(n)
    rng = np.random.default_rng(1310 + n)
    u = sp.group_element(sp.cyclic_table(n))
    pairs = [(u, u), (u, sp.star(u)), (sp.star(u), u)]
    pairs += [(sp.x_element(sp.cyclic_table(n), g), sp.x_element(sp.cyclic_table(n), h))
              for g in range(1, n + 1) for h in range(1, n + 1)]
    for c in ALL_COLORS:
        order = sp.basis_order(ctx, c)
        x, y = (sp.from_coeffs(ctx, c, dict(zip(order, rng.integers(0, 2, len(order)) + 0j)))
                for _ in range(2))
        pairs.append((x, y))
    for x, y in pairs:
        assert sp.mult(x, y).coeffs == matrix_unit_product(x, y)


def test_exact_zero_products_are_empty(ctx3):
    s1, s2 = (sp.make_basis(ctx3, sp.spin_state(i)) for i in (1, 2))
    e11 = sp.make_basis(ctx3, sp.SpinIndex(None, (1,), (1,), None))
    e22 = sp.make_basis(ctx3, sp.SpinIndex(None, (2,), (2,), None))
    for x, y in ((s1, s2), (e11, e22)):
        assert sp.mult(x, y).nnz == 0
        assert matrix_unit_product(x, y) == {}


def test_nan_coefficients_are_kept(ctx2):
    # only exact zeros are pruned: a NaN must not vanish from a result
    c = sp.SpinColor(2, sp.PLUS)
    idx = sp.SpinIndex(None, (1,), (2,), None)
    x = sp.from_coeffs(ctx2, c, {idx: complex("nan"), sp.SpinIndex(None, (2,), (2,), None): 0j})
    assert x.nnz == 1 and np.isnan(x.coefficient(idx))
    one = sp.unit(ctx2, c)
    for out in (sp.add(x, one), sp.mult(x, one), sp.mult(one, x), sp.rotate_pow(x, 1)):
        assert out.nnz >= 1
        assert any(np.isnan(v) for _, v in out.terms())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inner_product_is_the_trace_form(n):
    ctx = sp.SpinContext(n)
    rng = np.random.default_rng(1320 + n)
    for c in ALL_COLORS:
        x, y = sp.random_element(ctx, c, rng), _sparse_element(ctx, c, rng, 0.5)
        for a, b in ((x, y), (y, x), (x, x)):
            assert abs(sp.inner_product(a, b)
                       - sp.normalized_trace(sp.mult(sp.star(b), a))) <= 1e-13
        assert sp.norm(x) == pytest.approx(
            np.sqrt(sp.normalized_trace(sp.mult(sp.star(x), x)).real), abs=1e-13)


def test_mult_mismatch_messages(ctx2, ctx3):
    with pytest.raises(ValueError, match=r"color mismatch in mult: \(0,\+\) vs \(0,-\)"):
        sp.mult(sp.unit(ctx2, sp.SpinColor(0, sp.PLUS)), sp.unit(ctx2, sp.SpinColor(0, sp.MINUS)))
    with pytest.raises(ValueError, match="context mismatch in mult: N=2 vs N=3"):
        sp.mult(sp.unit(ctx2, sp.SpinColor(3, sp.MINUS)), sp.unit(ctx3, sp.SpinColor(3, sp.MINUS)))


def test_mult_color_mismatch(ctx2, ctx3):
    x = sp.unit(ctx2, sp.SpinColor(2, sp.PLUS))
    y = sp.unit(ctx2, sp.SpinColor(3, sp.PLUS))
    with pytest.raises(ValueError):
        sp.mult(x, y)
    z = sp.unit(ctx3, sp.SpinColor(2, sp.PLUS))
    with pytest.raises(ValueError):
        sp.mult(x, z)


def test_star_is_antilinear_involution(ctx2, rng):
    c = sp.SpinColor(3, sp.MINUS)
    x = sp.random_element(ctx2, c, rng)
    y = sp.random_element(ctx2, c, rng)
    assert sp.coeff_distance(sp.star(sp.star(x)), x) == 0.0
    lhs = sp.star((2 + 1j) * x + y)
    rhs = (2 - 1j) * sp.star(x) + sp.star(y)
    assert sp.coeff_distance(lhs, rhs) < 1e-15


def test_trace_weights(ctx2):
    # tau(e^I_J) = delta_IJ N^-(pairs + slots); here one pair, no slots
    e11 = sp.make_basis(ctx2, sp.SpinIndex(None, (1,), (1,), None))
    e12 = sp.make_basis(ctx2, sp.SpinIndex(None, (1,), (2,), None))
    assert sp.normalized_trace(e11) == pytest.approx(0.5)
    assert sp.normalized_trace(e12) == 0.0
    # with a right slot the weight picks up another 1/N
    e1 = sp.make_basis(ctx2, sp.SpinIndex(None, (1,), (1,), 1))
    assert sp.normalized_trace(e1) == pytest.approx(0.25)
    # normalized: tau(1) = 1 at every color
    for k in range(0, 5):
        for sh in (sp.PLUS, sp.MINUS):
            assert sp.normalized_trace(sp.unit(ctx2, sp.SpinColor(k, sh))) == pytest.approx(1.0)


def test_trace_faithful_positive(ctx3, rng):
    for k in range(0, 4):
        for sh in (sp.PLUS, sp.MINUS):
            x = sp.random_element(ctx3, sp.SpinColor(k, sh), rng)
            v = sp.normalized_trace(sp.mult(sp.star(x), x))
            assert v.real > 0 and abs(v.imag) < 1e-12
            assert abs(sp.inner_product(x, x) - v) < 1e-12


ROUND_TRIP_COLORS = [sp.SpinColor(0, sp.PLUS), sp.SpinColor(0, sp.MINUS)] + [
    sp.SpinColor(k, sh) for k in (1, 3, 4) for sh in (sp.PLUS, sp.MINUS)]


@pytest.mark.parametrize("density", [1.0, 0.4], ids=["dense", "sparse"])
@pytest.mark.parametrize("color", ROUND_TRIP_COLORS, ids=repr)
def test_vectorize_round_trip(ctx3, rng, color, density):
    # the bulk conversions against a plain per-term loop, bit for bit
    x = _sparse_element(ctx3, color, rng, density)
    order = sp.basis_order(ctx3, color)
    pos = {idx: i for i, idx in enumerate(order)}
    want = np.zeros(len(order), dtype=complex)
    for idx, c in x.terms():
        want[pos[idx]] = c
    v = sp.vectorize(x)
    assert v.dtype == complex and v.tobytes() == want.tobytes()
    # the same terms keyed by fresh equal indices, or in reverse order
    for coeffs in ({sp.SpinIndex(*idx): c for idx, c in x.terms()},
                   dict(reversed(x.coeffs.items()))):
        assert sp.vectorize(sp.SpinElement(ctx3, color, coeffs)).tobytes() == want.tobytes()

    y = sp.devectorize(ctx3, color, v)
    assert list(y.coeffs) == [idx for idx in order if idx in x.coeffs]
    assert all(type(c) is complex for c in y.coeffs.values())
    assert y.coeffs == x.coeffs

    # exact zeros of either sign are dropped, NaN is kept
    specials = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex("nan")]
    w = v.copy()
    w[:len(specials)] = specials[:len(w)]
    z = sp.devectorize(ctx3, color, w)
    assert list(z.coeffs) == [order[i] for i in range(len(w)) if w[i] != 0]
    assert [np.isnan(c) for c in z.coeffs.values()] == [bool(np.isnan(c)) for c in w if c != 0]

    with pytest.raises(ValueError, match="does not match dim"):
        sp.devectorize(ctx3, color, np.zeros(len(order) + 1))
    # a foreign index (spin 4 at N = 3), also in place of a dense term
    foreign = dict(list(x.terms())[:-1])
    foreign[sp.spin_state(4)] = 1.0
    with pytest.raises(KeyError):
        sp.vectorize(sp.SpinElement(ctx3, color, foreign))


def test_gram_is_uniform_diagonal(ctx2):
    # the basis is orthogonal with one common weight per color
    for k in range(0, 4):
        for sh in (sp.PLUS, sp.MINUS):
            c = sp.SpinColor(k, sh)
            order = sp.basis_order(ctx2, c)
            weights = set()
            for i, idx in enumerate(order):
                ei = sp.make_basis(ctx2, idx)
                weights.add(round(abs(sp.inner_product(ei, ei)), 14))
                other = sp.make_basis(ctx2, order[(i + 1) % len(order)])
                if len(order) > 1:
                    assert abs(sp.inner_product(ei, other)) == 0.0
            assert len(weights) == 1


def test_blocks_and_operator_norm(ctx2):
    # (2,+) is the 2x2 matrix algebra: op norm of the unit is 1
    one = sp.unit(ctx2, sp.SpinColor(2, sp.PLUS))
    assert sp.op_norm(one) == pytest.approx(1.0)
    res = sp.unitarity_residuals(one)
    assert max(res.values()) < 1e-14
    # (3,+) decomposes into right-slot blocks; a partial isometry that only
    # fills one slot is unitary in no sense and the residual sees it
    e = sp.make_basis(ctx2, sp.SpinIndex(None, (1,), (1,), 1))
    res = sp.unitarity_residuals(e)
    assert max(res.values()) == pytest.approx(1.0)


def _tuple_position(n: int, spins: tuple[int, ...]) -> int:
    pos = 0
    for v in spins:
        pos = pos * n + (v - 1)
    return pos


def test_algebra_blocks_place_matrix_units(ctx2, ctx3):
    # e[p)^I_J(q] sits in block (p, q) at row I, column J; S(s) is block s
    for ctx in (ctx2, ctx3):
        n = ctx.N
        for k in range(0, 6):
            for sh in (sp.PLUS, sp.MINUS):
                c = sp.SpinColor(k, sh)
                order = sp.basis_order(ctx, c)
                labeled = sp.from_coeffs(ctx, c, {idx: j + 1.0 for j, idx in enumerate(order)})
                blocks = sp.algebra_blocks(labeled)
                n_right = n if c.has_right else 1
                assert blocks.shape[0] * blocks.shape[1] * blocks.shape[2] == len(order)
                for j, idx in enumerate(order):
                    if idx.s is not None:
                        where = (idx.s - 1, 0, 0)
                    else:
                        p = 0 if idx.left is None else idx.left - 1
                        q = 0 if idx.right is None else idx.right - 1
                        where = (p * n_right + q, _tuple_position(n, idx.top),
                                 _tuple_position(n, idx.bottom))
                    assert blocks[where] == j + 1.0


def test_algebra_blocks_carry_product_and_star(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        for k in range(0, 6):
            for sh in (sp.PLUS, sp.MINUS):
                c = sp.SpinColor(k, sh)
                x = sp.random_element(ctx, c, rng)
                y = sp.random_element(ctx, c, rng)
                bx, by = sp.algebra_blocks(x), sp.algebra_blocks(y)
                assert np.max(np.abs(sp.algebra_blocks(sp.mult(x, y)) - bx @ by)) <= 1e-14
                star_blocks = np.conj(np.swapaxes(bx, -1, -2))
                assert np.max(np.abs(sp.algebra_blocks(sp.star(x)) - star_blocks)) <= 1e-14


def test_from_coeffs_validates(ctx2):
    good = {sp.SpinIndex(None, (1,), (2,), None): 1.0}
    sp.from_coeffs(ctx2, sp.SpinColor(2, sp.PLUS), good)
    with pytest.raises(ValueError):
        sp.from_coeffs(ctx2, sp.SpinColor(3, sp.PLUS), good)
    with pytest.raises(ValueError):
        bad = {sp.SpinIndex(None, (3,), (1,), None): 1.0}  # spin out of range
        sp.from_coeffs(ctx2, sp.SpinColor(2, sp.PLUS), bad)


def test_add_requires_same_color(ctx2):
    x = sp.unit(ctx2, sp.SpinColor(1, sp.PLUS))
    y = sp.unit(ctx2, sp.SpinColor(1, sp.MINUS))
    with pytest.raises(ValueError):
        _ = x + y
