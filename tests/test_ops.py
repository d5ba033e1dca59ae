"""Rotation, inclusions, conditional expectations, traces, partial swap."""

import math

import numpy as np
import pytest

import spinplanar as sp
from conftest import rotation_formula
from spinplanar.ops import (cond_left, cond_left_pow, cond_right, incl_left,
                            incl_left_pow, incl_right, partial_swap,
                            picture_trace_left, picture_trace_right, rotate,
                            rotate_pow)


def B(ctx, left=None, top=(), bottom=(), right=None, s=None):
    return sp.make_basis(ctx, sp.SpinIndex(left, tuple(top), tuple(bottom), right, s))


def test_rotate_pinned_examples(ctx2, ctx3):
    # one click of a width-2 matrix unit picks up sqrt(N) and opens both slots
    got = rotate(B(ctx2, top=(1,), bottom=(2,)))
    want = np.sqrt(2) * B(ctx2, left=2, right=1)
    assert sp.coeff_distance(got, want) < 1e-15
    # width-3 minus element: the left slot joins the top, the last top index
    # moves to the right slot, coefficient 1
    got = rotate(B(ctx3, left=2, top=(1,), bottom=(3,)))
    want = B(ctx3, top=(2,), bottom=(3,), right=1)
    assert sp.coeff_distance(got, want) == 0.0


def test_rotate_degenerate_cases(ctx2):
    assert sp.coeff_distance(rotate(B(ctx2, right=1)), B(ctx2, left=1)) == 0.0
    assert sp.coeff_distance(rotate(B(ctx2, left=1)), B(ctx2, right=1)) == 0.0
    got = rotate(B(ctx2, left=1, right=2))
    want = (1 / np.sqrt(2)) * B(ctx2, top=(1,), bottom=(2,))
    assert sp.coeff_distance(got, want) < 1e-15


def test_rotate_full_turn_and_inverse(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        for k in range(1, 5):
            for sh in (sp.PLUS, sp.MINUS):
                x = sp.random_element(ctx, sp.SpinColor(k, sh), rng)
                turned = x
                for _ in range(2 * k):
                    turned = rotate(turned)
                assert sp.coeff_distance(turned, x) < 1e-12
                assert sp.coeff_distance(rotate_pow(rotate(x), -1), x) < 1e-13
                assert sp.coeff_distance(rotate_pow(rotate_pow(x, 3), -3), x) < 1e-13


def test_rotate_pow_matches_iterated_formula():
    # l clicks in one pass against (l mod 2k) single clicks of the
    # independent transcription, on every basis element
    worst = 0.0
    for n in (2, 3):
        ctx = sp.SpinContext(n)
        for k in range(1, 7):
            for sh in (sp.PLUS, sp.MINUS):
                for idx in sp.basis_order(ctx, sp.SpinColor(k, sh)):
                    clicks = [{idx: 1.0}]
                    for j in range(2 * k - 1):
                        (key, c), = clicks[-1].items()
                        color = sp.SpinColor(k, sh * (-1) ** j)
                        clicks.append({q: c * v for q, v in
                                       rotation_formula(key, color, n).items()})
                    e = sp.make_basis(ctx, idx)
                    for l in range(-2 * k - 1, 2 * k + 2):
                        got = rotate_pow(e, l)
                        want = clicks[l % (2 * k)]
                        assert got.color == sp.SpinColor(k, sh * (-1) ** l)
                        assert set(got.coeffs) == set(want)
                        worst = max([worst] + [abs(got.coeffs[q] - v) for q, v in want.items()])
    assert worst <= 1e-14


def test_rotate_width_zero_errors(ctx2):
    with pytest.raises(ValueError):
        rotate(sp.unit(ctx2, sp.SpinColor(0, sp.PLUS)))


def test_incl_right_pinned(ctx2):
    got = incl_right(B(ctx2, top=(), bottom=(), right=1))
    assert sp.coeff_distance(got, B(ctx2, top=(1,), bottom=(1,))) == 0.0
    got = incl_right(B(ctx2, top=(1,), bottom=(2,)))
    want = B(ctx2, top=(1,), bottom=(2,), right=1) + B(ctx2, top=(1,), bottom=(2,), right=2)
    assert sp.coeff_distance(got, want) == 0.0
    # unit preservation across colors
    for k in range(0, 5):
        for sh in (sp.PLUS, sp.MINUS):
            c = sp.SpinColor(k, sh)
            assert sp.coeff_distance(incl_right(sp.unit(ctx2, c)),
                                     sp.unit(ctx2, sp.SpinColor(k + 1, sh))) == 0.0
            assert sp.coeff_distance(incl_left(sp.unit(ctx2, c)),
                                     sp.unit(ctx2, sp.SpinColor(k + 1, -sh))) == 0.0


def test_incl_left_pinned(ctx2):
    got = incl_left(B(ctx2, left=1, top=(2,), bottom=(2,)))
    assert sp.coeff_distance(got, B(ctx2, top=(1, 2), bottom=(1, 2))) == 0.0
    got = incl_left(B(ctx2, top=(1,), bottom=(2,)))
    want = B(ctx2, left=1, top=(1,), bottom=(2,)) + B(ctx2, left=2, top=(1,), bottom=(2,))
    assert sp.coeff_distance(got, want) == 0.0
    # shaded level-0 cases: the s slot feeds the opened boundary slot
    s1 = B(ctx2, s=1)
    assert sp.coeff_distance(incl_right(s1), B(ctx2, left=1)) == 0.0
    assert sp.coeff_distance(incl_left(s1), B(ctx2, right=1)) == 0.0


def test_incl_multiplicative(ctx3, rng):
    for k in range(0, 4):
        for sh in (sp.PLUS, sp.MINUS):
            c = sp.SpinColor(k, sh)
            x = sp.random_element(ctx3, c, rng)
            y = sp.random_element(ctx3, c, rng)
            for op in (incl_right, incl_left):
                assert sp.coeff_distance(op(sp.mult(x, y)),
                                         sp.mult(op(x), op(y))) < 1e-12


def test_cond_right_pinned(ctx2):
    rt = np.sqrt(2)
    assert cond_right(B(ctx2, top=(1,), bottom=(2,))).nnz == 0
    got = cond_right(B(ctx2, top=(1,), bottom=(1,)))
    assert sp.coeff_distance(got, rt * B(ctx2, right=1)) < 1e-15
    got = cond_right(B(ctx2, top=(1,), bottom=(2,), right=1))
    assert sp.coeff_distance(got, (1 / rt) * B(ctx2, top=(1,), bottom=(2,))) < 1e-15
    # capping the unit creates one closed loop
    for k in range(0, 4):
        for sh in (sp.PLUS, sp.MINUS):
            got = cond_right(sp.unit(ctx2, sp.SpinColor(k + 1, sh)))
            assert sp.coeff_distance(got, rt * sp.unit(ctx2, sp.SpinColor(k, sh))) < 1e-14


def test_cond_level_one_cases(ctx2):
    rt = np.sqrt(2)
    one = sp.unit(ctx2, sp.SpinColor(0, sp.PLUS))
    assert sp.coeff_distance(cond_right(B(ctx2, right=1)), (1 / rt) * one) < 1e-15
    assert sp.coeff_distance(cond_right(B(ctx2, left=1)), rt * B(ctx2, s=1)) < 1e-15
    assert sp.coeff_distance(cond_left(B(ctx2, right=1)), rt * B(ctx2, s=1)) < 1e-15
    assert sp.coeff_distance(cond_left(B(ctx2, left=1)), (1 / rt) * one) < 1e-15


def test_cond_incl_adjunction(ctx3, rng):
    delta = ctx3.delta
    for k in range(0, 4):
        for sh in (sp.PLUS, sp.MINUS):
            c = sp.SpinColor(k, sh)
            x = sp.random_element(ctx3, c, rng)
            assert sp.coeff_distance(cond_right(incl_right(x)), delta * x) < 1e-13
            assert sp.coeff_distance(cond_left(incl_left(x)), delta * x) < 1e-13
            a = sp.random_element(ctx3, c, rng)
            w = sp.random_element(ctx3, incl_right(a).color, rng)
            lhs = sp.normalized_trace(sp.mult(a, cond_right(w)))
            rhs = delta * sp.normalized_trace(sp.mult(incl_right(a), w))
            assert abs(lhs - rhs) < 1e-13
            wl = sp.random_element(ctx3, incl_left(a).color, rng)
            lhs = sp.normalized_trace(sp.mult(a, cond_left(wl)))
            rhs = delta * sp.normalized_trace(sp.mult(incl_left(a), wl))
            assert abs(lhs - rhs) < 1e-13


def test_picture_traces(ctx2, ctx3, rng):
    # both picture traces equal delta^k times the normalized trace
    for ctx in (ctx2, ctx3):
        for k in range(0, 4):
            for sh in (sp.PLUS, sp.MINUS):
                x = sp.random_element(ctx, sp.SpinColor(k, sh), rng)
                tl = picture_trace_left(x)
                tr = picture_trace_right(x)
                assert abs(tl - tr) < 1e-12
                assert abs(tr - ctx.delta ** k * sp.normalized_trace(x)) < 1e-12


def test_partial_swap(ctx2, rng):
    x = sp.random_element(ctx2, sp.SpinColor(4, sp.PLUS), rng)
    y = partial_swap(x)
    assert sp.coeff_distance(partial_swap(y), x) == 0.0
    e = B(ctx2, top=(1, 2), bottom=(2, 1))
    assert sp.coeff_distance(partial_swap(e), B(ctx2, top=(1, 1), bottom=(2, 2))) == 0.0
    with pytest.raises(ValueError):
        partial_swap(sp.unit(ctx2, sp.SpinColor(3, sp.PLUS)))


def test_rotation_is_trace_preserving_up_to_shading(ctx2, rng):
    # a full half turn preserves the normalized trace (transpose-like)
    x = sp.random_element(ctx2, sp.SpinColor(2, sp.PLUS), rng)
    half = rotate_pow(x, 2)
    assert abs(sp.normalized_trace(half) - sp.normalized_trace(x)) < 1e-13


def incl_left_rule(idx, color, n):
    """One left inclusion of a basis index, transcribed from its own rules
    (not derived from rotation): p prepends to top and bottom; with no left
    slot a fresh left slot is summed over; 1 |-> sum_p e[p), S(p) |-> e(p]."""
    if color.width == 0 and color.shading == sp.PLUS:
        return {sp.SpinIndex(p, (), (), None): 1.0 for p in range(1, n + 1)}
    if color.width == 0:
        return {sp.SpinIndex(None, (), (), idx.s): 1.0}
    if idx.left is not None:
        p = idx.left
        return {sp.SpinIndex(None, (p,) + idx.top, (p,) + idx.bottom, idx.right): 1.0}
    return {sp.SpinIndex(p, idx.top, idx.bottom, idx.right): 1.0 for p in range(1, n + 1)}


def cond_left_rule(idx, color, n):
    """One left cap of a basis index, transcribed from its own rules: a left
    slot drops with 1/sqrt(N); otherwise the first top/bottom pair contracts
    with sqrt(N) and reopens the left slot; e(q] |-> sqrt(N) S(q) and
    e[p) |-> (1/sqrt(N)) 1."""
    rn = math.sqrt(n)
    if color.width == 1 and color.shading == sp.PLUS:
        return {sp.SpinIndex(s=idx.right): rn}
    if color.width == 1:
        return {sp.SpinIndex(): 1.0 / rn}
    if idx.left is not None:
        return {sp.SpinIndex(None, idx.top, idx.bottom, idx.right): 1.0 / rn}
    if idx.top[0] != idx.bottom[0]:
        return {}
    return {sp.SpinIndex(idx.top[0], idx.top[1:], idx.bottom[1:], idx.right): rn}


def test_left_tangles_match_their_own_rules():
    # incl_left and cond_left are half-turn conjugates of the right-hand
    # tangles; they must reproduce the left rules exactly
    for n in (2, 3):
        ctx = sp.SpinContext(n)
        for k in range(0, 6):
            for sh in (sp.PLUS, sp.MINUS):
                color = sp.SpinColor(k, sh)
                for idx in sp.basis_order(ctx, color):
                    e = sp.make_basis(ctx, idx)
                    got = incl_left(e)
                    assert got.color == sp.SpinColor(k + 1, -sh)
                    assert got.coeffs == incl_left_rule(idx, color, n)
                    if k >= 1:
                        got = cond_left(e)
                        assert got.color == sp.SpinColor(k - 1, -sh)
                        assert got.coeffs == cond_left_rule(idx, color, n)


def test_left_powers_equal_single_steps(ctx2, ctx3, rng):
    for ctx in (ctx2, ctx3):
        for k in range(0, 5):
            for sh in (sp.PLUS, sp.MINUS):
                x = sp.random_element(ctx, sp.SpinColor(k, sh), rng)
                stepped = x
                for t in range(4):
                    assert sp.coeff_distance(incl_left_pow(x, t), stepped) == 0.0
                    stepped = incl_left(stepped)
                stepped = x
                for t in range(min(k, 3) + 1):
                    assert sp.coeff_distance(cond_left_pow(x, t), stepped) == 0.0
                    if t < k:
                        stepped = cond_left(stepped)


def test_cond_left_width_zero_errors(ctx2):
    with pytest.raises(ValueError, match="cond_left"):
        cond_left(sp.unit(ctx2, sp.SpinColor(0, sp.PLUS)))
