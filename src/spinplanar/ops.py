"""Color-changing tangle operations on spin planar algebra elements.

These are the generating operations out of which every structural map of the
engine is composed: rotation by any number of clicks, the right and left
inclusions, the right and left conditional expectations (caps), and the
partial swap on width-4 plus-shaded elements.  Together with multiplication,
star and the unit (in `core`) they generate all tangle actions used here.

Conventions, stated once (linear extension everywhere; N spins, delta=sqrt(N);
basis elements written e[p)^I_J(q] with I, J the top/bottom tuples):

rotate_pow (l clicks counterclockwise; clockwise for l < 0), (k,eps) ->
    (k,eps(-1)^l).  A basis element of width k >= 1 is read as its boundary
    word of k labels: the left slot p, the top tuple I, the right slot q and
    the bottom tuple J reversed, absent slots skipped.  Rotation only
    relabels the boundary: every click that starts on a plus shading moves
    the last label of the word to the front, a click that starts on a minus
    shading keeps the word, and the target color lays the word out again.
    The coefficient is delta^((slots(target) - slots(source))/2), where slots
    counts the left and right slots.  For example e^{i_1}_{j_1} |-> sqrt(N)
    e[j_1)(i_1] and e[p)(q] |-> (1/sqrt(N)) e^p_q.  A full turn (2k clicks)
    is the identity; a half turn (k clicks) has coefficient 1.

incl_right, (k,eps) -> (k+1,eps): the right slot folds into a new equal
    top/bottom pair; with no right slot a sum over a fresh right slot appears;
    1 |-> sum_q e(q] on (0,+) and S(p) |-> e[p) on (0,-).

cond_right, (k+1,eps) -> (k,eps): cap on the right; a right slot is dropped
    with coefficient 1/sqrt(N); otherwise the last top/bottom pair contracts,
    contributing sqrt(N) delta_{ab} and reopening the right slot;
    (1,+): e(q] |-> (1/sqrt(N)) 1 and (1,-): e[p) |-> sqrt(N) S(p).

incl_left and cond_left are the right-hand tangles seen after a half turn:
    t left inclusions of a width-k element are rotate_pow(incl_right^t(
    rotate_pow(x, k)), k + t), and t left caps are rotate_pow(cond_right^t(
    rotate_pow(x, k)), k - t).  So incl_left, (k,eps) -> (k+1,-eps), puts a
    new pair (or a fresh summed left slot) on the left, and cond_left,
    (k,eps) -> (k-1,-eps), caps there; (1,+): e(q] |-> sqrt(N) S(q) and
    (1,-): e[p) |-> (1/sqrt(N)) 1.

All the sqrt(N) constants are pinned by the trace-compatibility and
adjunction identities tested in the suite: cond o incl = delta * id on both
sides, tau(a . cond_right(w)) = delta * tau(incl_right(a) . w) (same on the
left), and equality of left and right picture traces with delta^k tau.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .core import (PLUS, SCALAR_INDEX, SpinColor, SpinElement, SpinIndex,
                   _cleaned, check_color, normalized_trace, spin_state)


def _out(x: SpinElement, color: SpinColor, coeffs: dict) -> SpinElement:
    return SpinElement(x.ctx, check_color(color), _cleaned(coeffs))


def _slots(color: SpinColor) -> int:
    return int(color.has_left) + int(color.has_right)


def _boundary_word(color: SpinColor) -> list[int]:
    """Positions of the boundary word in the slot tuple (p, *I, *J, q, None)."""
    m = color.pairs
    word = [0] if color.has_left else []
    word += range(1, m + 1)
    if color.has_right:
        word.append(2 * m + 1)
    return word + list(range(2 * m, m, -1))


@lru_cache(maxsize=None)
def _rotation_plan(color: SpinColor, clicks: int):
    """Target color, slot getter, target pairs and delta exponent of 0 < clicks < 2k."""
    target = SpinColor(color.width, color.shading * (-1) ** clicks)
    shift = (clicks + (color.shading == PLUS)) // 2  # clicks that start on plus
    source, word = _boundary_word(color), _boundary_word(target)
    m = target.pairs
    positions = [2 * color.pairs + 2] * (2 * m + 2)  # absent slots read the None
    for i, p in enumerate(word):
        positions[p] = source[(i - shift) % color.width]
    return target, itemgetter(*positions), m, (_slots(target) - _slots(color)) // 2


def rotate_pow(x: SpinElement, l: int) -> SpinElement:
    """l counterclockwise clicks in one pass; negative l rotates clockwise.

    Width 0 only for l = 0.
    """
    if l == 0:
        return x
    k = x.color.width
    if k < 1:
        raise ValueError(f"rotation needs width >= 1, got color {x.color}")
    clicks = l % (2 * k)
    if clicks == 0:  # a full turn is the identity
        return x
    target, get, m, power = _rotation_plan(x.color, clicks)
    d = x.ctx.delta
    out: dict[SpinIndex, complex] = {}
    for idx, c in x.coeffs.items():  # a bijection on indices
        s = get((idx.left, *idx.top, *idx.bottom, idx.right, None))
        out[SpinIndex(s[0], s[1:m + 1], s[m + 1:-1], s[-1])] = (
            c * d if power > 0 else c / d if power else c)
    return _out(x, target, out)


def rotate(x: SpinElement) -> SpinElement:
    """One counterclockwise click; width must be >= 1."""
    return rotate_pow(x, 1)


def incl_right(x: SpinElement) -> SpinElement:
    """Right inclusion, (k,eps) -> (k+1,eps)."""
    color = x.color
    ctx = x.ctx
    target = SpinColor(color.width + 1, color.shading)
    out: dict[SpinIndex, complex] = {}
    if color.width == 0 and color.shading == PLUS:
        c0 = x.coefficient(SCALAR_INDEX)
        if c0 != 0:
            for q in ctx.spins():
                out[SpinIndex(None, (), (), q)] = c0
        return _out(x, target, out)
    if color.width == 0:
        for idx, c in x.coeffs.items():
            out[SpinIndex(idx.s, (), (), None)] = c
        return _out(x, target, out)
    if color.has_right:
        for idx, c in x.coeffs.items():
            key = SpinIndex(idx.left, idx.top + (idx.right,), idx.bottom + (idx.right,), None)
            out[key] = out.get(key, 0j) + c
    else:
        for idx, c in x.coeffs.items():
            for q in ctx.spins():
                out[SpinIndex(idx.left, idx.top, idx.bottom, q)] = c
    return _out(x, target, out)


def cond_right(x: SpinElement) -> SpinElement:
    """Right conditional expectation (cap), (k+1,eps) -> (k,eps)."""
    color = x.color
    if color.width < 1:
        raise ValueError(f"cond_right needs width >= 1, got {color}")
    rt = x.ctx.delta
    target = SpinColor(color.width - 1, color.shading)
    out: dict[SpinIndex, complex] = {}
    if color.width == 1:
        for idx, c in x.coeffs.items():
            if color.shading == PLUS:  # e(q] |-> (1/sqrt N) 1
                out[SCALAR_INDEX] = out.get(SCALAR_INDEX, 0j) + c / rt
            else:  # e[p) |-> sqrt(N) S(p)
                key = spin_state(idx.left)
                out[key] = out.get(key, 0j) + c * rt
        return _out(x, target, out)
    if color.has_right:
        for idx, c in x.coeffs.items():
            key = SpinIndex(idx.left, idx.top, idx.bottom, None)
            out[key] = out.get(key, 0j) + c / rt
    else:
        for idx, c in x.coeffs.items():
            if idx.top[-1] == idx.bottom[-1]:
                key = SpinIndex(idx.left, idx.top[:-1], idx.bottom[:-1], idx.top[-1])
                out[key] = out.get(key, 0j) + c * rt
    return _out(x, target, out)


def incl_right_pow(x: SpinElement, times: int) -> SpinElement:
    for _ in range(times):
        x = incl_right(x)
    return x


def cond_right_pow(x: SpinElement, times: int) -> SpinElement:
    for _ in range(times):
        x = cond_right(x)
    return x


def incl_left_pow(x: SpinElement, times: int) -> SpinElement:
    """times left inclusions: the right ones between half turns."""
    k = x.color.width
    return rotate_pow(incl_right_pow(rotate_pow(x, k), times), k + times)


def cond_left_pow(x: SpinElement, times: int) -> SpinElement:
    """times left caps: the right ones between half turns."""
    k = x.color.width
    return rotate_pow(cond_right_pow(rotate_pow(x, k), times), k - times)


def incl_left(x: SpinElement) -> SpinElement:
    """Left inclusion, (k,eps) -> (k+1,-eps)."""
    return incl_left_pow(x, 1)


def cond_left(x: SpinElement) -> SpinElement:
    """Left conditional expectation (cap), (k,eps) -> (k-1,-eps)."""
    if x.color.width < 1:
        raise ValueError(f"cond_left needs width >= 1, got {x.color}")
    return cond_left_pow(x, 1)


def partial_swap(x: SpinElement) -> SpinElement:
    """The annular swap on (4,+): e^{i,j}_{k,l} |-> e^{i,l}_{k,j} (an involution)."""
    if x.color != SpinColor(4, PLUS):
        raise ValueError(f"partial_swap is defined on (4,+), got {x.color}")
    out = {
        SpinIndex(None, (idx.top[0], idx.bottom[1]), (idx.bottom[0], idx.top[1]), None): c
        for idx, c in x.coeffs.items()
    }
    return SpinElement(x.ctx, x.color, out)


def picture_trace_right(x: SpinElement) -> complex:
    """Close all strands to the right, then take the normalized trace.

    Equals delta^width * normalized_trace(x); the equality with the left
    closure (sphericality) is a tested contract, not an assumption.
    """
    return normalized_trace(cond_right_pow(x, x.color.width))


def picture_trace_left(x: SpinElement) -> complex:
    """Close all strands to the left, then take the normalized trace."""
    return normalized_trace(cond_left_pow(x, x.color.width))
