"""Core value types of the spin planar algebra on N spins.

The algebra assigns to every color (width k, shading +/-) a complex vector
space with a distinguished basis of matrix-unit-like elements:

    width 0, shading +:   the scalars (a single basis element, written 1)
    width 0, shading -:   S(1), ..., S(N)
    width k >= 1:         e[p)^{i_1..i_m}_{j_1..j_m}(q]

The slot layout is a pure function of the color: the left slot [p) is present
exactly when the shading is minus, the right slot (q] is present exactly when
width + (1 if minus else 0) is odd, and the remaining spins pair up into a
top tuple and a bottom tuple of equal length m = (width - #left - #right)/2.
The spin s of S(s) on (0,-) takes the place of the left slot.

The basis is normalized so that multiplication is exactly the matrix-unit
rule

    e[p)^I_J(q] . e[p')^K_L(q'] = delta_pp' delta_JK delta_qq' e[p)^I_L(q]

which makes every space a finite dimensional C*-algebra: one matrix block per
value of the slots, with the top tuple as row and the bottom tuple as column.
Elements are stored as sparse coefficient dicts (`SpinElement`); a product is
computed as one batched matmul of their blocks (`mult`).
`basis_indices` enumerates the basis in (left, top, bottom, right) order, so
a coefficient vector reshapes to (n_left, size, size, n_right) with
(n_left, size, n_right) = `block_shape` (N or 1 per present or absent slot,
size = N^m).  The blocks (`algebra_blocks`), the unit, the trace weight and
the dimension N^width (N for (0,-), 1 for (0,+)) are all read off that shape;
operator norms and unitarity defects are exact largest-singular-value
computations on the blocks.  The loop parameter (modulus) of the algebra is
delta = sqrt(N).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from . import numerics

PLUS = 1
MINUS = -1

_SHADING_NAMES = {PLUS: "plus", MINUS: "minus"}


def shading_name(shading: int) -> str:
    return _SHADING_NAMES[shading]


def shading_from_name(name: str) -> int:
    for value, label in _SHADING_NAMES.items():
        if name == label:
            return value
    raise ValueError(f"unknown shading {name!r}; expected 'plus' or 'minus'")


class SpinContext:
    """Ambient data: the number of spins N and the modulus sqrt(N).

    delta is always derived from N, never set independently.
    """

    def __init__(self, N: int):
        if int(N) != N or N < 1:
            raise ValueError(f"N must be a positive integer, got {N!r}")
        self.N = int(N)
        self.delta = math.sqrt(self.N)

    def spins(self) -> range:
        """All spin values, 1-based."""
        return range(1, self.N + 1)

    def __repr__(self) -> str:
        return f"SpinContext(N={self.N})"

    def __eq__(self, other) -> bool:
        return isinstance(other, SpinContext) and other.N == self.N

    def __hash__(self) -> int:
        return hash(("SpinContext", self.N))


class SpinColor(NamedTuple):
    """A color (width, shading) with shading +1 (plus) or -1 (minus)."""

    width: int
    shading: int

    @property
    def has_left(self) -> bool:
        return self.shading == MINUS and self.width >= 1

    @property
    def has_right(self) -> bool:
        extra = 1 if self.shading == MINUS else 0
        return self.width >= 1 and (self.width + extra) % 2 == 1

    @property
    def pairs(self) -> int:
        return (self.width - int(self.has_left) - int(self.has_right)) // 2

    def __repr__(self) -> str:
        sign = "+" if self.shading == PLUS else "-"
        return f"({self.width},{sign})"


def check_color(color: SpinColor) -> SpinColor:
    if color.width < 0:
        raise ValueError(f"negative width in color {color}")
    if color.shading not in (PLUS, MINUS):
        raise ValueError(f"shading must be +1 or -1 in color {color}")
    return color


def block_shape(ctx: SpinContext, color: SpinColor) -> tuple[int, int, int]:
    """(n_left, size, n_right) of a color: its coefficient vectors, in the
    order of `basis_indices`, reshape to (n_left, size, size, n_right).

    N or 1 per present or absent slot, the S(s) of (0,-) filling the left
    one, and size = N^pairs: (N, 1, 1) on (0,-), (1, 1, 1) on (0,+).
    """
    n_left = ctx.N if color.shading == MINUS else 1
    n_right = ctx.N if color.has_right else 1
    return n_left, ctx.N ** color.pairs, n_right


def color_dim(ctx: SpinContext, color: SpinColor) -> int:
    """dim P_(k,+-) = N^k for k >= 1; N for (0,-); 1 for (0,+)."""
    check_color(color)
    n_left, size, n_right = block_shape(ctx, color)
    return n_left * size * size * n_right


class SpinIndex(NamedTuple):
    """Structured index of one basis element.

    left/right are the bracket slots [p) and (q] (None when absent), top and
    bottom are the paired spin tuples, and s is the lone spin of the (0,-)
    basis S(s).  The color of an index is recoverable from its shape alone,
    see `index_color`.
    """

    left: int | None = None
    top: tuple[int, ...] = ()
    bottom: tuple[int, ...] = ()
    right: int | None = None
    s: int | None = None


SCALAR_INDEX = SpinIndex()


def spin_state(i: int) -> SpinIndex:
    """The index of the (0,-) basis element S(i)."""
    return SpinIndex(s=i)


def index_color(idx: SpinIndex) -> SpinColor:
    """Recover the color an index belongs to (raises if malformed)."""
    if idx.s is not None:
        if idx.left is not None or idx.right is not None or idx.top or idx.bottom:
            raise ValueError(f"index {idx} mixes the S slot with other slots")
        return SpinColor(0, MINUS)
    if len(idx.top) != len(idx.bottom):
        raise ValueError(f"index {idx} has top/bottom tuples of unequal length")
    width = 2 * len(idx.top) + (idx.left is not None) + (idx.right is not None)
    return SpinColor(width, MINUS if idx.left is not None else PLUS)


@dataclass
class SpinElement:
    """A sparse complex linear combination of basis indices of one color.

    Treated as immutable: operations return fresh elements.  Exact zeros are
    pruned; coefficients are compared within a tolerance (see coeff_distance),
    so the dataclass equality is deliberately not overridden.
    """

    ctx: SpinContext
    color: SpinColor
    coeffs: dict[SpinIndex, complex] = field(default_factory=dict)

    def terms(self) -> Iterator[tuple[SpinIndex, complex]]:
        return iter(self.coeffs.items())

    @property
    def nnz(self) -> int:
        return len(self.coeffs)

    def coefficient(self, idx: SpinIndex) -> complex:
        return self.coeffs.get(idx, 0j)

    def __add__(self, other: "SpinElement") -> "SpinElement":
        return add(self, other)

    def __sub__(self, other: "SpinElement") -> "SpinElement":
        return add(self, scale(-1.0, other))

    def __neg__(self) -> "SpinElement":
        return scale(-1.0, self)

    def __rmul__(self, c) -> "SpinElement":
        if isinstance(c, (int, float, complex)):
            return scale(c, self)
        return NotImplemented

    def __mul__(self, other) -> "SpinElement":
        if isinstance(other, (int, float, complex)):
            return scale(other, self)
        if isinstance(other, SpinElement):
            return mult(self, other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{idx}: {c:.4g}" for idx, c in itertools.islice(self.coeffs.items(), 4)
        )
        more = "" if self.nnz <= 4 else f", ... ({self.nnz} terms)"
        return f"SpinElement(N={self.ctx.N}, color={self.color}, {{{shown}{more}}})"


def _cleaned(coeffs: dict[SpinIndex, complex]) -> dict[SpinIndex, complex]:
    return {idx: c for idx, c in coeffs.items() if c != 0}


def zero(ctx: SpinContext, color: SpinColor) -> SpinElement:
    return SpinElement(ctx, check_color(color), {})


def make_basis(ctx: SpinContext, idx: SpinIndex) -> SpinElement:
    """The unit-coefficient element at a basis index of the index's own color."""
    return from_coeffs(ctx, index_color(idx), {idx: 1.0 + 0j})


def from_coeffs(ctx: SpinContext, color: SpinColor,
                coeffs: dict[SpinIndex, complex]) -> SpinElement:
    """The element with the given coefficients; every key must be a basis
    index of the color (a key of `basis_position`), else ValueError."""
    pos = basis_position(ctx, check_color(color))
    foreign = next((idx for idx in coeffs if idx not in pos), None)
    if foreign is not None:
        raise ValueError(f"index {foreign} is not a basis index of {color} on N={ctx.N}")
    return SpinElement(ctx, color, _cleaned(coeffs))


def _check_compatible(op: str, x: SpinElement, y: SpinElement) -> None:
    if x.ctx.N != y.ctx.N:
        raise ValueError(f"context mismatch in {op}: N={x.ctx.N} vs N={y.ctx.N}")
    if x.color != y.color:
        raise ValueError(f"color mismatch in {op}: {x.color} vs {y.color}")


def add(x: SpinElement, y: SpinElement) -> SpinElement:
    _check_compatible("add", x, y)
    out = dict(x.coeffs)
    for idx, c in y.coeffs.items():
        out[idx] = out.get(idx, 0j) + c
    return SpinElement(x.ctx, x.color, _cleaned(out))


def scale(c, x: SpinElement) -> SpinElement:
    c = complex(c)
    if c == 0:
        return zero(x.ctx, x.color)
    return SpinElement(x.ctx, x.color, {idx: c * v for idx, v in x.coeffs.items()})


def star(x: SpinElement) -> SpinElement:
    """Adjoint: conjugate coefficients, swap top and bottom, keep the slots."""
    out = {
        SpinIndex(idx.left, idx.bottom, idx.top, idx.right, idx.s): v.conjugate()
        for idx, v in x.coeffs.items()
    }
    return SpinElement(x.ctx, x.color, out)


def mult(x: SpinElement, y: SpinElement) -> SpinElement:
    """Matrix-unit multiplication, one rule for every color: the batched
    matmul `algebra_blocks(x) @ algebra_blocks(y)`, laid back into basis order.

    On (0,+) this is scalar multiplication and on (0,-) it makes the S(i) a
    family of orthogonal idempotents.
    """
    _check_compatible("mult", x, y)
    return _from_blocks(x.ctx, x.color, algebra_blocks(x) @ algebra_blocks(y))


def unit(ctx: SpinContext, color: SpinColor) -> SpinElement:
    """The multiplicative identity of a color: the sum of its diagonal
    (top = bottom) basis elements, among them the scalar 1 and every S(s).
    """
    return SpinElement(ctx, color, {idx: 1.0 + 0j for idx in basis_order(ctx, color)
                                    if idx.top == idx.bottom})


def basis_indices(ctx: SpinContext, color: SpinColor) -> Iterator[SpinIndex]:
    """Deterministic enumeration of the basis of a color."""
    check_color(color)
    if color.width == 0:
        if color.shading == PLUS:
            yield SCALAR_INDEX
        else:
            for s in ctx.spins():
                yield spin_state(s)
        return
    lefts = list(ctx.spins()) if color.has_left else [None]
    rights = list(ctx.spins()) if color.has_right else [None]
    for p in lefts:
        for top in itertools.product(ctx.spins(), repeat=color.pairs):
            for bottom in itertools.product(ctx.spins(), repeat=color.pairs):
                for q in rights:
                    yield SpinIndex(p, top, bottom, q)


@lru_cache(maxsize=None)
def _basis_order(N: int, color: SpinColor) -> tuple[tuple[SpinIndex, ...], dict]:
    ctx = SpinContext(N)
    order = tuple(basis_indices(ctx, color))
    return order, {idx: i for i, idx in enumerate(order)}


def basis_order(ctx: SpinContext, color: SpinColor) -> tuple[SpinIndex, ...]:
    return _basis_order(ctx.N, color)[0]


def basis_position(ctx: SpinContext, color: SpinColor) -> dict:
    return _basis_order(ctx.N, color)[1]


def vectorize(x: SpinElement) -> np.ndarray:
    """The coefficient vector of x in basis order, built in bulk: all positions
    and all values are gathered at once and placed by one fancy-index
    assignment.  A term whose index is not a basis index of x's color raises
    KeyError.

    A dense element keyed by the basis order itself, as `devectorize` builds
    it, is read off without any index lookup.
    """
    order, pos = _basis_order(x.ctx.N, x.color)
    n = len(x.coeffs)
    if n == len(order) and all(map(operator.is_, x.coeffs, order)):
        return np.fromiter(x.coeffs.values(), complex, n)
    v = np.zeros(len(pos), dtype=complex)
    v[np.fromiter(map(pos.__getitem__, x.coeffs), np.intp, n)] = \
        np.fromiter(x.coeffs.values(), complex, n)
    return v


def devectorize(ctx: SpinContext, color: SpinColor, v: np.ndarray) -> SpinElement:
    """The element with coefficient vector v, built in bulk from the nonzero
    entries.  Keys are the basis order's own `SpinIndex` objects, in
    ascending basis order, so `vectorize` reads a dense result back without
    any index lookup; values are Python complex.  Exact zeros (also -0.0)
    are dropped and NaN is kept.  A vector whose length is not the color's
    dimension raises ValueError.
    """
    order = basis_order(ctx, color)
    if len(v) != len(order):
        raise ValueError(f"vector length {len(v)} does not match dim {len(order)} of {color}")
    nz = np.flatnonzero(v)
    keys, values = order, v
    if len(nz) < len(order):
        keys, values = map(order.__getitem__, nz.tolist()), v[nz]
    return SpinElement(ctx, color, dict(zip(keys, values.astype(complex).tolist())))


def basis_weight(ctx: SpinContext, color: SpinColor) -> float:
    """tau(e* . e), the same for every basis element e of the color.

    The basis is orthogonal for <x, y> = tau(y* . x), so its Gram matrix is
    this weight times the identity: one over the number of diagonal basis
    elements, n_left * size * n_right.
    """
    n_left, size, n_right = block_shape(ctx, color)
    return 1.0 / (n_left * size * n_right)


def normalized_trace(x: SpinElement) -> complex:
    """The positive normalized trace tau with tau(unit) = 1.

    On a basis index: delta_{top,bottom} * basis_weight; the width-0 indices
    (the scalar 1 and the S(i)) all count as diagonal.
    """
    diagonal = sum((c for idx, c in x.coeffs.items() if idx.top == idx.bottom), 0j)
    return diagonal * basis_weight(x.ctx, x.color)


def inner_product(x: SpinElement, y: SpinElement) -> complex:
    """<x, y> = tau(star(y) * x) = basis_weight * sum_I x_I conj(y_I)."""
    _check_compatible("inner_product", x, y)
    total = sum((c * y.coefficient(idx).conjugate() for idx, c in x.coeffs.items()), 0j)
    return total * basis_weight(x.ctx, x.color)


def norm(x: SpinElement) -> float:
    return math.sqrt(max(inner_product(x, x).real, 0.0))


def coeff_distance(x: SpinElement, y: SpinElement) -> float:
    """Max absolute coefficient difference (residual measure for tests)."""
    _check_compatible("coeff_distance", x, y)
    keys = set(x.coeffs) | set(y.coeffs)
    return numerics.worst(abs(x.coefficient(k) - y.coefficient(k)) for k in keys)


def algebra_blocks(x: SpinElement) -> np.ndarray:
    """The element as a stack of dense matrix blocks (multi-matrix algebra view).

    One block per value of the (left, right) slots, left slowest (per s for
    (0,-)), with the top tuple as row index and the bottom tuple as column
    index, shaped by `block_shape`.  Products and adjoints of elements
    correspond to blockwise matrix products and conjugate transposes, and
    unit() corresponds to the identity in every block.
    """
    n_left, size, n_right = block_shape(x.ctx, x.color)
    layout = vectorize(x).reshape(n_left, size, size, n_right)
    return layout.transpose(0, 3, 1, 2).reshape(n_left * n_right, size, size)


def _from_blocks(ctx: SpinContext, color: SpinColor, blocks: np.ndarray) -> SpinElement:
    """The inverse of `algebra_blocks`: blocks laid back into basis order."""
    n_left, size, n_right = block_shape(ctx, color)
    layout = blocks.reshape(n_left, n_right, size, size).transpose(0, 2, 3, 1)
    return devectorize(ctx, color, layout.reshape(-1))


def op_norm(x: SpinElement) -> float:
    """Exact C*-operator norm (largest singular value over blocks)."""
    return max((numerics.operator_norm(b) for b in algebra_blocks(x)), default=0.0)


def unitarity_residuals(x: SpinElement) -> dict[str, float]:
    """Operator-norm defects of xx* - 1 and x*x - 1, over all blocks at once."""
    blocks = algebra_blocks(x)
    return {"xx*-1": numerics.unitary_defect(blocks),
            "x*x-1": numerics.unitary_defect(np.swapaxes(blocks, -1, -2).conj())}
