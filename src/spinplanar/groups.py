"""Finite group multiplication tables and their planar algebra elements.

A group table over elements 1..n gives a Latin square, hence a quantum Latin
square, hence a biunitary element of the width-3 plus space.  For that input
the kernel tower of the subfactor builder has a closed-form description,
which this module provides as an oracle: predicted dimensions, the exactly
multiplicative family X_g at width 2, and orbit sums of the diagonal left
translation action that span the even-width kernels.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import qit
from .core import (PLUS, SpinColor, SpinContext, SpinElement, SpinIndex,
                   from_coeffs)

BUILTIN_GROUPS = ("Z2", "Z3", "Z4", "Z5", "Z6", "S3")


class GroupValidationError(ValueError):
    """A table failed one of the group axioms; .axiom names which."""

    def __init__(self, axiom: str, detail: str):
        self.axiom = axiom
        super().__init__(f"not a group table ({axiom}): {detail}")


def validate_group(table) -> int:
    """Check the group axioms on a 1-based multiplication table.

    Returns the identity element.  Raises GroupValidationError naming the
    violated axiom (closure, identity, associativity, inverses).
    """
    rows = [list(r) for r in table]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise GroupValidationError("closure", f"table must be square, got {n} rows")
    for r in rows:
        for v in r:
            # bool is an int subclass: JSON true must not pass as element 1
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 1 <= v <= n:
                raise GroupValidationError("closure", f"entry {v!r} outside 1..{n}")

    def mul(a, b):
        return rows[a - 1][b - 1]

    identity = None
    for e in range(1, n + 1):
        if all(mul(e, x) == x and mul(x, e) == x for x in range(1, n + 1)):
            identity = e
            break
    if identity is None:
        raise GroupValidationError("identity", "no two-sided identity element")
    for a in range(1, n + 1):
        if not any(mul(a, b) == identity and mul(b, a) == identity for b in range(1, n + 1)):
            raise GroupValidationError("inverses", f"element {a} has no inverse")
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    raise GroupValidationError(
                        "associativity", f"({a}*{b})*{c} != {a}*({b}*{c})")
    return identity


def cyclic_table(n: int) -> list[list[int]]:
    """Z_n on symbols 1..n, with 1 the identity."""
    return [[(a + b) % n + 1 for b in range(n)] for a in range(n)]


def s3_table() -> list[list[int]]:
    """S_3 as the six permutations of (1,2,3) in lexicographic order.

    Element a*b acts by composing: (a*b)(x) = a(b(x)).
    """
    perms = sorted(itertools.permutations((1, 2, 3)))
    index = {p: i + 1 for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            comp = tuple(p[q[x] - 1] for x in range(3))
            row.append(index[comp])
        table.append(row)
    return table


def builtin_group(name: str) -> list[list[int]]:
    key = name.strip().upper()
    if key.startswith("Z") and key[1:].isdigit():
        n = int(key[1:])
        if 2 <= n <= 6:
            return cyclic_table(n)
    if key == "S3":
        return s3_table()
    raise GroupValidationError("closure",
                               f"unknown builtin {name!r}; available: {', '.join(BUILTIN_GROUPS)}")


def group_element(ctx: SpinContext, table) -> SpinElement:
    """The biunitary u = sum_{h,k} e^{k*h}_k(h] at (3,+) of a group table, placed
    as its Latin square: product k*h on top, row k below, column h right."""
    validate_group(table)
    n = len(table)
    if ctx.N != n:
        raise ValueError(f"context has N={ctx.N} but the table has {n} elements")
    return qit.from_latin(qit.LatinSquare(np.array(table)))


def x_element(ctx: SpinContext, table, g: int) -> SpinElement:
    """X_g = sum_q e^q_{q*g} at (2,+); satisfies X_g X_h = X_{g*h} exactly."""
    n = len(table)
    if not 1 <= g <= n:
        raise ValueError(f"group element {g} outside 1..{n}")
    coeffs = {SpinIndex(None, (q,), (table[q - 1][g - 1],), None): 1.0 + 0j
              for q in range(1, n + 1)}
    return from_coeffs(ctx, SpinColor(2, PLUS), coeffs, validate=False)


def orbit_representatives(table, half_width: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Representatives of diagonal left translation orbits on tuples of length 2m.

    Each orbit of g . (t_1, ..., t_{2m}) = (g t_1, ..., g t_{2m}) contributes
    one representative, returned split as (top, bottom) halves of length m.
    There are exactly n^{2m-1} orbits.
    """
    n = len(table)
    m = half_width
    seen = set()
    reps = []
    for tup in itertools.product(range(1, n + 1), repeat=2 * m):
        if tup in seen:
            continue
        orbit = {tuple(table[g - 1][t - 1] for t in tup) for g in range(1, n + 1)}
        seen.update(orbit)
        reps.append((tup[:m], tup[m:]))
    return reps


def orbit_sum(ctx: SpinContext, table, top: tuple[int, ...],
              bottom: tuple[int, ...]) -> SpinElement:
    """sum_g e^{g.top}_{g.bottom} at width 2m, the orbit sum through (top, bottom)."""
    n = len(table)
    m = len(top)
    if len(bottom) != m:
        raise ValueError("top and bottom halves must have equal length")
    coeffs = {}
    for g in range(1, n + 1):
        idx = SpinIndex(None,
                        tuple(table[g - 1][t - 1] for t in top),
                        tuple(table[g - 1][b - 1] for b in bottom), None)
        coeffs[idx] = coeffs.get(idx, 0.0) + 1.0
    return from_coeffs(ctx, SpinColor(2 * m, PLUS), coeffs, validate=False)


def predicted_group_dims(n: int, max_level: int) -> list[int]:
    """Kernel dimensions 1, 1, n, n^2, ... for the group construction."""
    return [1 if m == 0 else n ** (m - 1) for m in range(max_level + 1)]
