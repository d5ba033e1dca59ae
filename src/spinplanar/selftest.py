"""Randomized relation suite for the algebra and tangle operations.

Runs the defining identities on fixed-seed random elements across all
colors up to a width bound: associativity, unit laws, star
anti-multiplicativity, trace symmetry, equality of left and right picture
traces, the conditional-expectation/inclusion adjunctions, and rotation
round trips.  The suite is its own oracle: every check is an exact
algebraic identity, so any residual beyond roundoff is a defect.

Shared by the command line front end and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (PLUS, SpinColor, SpinContext, SpinElement, basis_order,
                   coeff_distance, color_dim, devectorize, mult,
                   normalized_trace, star, unit)
from .ops import (cond_left, cond_right, incl_left, incl_right,
                  picture_trace_left, picture_trace_right, rotate,
                  rotate_pow)


@dataclass
class CheckResult:
    name: str
    residual: float
    tol: float
    samples: int

    @property
    def ok(self) -> bool:
        return self.residual <= self.tol


def random_element(ctx: SpinContext, color: SpinColor, rng: np.random.Generator,
                   scale: float = 1.0) -> SpinElement:
    """Dense random element with independent complex gaussian coefficients."""
    d = color_dim(ctx, color)
    v = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) * (scale / np.sqrt(2))
    return devectorize(ctx, color, v)


def all_colors(max_width: int):
    for k in range(max_width + 1):
        yield SpinColor(k, PLUS)
        yield SpinColor(k, -PLUS)


def run_relation_suite(n_spins: int, seed: int = 7, max_width: int = 4,
                       samples_per_color: int = 6,
                       tol: float = 1e-10) -> list[CheckResult]:
    ctx = SpinContext(n_spins)
    rng = np.random.default_rng(seed)
    delta = ctx.delta
    colors = list(all_colors(max_width))
    pool = {c: [random_element(ctx, c, rng) for _ in range(samples_per_color)]
            for c in colors}
    total = sum(len(v) for v in pool.values())

    worst: dict[str, float] = {}

    def record(name: str, value: float):
        worst[name] = max(worst.get(name, 0.0), float(value))

    for c in colors:
        xs = pool[c]
        one = unit(ctx, c)
        for i, x in enumerate(xs):
            y = xs[(i + 1) % len(xs)]
            z = xs[(i + 2) % len(xs)]
            record("associativity", coeff_distance(mult(mult(x, y), z),
                                                   mult(x, mult(y, z))))
            record("unit laws", max(coeff_distance(mult(one, x), x),
                                    coeff_distance(mult(x, one), x)))
            record("star anti-multiplicativity",
                   coeff_distance(star(mult(x, y)), mult(star(y), star(x))))
            record("trace symmetry",
                   abs(normalized_trace(mult(x, y)) - normalized_trace(mult(y, x))))
            record("left = right picture trace",
                   abs(picture_trace_left(x) - picture_trace_right(x)))
            record("cond of incl is modulus",
                   max(coeff_distance(cond_right(incl_right(x)), delta * x),
                       coeff_distance(cond_left(incl_left(x)), delta * x)))
            if c.width >= 1:
                record("rotation full turn",
                       coeff_distance(rotate_pow(rotate_pow(x, c.width), c.width), x))
                record("rotation inverse",
                       max(coeff_distance(rotate_pow(rotate(x), -1), x),
                           coeff_distance(rotate(rotate_pow(x, -1)), x)))
            # adjunction of incl/cond against the normalized trace:
            # tau(a . cond(w)) = delta . tau(incl(a) . w)
            w = random_element(ctx, incl_right(x).color, rng)
            record("right adjunction",
                   abs(normalized_trace(mult(x, cond_right(w)))
                       - delta * normalized_trace(mult(incl_right(x), w))))
            wl = random_element(ctx, incl_left(x).color, rng)
            record("left adjunction",
                   abs(normalized_trace(mult(x, cond_left(wl)))
                       - delta * normalized_trace(mult(incl_left(x), wl))))

    return [CheckResult(name, value, tol, total) for name, value in worst.items()]
