"""Closed-form tower of a Latin square, independent of the package.

Read row a of an n x n Latin square as the permutation R_a : j -> L[a][j] of
{0, ..., n-1} (symbols shifted to start at 0), and let G = <R_a^-1 R_b> be
the group the quotients of rows generate.  The level-m space of the
subfactor planar algebra of the square has the dimension of the number of
orbits of G on m-tuples, which by Burnside's lemma is

    dim Q_m = (1/|G|) sum_{g in G} fix(g)^m    for m >= 1,  dim Q_0 = 1.

For a group table G acts regularly, which gives n^(m-1).  G is enumerated by
closure under composition.  No imports from the package under test.
"""

import itertools

import numpy as np


def quotients(rows) -> set:
    """Every R_a^-1 R_b, as a tuple of images."""
    rows = np.asarray(rows) - 1
    inverse = np.argsort(rows, axis=1)  # inverse[a][rows[a][j]] = j
    n = len(rows)
    return {tuple(inverse[a][rows[b]].tolist()) for a, b in itertools.product(range(n), repeat=2)}


def group(rows) -> set:
    """G = <R_a^-1 R_b>: the closure of the quotients under composition."""
    gens = [np.array(g) for g in quotients(rows)]
    elements = {tuple(range(len(rows)))}
    frontier = list(elements)
    while frontier:
        found = {tuple(g[list(f)].tolist()) for f in frontier for g in gens} - elements
        elements |= found
        frontier = list(found)
    return elements


def tower(rows, max_level: int) -> list[int]:
    """dim Q_0 .. dim Q_max_level by Burnside's lemma."""
    elements = group(rows)
    fixed = [sum(g[j] == j for j in range(len(g))) for g in elements]
    dims = [1]
    for m in range(1, max_level + 1):
        total = sum(f ** m for f in fixed)
        assert total % len(elements) == 0, "Burnside's count must be an integer"
        dims.append(total // len(elements))
    return dims
