"""Staircase cabling, the shift embedding, and kernel tower extraction."""

import numpy as np
import pytest

import spinplanar as sp
from spinplanar.subfactor import CablingData
from conftest import haar_qls, latin5, tensor_biunitary, z3_latin


def fourier_staircase(n=2, levels=3):
    u = sp.from_hadamard(sp.fourier_hadamard(n))
    return sp.build_staircase(u, 1, levels)


def group_staircase(table, levels):
    ctx = sp.SpinContext(len(table))
    return sp.build_staircase(sp.group_element(ctx, table), 1, levels)


def table_inverse(table):
    e = sp.validate_group(table)
    n = len(table)
    return {g: next(h for h in range(1, n + 1) if table[g - 1][h - 1] == e)
            for g in range(1, n + 1)}


# ---------------------------------------------------------------------------
# cabling bookkeeping


def test_cabling_colors():
    cab = CablingData(3, 1)
    assert cab.depth == 2
    assert cab.ambient_color(2) == sp.SpinColor(2, sp.PLUS)
    assert cab.ambient_color(2, minus=True) == sp.SpinColor(2, sp.MINUS)
    assert cab.target_color(2) == sp.SpinColor(4, sp.PLUS)
    cab42 = CablingData(4, 2)
    assert cab42.depth == 2
    # even cable width keeps the minus-side shading equal to the plus side
    assert cab42.ambient_color(1, minus=True) == sp.SpinColor(2, sp.PLUS)


def test_staircase_base_cases(ctx2):
    stair = fourier_staircase(2, 2)
    want0 = sp.unit(ctx2, sp.SpinColor(1, sp.PLUS))
    assert sp.coeff_distance(stair.element(0), want0) == 0.0
    u = sp.from_hadamard(sp.fourier_hadamard(2))
    assert sp.coeff_distance(stair.element(1), u) == 0.0
    want0m = sp.unit(ctx2, sp.SpinColor(1, sp.MINUS))
    assert sp.coeff_distance(stair.element(0, minus=True), want0m) == 0.0


def test_staircase_unitarity():
    stair = group_staircase(sp.cyclic_table(3), 3)
    for m in range(1, 4):
        um = stair.element(m)
        res = sp.unitarity_residuals(um)
        assert res["xx*-1"] < 1e-10 and res["x*x-1"] < 1e-10


def test_staircase_group_closed_forms():
    """The cabled unitaries of a group table have explicit matrix-unit formulas."""
    for table in (sp.cyclic_table(3), sp.s3_table()):
        n = len(table)
        ctx = sp.SpinContext(n)
        inv = table_inverse(table)
        mul = lambda a, b: table[a - 1][b - 1]
        stair = group_staircase(table, 3)

        c2 = {}
        for g in range(1, n + 1):
            for h in range(1, n + 1):
                c2[sp.SpinIndex(None, (g, inv[h]), (mul(g, h), g), None)] = 1.0 + 0j
        want2 = sp.from_coeffs(ctx, sp.SpinColor(4, sp.PLUS), c2, validate=False)
        assert sp.coeff_distance(stair.element(2), want2) < 1e-12

        c3 = {}
        for g in range(1, n + 1):
            for h1 in range(1, n + 1):
                for h2 in range(1, n + 1):
                    idx = sp.SpinIndex(None, (g, inv[h1]),
                                       (mul(g, h1), mul(g, h2)), inv[h2])
                    c3[idx] = 1.0 + 0j
        want3 = sp.from_coeffs(ctx, sp.SpinColor(5, sp.PLUS), c3, validate=False)
        assert sp.coeff_distance(stair.element(3), want3) < 1e-12


def test_staircase_rejects_bad_input(ctx2):
    not_biunitary = sp.unit(ctx2, sp.SpinColor(2, sp.PLUS))
    with pytest.raises(ValueError, match="certificate"):
        sp.build_staircase(not_biunitary, 1, 2)
    # check=False skips the gate
    stair = sp.build_staircase(not_biunitary, 1, 1, check=False)
    assert stair.level == 1


def test_staircase_level_bounds():
    stair = fourier_staircase(2, 2)
    with pytest.raises(ValueError):
        stair.element(3)
    with pytest.raises(ValueError):
        stair.element(1, minus=True)


# ---------------------------------------------------------------------------
# the embedding and the conditional projection


def test_sigma_is_isometric_and_multiplicative(rng):
    stair = fourier_staircase(2, 3)
    ctx = stair.ctx
    for m in (1, 2, 3):
        color = stair.cab.ambient_color(m)
        x = sp.random_element(ctx, color, rng)
        y = sp.random_element(ctx, color, rng)
        sx, sy = sp.sigma(stair, m, x), sp.sigma(stair, m, y)
        assert abs(sp.norm(sx) - sp.norm(x)) < 1e-12
        assert sp.coeff_distance(sp.mult(sx, sy), sp.sigma(stair, m, sp.mult(x, y))) < 1e-11
        assert sp.coeff_distance(sp.star(sx), sp.sigma(stair, m, sp.star(x))) < 1e-12
    one = sp.unit(ctx, stair.cab.ambient_color(2))
    target_one = sp.unit(ctx, stair.cab.target_color(2))
    assert sp.coeff_distance(sp.sigma(stair, 2, one), target_one) < 1e-12


def test_sigma_color_mismatch():
    stair = fourier_staircase(2, 2)
    wrong = sp.unit(stair.ctx, sp.SpinColor(3, sp.PLUS))
    with pytest.raises(ValueError):
        sp.sigma(stair, 2, wrong)


def test_left_projection_is_conditional_expectation(rng):
    stair = fourier_staircase(2, 3)
    ctx, depth = stair.ctx, stair.cab.depth
    color = stair.cab.target_color(2)
    x = sp.random_element(ctx, color, rng)
    y = sp.random_element(ctx, color, rng)
    fx = sp.left_projection(x, depth)
    assert sp.coeff_distance(sp.left_projection(fx, depth), fx) < 1e-12
    lhs = sp.inner_product(fx, y)
    rhs = sp.inner_product(x, sp.left_projection(y, depth))
    assert abs(lhs - rhs) < 1e-12
    assert sp.coeff_distance(sp.star(fx), sp.left_projection(sp.star(x), depth)) < 1e-12


CABLING_CASES = {
    "fourier3 k=2 l=1": lambda: fourier_staircase(3, 2),
    "latin5 qls k=3 l=1": lambda: sp.build_staircase(sp.from_latin(latin5()), 1, 2),
    "S3 table k=3 l=1": lambda: group_staircase(sp.s3_table(), 2),
    "A(x)B k=4 l=2": lambda: sp.build_staircase(sp.from_biunitary_matrix(tensor_biunitary(2)),
                                                2, 2),
}


@pytest.mark.parametrize("case", sorted(CABLING_CASES))
def test_membership_operator_matches_definition(case):
    """Each column of the blockwise L is sigma(x) - F sigma(x) on a basis element x."""
    stair = CABLING_CASES[case]()
    ctx, depth = stair.ctx, stair.cab.depth
    for m, minus in ((0, False), (1, False), (2, False), (0, True)):
        op = sp.membership_operator(stair, m, minus)
        ambient = stair.cab.ambient_color(m, minus)
        order = sp.basis_order(ctx, ambient)
        assert op.matrix.shape == (sp.color_dim(ctx, op.target_color), len(order))
        for j, idx in enumerate(order):
            sx = sp.sigma(stair, m, sp.make_basis(ctx, idx), minus)
            want = sp.vectorize(sx - sp.left_projection(sx, depth))
            assert np.max(np.abs(op.matrix[:, j] - want)) <= 1e-14


def test_zero_minus_operator_rows_lie_in_shaded_unit_color():
    # for odd l the minus-shaded staircase unit has the opposite shading of
    # the plus-shaded target color (k-l, eps)
    stair = fourier_staircase(3, 1)
    op = sp.membership_operator(stair, 0, minus=True)
    assert op.target_color == stair.element(0, True).color == sp.SpinColor(1, sp.MINUS)
    assert op.matrix.shape[0] == sp.color_dim(stair.ctx, op.target_color)


def test_unit_cabling_scales_by_modulus(ctx2):
    # collapsing a cable of plain strands multiplies by the modulus each time
    one = sp.unit(ctx2, sp.SpinColor(3, sp.PLUS))
    out = sp.cond_right_pow(one, 2)
    want = sp.scale(ctx2.delta ** 2, sp.unit(ctx2, sp.SpinColor(1, sp.PLUS)))
    assert sp.coeff_distance(out, want) < 1e-12


# ---------------------------------------------------------------------------
# kernel levels


def test_fourier_two_dims():
    stair = fourier_staircase(2, 3)
    results = sp.q_tower(stair, 3)
    assert [r.dim for r in results] == [1, 1, 2, 4]
    for r in results:
        assert r.residual < 1e-9
        if r.dim and np.isfinite(r.gap):
            assert r.gap > 1e6
    zm = sp.q_zero_minus(stair)
    assert zm.dim == 1 and zm.minus


def test_level_result_contents():
    stair = group_staircase(sp.cyclic_table(3), 2)
    r = sp.q_level(stair, 2)
    assert r.level == 2 and r.dim == 3
    assert r.ambient_color == sp.SpinColor(2, sp.PLUS)
    assert len(r.basis) == 3 and len(r.minus_basis) == 3
    for b, mb in zip(r.basis, r.minus_basis):
        assert b.color == sp.SpinColor(2, sp.PLUS)
        assert mb.color == sp.SpinColor(2, sp.MINUS)
        assert sp.coeff_distance(mb, sp.rotate_pow(b, 1)) < 1e-12
        assert abs(sp.norm(b) - 1.0) < 1e-10


def test_orbit_sums_lie_in_kernel():
    table = sp.cyclic_table(3)
    stair = group_staircase(table, 2)
    op = sp.membership_operator(stair, 2)
    for top, bottom in sp.orbit_representatives(table, 1):
        s = sp.orbit_sum(stair.ctx, table, top, bottom)
        v = sp.vectorize(s)
        assert np.linalg.norm(op.matrix @ v) / np.linalg.norm(v) < 1e-10


def test_tensor_biunitary_level_one_is_full():
    b = tensor_biunitary(2)
    u = sp.from_biunitary_matrix(b)
    stair = sp.build_staircase(u, 2, 1)
    r = sp.q_level(stair, 1)
    assert r.dim == 4
    zm = sp.q_zero_minus(stair)
    assert zm.dim == 1


def test_latin_square_level_one_dim():
    u = sp.from_latin(latin5())
    stair = sp.build_staircase(u, 1, 1)
    assert sp.q_level(stair, 1).dim == 1


def tower_dims(u, levels=3):
    return [r.dim for r in sp.q_tower(sp.build_staircase(u, 1, levels), levels)]


@pytest.mark.parametrize("make, seed, dims", [(z3_latin, 44, [1, 1, 3, 9]),
                                              (latin5, 45, [1, 1, 2, 5])], ids=["Z3", "latin5"])
def test_dense_qls_has_the_tower_of_its_latin_square(make, seed, dims):
    # turning every vector by one unitary leaves the tower as it is
    square = make()
    assert tower_dims(sp.from_qls(haar_qls(square, seed))) == dims
    assert tower_dims(sp.from_latin(square)) == dims


def f4q(q):
    """The one-parameter family F4(q) of 4 x 4 complex Hadamard matrices."""
    return np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, q, -1, -q], [1, -q, -1, q]])


@pytest.mark.parametrize("h, dims", [(sp.fourier_hadamard(3).entries, [1, 1, 3, 9]),
                                     (f4q(np.exp(0.7j)), [1, 1, 3, 10])],
                         ids=["F3", "F4(exp(0.7i))"])
def test_qls_of_row_quotients_has_the_tower_of_its_hadamard(h, dims):
    # xi_ij = H_i / H_j / sqrt(n), the rows of H divided entrywise
    n = h.shape[0]
    q = sp.QuantumLatinSquare(h[:, None, :] / h[None, :, :] / np.sqrt(n))
    assert tower_dims(sp.from_qls(q)) == dims
    assert tower_dims(sp.from_hadamard(sp.HadamardMatrix(h))) == dims


# ---------------------------------------------------------------------------
# partners and the two membership conditions


def test_partner_round_trip():
    stair = group_staircase(sp.cyclic_table(3), 2)
    r = sp.q_level(stair, 2)
    for b in r.basis:
        y = sp.extract_partner_y(stair, 2, b)
        back = sp.reconstruct_from_partner(stair, 2, y)
        assert sp.coeff_distance(back, b) < 1e-10


def test_partner_of_orbit_sum_is_orbit_sum():
    """For group inputs the partner map sends orbit sums to orbit sums exactly."""
    table = sp.cyclic_table(3)
    stair = group_staircase(table, 2)
    for top, bottom in sp.orbit_representatives(table, 1):
        s = sp.orbit_sum(stair.ctx, table, top, bottom)
        y = sp.extract_partner_y(stair, 2, s)
        vals = sorted(abs(c) for c in y.coeffs.values())
        assert all(abs(v - 1.0) < 1e-9 for v in vals)
        assert len(vals) == 3
        back = sp.reconstruct_from_partner(stair, 2, y)
        assert sp.coeff_distance(back, s) < 1e-10


def test_extract_partner_rejects_non_members(rng):
    stair = fourier_staircase(2, 2)
    x = sp.random_element(stair.ctx, stair.cab.ambient_color(2), rng)
    with pytest.raises(ValueError):
        sp.extract_partner_y(stair, 2, x)


def test_membership_conditions_agree(rng):
    stair = fourier_staircase(2, 3)
    for m in (1, 2, 3):
        op = sp.membership_operator(stair, m)
        recon = sp.partner_operator(stair, m)
        r = sp.q_level(stair, m)
        probes = list(r.basis)
        color = stair.cab.ambient_color(m)
        for _ in range(6):
            probes.append(sp.random_element(stair.ctx, color, rng))
        for x in probes:
            v = sp.vectorize(x)
            in_kernel = np.linalg.norm(op.matrix @ v) / np.linalg.norm(v) < 1e-8
            by_partner, _ = sp.membership_by_partner(stair, m, x, recon_matrix=recon)
            assert in_kernel == by_partner


# ---------------------------------------------------------------------------
# closure and the group oracle


def test_planar_closure_fourier():
    stair = fourier_staircase(2, 3)
    results = sp.q_tower(stair, 3)
    report = sp.verify_planar_closure(results)
    assert report.ok
    assert set(report.residuals) == {"unit", "product", "inclusion",
                                     "expectation", "rotation", "star"}
    assert max(report.residuals.values()) < 1e-9


def test_planar_closure_needs_two_levels():
    stair = fourier_staircase(2, 1)
    with pytest.raises(ValueError):
        sp.verify_planar_closure([sp.q_level(stair, 1)])


def test_group_oracle_agrees_with_tower():
    oracle = sp.group_oracle(sp.cyclic_table(3), 3)
    stair = group_staircase(sp.cyclic_table(3), 3)
    dims = [r.dim for r in sp.q_tower(stair, 3)]
    assert dims == oracle.dims == [1, 1, 3, 9]
    op = sp.membership_operator(stair, 2)
    for s in oracle.orbit_sums(2):
        v = sp.vectorize(s)
        assert np.linalg.norm(op.matrix @ v) / np.linalg.norm(v) < 1e-10
