"""Staircase cabling, the shift embedding, and kernel tower extraction."""

import dataclasses

import numpy as np
import pytest

import spinplanar as sp
from spinplanar.core import product_vector
from spinplanar.subfactor import CablingData
import oracle_hadamard as oh
import oracle_latin as ol
import partner
from conftest import (LATIN5_ROWS, f4q, hadamard_equivalent, haar_qls, latin5,
                      tensor_biunitary, tower_dims, z3_latin)


def fourier_staircase(n=2, levels=3):
    u = sp.fourier_hadamard(n).to_element()
    return sp.build_staircase(u, 1, levels)


def group_staircase(table, levels):
    return sp.build_staircase(sp.group_element(table), 1, levels)


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


@pytest.mark.parametrize("ell", [0, 3])
def test_cabling_needs_a_step_inside_the_width(ell):
    with pytest.raises(ValueError, match="need 0 < ell < k"):
        CablingData(3, ell)


def test_staircase_base_cases(ctx2):
    stair = fourier_staircase(2, 2)
    want0 = sp.unit(ctx2, sp.SpinColor(1, sp.PLUS))
    assert sp.coeff_distance(stair.element(0), want0) == 0.0
    u = sp.fourier_hadamard(2).to_element()
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
        want2 = sp.from_coeffs(ctx, sp.SpinColor(4, sp.PLUS), c2)
        assert sp.coeff_distance(stair.element(2), want2) < 1e-12

        c3 = {}
        for g in range(1, n + 1):
            for h1 in range(1, n + 1):
                for h2 in range(1, n + 1):
                    idx = sp.SpinIndex(None, (g, inv[h1]),
                                       (mul(g, h1), mul(g, h2)), inv[h2])
                    c3[idx] = 1.0 + 0j
        want3 = sp.from_coeffs(ctx, sp.SpinColor(5, sp.PLUS), c3)
        assert sp.coeff_distance(stair.element(3), want3) < 1e-12


def test_staircase_rejects_bad_input(ctx2):
    not_biunitary = sp.unit(ctx2, sp.SpinColor(2, sp.PLUS))
    with pytest.raises(ValueError, match="certificate"):
        sp.build_staircase(not_biunitary, 1, 2)
    # the level is refused before the certificate is run
    with pytest.raises(ValueError, match="max_level must be nonnegative"):
        sp.build_staircase(not_biunitary, 1, -1)
    with pytest.raises(ValueError, match="max_level must be nonnegative"):
        sp.build_staircase(sp.fourier_hadamard(2).to_element(), 1, -1)


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
    fx = partner.left_projection(x, depth)
    assert sp.coeff_distance(partner.left_projection(fx, depth), fx) < 1e-12
    lhs = sp.inner_product(fx, y)
    rhs = sp.inner_product(x, partner.left_projection(y, depth))
    assert abs(lhs - rhs) < 1e-12
    assert sp.coeff_distance(sp.star(fx), partner.left_projection(sp.star(x), depth)) < 1e-12


CABLING_CASES = {
    "fourier3 k=2 l=1": lambda: fourier_staircase(3, 2),
    "latin5 qls k=3 l=1": lambda: sp.build_staircase(latin5().to_element(), 1, 2),
    "S3 table k=3 l=1": lambda: group_staircase(sp.s3_table(), 2),
    "A(x)B k=4 l=2": lambda: sp.build_staircase(tensor_biunitary(2).to_element(),
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
            want = sp.vectorize(sx - partner.left_projection(sx, depth))
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
        s = sp.orbit_sum(table, top, bottom)
        v = sp.vectorize(s)
        assert np.linalg.norm(op.matrix @ v) / np.linalg.norm(v) < 1e-10


def test_tensor_biunitary_level_one_is_full():
    b = tensor_biunitary(2)
    u = b.to_element()
    stair = sp.build_staircase(u, 2, 1)
    r = sp.q_level(stair, 1)
    assert r.dim == 4
    zm = sp.q_zero_minus(stair)
    assert zm.dim == 1


def test_latin_square_level_one_dim():
    u = latin5().to_element()
    stair = sp.build_staircase(u, 1, 1)
    assert sp.q_level(stair, 1).dim == 1


@pytest.mark.parametrize("make, seed, dims", [(z3_latin, 44, [1, 1, 3, 9]),
                                              (latin5, 45, [1, 1, 2, 5])], ids=["Z3", "latin5"])
def test_dense_qls_has_the_tower_of_its_latin_square(make, seed, dims):
    # turning every vector by one unitary leaves the tower as it is
    square = make()
    assert tower_dims(haar_qls(square, seed).to_element()) == dims
    assert tower_dims(square.to_element()) == dims


@pytest.mark.parametrize("h, dims", [(sp.fourier_hadamard(3).entries, [1, 1, 3, 9]),
                                     (f4q(np.exp(0.7j)), [1, 1, 3, 10])],
                         ids=["F3", "F4(exp(0.7i))"])
def test_qls_of_row_quotients_has_the_tower_of_its_hadamard(h, dims):
    # xi_ij = H_i / H_j / sqrt(n), the rows of H divided entrywise
    n = h.shape[0]
    q = sp.QuantumLatinSquare(h[:, None, :] / h[None, :, :] / np.sqrt(n))
    assert tower_dims(q.to_element()) == dims
    assert tower_dims(sp.HadamardMatrix(h).to_element()) == dims


@pytest.mark.parametrize("h, levels", [
    (sp.fourier_hadamard(3).entries, 4),
    (f4q(np.exp(0.7j)), 3),
    (np.kron(sp.fourier_hadamard(2).entries, sp.fourier_hadamard(2).entries), 3),
    (hadamard_equivalent(4, 46).entries, 3),
], ids=["F3", "F4(exp(0.7i))", "F2xF2", "D1P1F4P2D2"])
def test_hadamard_tower_matches_the_closed_form_oracle(h, levels):
    # the fixed vectors of the magic unitary's tensor powers, computed apart
    assert tower_dims(sp.HadamardMatrix(h).to_element(), levels) == oh.tower(h, levels)


@pytest.mark.parametrize("rows, dims", [
    (sp.s3_table(), [1, 1, 6, 36]),
    ([[1 + (a ^ b) for b in range(4)] for a in range(4)], [1, 1, 4, 16]),
    (sp.cyclic_table(5), [1, 1, 5, 25]),
    (LATIN5_ROWS, [1, 1, 2, 5]),
], ids=["S3", "Z2xZ2", "Z5", "latin5"])
def test_latin_tower_matches_the_closed_form_oracle(rows, dims):
    # orbits of G = <R_a^-1 R_b> on m-tuples, counted apart by Burnside's lemma
    assert ol.tower(rows, 3) == dims
    assert tower_dims(sp.LatinSquare(np.array(rows)).to_element()) == dims


@pytest.mark.parametrize("a, b, dims", [
    (sp.fourier_hadamard(2).entries, sp.fourier_hadamard(3).entries, [1, 1, 6, 36]),
    (sp.fourier_hadamard(3).entries, sp.fourier_hadamard(2).entries, [1, 1, 6, 36]),
    (sp.fourier_hadamard(2).entries, f4q(np.exp(0.7j)), [1, 1, 6, 40]),
], ids=["F2xF3", "F3xF2", "F2xF4(exp(0.7i))"])
def test_tensor_product_tower_is_the_product_of_the_factor_towers(a, b, dims):
    # Q_m(u (x) v) = Q_m(u) (x) Q_m(v), so the dimensions multiply level by level
    def dims_of(h):
        return tower_dims(sp.HadamardMatrix(h).to_element())

    assert dims_of(np.kron(a, b)) == dims
    assert dims == [x * y for x, y in zip(dims_of(a), dims_of(b))]


def jones_projections(ctx, ell, m, color):
    """e_0 .. e_(m-2) at level m, width w = m l: the l-cabled Jones projections
    N^(-l/2) incl_right^(w-2l-jl)(incl_left^(jl)(rotate_pow(unit(2l, s), l))),
    each with the shading s that lands it on color."""
    out = []
    for j in range(m - 1):
        for s in (sp.PLUS, sp.MINUS):
            cup_cap = sp.rotate_pow(sp.unit(ctx, sp.SpinColor(2 * ell, s)), ell)
            e = sp.incl_right_pow(sp.incl_left_pow(cup_cap, j * ell), (m - 2 - j) * ell)
            if e.color == color:
                out.append(ctx.N ** (-ell / 2) * e)
    return out


@pytest.mark.parametrize("u, ell, levels", [
    (sp.fourier_hadamard(3).to_element(), 1, 4),
    (sp.fourier_hadamard(4).to_element(), 1, 3),
    (tensor_biunitary(2).to_element(), 2, 3),
    (sp.group_element(sp.s3_table()), 1, 3),
], ids=["F3", "F4", "AxB", "S3"])
def test_jones_projections_lie_in_every_level(u, ell, levels):
    # every subfactor planar algebra contains Temperley-Lieb at index N^l
    ctx = u.ctx
    for res in sp.q_tower(sp.build_staircase(u, ell, levels), levels)[2:]:
        es = jones_projections(ctx, ell, res.level, res.ambient_color)
        assert len(es) == res.level - 1
        vectors = [sp.vectorize(e) for e in es]
        assert sp.subfactor._projection_residual(vectors, res).max() <= 1e-13
        for j, e in enumerate(es):
            assert sp.coeff_distance(sp.mult(e, e), e) <= 1e-14
            for f in es[max(j - 1, 0):j] + es[j + 1:j + 2]:
                assert sp.coeff_distance(sp.mult(sp.mult(e, f), e),
                                         ctx.N ** -ell * e) <= 1e-14


# ---------------------------------------------------------------------------
# partners and the two membership conditions


def test_partner_round_trip():
    stair = group_staircase(sp.cyclic_table(3), 2)
    r = sp.q_level(stair, 2)
    for b in r.basis:
        y = partner.extract_partner_y(stair, 2, b)
        back = partner.reconstruct_from_partner(stair, 2, y)
        assert sp.coeff_distance(back, b) < 1e-10


def test_partner_of_orbit_sum_is_orbit_sum():
    """For group inputs the partner map sends orbit sums to orbit sums exactly."""
    table = sp.cyclic_table(3)
    stair = group_staircase(table, 2)
    for top, bottom in sp.orbit_representatives(table, 1):
        s = sp.orbit_sum(table, top, bottom)
        y = partner.extract_partner_y(stair, 2, s)
        vals = sorted(abs(c) for c in y.coeffs.values())
        assert all(abs(v - 1.0) < 1e-9 for v in vals)
        assert len(vals) == 3
        back = partner.reconstruct_from_partner(stair, 2, y)
        assert sp.coeff_distance(back, s) < 1e-10


def test_extract_partner_rejects_non_members(rng):
    stair = fourier_staircase(2, 2)
    x = sp.random_element(stair.ctx, stair.cab.ambient_color(2), rng)
    with pytest.raises(ValueError):
        partner.extract_partner_y(stair, 2, x)


def test_membership_conditions_agree(rng):
    stair = fourier_staircase(2, 3)
    for m in (1, 2, 3):
        op = sp.membership_operator(stair, m)
        recon = partner.partner_operator(stair, m)
        r = sp.q_level(stair, m)
        probes = list(r.basis)
        color = stair.cab.ambient_color(m)
        for _ in range(6):
            probes.append(sp.random_element(stair.ctx, color, rng))
        for x in probes:
            v = sp.vectorize(x)
            in_kernel = np.linalg.norm(op.matrix @ v) / np.linalg.norm(v) < 1e-8
            by_partner, _ = partner.membership_by_partner(stair, m, x, recon_matrix=recon)
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


def test_planar_closure_fails_on_a_nan_candidate():
    # a NaN residual must not fold to 0 and read as a pass
    results = sp.q_tower(fourier_staircase(2, 3), 3)
    first = results[1].basis[0]
    idx = next(iter(first.coeffs))
    poisoned = sp.SpinElement(first.ctx, first.color, {**first.coeffs, idx: complex("nan")})
    results[1] = dataclasses.replace(results[1], basis=[poisoned] + results[1].basis[1:])
    with np.errstate(invalid="ignore"):
        report = sp.verify_planar_closure(results)
    assert not report.ok
    # the poisoned row reaches every kind the level's block feeds: rotation
    # at level 1, inclusion into level 2 and expectation into level 0
    for kind in ("product", "star", "rotation", "inclusion", "expectation"):
        assert np.isnan(report.residuals[kind]), kind
    assert report.residuals["unit"] < 1e-9


def test_planar_closure_checks_the_unit_on_an_empty_level():
    # the unit lies in every Q_m, so a level with no basis cannot pass: a
    # tower of empty levels used to read ok with every residual 0
    tower = sp.q_tower(fourier_staircase(3, 2), 2)
    empty = [dataclasses.replace(r, dim=0, basis=[],
                                 kernel_matrix=np.zeros((len(r.kernel_matrix), 0), complex))
             for r in tower]
    report = sp.verify_planar_closure(empty)
    assert not report.ok
    assert report.residuals["unit"] == pytest.approx(1.0, abs=1e-15)
    assert all(v == 0.0 for kind, v in report.residuals.items() if kind != "unit")
    # one empty level among full ones fails on its unit alone
    report = sp.verify_planar_closure(tower[:2] + empty[2:])
    assert report.residuals["unit"] == pytest.approx(1.0, abs=1e-15)
    assert report.residuals["product"] <= 1e-13


def test_projection_residual_of_no_candidates():
    target = sp.q_level(fourier_staircase(3, 2), 2)
    for none in ([], np.zeros((0, len(target.kernel_matrix)), complex)):
        residuals = sp.subfactor._projection_residual(none, target)
        assert residuals.shape == (0,)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ell", [1, 2])
def test_closure_maps_match_the_dict_tangles(n, ell):
    # every color of width 0-4 that a closure meets at cabling l, on either
    # shading of the biunitary: the block maps against the dict tangles on
    # seeded dense elements, one element per row
    sub = sp.subfactor
    ctx = sp.SpinContext(n)
    rng = np.random.default_rng(100 * n + ell)
    for width in range(0, 5, ell):
        for shading in (sp.PLUS, sp.MINUS):
            color = sp.SpinColor(width, shading)
            elements = [sp.random_element(ctx, color, rng) for _ in range(3)]
            rows = np.array([sp.vectorize(a) for a in elements])
            star = sub._permutation_rows(ctx, color, sp.star, rows, antilinear=True)
            assert np.array_equal(star, [sp.vectorize(sp.star(a)) for a in elements])
            above = sp.SpinColor(width + ell, shading)
            supports = sub._image_supports(ctx, color, sp.incl_right_pow, ell)
            up = sub._inclusion_rows(rows, supports, sp.color_dim(ctx, above))
            assert np.array_equal(up, [sp.vectorize(sp.incl_right_pow(a, ell))
                                       for a in elements])
            if width >= 1:
                turned = sub._permutation_rows(ctx, color,
                                               lambda x: sp.rotate_pow(x, 2 * ell), rows)
                want = [sp.vectorize(sp.rotate_pow(a, 2 * ell)) for a in elements]
                assert np.array_equal(turned, want)
            if width >= ell:
                below = sp.SpinColor(width - ell, shading)
                supports = sub._image_supports(ctx, below, sp.incl_right_pow, ell)
                down = sub._expectation_rows(ctx, rows, supports, ell)
                want = np.array([sp.vectorize(sp.cond_right_pow(a, ell)) for a in elements])
                assert np.linalg.norm(down - want) <= 1e-15 * np.linalg.norm(want)


def test_closure_reads_each_tangle_a_fixed_number_of_times_per_level(monkeypatch):
    # star, rotation, inclusion and expectation are read off once per level
    # as maps on the level's block, never applied to one basis element at a
    # time (levels 0-3 of F4 have 1, 1, 4 and 16 basis elements)
    results = sp.q_tower(sp.build_staircase(sp.fourier_hadamard(4).to_element(), 1, 3), 3)
    calls = {}
    for module, name in ((sp.core, "star"), (sp.ops, "rotate_pow"),
                         (sp.ops, "incl_right_pow"), (sp.ops, "cond_right_pow")):
        real = getattr(module, name)
        calls[name] = 0

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
        monkeypatch.setattr(sp.subfactor, name, counting, raising=False)
    report = sp.verify_planar_closure(results)
    assert report.ok
    # one read per map: star on levels 0-3, rotation on 1-3, the inclusion
    # on 0-2, whose supports the expectation on 1-3 reuses
    assert calls == {"star": 4, "rotate_pow": 3, "incl_right_pow": 3, "cond_right_pow": 0}


def test_planar_closure_needs_two_levels():
    # one level, or levels with a hole, would leave inclusions and
    # expectations unchecked and pass vacuously
    tower = sp.q_tower(fourier_staircase(3, 3), 3)
    for levels in ([1], [0, 2], [1, 3]):
        with pytest.raises(ValueError, match="consecutive"):
            sp.verify_planar_closure([tower[m] for m in levels])


def _reference_residual(v, target):
    # one coefficient vector at a time, written from the definition
    if np.linalg.norm(v) < 1e-13:
        return 0.0
    v = v / np.linalg.norm(v)
    b = target.kernel_matrix
    return np.linalg.norm(v - b @ b.conj().T @ v)


def test_projection_residual_in_off_zero_and_nan(rng):
    # one block of coefficient vectors: one in the kernel's span, one
    # orthogonal to it, a zero, a NaN and a kernel member; the NaN stays in
    # its own row
    target = sp.q_level(fourier_staircase(3, 2), 2)
    first = sp.vectorize(target.basis[0])
    b = target.kernel_matrix
    z = rng.normal(size=b.shape[0]) + 1j * rng.normal(size=b.shape[0])
    on = b @ (b.conj().T @ z)
    off = z - on
    zero = np.zeros_like(first)
    nan = first.copy()
    nan[np.flatnonzero(first)[0]] = complex("nan")
    with np.errstate(invalid="ignore"):
        residuals = sp.subfactor._projection_residual([on, off, zero, nan, first], target)
    assert residuals.shape == (5,)
    assert residuals[0] <= 1e-14 and residuals[4] <= 1e-14
    assert abs(residuals[1] - 1.0) <= 1e-14
    assert residuals[2] == 0.0
    assert np.isnan(residuals[3])
    assert np.isfinite(residuals[[0, 1, 2, 4]]).all()


def test_projection_residual_matches_one_at_a_time(rng):
    # blocks of mixed coefficient vectors, as the rows of one array: kernel
    # members, products, random elements and a zero
    tower = sp.q_tower(sp.build_staircase(tensor_biunitary(2).to_element(), 2, 2), 2)
    target = tower[2]
    color = target.ambient_color
    candidates = [sp.vectorize(a) for a in target.basis[:5]]
    candidates += [product_vector(a, b) for a in target.basis[:3] for b in target.basis[-3:]]
    candidates += [sp.vectorize(sp.random_element(target.basis[0].ctx, color, rng))
                   for _ in range(4)]
    candidates.append(np.zeros(sp.color_dim(target.basis[0].ctx, color), dtype=complex))
    vectors = np.array(candidates)[rng.permutation(len(candidates))]
    want = np.array([_reference_residual(v, target) for v in vectors])
    for lo, hi in ((0, len(vectors)), (0, 1), (3, 11)):
        got = sp.subfactor._projection_residual(vectors[lo:hi], target)
        assert np.abs(got - want[lo:hi]).max() <= 1e-14


def test_closure_builds_no_element_from_a_vector(monkeypatch):
    # every product stays a coefficient vector from the matmul to the
    # projection; a counting devectorize would see each product that went
    # through mult instead
    results = sp.q_tower(sp.build_staircase(sp.fourier_hadamard(4).to_element(), 1, 3), 3)
    calls = []
    real = sp.core.devectorize

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(sp.core, "devectorize", counting)
    monkeypatch.setattr(sp.subfactor, "devectorize", counting)
    report = sp.verify_planar_closure(results)
    assert report.ok and calls == []
    sp.mult(results[2].basis[0], results[2].basis[1])  # the counter does see mult
    assert len(calls) == 1


def test_group_oracle_agrees_with_tower():
    oracle = sp.group_oracle(sp.cyclic_table(3), 3)
    stair = group_staircase(sp.cyclic_table(3), 3)
    dims = [r.dim for r in sp.q_tower(stair, 3)]
    assert dims == oracle.dims == [1, 1, 3, 9]
    op = sp.membership_operator(stair, 2)
    for s in oracle.orbit_sums(2):
        v = sp.vectorize(s)
        assert np.linalg.norm(op.matrix @ v) / np.linalg.norm(v) < 1e-10


@pytest.mark.parametrize("level", [0, 1])
def test_orbit_sums_need_an_even_positive_level(level):
    oracle = sp.group_oracle(sp.cyclic_table(2), 2)
    with pytest.raises(ValueError, match="even levels >= 2"):
        oracle.orbit_sums(level)
