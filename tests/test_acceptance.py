"""Acceptance gate: one pass/fail line per criterion, printed unconditionally.

Each test checks one shipping criterion at its stated tolerance and prints a
single summary line to the real stdout so the verdicts survive pytest's
capture. Shared towers are built lazily and cached; the timed criteria
always build fresh.
"""

import sys
import time

import numpy as np
import pytest

import spinplanar as sp
import oracle_dense as od
import partner
from conftest import LATIN5_ROWS, rotation_formula, tensor_biunitary


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def report(num: int, ok: bool, detail: str) -> None:
    line = f"AC{num}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared construction cache

_cache: dict = {}


def latin5():
    return sp.LatinSquare(np.array(LATIN5_ROWS))


def accepted_zero_ell_inputs():
    """Every input family certified as a width-k element with one cable width."""
    cases = []
    for n in range(2, 7):
        cases.append((f"fourier{n}", sp.fourier_hadamard(n).to_element(), 1))
    for name in ("Z2", "Z3", "Z4", "Z5", "S3"):
        cases.append((name, sp.group_element(sp.builtin_group(name)), 1))
    cases.append(("latin5", latin5().to_element(), 1))
    for n in (2, 3):
        cases.append((f"AB{n}", tensor_biunitary(n).to_element(), 2))
    return cases


TOWER_SPECS = {
    "fourier2": (lambda: sp.fourier_hadamard(2).to_element(), 1, 3),
    "Z2": (lambda: sp.group_element(sp.cyclic_table(2)), 1, 4),
    "Z3": (lambda: sp.group_element(sp.cyclic_table(3)), 1, 4),
    "S3": (lambda: sp.group_element(sp.s3_table()), 1, 3),
    "AB2": (lambda: tensor_biunitary(2).to_element(), 2, 1),
    "AB3": (lambda: tensor_biunitary(3).to_element(), 2, 1),
}


def build_tower(name):
    make, ell, levels = TOWER_SPECS[name]
    stair = sp.build_staircase(make(), ell, levels)
    return stair, sp.q_tower(stair, levels)


def tower(name):
    if name not in _cache:
        _cache[name] = build_tower(name)
    return _cache[name]


# ---------------------------------------------------------------------------
# AC1: randomized relation suite


def test_ac01_relation_suite():
    t0 = time.perf_counter()
    worst, elements = 0.0, 0
    for n in (2, 3):
        results = sp.run_relation_suite(n, seed=7, max_width=5,
                                        samples_per_color=10, tol=1e-10)
        worst = max(worst, max(r.residual for r in results))
        elements += results[0].samples
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 60.0 and elements >= 100
    report(1, ok, f"relation suite N=2,3 widths<=5: {elements} elements, "
                  f"worst residual {worst:.2e} (tol 1e-10), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# AC2: rotation against an independent transcription of the boundary formulas


def test_ac02_rotation_formulas():
    worst, count = 0.0, 0
    for n in (2, 3):
        ctx = sp.SpinContext(n)
        for width in range(1, 6):
            for shading in (sp.PLUS, sp.MINUS):
                color = sp.SpinColor(width, shading)
                for idx in sp.basis_order(ctx, color):
                    got = sp.rotate(sp.make_basis(ctx, idx)).coeffs
                    want = rotation_formula(idx, color, n)
                    keys = set(got) | set(want)
                    dev = max(abs(got.get(q, 0j) - want.get(q, 0j)) for q in keys)
                    worst = max(worst, dev)
                    count += 1
    ok = worst <= 1e-14
    report(2, ok, f"rotation equals the boundary formulas on {count} basis "
                  f"vectors (N=2,3, widths<=5), max deviation {worst:.2e} (tol 1e-14)")


# ---------------------------------------------------------------------------
# AC3: object families accepted, perturbations rejected by name, round trips


def _rejected_with(obj, expected: str) -> bool:
    try:
        obj.validate()
    except sp.QitValidationError as exc:
        return expected in exc.defects
    return False


def test_ac03_families_and_perturbations():
    problems = []

    for name, u, ell in accepted_zero_ell_inputs():
        cert = sp.is_biunitary(u, ell)
        if not (cert.verdict and cert.max_residual() <= 1e-12):
            problems.append(f"{name} not accepted ({cert.max_residual():.2e})")
    for n in (2, 3):
        cert = sp.is_ueb_biunitary(sp.ueb_clock_shift(n).to_element())
        if not cert.verdict:
            problems.append(f"clock/shift {n} not accepted")

    # five single-entry perturbations per family, each named correctly
    for t in range(5):
        h = sp.fourier_hadamard(3).entries.copy()
        h[t % 3, (2 * t) % 3] *= 1.5
        if not _rejected_with(sp.HadamardMatrix(h), "unimodularity"):
            problems.append(f"hadamard perturbation {t} missed")
    latin_cases = [((0, 1), None, "row-multiplicity"),
                   ((2, 3), None, "row-multiplicity"),
                   ((4, 0), None, "row-multiplicity"),
                   ((1, 2), 6, "symbol-range"),
                   ((3, 4), 0, "symbol-range")]
    for (i, j), value, expected in latin_cases:
        rows = np.array(LATIN5_ROWS)
        rows[i, j] = rows[i, (j + 1) % 5] if value is None else value
        if not _rejected_with(sp.LatinSquare(rows), expected):
            problems.append(f"latin perturbation {(i, j)} missed")
    for t in range(5):
        v = sp.latin_to_qls(latin5()).vectors.copy()
        v[t % 5, (3 * t) % 5] *= 1.3
        if not _rejected_with(sp.QuantumLatinSquare(v), "row-orthonormality"):
            problems.append(f"qls perturbation {t} missed")
    for t in range(5):
        e = tensor_biunitary(2).entries.copy()
        e[t % 4, (t + 1) % 4] += 0.2
        if not _rejected_with(sp.BiunitaryMatrix(e), "unitarity"):
            problems.append(f"biunitary perturbation {t} missed")
    for t in range(5):
        mats = sp.ueb_clock_shift(2).matrices.copy()
        mats[t % 4][t % 2, (t + 1) % 2] += 0.2
        if not _rejected_with(sp.UnitaryErrorBasis(mats), "unitarity"):
            problems.append(f"ueb perturbation {t} missed")

    # round trips
    trips = []
    for n in range(2, 7):
        h = sp.fourier_hadamard(n)
        trips.append(np.max(np.abs(sp.HadamardMatrix.from_element(h.to_element()).entries
                                   - h.entries)))
    q = sp.latin_to_qls(latin5())
    trips.append(np.max(np.abs(
        sp.QuantumLatinSquare.from_element(q.to_element()).vectors - q.vectors)))
    trips.append(np.max(np.abs(
        sp.QuantumLatinSquare.from_element(latin5().to_element()).vectors - q.vectors)))
    for n in (2, 3):
        b = tensor_biunitary(n)
        trips.append(np.max(np.abs(
            sp.BiunitaryMatrix.from_element(b.to_element()).entries - b.entries)))
        e = sp.ueb_clock_shift(n)
        trips.append(np.max(np.abs(
            sp.UnitaryErrorBasis.from_element(e.to_element()).matrices - e.matrices)))
    if max(trips) > 1e-12:
        problems.append(f"round trip deviation {max(trips):.2e}")

    ok = not problems
    report(3, ok, "13 inputs accepted, 25 perturbations rejected by name, "
                  f"round trips <= {max(trips):.2e}"
                  + ("" if ok else "; " + "; ".join(problems[:4])))


# ---------------------------------------------------------------------------
# AC4: rotations of accepted elements are again accepted


def test_ac04_rotated_acceptance():
    problems = []
    for name, u, ell in accepted_zero_ell_inputs():
        k = u.color.width
        c1 = sp.is_biunitary(sp.rotate_pow(u, k), ell)
        c2 = sp.is_biunitary(sp.rotate_pow(sp.star(u), -ell), ell)
        if not c1.verdict:
            problems.append(f"{name}: full-width rotation rejected")
        if not c2.verdict:
            problems.append(f"{name}: rotated adjoint rejected")
    ok = not problems
    report(4, ok, "full-width rotation and rotated adjoint re-accepted for all "
                  "13 inputs" + ("" if ok else "; " + "; ".join(problems[:4])))


# ---------------------------------------------------------------------------
# AC5: embedding isometry, projection structure, and the two membership tests


def projection_defect(stair, m, minus=False) -> float:
    """How far the F inside L = S - F S is from the orthogonal projection onto
    the image of the (k-l)-fold left inclusion, with S the matrix whose
    columns are sigma of the ambient basis.  F S = S - L must lie in that
    image (each column constant on every support of the inclusion's basis
    images and zero off them), and L must be orthogonal to it (L* (S - L) = 0);
    the largest defect of the three is returned."""
    ctx, depth = stair.ctx, stair.cab.depth
    op = sp.membership_operator(stair, m, minus)
    s = np.column_stack([sp.vectorize(sp.sigma(stair, m, sp.make_basis(ctx, idx), minus))
                         for idx in sp.basis_order(ctx, op.ambient_color)])
    fs = s - op.matrix
    target = op.target_color
    source = sp.SpinColor(target.width - depth, target.shading * (-1) ** depth)
    groups = sp.subfactor._image_supports(ctx, source, sp.incl_left_pow, depth)
    on, off = fs[groups], np.delete(fs, groups.ravel(), axis=0)
    return max(float(np.abs(on - on.mean(axis=1, keepdims=True)).max(initial=0.0)),
               float(np.abs(off).max(initial=0.0)),
               float(np.linalg.norm(op.matrix.conj().T @ fs, 2)))


def test_ac05_sigma_f_structure_and_membership_agreement():
    rng = np.random.default_rng(515)
    tol = 1e-9
    worst_iso, worst_f = 0.0, 0.0
    disagreements, probes_done = 0, 0
    for name in ("fourier2", "Z3", "AB2"):
        stair, results = tower(name)
        cab = stair.cab
        for m in range(0, stair.level + 1):
            # isometry of the embedding, plus shading (and minus at level 0)
            for _ in range(8):
                x = sp.random_element(stair.ctx, cab.ambient_color(m), rng)
                sx = sp.sigma(stair, m, x)
                worst_iso = max(worst_iso, abs(sp.norm(sx) - sp.norm(x))
                                / max(1.0, sp.norm(x)))
            if m == 0:
                xm = sp.random_element(stair.ctx, cab.ambient_color(0, minus=True), rng)
                sxm = sp.sigma(stair, 0, xm, minus=True)
                worst_iso = max(worst_iso, abs(sp.norm(sxm) - sp.norm(xm))
                                / max(1.0, sp.norm(xm)))
            # the F inside L is the orthogonal projection, in both shadings at 0
            for minus in (False, True) if m == 0 else (False,):
                worst_f = max(worst_f, projection_defect(stair, m, minus))
        # fixed-space membership: operator kernel versus partner reconstruction
        for m in range(1, stair.level + 1):
            res = results[m]
            op = sp.membership_operator(stair, m)
            recon = partner.partner_operator(stair, m)
            for p in range(50):
                if p % 2 == 0 and res.basis:
                    coeffs = rng.normal(size=res.dim) + 1j * rng.normal(size=res.dim)
                    x = sp.zero(stair.ctx, res.ambient_color)
                    for c, b in zip(coeffs, res.basis):
                        x = sp.add(x, sp.scale(c, b))
                else:
                    x = sp.random_element(stair.ctx, cab.ambient_color(m), rng)
                v = sp.vectorize(x)
                by_kernel = np.linalg.norm(op.matrix @ v) / np.linalg.norm(v) < 1e-8
                by_partner, _ = partner.membership_by_partner(stair, m, x, tol=1e-8,
                                                              recon_matrix=recon)
                probes_done += 1
                if by_kernel != by_partner:
                    disagreements += 1
    ok = worst_iso <= tol and worst_f <= tol and disagreements == 0
    report(5, ok, f"embedding isometry {worst_iso:.2e}, projection structure "
                  f"{worst_f:.2e} (tol 1e-9); membership decisions agree on "
                  f"{probes_done} probes ({disagreements} disagreements)")


# ---------------------------------------------------------------------------
# AC6: group dimension tables with spectral gap, timed fresh


def test_ac06_group_dimension_tables():
    expected = {"Z2": [1, 1, 2, 4, 8], "Z3": [1, 1, 3, 9, 27], "S3": [1, 1, 6, 36]}
    t0 = time.perf_counter()
    problems, min_gap = [], np.inf
    for name, want in expected.items():
        stair, results = build_tower(name)
        _cache[name] = (stair, results)
        dims = [r.dim for r in results]
        if dims != want:
            problems.append(f"{name}: dims {dims} != {want}")
        for r in results:
            if np.isfinite(r.gap):
                min_gap = min(min_gap, r.gap)
    elapsed = time.perf_counter() - t0
    if min_gap < 1e4:
        problems.append(f"spectral gap {min_gap:.2e} below 1e4")
    if elapsed > 300.0:
        problems.append(f"runtime {elapsed:.0f}s above 5 minutes")
    ok = not problems
    report(6, ok, f"Z2 1,1,2,4,8; Z3 1,1,3,9,27; S3 1,1,6,36; spectral gap "
                  f">= {min_gap:.1e}, {elapsed:.1f}s"
                  + ("" if ok else "; " + "; ".join(problems)))


# ---------------------------------------------------------------------------
# AC7: irreducibility at the first level for every one-cable input


def test_ac07_irreducibility():
    problems = []
    for name, u, ell in accepted_zero_ell_inputs():
        if ell != 1:
            continue
        stair = sp.build_staircase(u, ell, 1)
        dim = sp.q_level(stair, 1).dim
        if dim != 1:
            problems.append(f"{name}: dim {dim}")
    ok = not problems
    report(7, ok, "first-level space is one dimensional for all 11 "
                  "one-cable inputs" + ("" if ok else "; " + "; ".join(problems)))


# ---------------------------------------------------------------------------
# AC8: connectedness at level zero, both shadings, for every input


def test_ac08_connectedness():
    problems = []
    for name, u, ell in accepted_zero_ell_inputs():
        stair = sp.build_staircase(u, ell, 0)
        d_plus = sp.q_level(stair, 0).dim
        d_minus = sp.q_zero_minus(stair).dim
        if (d_plus, d_minus) != (1, 1):
            problems.append(f"{name}: ({d_plus}, {d_minus})")
    ok = not problems
    report(8, ok, "level-zero spaces are scalars in both shadings for all 13 "
                  "inputs including the width-4 double cable"
                  + ("" if ok else "; " + "; ".join(problems)))


# ---------------------------------------------------------------------------
# AC9: group structure inside the kernels


def test_ac09_group_structure():
    problems = []
    worst_member = 0.0
    plans = {"Z2": (2, [2, 4]), "Z3": (3, [2]), "S3": (6, [2])}
    for name, (n, even_levels) in plans.items():
        table = sp.builtin_group(name)
        stair, results = tower(name)
        for g in range(1, n + 1):
            for h in range(1, n + 1):
                got = sp.mult(sp.x_element(table, g), sp.x_element(table, h))
                if sp.coeff_distance(got, sp.x_element(table,
                                                       table[g - 1][h - 1])) != 0.0:
                    problems.append(f"{name}: X_{g} X_{h} not exact")
        op2 = sp.membership_operator(stair, 2)
        for g in range(1, n + 1):
            v = sp.vectorize(sp.x_element(table, g))
            worst_member = max(worst_member,
                               np.linalg.norm(op2.matrix @ v) / np.linalg.norm(v))
        for level in even_levels:
            m = level // 2
            reps = sp.orbit_representatives(table, m)
            if len(reps) != results[level].dim:
                problems.append(f"{name}: {len(reps)} orbits but dim "
                                f"{results[level].dim} at level {level}")
            op = op2 if level == 2 else sp.membership_operator(stair, level)
            for top, bottom in reps:
                v = sp.vectorize(sp.orbit_sum(table, top, bottom))
                worst_member = max(worst_member,
                                   np.linalg.norm(op.matrix @ v) / np.linalg.norm(v))
    if worst_member > 1e-9:
        problems.append(f"membership residual {worst_member:.2e}")
    ok = not problems
    report(9, ok, "translation family multiplies exactly; orbit sums span the "
                  f"even kernels (count = dim), membership residual "
                  f"{worst_member:.2e} (tol 1e-9)"
                  + ("" if ok else "; " + "; ".join(problems[:4])))


# ---------------------------------------------------------------------------
# AC10: kernels close under the generating operations


def test_ac10_closure():
    problems = []
    worst = 0.0
    for name in ("Z2", "Z3", "fourier2"):
        stair, results = tower(name)
        levels = [r for r in results if r.level <= 3]
        rep = sp.verify_planar_closure(levels, tol=1e-9)
        worst = max(worst, max(rep.residuals.values()))
        if not rep.ok:
            problems.append(f"{name}: {rep.residuals}")
    ok = not problems
    report(10, ok, "kernel towers close under unit, product, inclusion, "
                   f"expectation, rotation, star; worst residual {worst:.2e} "
                   "(tol 1e-9)" + ("" if ok else "; " + "; ".join(problems)))


# ---------------------------------------------------------------------------
# AC11: dense brute-force oracle agreement


def test_ac11_oracle_equivalence():
    problems = []
    stair_f = od.fourier_staircase(2, 3)
    oracle_f = od.membership_dims(2, stair_f[1], 2, 1, range(4), stair_f)
    package_f = [r.dim for r in tower("fourier2")[1]]
    if oracle_f != package_f[:4]:
        problems.append(f"fourier2: oracle {oracle_f} vs package {package_f[:4]}")
    table0 = [[0, 1], [1, 0]]
    stair_g = od.group_staircase(table0, 3)
    oracle_g = od.membership_dims(2, stair_g[1], 3, 1, range(4), stair_g)
    package_g = [r.dim for r in tower("Z2")[1][:4]]
    if oracle_g != package_g:
        problems.append(f"Z2: oracle {oracle_g} vs package {package_g}")
    ok = not problems
    report(11, ok, f"dense-path dimensions match: fourier2 {oracle_f}, "
                   f"Z2 {oracle_g} (levels 0..3)"
                   + ("" if ok else "; " + "; ".join(problems)))
