"""Dense linear algebra helpers."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import spinplanar as sp
from spinplanar import numerics
import partner
from conftest import haar_unitary


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        numerics.as_matrix(np.zeros(3))
    with pytest.raises(ValueError):
        numerics.as_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_fourier_unitarity():
    n = 2
    f = np.array([[1, 1], [1, -1]], dtype=complex)
    assert numerics.operator_norm(f @ f.conj().T / n - np.eye(n)) < 1e-12


def test_unitary_defect():
    assert numerics.unitary_defect(np.stack([np.eye(3)] * 4)) == 0.0
    # ||(2I)(2I)* - I|| = 3
    assert numerics.unitary_defect(2 * np.eye(4)) == pytest.approx(3.0)
    # a stack reports its worst member
    stack = np.stack([np.eye(2), 2 * np.eye(2), np.diag([1.0, 1j])])
    assert numerics.unitary_defect(stack) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        numerics.unitary_defect(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        numerics.unitary_defect(np.ones(3))
    with pytest.raises(ValueError):
        numerics.unitary_defect(np.array([[np.inf, 0], [0, 1]]))


def test_singular_values_adjoint_invariant():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    s1 = numerics.singular_values(a)
    s2 = numerics.singular_values(a.conj().T)
    assert np.allclose(s1, s2)
    assert np.all(np.diff(s1) <= 0)


def test_kernel_of_zero_map_is_full():
    res = numerics.kernel_basis(np.zeros((3, 4)))
    assert res.dim == 4
    assert np.allclose(res.basis.conj().T @ res.basis, np.eye(4))


def test_kernel_pinned_example():
    res = numerics.kernel_basis(np.array([[1.0, 0.0], [0.0, 0.0]]), 1e-8)
    assert res.dim == 1
    v = res.basis[:, 0]
    assert abs(v[0]) < 1e-12 and abs(abs(v[1]) - 1) < 1e-12


def test_kernel_residual_bound():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
    res = numerics.kernel_basis(a)
    assert res.dim == 3
    smax = numerics.operator_norm(a)
    assert np.linalg.norm(a @ res.basis) <= 1e-8 * smax * np.sqrt(res.dim) + 1e-12
    assert res.gap > 1.0


def test_kernel_wide_matrix_tail_vectors():
    # rows < cols: the trailing right-singular directions belong to the kernel
    a = np.array([[1.0, 0.0, 0.0]])
    res = numerics.kernel_basis(a)
    assert res.dim == 2
    assert np.linalg.norm(a @ res.basis) < 1e-12


def test_kernel_abs_floor():
    # a numerically-zero matrix is all kernel once the absolute floor is on;
    # the purely relative cut keeps the largest noise direction as rank
    rng = np.random.default_rng(3)
    noise = rng.normal(size=(3, 3)) * 1e-16
    assert numerics.kernel_basis(noise).dim < 3
    assert numerics.kernel_basis(noise, abs_tol=1e-10).dim == 3


def test_kernel_empty_inputs():
    res = numerics.kernel_basis(np.zeros((3, 0)))
    assert res.dim == 0
    res = numerics.kernel_basis(np.zeros((0, 3)))
    assert res.dim == 3


def planted_kernel(rows=300, cols=40, rank=30, seed=5):
    """A random complex rows x cols matrix of the given rank (a planted kernel)."""
    g = np.random.default_rng(seed)
    left = g.normal(size=(rows, rank)) + 1j * g.normal(size=(rows, rank))
    right = g.normal(size=(rank, cols)) + 1j * g.normal(size=(rank, cols))
    return left @ right


def zero_columns():
    a = np.random.default_rng(8).normal(size=(200, 30)).astype(complex)
    a[:, [0, 7, 8, 29]] = 0.0
    return a


def membership_matrix(u, m):
    """The membership operator L at level m of a {0,1}-biunitary u."""
    return sp.membership_operator(sp.build_staircase(u, 1, m), m).matrix


TALL_CASES = {
    "random rank 30 of 40": planted_kernel,
    "exact zero columns": zero_columns,
    "S3 level 2": lambda: membership_matrix(
        sp.group_element(sp.s3_table()), 2),
    "F4 level 3": lambda: membership_matrix(sp.fourier_hadamard(4).to_element(), 3),
}


@pytest.mark.parametrize("case", sorted(TALL_CASES))
def test_tall_kernel_matches_direct_svd(case):
    # a tall matrix is factored through the R of its QR; compare with the SVD of a itself
    a = TALL_CASES[case]()
    rows, cols = a.shape
    assert rows > cols
    res = numerics.kernel_basis(a, 1e-8, abs_tol=1e-8)
    _, s, vh = np.linalg.svd(a)
    small = s <= max(1e-8 * s[0], 1e-8)
    want = vh[small].conj().T
    assert res.dim == want.shape[1]
    assert np.max(np.abs(res.sigma - s)) <= 1e-12 * s[0]
    projector = res.basis @ res.basis.conj().T
    assert np.linalg.norm(projector - want @ want.conj().T, 2) <= 1e-10
    assert np.linalg.norm(a @ res.basis, 2) <= 1e-12 * s[0]


def test_tall_kernel_never_forms_left_vectors():
    # the left singular vectors of a would be a second array the size of a
    a = np.asfortranarray(planted_kernel(4000, 120, 100, seed=4))
    tracemalloc.start()
    try:
        res = numerics.kernel_basis(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.dim == 20
    assert peak <= 1.25 * a.nbytes


def with_zero_rows(a, zero_rows, seed=2):
    """a with exact zero rows put in among its own at seeded places, Fortran-ordered."""
    rows = a.shape[0] + zero_rows
    places = np.sort(np.random.default_rng(seed).choice(rows, a.shape[0], replace=False))
    out = np.zeros((rows, a.shape[1]), dtype=complex, order="F")
    out[places] = a
    return out


def test_zero_rows_are_never_copied():
    # only the nonzero rows are copied, once; at the parent's full copy the peak was 6.2x
    b = planted_kernel(1000, 120, 100, seed=3)
    a = np.zeros((6000, 120), dtype=complex, order="F")
    a[::6] = b
    tracemalloc.start()
    try:
        res = numerics.kernel_basis(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.dim == 20
    assert peak <= 1.25 * b.nbytes


@pytest.mark.parametrize("order", ["C", "F"])
def test_tall_input_with_few_nonzero_rows(order):
    # 25 nonzero rows of 40 columns: the factored copy is wide, the input tall
    a = np.asarray(with_zero_rows(planted_kernel(25, 40, 25, seed=6), 275), order=order)
    res = numerics.kernel_basis(a, 1e-8, abs_tol=1e-8)
    _, s, vh = np.linalg.svd(a)
    want = vh[s <= max(1e-8 * s[0], 1e-8)].conj().T
    assert res.dim == want.shape[1] == 15
    assert len(res.sigma) == 40 and not res.sigma[25:].any()
    assert np.max(np.abs(res.sigma - s)) <= 1e-12 * s[0]
    projector = res.basis @ res.basis.conj().T
    assert np.linalg.norm(projector - want @ want.conj().T, 2) <= 1e-10


def test_overflowing_factor_is_refused():
    # finite entries whose column norms overflow give an infinite R, which gesdd must not take
    with pytest.raises(ValueError):
        numerics.kernel_basis(np.full((3, 2), 1e308))


def kahan(n=90, c=0.285):
    """Kahan's matrix, perturbed so that column pivoting keeps its order."""
    s = np.sqrt(1 - c * c)
    scale = s ** np.arange(n) * (1 - 1e-13) ** np.arange(n)
    return scale[:, None] * (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


def pivoted_qr_kernel(a, dim):
    """The trailing columns of a column-pivoted QR of R^H, R from a QR of a."""
    r = scipy.linalg.qr(a, mode="r")[0]
    q = scipy.linalg.qr(r.conj().T, pivoting=True)[0]
    return q[:, q.shape[1] - dim:]


def test_kernel_is_rank_revealing_where_pivoted_qr_is_not():
    # column pivoting does not reorder Kahan's matrix K, so a pivoted QR
    # leaves |R_nn| = 0.023 against sigma_n = 8.8e-12.  The SVD finds the one
    # kernel direction of K and of the upper triangular J K^H J (J the
    # reversal); a pivoted QR of the latter's R^H misses it by 1.4e-6.
    k = kahan()
    s = np.linalg.svd(k, compute_uv=False)
    rel_tol = np.sqrt(s[-1] * s[-2]) / s[0]
    assert abs(scipy.linalg.qr(k, pivoting=True)[1][-1, -1]) > 1e-2
    flipped = k.conj().T[::-1, ::-1]
    for a in (k, flipped):
        res = numerics.kernel_basis(a, rel_tol)
        assert res.dim == 1
        assert np.linalg.norm(a @ res.basis) <= 1e-10
    assert np.linalg.norm(flipped @ pivoted_qr_kernel(flipped, 1)) > rel_tol * s[0]


PIPELINE_TOWERS = {
    "F3 to level 5": (lambda: sp.fourier_hadamard(3).to_element(), 5),
    "F4 to level 4": (lambda: sp.fourier_hadamard(4).to_element(), 4),
    "S3 to level 3": (lambda: sp.group_element(sp.s3_table()), 3),
    "Z6 to level 3": (lambda: sp.group_element(sp.cyclic_table(6)), 3),
}


@pytest.mark.parametrize("case", sorted(PIPELINE_TOWERS))
def test_kernels_match_a_gesvd_reference(case):
    # the kernels and spectra of the pipeline's operators are those of a
    # one-sided gesvd of the whole operator, the kernel path before gesdd
    build, levels = PIPELINE_TOWERS[case]
    stair = sp.build_staircase(build(), 1, levels)
    tol = numerics.DEFAULT_REL_TOL
    for m in range(levels + 1):
        a = sp.membership_operator(stair, m).matrix
        assert a.shape[0] >= a.shape[1]
        res = numerics.kernel_basis(a, tol, abs_tol=tol)
        _, s, vh = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        want = vh[s <= max(tol * s[0], tol)].conj().T
        assert res.dim == want.shape[1], m
        assert np.max(np.abs(res.sigma - s)) <= 1e-12 * s[0], m
        outside = res.basis - want @ (want.conj().T @ res.basis)
        assert np.linalg.norm(outside, 2) <= 1e-12, m


@pytest.mark.parametrize("case", sorted(TALL_CASES))
def test_zero_rows_change_nothing(case):
    # zero rows leave a^H a, so the spectrum and the kernel, as they are
    a = TALL_CASES[case]()
    plain = numerics.kernel_basis(a, 1e-8, abs_tol=1e-8)
    padded = numerics.kernel_basis(with_zero_rows(a, 2 * a.shape[0]), 1e-8, abs_tol=1e-8)
    assert padded.dim == plain.dim
    assert np.max(np.abs(padded.sigma - plain.sigma)) <= 1e-12 * plain.sigma[0]
    difference = padded.basis @ padded.basis.conj().T - plain.basis @ plain.basis.conj().T
    assert np.linalg.norm(difference, 2) <= 1e-10


def test_gap_invariant_under_left_unitaries():
    # kernel and spectrum are invariant under a -> w a for unitary w; the gap
    # must not depend on which roundoff value the kernel directions pick up
    a = planted_kernel()
    results = [numerics.kernel_basis(haar_unitary(a.shape[0], seed) @ a) for seed in range(4)]
    assert {r.dim for r in results} == {10}
    gaps = [r.gap for r in results]
    assert np.isfinite(gaps[0])
    assert max(gaps) - min(gaps) <= 1e-9 * gaps[0]


def test_lstsq_residual():
    a = np.eye(3)[:, :2]  # span of first two coordinates
    inside = np.array([1.0, 2.0, 0.0])
    outside = np.array([0.0, 0.0, 1.0])
    assert partner.lstsq_residual(a, inside) < 1e-14
    assert partner.lstsq_residual(a, outside) == pytest.approx(1.0)
