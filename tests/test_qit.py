"""Object validation, certificates, converters, and JSON interchange."""

import itertools
import json

import numpy as np
import pytest

import spinplanar as sp
from spinplanar.qit import FAMILIES
from conftest import haar_qls, haar_unitary, latin5, tensor_biunitary, z3_latin


# ---------------------------------------------------------------------------
# validation


def test_hadamard_accept_reject():
    for n in range(2, 7):
        sp.fourier_hadamard(n).validate(1e-12)
    bad = sp.HadamardMatrix(np.ones((3, 3)))
    with pytest.raises(sp.QitValidationError) as err:
        bad.validate()
    assert "HH*-nI" in err.value.defects
    scaled = sp.HadamardMatrix(2 * sp.fourier_hadamard(2).entries)
    assert scaled.defects()["unimodularity"] == pytest.approx(1.0)


def test_latin_accept_reject():
    latin5().validate()
    with pytest.raises(sp.QitValidationError) as err:
        sp.LatinSquare(np.array([[1, 2], [1, 2]])).validate()
    assert err.value.defects["column-multiplicity"] == 2.0
    with pytest.raises(sp.QitValidationError) as err:
        sp.LatinSquare(np.array([[1, 2], [2, 7]])).validate()
    assert err.value.defects["symbol-range"] >= 1.0


def test_qls_accept_reject():
    q = sp.latin_to_qls(latin5())
    q.validate(1e-14)
    v = q.vectors.copy()
    v[0, 0] *= 1.2
    with pytest.raises(sp.QitValidationError) as err:
        sp.QuantumLatinSquare(v).validate()
    assert set(err.value.defects) <= {"row-orthonormality", "column-orthonormality"}


def test_biunitary_accept_reject():
    b = tensor_biunitary(2)
    b.validate(1e-10)
    # a generic unitary fails only the block-transpose half
    u = haar_unitary(4, 5)
    d = sp.BiunitaryMatrix(2, u).defects()
    assert d["unitarity"] < 1e-10
    assert d["block-transpose-unitarity"] > 1e-2


def test_ueb_accept_reject():
    for n in (2, 3):
        sp.ueb_clock_shift(n).validate(1e-12)
    mats = sp.ueb_clock_shift(2).matrices.copy()
    mats[3] = mats[0]  # repeated matrix: orthonormality breaks, unitarity fine
    d = sp.UnitaryErrorBasis(mats).defects()
    assert d["unitarity"] < 1e-12
    assert d["pairwise-orthonormality"] > 0.5


def test_shape_errors_are_parse_errors():
    with pytest.raises(sp.QitParseError):
        sp.HadamardMatrix(np.ones((2, 3)))
    with pytest.raises(sp.QitParseError):
        sp.BiunitaryMatrix(2, np.eye(3))
    with pytest.raises(sp.QitParseError):
        sp.UnitaryErrorBasis(np.zeros((3, 2, 2)))


# ---------------------------------------------------------------------------
# certificates


def test_is_biunitary_requires_interior_ell(ctx2):
    u = sp.from_hadamard(sp.fourier_hadamard(2))
    with pytest.raises(ValueError):
        sp.is_biunitary(u, 0)
    with pytest.raises(ValueError):
        sp.is_biunitary(u, 2)


def test_unit_width_two_fails_rotation_only(ctx2):
    # uu* = 1 holds but the rotated element is far from unitary
    one = sp.unit(ctx2, sp.SpinColor(2, sp.PLUS))
    cert = sp.is_biunitary(one, 1)
    assert not cert.verdict
    assert cert.residuals["uu*-1"] < 1e-12
    assert cert.residuals["rot(u)rot(u)*-1"] > 0.4


def test_certificate_equivalence_both_ways(ctx2, rng):
    # accept instance: all four identities hold
    u = sp.from_hadamard(sp.fourier_hadamard(2))
    cert = sp.is_biunitary(u, 1)
    assert cert.verdict and cert.max_residual() < 1e-12
    for name in ("uu*-1", "u*u-1", "rot(u)rot(u)*-1", "rot(u)*rot(u)-1"):
        assert cert.residuals[name] < 1e-12
    # reject instance: the failing identity is the one reported
    x = sp.random_element(ctx2, sp.SpinColor(2, sp.PLUS), rng)
    res = sp.unitarity_residuals(x)
    cert = sp.is_biunitary(x, 1)
    assert not cert.verdict
    assert cert.residuals["uu*-1"] == pytest.approx(res["xx*-1"])


def test_ueb_certificate_color_check(ctx2):
    with pytest.raises(ValueError):
        sp.is_ueb_biunitary(sp.unit(ctx2, sp.SpinColor(3, sp.PLUS)))


# ---------------------------------------------------------------------------
# converters and index placement


def test_hadamard_round_trip_and_placement():
    # a seeded equivalent D1 P1 F3 P2 D2 of the Fourier matrix: every entry distinct
    rng = np.random.default_rng(31)
    n, rt = 3, 3 ** 0.5
    d1, d2 = (np.exp(2j * np.pi * rng.random(n)) for _ in range(2))
    f = sp.fourier_hadamard(n).entries[np.ix_(rng.permutation(n), rng.permutation(n))]
    h = sp.HadamardMatrix(d1[:, None] * f * d2[None, :])
    u = sp.from_hadamard(h)
    back = sp.to_hadamard(u)
    assert u.color == sp.SpinColor(2, sp.PLUS) and u.nnz == n ** 2
    # h_ij / sqrt(n) sits at e^i_j
    for i, j in itertools.product(range(n), repeat=2):
        c = u.coefficient(sp.SpinIndex(None, (i + 1,), (j + 1,), None))
        assert c == complex(h.entries[i, j]) / rt
        assert back.entries[i, j] == c * rt
    assert np.max(np.abs(back.entries - h.entries)) < 1e-15


def test_qls_round_trip_and_placement():
    # latin5 with rows, columns and symbols permuted at random, a random phase per cell
    rng = np.random.default_rng(32)
    n = 5
    symbols = rng.permutation(n) + 1
    rows = symbols[latin5().rows[np.ix_(rng.permutation(n), rng.permutation(n))] - 1]
    phases = np.exp(2j * np.pi * rng.random((n, n, 1)))
    q = sp.QuantumLatinSquare(phases * sp.latin_to_qls(sp.LatinSquare(rows)).vectors)
    u = sp.from_qls(q)
    back = sp.to_qls(u)
    assert u.color == sp.SpinColor(3, sp.PLUS) and u.nnz == n ** 2
    # a^k_{ij} = vectors[i, j, k] sits at e^k_i(j]: component on top, row on
    # the bottom, column in the right slot
    for i, j, k in itertools.product(range(n), repeat=3):
        c = u.coefficient(sp.SpinIndex(None, (k + 1,), (i + 1,), j + 1))
        assert c == q.vectors[i, j, k]
        assert back.vectors[i, j, k] == c


@pytest.mark.parametrize("make, seed", [(z3_latin, 36), (latin5, 37)], ids=["Z3", "latin5"])
def test_dense_qls_certificate_and_round_trip(make, seed):
    # every vector of the square turned by one Haar unitary: a dense QLS
    q = haar_qls(make(), seed)
    u = sp.from_qls(q)
    cert = sp.is_biunitary(u, 1)
    assert cert.verdict and cert.max_residual() <= 1e-14
    assert np.max(np.abs(sp.to_qls(u).vectors - q.vectors)) <= 1e-15


def test_biunitary_round_trip_and_placement():
    n = 3
    b = tensor_biunitary(n, seed=33)
    u = sp.from_biunitary_matrix(b)
    back = sp.to_biunitary_matrix(u)
    assert u.color == sp.SpinColor(4, sp.PLUS) and u.nnz == n ** 4
    # a^{ij}_{kl}, the entry at row pair (i,j) and column pair (k,l), sits at
    # e^{ij}_{lk}: top (i,j), bottom (l,k)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        c = u.coefficient(sp.SpinIndex(None, (i + 1, j + 1), (l + 1, k + 1), None))
        assert c == b.entries[i * n + j, k * n + l]
        assert back.entries[i * n + j, k * n + l] == c


def test_ueb_round_trip_and_placement():
    # U C^a S^b V for Haar unitaries U, V, a random phase per matrix
    rng = np.random.default_rng(34)
    n, rt = 3, 3 ** 0.5
    phases = np.exp(2j * np.pi * rng.random((n * n, 1, 1)))
    e = sp.UnitaryErrorBasis(phases * (haar_unitary(n, 34) @ sp.ueb_clock_shift(n).matrices
                                       @ haar_unitary(n, 35)))
    e.validate()
    u = sp.from_ueb(e)
    back = sp.to_ueb(u)
    assert u.color == sp.SpinColor(4, sp.PLUS) and u.nnz == n ** 4
    # a^{ij}_{kl} = B(j,l)[i,k] / sqrt(n), B(j,l) = matrices[j*n + l], sits at e^{ij}_{lk}
    for i, j, k, l in itertools.product(range(n), repeat=4):
        c = u.coefficient(sp.SpinIndex(None, (i + 1, j + 1), (l + 1, k + 1), None))
        assert c == complex(e.matrices[j * n + l][i, k]) / rt
        assert back.matrices[j * n + l][i, k] == c * rt
    assert np.max(np.abs(back.matrices - e.matrices)) < 1e-15


def _hadamard_equivalent(n: int, seed: int) -> sp.HadamardMatrix:
    """D1 P1 F_n P2 D2 with seeded phases and permutations."""
    rng = np.random.default_rng(seed)
    d1, d2 = (np.exp(2j * np.pi * rng.random(n)) for _ in range(2))
    f = sp.fourier_hadamard(n).entries[np.ix_(rng.permutation(n), rng.permutation(n))]
    return sp.HadamardMatrix(d1[:, None] * f * d2[None, :])


# one instance per family, with no permutation structure outside the integer
# family, and the reader of its element (a Latin square reads back as its QLS)
GENERIC_INSTANCES = {
    "hadamard": (lambda: _hadamard_equivalent(4, 38), sp.to_hadamard),
    "latin": (latin5, sp.to_qls),
    "qls": (lambda: haar_qls(latin5(), 39), sp.to_qls),
    "biunitary": (lambda: tensor_biunitary(3, seed=40), sp.to_biunitary_matrix),
    "ueb": (lambda: sp.UnitaryErrorBasis(haar_unitary(3, 42) @ sp.ueb_clock_shift(3).matrices
                                         @ haar_unitary(3, 43)), sp.to_ueb),
}


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_every_family_places_a_generic_instance(kind):
    assert kind in GENERIC_INSTANCES, f"no generic instance of the {kind} family"
    make, read = GENERIC_INSTANCES[kind]
    obj = make()
    assert type(obj) is FAMILIES[kind]
    a = obj.coefficients()
    assert obj.dtype is int or not np.all(np.isin(a, (0, 1)))
    u = obj.to_element()
    cert = obj.certificate(u)
    assert cert.verdict, cert.residuals
    # exact, up to the rounding of the sqrt(n) scale where the family has one
    assert np.max(np.abs(read(u).coefficients() - a)) <= (1e-15 if obj.scaled else 0.0)


def test_element_to_object_checks_the_color():
    # the Z3 table's element is {0,1}-biunitary in (3,+), not a Hadamard element
    z3 = sp.from_latin(sp.LatinSquare(np.array(sp.cyclic_table(3))))
    f2 = sp.from_hadamard(sp.fourier_hadamard(2))
    with pytest.raises(ValueError, match=r"of \(2,\+\), got \(3,\+\)"):
        sp.to_hadamard(z3)
    with pytest.raises(ValueError, match=r"of \(3,\+\), got \(2,\+\)"):
        sp.to_qls(f2)
    with pytest.raises(ValueError, match=r"of \(4,\+\), got \(3,\+\)"):
        sp.to_biunitary_matrix(z3)
    with pytest.raises(ValueError, match=r"\(4,\+\), got \(3,\+\)"):
        sp.to_ueb(z3)


def test_block_transpose():
    rng = np.random.default_rng(0)
    u = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    v = sp.block_transpose(u, 3)
    assert np.array_equal(sp.block_transpose(v, 3), u)
    # v^{ij}_{kl} = u^{kj}_{il}
    i, j, k, l = 0, 1, 2, 0
    assert v[i * 3 + j, k * 3 + l] == u[k * 3 + j, i * 3 + l]


def test_converters_reject_invalid_objects():
    with pytest.raises(sp.QitValidationError):
        sp.from_hadamard(sp.HadamardMatrix(np.ones((3, 3))))
    with pytest.raises(sp.QitValidationError):
        sp.to_hadamard(sp.unit(sp.SpinContext(2), sp.SpinColor(2, sp.PLUS)))


def test_group_table_to_latin_to_element(ctx3):
    # a cyclic table is a Latin square; its element is the group element
    rows = np.array(sp.cyclic_table(3))
    u_latin = sp.from_latin(sp.LatinSquare(rows))
    u_group = sp.group_element(ctx3, sp.cyclic_table(3))
    assert sp.coeff_distance(u_latin, u_group) == 0.0


# ---------------------------------------------------------------------------
# JSON


def test_qit_json_round_trips():
    objs = [sp.fourier_hadamard(3), latin5(), sp.latin_to_qls(latin5()),
            tensor_biunitary(2), sp.ueb_clock_shift(2)]
    for obj in objs:
        blob = json.dumps(sp.qit_to_json(obj), sort_keys=True)
        again = sp.qit_from_json(json.loads(blob))
        assert json.dumps(sp.qit_to_json(again), sort_keys=True) == blob


def test_qit_json_parse_errors():
    with pytest.raises(sp.QitParseError):
        sp.qit_from_json({"n": 2})
    with pytest.raises(sp.QitParseError):
        sp.qit_from_json({"type": "hadamard", "n": 2, "entries": [[1, 2]]})
    with pytest.raises(sp.QitParseError):
        sp.qit_from_json({"type": "nope", "n": 2})
    with pytest.raises(sp.QitParseError):
        sp.qit_from_json({"type": "latin", "n": 2, "rows": [[1, 2]]})
    with pytest.raises(sp.QitParseError):
        sp.qit_from_json({"type": "hadamard", "n": 2,
                          "entries": [[[1, 0], "x"], [[1, 0], [1, 0]]]})


def test_element_json_round_trip():
    u = sp.from_latin(latin5())
    blob = sp.element_to_json(u)
    again = sp.element_from_json(json.loads(json.dumps(blob)))
    assert sp.coeff_distance(u, again) == 0.0


def test_load_qit_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\n  broken\n}")
    with pytest.raises(sp.QitParseError) as err:
        sp.load_qit(str(p))
    assert "line 2" in str(err.value)
