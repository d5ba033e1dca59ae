"""Converters between quantum-information objects and planar algebra elements.

Five object families are supported, each with tolerance-checked invariants
and a bidirectional correspondence with elements of the spin planar algebra:

    complex Hadamard matrix  <->  width-2 plus element, unitary with unitary
                                  one-click rotation ({0,1}-biunitary)
    Latin square             -->  quantum Latin square (basis-vector rows)
    quantum Latin square     <->  width-3 plus element, {0,1}-biunitary
    biunitary matrix         <->  width-4 plus element, {0,2}-biunitary
    unitary error basis      <->  width-4 plus element whose partial swap and
                                  one-click rotation are both unitary

Index placement is load-bearing and covered by regression tests:
a^k_{ij} (row i, column j, component k) maps to e^i_k(j], and a^{ij}_{kl}
maps to e^{ij}_{lk} (bottom tuple (l,k), note the swap).  Certificates carry
named residuals; a rejection names the violated identity through its
residual key rather than by prose.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .core import (PLUS, SpinColor, SpinContext, SpinElement, SpinIndex,
                   from_coeffs, shading_from_name, shading_name,
                   unitarity_residuals)
from .ops import partial_swap, rotate, rotate_pow

DEFAULT_TOL = 1e-9


class QitParseError(ValueError):
    """Malformed file or JSON schema (as opposed to a failed invariant)."""


class QitValidationError(ValueError):
    """An object failed its defining invariants; carries named defects."""

    def __init__(self, kind: str, defects: dict[str, float]):
        self.kind = kind
        self.defects = defects
        listing = ", ".join(f"{name}={value:.3g}" for name, value in defects.items())
        super().__init__(f"{kind} validation failed: {listing}")


@dataclass
class HadamardMatrix:
    """n x n complex matrix with unimodular entries and HH* = nI."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = numerics.as_matrix(self.entries)
        if self.entries.shape[0] != self.entries.shape[1]:
            raise QitParseError(f"hadamard matrix must be square, got {self.entries.shape}")

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def defects(self) -> dict[str, float]:
        h = self.entries
        return {
            "HH*-nI": numerics.operator_norm(h @ h.conj().T - self.n * np.eye(self.n)),
            "unimodularity": float(np.max(np.abs(np.abs(h) - 1.0))),
        }

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        bad = {k: v for k, v in self.defects().items() if v > tol}
        if bad:
            raise QitValidationError("hadamard", bad)


@dataclass
class LatinSquare:
    """n x n array over symbols 1..n, each once per row and per column."""

    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=int)
        if self.rows.ndim != 2 or self.rows.shape[0] != self.rows.shape[1]:
            raise QitParseError(f"latin square must be a square array, got {self.rows.shape}")

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def defects(self) -> dict[str, float]:
        n = self.n
        symbols = set(range(1, n + 1))
        out_of_range = int(np.sum((self.rows < 1) | (self.rows > n)))
        bad_rows = sum(1 for r in self.rows if set(int(v) for v in r) != symbols)
        bad_cols = sum(1 for c in self.rows.T if set(int(v) for v in c) != symbols)
        return {
            "symbol-range": float(out_of_range),
            "row-multiplicity": float(bad_rows),
            "column-multiplicity": float(bad_cols),
        }

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        bad = {k: v for k, v in self.defects().items() if v > 0}
        if bad:
            raise QitValidationError("latin", bad)


@dataclass
class QuantumLatinSquare:
    """n x n array of vectors in C^n; every row and column is an orthonormal basis.

    vectors[i, j, k] is component k of the vector at row i, column j.
    """

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=complex)
        if self.vectors.ndim != 3 or len(set(self.vectors.shape)) != 1:
            raise QitParseError(f"qls needs an n x n x n array, got {self.vectors.shape}")
        if not np.all(np.isfinite(self.vectors)):
            raise QitParseError("qls has non-finite entries")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    def defects(self) -> dict[str, float]:
        n = self.n
        eye = np.eye(n)
        row = 0.0
        col = 0.0
        for i in range(n):
            vs = self.vectors[i, :, :]  # row i: vectors indexed by column j
            row = max(row, numerics.operator_norm(vs @ vs.conj().T - eye))
            ws = self.vectors[:, i, :]  # column i: vectors indexed by row
            col = max(col, numerics.operator_norm(ws @ ws.conj().T - eye))
        return {"row-orthonormality": row, "column-orthonormality": col}

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        bad = {k: v for k, v in self.defects().items() if v > tol}
        if bad:
            raise QitValidationError("qls", bad)


@dataclass
class BiunitaryMatrix:
    """n^2 x n^2 matrix, unitary with unitary block transpose.

    Entries are indexed by ordered pairs, row (i,j) and column (k,l), with the
    pair (a,b) at position (a-1)*n + (b-1); the block transpose exchanges the
    row of the first pair slot with the column of the first pair slot:
    v^{ij}_{kl} = u^{kj}_{il}.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = numerics.as_matrix(self.entries)
        if self.entries.shape != (self.n * self.n, self.n * self.n):
            raise QitParseError(
                f"biunitary matrix for n={self.n} must be {self.n**2} x {self.n**2}, "
                f"got {self.entries.shape}")

    def defects(self) -> dict[str, float]:
        u = self.entries
        v = block_transpose(u, self.n)
        eye = np.eye(self.n * self.n)
        return {
            "unitarity": numerics.operator_norm(u @ u.conj().T - eye),
            "block-transpose-unitarity": numerics.operator_norm(v @ v.conj().T - eye),
        }

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        bad = {k: v for k, v in self.defects().items() if v > tol}
        if bad:
            raise QitValidationError("biunitary", bad)


@dataclass
class UnitaryErrorBasis:
    """n^2 unitary n x n matrices, orthonormal under <A,B> = Tr(B*A)/n."""

    matrices: np.ndarray

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=complex)
        if self.matrices.ndim != 3:
            raise QitParseError(f"ueb needs a list of square matrices, got shape {self.matrices.shape}")
        count, r, c = self.matrices.shape
        if r != c or count != r * r:
            raise QitParseError(f"ueb needs n^2 matrices of size n x n, got {count} of {r} x {c}")
        if not np.all(np.isfinite(self.matrices)):
            raise QitParseError("ueb has non-finite entries")

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    def defects(self) -> dict[str, float]:
        n = self.n
        eye = np.eye(n)
        unit = max(numerics.operator_norm(b @ b.conj().T - eye) for b in self.matrices)
        flat = self.matrices.reshape(n * n, n * n)
        gram = flat @ flat.conj().T / n
        return {
            "unitarity": unit,
            "pairwise-orthonormality": numerics.operator_norm(gram - np.eye(n * n)),
        }

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        bad = {k: v for k, v in self.defects().items() if v > tol}
        if bad:
            raise QitValidationError("ueb", bad)


QitObject = HadamardMatrix | LatinSquare | QuantumLatinSquare | BiunitaryMatrix | UnitaryErrorBasis


def block_transpose(u: np.ndarray, n: int) -> np.ndarray:
    """v^{ij}_{kl} = u^{kj}_{il} on an n^2 x n^2 matrix of n x n blocks."""
    u = numerics.as_matrix(u)
    t = u.reshape(n, n, n, n)  # (i, j, k, l)
    return t.transpose(2, 1, 0, 3).reshape(n * n, n * n)


@dataclass
class BiunitaryCertificate:
    """Verdict plus named residuals of the unitarity identities checked."""

    kind: str
    residuals: dict[str, float]
    verdict: bool
    tol: float

    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


def _certify(kind: str, residuals: dict[str, float], tol: float) -> BiunitaryCertificate:
    return BiunitaryCertificate(kind, residuals,
                                all(v <= tol for v in residuals.values()), tol)


def is_biunitary(u: SpinElement, ell: int, tol: float = DEFAULT_TOL) -> BiunitaryCertificate:
    """Certificate that u and its ell-fold rotation are both unitary."""
    k = u.color.width
    if not 0 < ell < k:
        raise ValueError(f"need 0 < ell < width, got ell={ell} at color {u.color}")
    res_u = unitarity_residuals(u)
    res_r = unitarity_residuals(rotate_pow(u, ell))
    residuals = {
        "uu*-1": res_u["xx*-1"],
        "u*u-1": res_u["x*x-1"],
        "rot(u)rot(u)*-1": res_r["xx*-1"],
        "rot(u)*rot(u)-1": res_r["x*x-1"],
    }
    return _certify(f"{{0,{ell}}}", residuals, tol)


def is_ueb_biunitary(u: SpinElement, tol: float = DEFAULT_TOL) -> BiunitaryCertificate:
    """Certificate that partial_swap(u) and rotate(u) are both unitary ((4,+) only)."""
    if u.color != SpinColor(4, PLUS):
        raise ValueError(f"the swap/rotation certificate is defined on (4,+), got {u.color}")
    res_a = unitarity_residuals(partial_swap(u))
    res_r = unitarity_residuals(rotate(u))
    residuals = {
        "swap(u)swap(u)*-1": res_a["xx*-1"],
        "swap(u)*swap(u)-1": res_a["x*x-1"],
        "rot(u)rot(u)*-1": res_r["xx*-1"],
        "rot(u)*rot(u)-1": res_r["x*x-1"],
    }
    return _certify("{A,R(4,+)}", residuals, tol)


# ---------------------------------------------------------------------------
# converters


def from_hadamard(h: HadamardMatrix, tol: float = DEFAULT_TOL) -> SpinElement:
    """u = sum_ij (h_ij / sqrt(n)) e^i_j in (2,+)."""
    h.validate(tol)
    n = h.n
    ctx = SpinContext(n)
    rt = n ** 0.5
    coeffs = {
        SpinIndex(None, (i + 1,), (j + 1,), None): complex(h.entries[i, j]) / rt
        for i in range(n) for j in range(n)
    }
    return from_coeffs(ctx, SpinColor(2, PLUS), coeffs, validate=False)


def to_hadamard(u: SpinElement, tol: float = DEFAULT_TOL) -> HadamardMatrix:
    cert = is_biunitary(u, 1, tol)
    if not cert.verdict:
        raise QitValidationError("hadamard-element", cert.residuals)
    n = u.ctx.N
    rt = n ** 0.5
    h = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            h[i, j] = u.coefficient(SpinIndex(None, (i + 1,), (j + 1,), None)) * rt
    return HadamardMatrix(h)


def latin_to_qls(square: LatinSquare) -> QuantumLatinSquare:
    """Rows of basis vectors: the vector at (i, j) is e_{square[i][j]}."""
    square.validate()
    n = square.n
    vectors = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            vectors[i, j, square.rows[i, j] - 1] = 1.0
    return QuantumLatinSquare(vectors)


def from_qls(q: QuantumLatinSquare, tol: float = DEFAULT_TOL) -> SpinElement:
    """u = sum a^k_{ij} e^i_k(j] in (3,+), a^k_{ij} = vectors[i, j, k]."""
    q.validate(tol)
    n = q.n
    ctx = SpinContext(n)
    coeffs = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = complex(q.vectors[i, j, k])
                if c != 0:
                    coeffs[SpinIndex(None, (i + 1,), (k + 1,), j + 1)] = c
    return from_coeffs(ctx, SpinColor(3, PLUS), coeffs, validate=False)


def to_qls(u: SpinElement, tol: float = DEFAULT_TOL) -> QuantumLatinSquare:
    cert = is_biunitary(u, 1, tol)
    if not cert.verdict:
        raise QitValidationError("qls-element", cert.residuals)
    n = u.ctx.N
    vectors = np.zeros((n, n, n), dtype=complex)
    for idx, c in u.terms():
        i, k, j = idx.top[0], idx.bottom[0], idx.right
        vectors[i - 1, j - 1, k - 1] = c
    return QuantumLatinSquare(vectors)


def from_latin(square: LatinSquare, tol: float = DEFAULT_TOL) -> SpinElement:
    return from_qls(latin_to_qls(square), tol)


def from_biunitary_matrix(b: BiunitaryMatrix, tol: float = DEFAULT_TOL) -> SpinElement:
    """u = sum a^{ij}_{kl} e^{ij}_{lk} in (4,+), a^{ij}_{kl} = entries[(i,j),(k,l)].

    The coefficient of the basis index with top (i,j) and bottom (b1,b2) is
    the matrix entry at row pair (i,j), column pair (b2,b1).
    """
    b.validate(tol)
    n = b.n
    ctx = SpinContext(n)
    coeffs = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    c = complex(b.entries[i * n + j, k * n + l])
                    if c != 0:
                        coeffs[SpinIndex(None, (i + 1, j + 1), (l + 1, k + 1), None)] = c
    return from_coeffs(ctx, SpinColor(4, PLUS), coeffs, validate=False)


def to_biunitary_matrix(u: SpinElement, tol: float = DEFAULT_TOL) -> BiunitaryMatrix:
    cert = is_biunitary(u, 2, tol)
    if not cert.verdict:
        raise QitValidationError("biunitary-element", cert.residuals)
    n = u.ctx.N
    entries = np.zeros((n * n, n * n), dtype=complex)
    for idx, c in u.terms():
        (i, j), (l, k) = idx.top, idx.bottom
        entries[(i - 1) * n + (j - 1), (k - 1) * n + (l - 1)] = c
    return BiunitaryMatrix(n, entries)


def from_ueb(e: UnitaryErrorBasis, tol: float = DEFAULT_TOL) -> SpinElement:
    """Element with a^{ij}_{kl} = B(j,l)[i,k] / sqrt(n), assembled as e^{ij}_{lk}."""
    e.validate(tol)
    n = e.n
    ctx = SpinContext(n)
    rt = n ** 0.5
    coeffs = {}
    for j in range(n):
        for l in range(n):
            b = e.matrices[j * n + l]
            for i in range(n):
                for k in range(n):
                    c = complex(b[i, k]) / rt
                    if c != 0:
                        coeffs[SpinIndex(None, (i + 1, j + 1), (l + 1, k + 1), None)] = c
    return from_coeffs(ctx, SpinColor(4, PLUS), coeffs, validate=False)


def to_ueb(u: SpinElement, tol: float = DEFAULT_TOL) -> UnitaryErrorBasis:
    cert = is_ueb_biunitary(u, tol)
    if not cert.verdict:
        raise QitValidationError("ueb-element", cert.residuals)
    n = u.ctx.N
    rt = n ** 0.5
    matrices = np.zeros((n * n, n, n), dtype=complex)
    for idx, c in u.terms():
        (i, j), (l, k) = idx.top, idx.bottom
        matrices[(j - 1) * n + (l - 1), i - 1, k - 1] = c * rt
    return UnitaryErrorBasis(matrices)


# ---------------------------------------------------------------------------
# standard families


def fourier_hadamard(n: int) -> HadamardMatrix:
    """The n x n Fourier matrix, entries omega^{jk} with omega = exp(2 pi i/n)."""
    omega = cmath.exp(2j * cmath.pi / n)
    return HadamardMatrix(np.array([[omega ** (j * k) for k in range(n)] for j in range(n)]))


def ueb_clock_shift(n: int) -> UnitaryErrorBasis:
    """The clock-and-shift unitary error basis {C^a S^b} (Pauli basis at n=2).

    C = diag(1, omega, ..., omega^{n-1}) and S cyclically shifts the basis
    vectors; the n^2 products are orthonormal under the normalized trace.
    """
    omega = cmath.exp(2j * cmath.pi / n)
    clock = np.diag([omega ** k for k in range(n)])
    shift = np.zeros((n, n), dtype=complex)
    for j in range(n):
        shift[(j + 1) % n, j] = 1.0
    mats = []
    for a in range(n):
        for b in range(n):
            mats.append(np.linalg.matrix_power(clock, a) @ np.linalg.matrix_power(shift, b))
    return UnitaryErrorBasis(np.array(mats))


# ---------------------------------------------------------------------------
# JSON interchange (complex numbers as [re, im])


def _c_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _c_from_json(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(isinstance(t, (int, float)) for t in v):
        return complex(v[0], v[1])
    raise QitParseError(f"expected a number or [re, im] pair, got {v!r}")


def _cmatrix_from_json(rows, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise QitParseError(f"{what} must be a list of rows")
    return np.array([[_c_from_json(v) for v in r] for r in rows], dtype=complex)


def qit_to_json(obj: QitObject) -> dict:
    if isinstance(obj, HadamardMatrix):
        return {"type": "hadamard", "n": obj.n,
                "entries": [[_c_to_json(v) for v in row] for row in obj.entries]}
    if isinstance(obj, LatinSquare):
        return {"type": "latin", "n": obj.n, "rows": [[int(v) for v in row] for row in obj.rows]}
    if isinstance(obj, QuantumLatinSquare):
        return {"type": "qls", "n": obj.n,
                "vectors": [[[_c_to_json(v) for v in vec] for vec in row] for row in obj.vectors]}
    if isinstance(obj, BiunitaryMatrix):
        return {"type": "biunitary", "n": obj.n,
                "entries": [[_c_to_json(v) for v in row] for row in obj.entries]}
    if isinstance(obj, UnitaryErrorBasis):
        return {"type": "ueb", "n": obj.n,
                "matrices": [[[_c_to_json(v) for v in row] for row in m] for m in obj.matrices]}
    raise TypeError(f"not a recognized object: {type(obj)!r}")


def qit_from_json(data) -> QitObject:
    if not isinstance(data, dict) or "type" not in data:
        raise QitParseError("expected an object with a 'type' field")
    kind = data["type"]
    try:
        n = int(data["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise QitParseError(f"missing or non-integer 'n' field: {exc}") from None
    if kind == "hadamard":
        entries = _cmatrix_from_json(data.get("entries"), "'entries'")
        if entries.shape != (n, n):
            raise QitParseError(f"hadamard entries must be {n} x {n}, got {entries.shape}")
        return HadamardMatrix(entries)
    if kind == "latin":
        rows = data.get("rows")
        if (not isinstance(rows, list) or len(rows) != n
                or any(not isinstance(r, list) or len(r) != n for r in rows)):
            raise QitParseError(f"latin rows must be an {n} x {n} integer array")
        return LatinSquare(np.array(rows, dtype=int))
    if kind == "qls":
        vecs = data.get("vectors")
        if not isinstance(vecs, list) or len(vecs) != n:
            raise QitParseError(f"qls vectors must be an {n} x {n} x {n} array")
        arr = np.array([[[_c_from_json(v) for v in vec] for vec in row] for row in vecs])
        if arr.shape != (n, n, n):
            raise QitParseError(f"qls vectors must be {n} x {n} x {n}, got {arr.shape}")
        return QuantumLatinSquare(arr)
    if kind == "biunitary":
        entries = _cmatrix_from_json(data.get("entries"), "'entries'")
        if entries.shape != (n * n, n * n):
            raise QitParseError(f"biunitary entries must be {n**2} x {n**2}, got {entries.shape}")
        return BiunitaryMatrix(n, entries)
    if kind == "ueb":
        mats = data.get("matrices")
        if not isinstance(mats, list) or len(mats) != n * n:
            raise QitParseError(f"ueb needs {n*n} matrices")
        arr = np.array([[[_c_from_json(v) for v in row] for row in m] for m in mats])
        if arr.shape != (n * n, n, n):
            raise QitParseError(f"ueb matrices must each be {n} x {n}")
        return UnitaryErrorBasis(arr)
    raise QitParseError(f"unknown object type {kind!r}")


def read_json(path: str):
    """The parsed contents of a JSON file; unreadable files and broken JSON
    raise QitParseError naming the path (and the line and column)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise QitParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise QitParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                            f"{exc.msg}") from None


def load_qit(path: str) -> QitObject:
    return qit_from_json(read_json(path))


def element_to_json(u: SpinElement) -> dict:
    """Deterministic JSON form of an element (terms sorted by index)."""
    def sort_key(item):
        idx = item[0]
        return (idx.s or 0, idx.left or 0, idx.top, idx.bottom, idx.right or 0)

    terms = []
    for idx, c in sorted(u.coeffs.items(), key=sort_key):
        term = {"top": list(idx.top), "bottom": list(idx.bottom), "coeff": _c_to_json(c)}
        if idx.left is not None:
            term["left"] = idx.left
        if idx.right is not None:
            term["right"] = idx.right
        if idx.s is not None:
            term["s"] = idx.s
        terms.append(term)
    return {
        "N": u.ctx.N,
        "color": {"width": u.color.width, "shading": shading_name(u.color.shading)},
        "terms": terms,
    }


def element_from_json(data: dict) -> SpinElement:
    try:
        ctx = SpinContext(int(data["N"]))
        color = SpinColor(int(data["color"]["width"]),
                          shading_from_name(data["color"]["shading"]))
        coeffs = {}
        for term in data["terms"]:
            idx = SpinIndex(term.get("left"), tuple(term["top"]), tuple(term["bottom"]),
                            term.get("right"), term.get("s"))
            coeffs[idx] = _c_from_json(term["coeff"])
    except (KeyError, TypeError, ValueError) as exc:
        raise QitParseError(f"malformed element JSON: {exc}") from None
    return from_coeffs(ctx, color, coeffs)
