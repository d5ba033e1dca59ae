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

Each family is one subclass of `QitObject` and states its facts once, as
class attributes that validation, conversion, JSON interchange and the
command line all read:

    kind    the JSON `type` of its object files
    name    its name in reports
    field   the attribute and JSON field holding its array
    shape   the array's shape as powers of n, e.g. (2, 1, 1) is n^2 x n x n
    dtype   complex, or int for the symbols of a Latin square
    ell     the rotation step l of its {0,l} certificate; None for the
            swap/rotation certificate of a unitary error basis
    width   the width k of the plus color (k,+) its element lives in
    axes    the transpose that lays the array, reshaped to (n,)*width, out
            in `core`'s basis order (left slot, top, bottom, right slot)
    scaled  whether coefficients are the array's entries over sqrt(n)

A Latin square, and so a group table, is placed as its quantum Latin square
image.  Index placement is load-bearing and covered by regression tests:
a^k_{ij} (row i, column j, component k) maps to e^k_i(j] (component on top,
row on the bottom, column in the right slot), a^{ij}_{kl} maps to
e^{ij}_{lk} (bottom tuple (l,k), note the swap), and unitary error basis
entries B(j,l)[i,k] / sqrt(n) map to e^{ij}_{lk}.  Certificates carry named
residuals; a rejection names the violated identity through its residual key
rather than by prose.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import numerics
from .core import (PLUS, SpinColor, SpinContext, SpinElement, SpinIndex,
                   devectorize, from_coeffs, shading_from_name, shading_name,
                   unitarity_residuals, vectorize)
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


class QitObject:
    """An object of one family; the class attributes are described in the
    module docstring.  n is read off the array's shape."""

    kind: ClassVar[str]
    name: ClassVar[str]
    field: ClassVar[str]
    shape: ClassVar[tuple[int, ...]]
    dtype: ClassVar[type] = complex
    ell: ClassVar[int | None]
    width: ClassVar[int]
    axes: ClassVar[tuple[int, ...]]
    scaled: ClassVar[bool]
    n: int

    def __post_init__(self):
        try:
            a = np.asarray(getattr(self, self.field), dtype=self.dtype)
        except (TypeError, ValueError, OverflowError) as exc:
            raise QitParseError(f"{self.name} {self.field}: {exc}") from None
        n = round(a.shape[-1] ** (1 / self.shape[-1])) if a.ndim == len(self.shape) else 0
        given = getattr(self, "n", n)  # a biunitary matrix is given n, the others read it
        if n < 1 or a.shape != tuple(n ** p for p in self.shape) or given != n:
            pattern = " x ".join("n" if p == 1 else f"n^{p}" for p in self.shape)
            raise QitParseError(f"{self.name} needs an {pattern} array, got shape {a.shape}"
                                + (f" for n={given}" if given != n else ""))
        if not np.all(np.isfinite(a)):
            raise QitParseError(f"{self.name} has non-finite entries")
        setattr(self, self.field, a)
        self.n = n

    @classmethod
    def of(cls, n: int, array) -> "QitObject":
        """The object of order n holding array."""
        return cls(array)

    def defects(self) -> dict[str, float]:
        raise NotImplementedError

    def validate(self, tol: float = DEFAULT_TOL) -> None:
        # the Latin square's defects are counts, checked exactly
        limit = 0.0 if self.dtype is int else tol
        bad = {k: v for k, v in self.defects().items() if v > limit}
        if bad:
            raise QitValidationError(self.kind, bad)

    @classmethod
    def certificate(cls, u: SpinElement, tol: float = DEFAULT_TOL) -> "BiunitaryCertificate":
        """The family's biunitarity certificate of an element."""
        if cls.ell is None:
            return is_ueb_biunitary(u, tol)
        return is_biunitary(u, cls.ell, tol)

    def coefficients(self) -> np.ndarray:
        """The array placed in the element (before axes and scaling)."""
        return getattr(self, self.field)

    def to_element(self, tol: float = DEFAULT_TOL) -> SpinElement:
        """The object's element of (width,+), after validating the object."""
        self.validate(tol)
        n = self.n
        v = self.coefficients().reshape((n,) * self.width).transpose(self.axes).flatten()
        if self.scaled:
            # componentwise, as Python's complex / float divides
            v = (v.view(float) / n ** 0.5).view(complex)
        return devectorize(SpinContext(n), SpinColor(self.width, PLUS), v)


@dataclass
class HadamardMatrix(QitObject):
    """n x n complex matrix with unimodular entries and HH* = nI."""

    kind, name, field, shape = "hadamard", "Hadamard matrix", "entries", (1, 1)
    ell, width, axes, scaled = 1, 2, (0, 1), True
    entries: np.ndarray

    def defects(self) -> dict[str, float]:
        h = self.entries
        return {
            "HH*-nI": numerics.operator_norm(h @ h.conj().T - self.n * np.eye(self.n)),
            "unimodularity": float(np.max(np.abs(np.abs(h) - 1.0))),
        }


@dataclass
class QuantumLatinSquare(QitObject):
    """n x n array of vectors in C^n; every row and column is an orthonormal basis.

    vectors[i, j, k] is component k of the vector at row i, column j.
    """

    kind, name, field, shape = "qls", "quantum Latin square", "vectors", (1, 1, 1)
    ell, width, axes, scaled = 1, 3, (2, 0, 1), False
    vectors: np.ndarray

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


@dataclass
class LatinSquare(QitObject):
    """n x n array over symbols 1..n, each once per row and per column."""

    kind, name, field, shape, dtype = "latin", "Latin square", "rows", (1, 1), int
    ell, width, axes, scaled = (QuantumLatinSquare.ell, QuantumLatinSquare.width,
                                QuantumLatinSquare.axes, QuantumLatinSquare.scaled)
    rows: np.ndarray

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

    def coefficients(self) -> np.ndarray:
        return np.eye(self.n, dtype=complex)[self.rows - 1]


@dataclass
class BiunitaryMatrix(QitObject):
    """n^2 x n^2 matrix, unitary with unitary block transpose.

    Entries are indexed by ordered pairs, row (i,j) and column (k,l), with the
    pair (a,b) at position (a-1)*n + (b-1); the block transpose exchanges the
    row of the first pair slot with the column of the first pair slot:
    v^{ij}_{kl} = u^{kj}_{il}.
    """

    kind, name, field, shape = "biunitary", "biunitary matrix", "entries", (2, 2)
    ell, width, axes, scaled = 2, 4, (0, 1, 3, 2), False
    n: int
    entries: np.ndarray

    @classmethod
    def of(cls, n: int, array) -> "BiunitaryMatrix":
        return cls(n, array)

    def defects(self) -> dict[str, float]:
        u = self.entries
        v = block_transpose(u, self.n)
        eye = np.eye(self.n * self.n)
        return {
            "unitarity": numerics.operator_norm(u @ u.conj().T - eye),
            "block-transpose-unitarity": numerics.operator_norm(v @ v.conj().T - eye),
        }


@dataclass
class UnitaryErrorBasis(QitObject):
    """n^2 unitary n x n matrices, orthonormal under <A,B> = Tr(B*A)/n.

    matrices[j*n + l] is the matrix B(j,l).
    """

    kind, name, field, shape = "ueb", "unitary error basis", "matrices", (2, 1, 1)
    ell, width, axes, scaled = None, 4, (2, 0, 1, 3), True
    matrices: np.ndarray

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


FAMILIES: dict[str, type[QitObject]] = {
    cls.kind: cls for cls in (HadamardMatrix, LatinSquare, QuantumLatinSquare,
                              BiunitaryMatrix, UnitaryErrorBasis)}


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


def _from_element(cls: type[QitObject], u: SpinElement, tol: float) -> QitObject:
    """The object of family cls whose element is u, after certifying u."""
    color = SpinColor(cls.width, PLUS)
    if u.color != color:
        raise ValueError(f"a {cls.name} is read from an element of {color}, got {u.color}")
    cert = cls.certificate(u, tol)
    if not cert.verdict:
        raise QitValidationError(f"{cls.kind}-element", cert.residuals)
    n = u.ctx.N
    a = vectorize(u).reshape((n,) * cls.width).transpose(np.argsort(cls.axes))
    a = a.reshape([n ** p for p in cls.shape])
    return cls.of(n, a * n ** 0.5 if cls.scaled else a)


def from_hadamard(h: HadamardMatrix, tol: float = DEFAULT_TOL) -> SpinElement:
    """u = sum_ij (h_ij / sqrt(n)) e^i_j in (2,+)."""
    return h.to_element(tol)


def to_hadamard(u: SpinElement, tol: float = DEFAULT_TOL) -> HadamardMatrix:
    return _from_element(HadamardMatrix, u, tol)


def latin_to_qls(square: LatinSquare) -> QuantumLatinSquare:
    """Rows of basis vectors: the vector at (i, j) is e_{square[i][j]}."""
    square.validate()
    return QuantumLatinSquare(square.coefficients())


def from_qls(q: QuantumLatinSquare, tol: float = DEFAULT_TOL) -> SpinElement:
    """u = sum a^k_{ij} e^k_i(j] in (3,+), a^k_{ij} = vectors[i, j, k]: the
    component on top, the row on the bottom, the column in the right slot."""
    return q.to_element(tol)


def to_qls(u: SpinElement, tol: float = DEFAULT_TOL) -> QuantumLatinSquare:
    return _from_element(QuantumLatinSquare, u, tol)


def from_latin(square: LatinSquare, tol: float = DEFAULT_TOL) -> SpinElement:
    return square.to_element(tol)


def from_biunitary_matrix(b: BiunitaryMatrix, tol: float = DEFAULT_TOL) -> SpinElement:
    """u = sum a^{ij}_{kl} e^{ij}_{lk} in (4,+), a^{ij}_{kl} = entries[(i,j),(k,l)]."""
    return b.to_element(tol)


def to_biunitary_matrix(u: SpinElement, tol: float = DEFAULT_TOL) -> BiunitaryMatrix:
    return _from_element(BiunitaryMatrix, u, tol)


def from_ueb(e: UnitaryErrorBasis, tol: float = DEFAULT_TOL) -> SpinElement:
    """Element with a^{ij}_{kl} = B(j,l)[i,k] / sqrt(n), assembled as e^{ij}_{lk}."""
    return e.to_element(tol)


def to_ueb(u: SpinElement, tol: float = DEFAULT_TOL) -> UnitaryErrorBasis:
    return _from_element(UnitaryErrorBasis, u, tol)


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
    parts = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
    if all(type(t) in (int, float) for t in parts):  # bool is not a number here
        try:
            z = complex(*parts)
        except OverflowError:  # an integer beyond the float range
            z = complex("inf")
        if cmath.isfinite(z):
            return z
    raise QitParseError(f"expected a finite number or [re, im] pair, got {v!r}")


def _int_from_json(v) -> int:
    if type(v) is int:
        return v
    raise QitParseError(f"expected an integer, got {v!r}")


def _nested(value, dims, leaf, what: str):
    """value as nested lists of lengths dims with leaves read by leaf."""
    if not dims:
        return leaf(value)
    if not isinstance(value, list) or len(value) != dims[0]:
        raise QitParseError(what)
    return [_nested(v, dims[1:], leaf, what) for v in value]


def _leaves(f, value):
    return [_leaves(f, v) for v in value] if isinstance(value, list) else f(value)


def qit_to_json(obj: QitObject) -> dict:
    if not isinstance(obj, QitObject):
        raise TypeError(f"not a recognized object: {type(obj)!r}")
    leaf = int if obj.dtype is int else _c_to_json
    return {"type": obj.kind, "n": obj.n,
            obj.field: _leaves(leaf, getattr(obj, obj.field).tolist())}


def qit_from_json(data) -> QitObject:
    """The object of a parsed object file: n must be a positive integer, the
    array must nest to its family's shape, and its leaves must be finite
    numbers or [re, im] pairs (integers for a Latin square)."""
    if not isinstance(data, dict) or "type" not in data:
        raise QitParseError("expected an object with a 'type' field")
    kind = data["type"]
    cls = FAMILIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise QitParseError(f"unknown object type {kind!r}")
    n = data.get("n")
    if type(n) is not int or n < 1:
        raise QitParseError(f"'n' must be a positive integer, got {n!r}")
    dims = [n ** p for p in cls.shape]
    leaf = _int_from_json if cls.dtype is int else _c_from_json
    what = f"{kind} '{cls.field}' must be a {' x '.join(map(str, dims))} array"
    return cls.of(n, _nested(data.get(cls.field), dims, leaf, what))


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
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise QitParseError(f"{path}: {exc}") from None


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
