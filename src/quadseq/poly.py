"""Sparse exact bivariate polynomials (degree <= 8).

All element shape functions are built symbolically from these. Coefficients
are stored as 80-bit extended floats so that small-integer scalings commute
bitwise: differentiating a polynomial with float64-representable coefficients
first in x then in y gives the *same* coefficient map as the reverse order,
which makes identities such as div(curl w) = 0 hold exactly rather than to
rounding error. Only true zeros are dropped from the coefficient map; there
is no epsilon pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DEGREE = 8

_LD = np.longdouble
_ZERO = _LD(0.0)


class DegreeOverflowError(ValueError):
    """A product exceeded the supported degree, i.e. a shape function was mis-built."""


class Poly2:
    """Bivariate polynomial keyed by exponent pairs (i, j) with i + j <= 8."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent ({i}, {j})")
                if i + j > MAX_DEGREE:
                    raise DegreeOverflowError(
                        f"monomial x^{i} y^{j} exceeds degree {MAX_DEGREE}"
                    )
                c = _LD(c)
                if c != _ZERO:
                    clean[(i, j)] = c
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly2":
        return Poly2()

    @staticmethod
    def constant(c) -> "Poly2":
        return Poly2({(0, 0): c})

    @staticmethod
    def monomial(i: int, j: int, c=1.0) -> "Poly2":
        return Poly2({(i, j): c})

    @staticmethod
    def affine(c0, cx, cy) -> "Poly2":
        """c0 + cx*x + cy*y."""
        return Poly2({(0, 0): c0, (1, 0): cx, (0, 1): cy})

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(i + j for i, j in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("Poly2 is not hashable")

    def max_abs_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return float(max(abs(c) for c in self.coeffs.values()))

    def distance(self, other: "Poly2") -> float:
        """Max absolute coefficient difference, for near-equality checks."""
        return (self - other).max_abs_coeff()

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, np.floating)):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            acc = out.get(key, _ZERO) + c
            if acc == _ZERO:
                out.pop(key, None)
            else:
                out[key] = acc
        result = Poly2.__new__(Poly2)
        result.coeffs = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = Poly2.__new__(Poly2)
        result.coeffs = {key: -c for key, c in self.coeffs.items()}
        return result

    def __sub__(self, other):
        if isinstance(other, (int, float, np.floating)):
            other = Poly2.constant(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating)):
            c = _LD(other)
            if c == _ZERO:
                return Poly2.zero()
            result = Poly2.__new__(Poly2)
            result.coeffs = {key: v * c for key, v in self.coeffs.items()}
            return result
        if not isinstance(other, Poly2):
            return NotImplemented
        if self.coeffs and other.coeffs:
            if self.degree + other.degree > MAX_DEGREE:
                raise DegreeOverflowError(
                    f"product degree {self.degree + other.degree} exceeds {MAX_DEGREE}"
                )
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                acc = out.get(key, _ZERO) + c1 * c2
                out[key] = acc
        result = Poly2.__new__(Poly2)
        result.coeffs = {k: v for k, v in out.items() if v != _ZERO}
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = Poly2.constant(1.0)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, axis) -> "Poly2":
        """Partial derivative; axis is 'x'/'y' or 0/1."""
        ax = {"x": 0, "y": 1, 0: 0, 1: 1}[axis]
        out = {}
        for (i, j), c in self.coeffs.items():
            if ax == 0 and i > 0:
                out[(i - 1, j)] = c * i
            elif ax == 1 and j > 0:
                out[(i, j - 1)] = c * j
        result = Poly2.__new__(Poly2)
        result.coeffs = {k: v for k, v in out.items() if v != _ZERO}
        return result

    # -- evaluation --------------------------------------------------------

    def __call__(self, x, y):
        """Evaluate at points; x, y may be scalars or broadcastable arrays."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if not self.coeffs:
            return np.zeros(np.broadcast(x, y).shape)[()]
        # Horner in x within each fixed y-power.
        rows = {}
        for (i, j), c in self.coeffs.items():
            rows.setdefault(j, {})[i] = float(c)
        total = 0.0
        for j, row in sorted(rows.items()):
            imax = max(row)
            acc = np.zeros(np.broadcast(x, y).shape)
            for i in range(imax, -1, -1):
                acc = acc * x + row.get(i, 0.0)
            total = total + acc * y**j
        return total[()] if np.ndim(total) else total

    def eval(self, point):
        """Evaluate at one point given as a length-2 sequence."""
        return float(self(point[0], point[1]))

    def __repr__(self):
        if not self.coeffs:
            return "Poly2(0)"
        terms = []
        for (i, j), c in sorted(self.coeffs.items(), key=lambda t: (t[0][0] + t[0][1], t[0])):
            terms.append(f"{float(c):+.6g} x^{i} y^{j}")
        return "Poly2(" + " ".join(terms) + ")"


@dataclass
class VecPoly2:
    """2-vector of bivariate polynomials."""

    x: Poly2
    y: Poly2

    def __add__(self, other: "VecPoly2") -> "VecPoly2":
        return VecPoly2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "VecPoly2") -> "VecPoly2":
        return VecPoly2(self.x - other.x, self.y - other.y)

    def __mul__(self, c) -> "VecPoly2":
        return VecPoly2(self.x * c, self.y * c)

    __rmul__ = __mul__

    def dot(self, v) -> Poly2:
        """Inner product with a constant 2-vector."""
        return self.x * float(v[0]) + self.y * float(v[1])

    def div(self) -> Poly2:
        return self.x.diff("x") + self.y.diff("y")

    def __call__(self, x, y):
        return np.stack([self.x(x, y), self.y(x, y)], axis=-1)

    def eval(self, point):
        return np.array([self.x.eval(point), self.y.eval(point)])

    def distance(self, other: "VecPoly2") -> float:
        return max(self.x.distance(other.x), self.y.distance(other.y))


# -- free-function calculus ------------------------------------------------

def grad(p: Poly2) -> VecPoly2:
    return VecPoly2(p.diff("x"), p.diff("y"))


def curl_scalar(p: Poly2) -> VecPoly2:
    """Rotated gradient (dp/dy, -dp/dx); div(curl_scalar(p)) vanishes identically."""
    return VecPoly2(p.diff("y"), -p.diff("x"))


def div(v: VecPoly2) -> Poly2:
    return v.div()


def hessian(p: Poly2):
    """2x2 nested list [[pxx, pxy], [pyx, pyy]]."""
    px = p.diff("x")
    py = p.diff("y")
    return [[px.diff("x"), px.diff("y")], [py.diff("x"), py.diff("y")]]


X = Poly2.monomial(1, 0)
Y = Poly2.monomial(0, 1)
ONE = Poly2.constant(1.0)


# -- dense packing for fast repeated evaluation ------------------------------
#
# Element assembly evaluates fixed sets of polynomials at many quadrature
# points; packing them over the full degree-8 monomial table turns that into
# a couple of small matrix products.

MONOMIALS = [
    (i, d - i) for d in range(MAX_DEGREE + 1) for i in range(d, -1, -1)
]
MONOMIAL_INDEX = {m: k for k, m in enumerate(MONOMIALS)}
N_MONOMIALS = len(MONOMIALS)  # 45


def _diff_matrix(axis: int) -> np.ndarray:
    D = np.zeros((N_MONOMIALS, N_MONOMIALS))
    for k, (i, j) in enumerate(MONOMIALS):
        if axis == 0 and i > 0:
            D[MONOMIAL_INDEX[(i - 1, j)], k] = i
        if axis == 1 and j > 0:
            D[MONOMIAL_INDEX[(i, j - 1)], k] = j
    return D


DX = _diff_matrix(0)
DY = _diff_matrix(1)


def pack(polys) -> np.ndarray:
    """Stack polynomials into a (len(polys), 45) float64 coefficient matrix."""
    C = np.zeros((len(polys), N_MONOMIALS))
    for r, p in enumerate(polys):
        for key, c in p.coeffs.items():
            C[r, MONOMIAL_INDEX[key]] = float(c)
    return C


_EXP_I = np.array([m[0] for m in MONOMIALS])
_EXP_J = np.array([m[1] for m in MONOMIALS])


def vandermonde(points: np.ndarray) -> np.ndarray:
    """Monomial values at points (..., npoints, 2), shape (..., npoints, 45)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    # Powers 0 and 1 are exact; the others come from np.power, as always.
    p = np.empty(pts.shape + (MAX_DEGREE + 1,))
    p[..., 0] = 1.0
    p[..., 1] = pts
    p[..., 2:] = pts[..., None] ** np.arange(2, MAX_DEGREE + 1)
    return p[..., 0, _EXP_I] * p[..., 1, _EXP_J]
