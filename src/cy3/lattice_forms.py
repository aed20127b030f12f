"""The rank-3 lattice layer: symmetric trilinear (cubic) forms, integral linear
forms, unimodular lattice maps, and the invariance predicates tying them together.

On disk a cubic is a vector of 10 integer monomial coefficients. Each trilinear
entry t[ijk] is the monomial coefficient divided by its multinomial weight; the
form holds only the integer tensor D·T over the common denominator D, on which
evaluation, pullbacks and invariance checks run.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from .core_arith import QuadSurd, _from_ints
from .errors import IncompatibleFields, NotUnimodular, ValidationError, ZeroVector

# Monomial key -> sorted index triple (1-based: 1=x, 2=y, 3=z).
MONOMIAL_INDICES: dict[str, tuple[int, int, int]] = {
    "x3": (1, 1, 1),
    "x2y": (1, 1, 2),
    "x2z": (1, 1, 3),
    "xy2": (1, 2, 2),
    "xyz": (1, 2, 3),
    "xz2": (1, 3, 3),
    "y3": (2, 2, 2),
    "y2z": (2, 2, 3),
    "yz2": (2, 3, 3),
    "z3": (3, 3, 3),
}

INDEX_MONOMIALS = {v: k for k, v in MONOMIAL_INDICES.items()}

ENTRY_KEYS = tuple(sorted(INDEX_MONOMIALS))


def _is_integer(x) -> bool:
    """True for an int or an integral Fraction; False for a bool, a float or a str."""
    return type(x) is int or (not isinstance(x, bool) and isinstance(x, (int, Fraction))
                              and x.denominator == 1)


def multinomial(i: int, j: int, k: int) -> int:
    """Number of permutations of the multiset {i, j, k}."""
    if i == j == k:
        return 1
    if i == j or j == k or i == k:
        return 3
    return 6


# Monomial key -> (the slot of its index triple in ENTRY_KEYS, 6 / its
# multinomial weight).
_MONOMIAL_SLOTS = {name: (ENTRY_KEYS.index(key), 6 // multinomial(*key))
                   for name, key in MONOMIAL_INDICES.items()}


class TrilinearForm:
    """Fully symmetric trilinear form on the rank-3 lattice, exact entries.

    The form is held as the integer tensor D·T over the least common
    denominator `scale` = D of its entries (a divisor of 6 for an integral
    cubic): `flat` is the tuple of its ten distinct entries in ENTRY_KEYS
    order. Pullbacks, invariance checks and enumeration run on it in plain ints.
    Entries are given as ints or Fractions on the ten sorted index triples; any
    other key or value raises ValidationError.
    """

    __slots__ = ("scale", "flat")

    def __init__(self, entries: Mapping[tuple[int, int, int], int | Fraction]):
        unknown = set(entries) - set(ENTRY_KEYS)
        if unknown:
            raise ValidationError(f"entry keys {sorted(unknown)} are not among {list(ENTRY_KEYS)}")
        for key, v in entries.items():
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise ValidationError(f"entry {key} must be an int or a Fraction: {v!r}")
        values = [Fraction(entries.get(key, 0)) for key in ENTRY_KEYS]
        scale = lcm(*(v.denominator for v in values))
        form = TrilinearForm._from_scaled(
            [v.numerator * (scale // v.denominator) for v in values], scale)
        self.scale, self.flat = form.scale, form.flat

    @classmethod
    def _from_scaled(cls, scaled: Collection[int], scale: int):
        """The trusted constructor: the form whose entries are the ten integers
        `scaled`, in ENTRY_KEYS order, over scale > 0. Divides out one gcd, so
        (scale, flat) is canonical."""
        g = gcd(scale, *scaled)
        obj = object.__new__(cls)
        obj.scale = scale // g
        obj.flat = tuple(scaled) if g == 1 else tuple([x // g for x in scaled])
        return obj

    def contract(self, v: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """The symmetric integer matrix (D·T)(v, ·, ·) for an integer vector v,
        as a tuple of rows: its six distinct entries from the ten distinct
        entries of D·T, 18 products. The library's one contraction of D·T by
        a vector; the enumeration pools write (D·T)(c, c, ·) out on c's monomials."""
        a, b, c = v
        t111, t112, t113, t122, t123, t133, t222, t223, t233, t333 = self.flat
        m12 = a * t112 + b * t122 + c * t123
        m13 = a * t113 + b * t123 + c * t133
        m23 = a * t123 + b * t223 + c * t233
        return ((a * t111 + b * t112 + c * t113, m12, m13),
                (m12, a * t122 + b * t222 + c * t223, m23),
                (m13, m23, a * t133 + b * t233 + c * t333))

    @classmethod
    def from_cubic_coefficients(cls, coeffs: Mapping[str, int]) -> "TrilinearForm":
        """Build from integer monomial coefficients of C(x, y, z); missing keys
        are 0. The coefficient c of a monomial of weight m enters as c·(6/m)/6."""
        unknown = coeffs.keys() - _MONOMIAL_SLOTS.keys()
        if unknown:
            raise ValidationError(f"unknown monomial keys: {sorted(unknown)}")
        scaled = [0] * 10
        for name, c in coeffs.items():
            if not _is_integer(c):
                raise ValidationError(f"monomial coefficient '{name}' must be an integer")
            slot, weight = _MONOMIAL_SLOTS[name]
            scaled[slot] = c.numerator * weight
        return cls._from_scaled(scaled, 6)

    def cubic_coefficients(self) -> dict[str, Fraction]:
        """Monomial coefficients of the induced cubic (integers for valid input)."""
        return {INDEX_MONOMIALS[key]: Fraction(x * multinomial(*key), self.scale)
                for key, x in zip(ENTRY_KEYS, self.flat)}

    def __eq__(self, other):
        if not isinstance(other, TrilinearForm):
            return NotImplemented
        return (self.scale, self.flat) == (other.scale, other.flat)

    def __hash__(self):
        return hash((self.scale, self.flat))

    def __repr__(self):
        nonzero = {name: str(c) for name, c in self.cubic_coefficients().items() if c}
        return f"TrilinearForm({nonzero})"


class _Covector(NamedTuple):
    l1: int
    l2: int
    l3: int


class LinearForm(_Covector):
    """Integral covector; pairs a lattice vector with the c2-class. A
    coefficient that is not an integer raises ValidationError."""

    __slots__ = ()

    def __new__(cls, l1, l2, l3):
        if not (_is_integer(l1) and _is_integer(l2) and _is_integer(l3)):
            raise ValidationError(f"linear form coefficients must be integers: {(l1, l2, l3)}")
        return super().__new__(cls, int(l1), int(l2), int(l3))

    def coefficients(self) -> tuple[int, int, int]:
        return (self.l1, self.l2, self.l3)

    def is_zero(self) -> bool:
        return self.coefficients() == (0, 0, 0)


_IDENTITY_ROWS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _rows3(m) -> tuple:
    """The rows of a 3x3 matrix as tuples; any other shape raises ValidationError."""
    try:
        rows = tuple(map(tuple, m))
    except TypeError:
        raise ValidationError("expected a 3x3 matrix") from None
    if tuple(map(len, rows)) != (3, 3, 3):
        raise ValidationError("expected a 3x3 matrix")
    return rows


class LatticeMap:
    """3x3 integer matrix with determinant +-1, acting on column vectors."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = _rows3(rows)
        if not all(type(x) is int for r in rows for x in r):
            if not all(_is_integer(x) for r in rows for x in r):
                raise ValidationError(f"matrix entries must be integers: {rows}")
            rows = tuple(tuple(int(x) for x in r) for r in rows)
        det = _det3(rows)
        if det not in (1, -1):
            raise NotUnimodular(f"determinant {det}")
        self.rows = rows

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...]) -> "LatticeMap":
        """The trusted constructor: 3x3 int rows whose determinant is known to
        be ±1, as for products, inverses and enumeration survivors."""
        obj = object.__new__(cls)
        obj.rows = rows
        return obj

    @classmethod
    def identity(cls) -> "LatticeMap":
        return cls._from_rows(_IDENTITY_ROWS)

    @property
    def det(self) -> int:
        return _det3(self.rows)

    @property
    def trace(self) -> int:
        return self.rows[0][0] + self.rows[1][1] + self.rows[2][2]

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product; exact for int, Fraction or QuadSurd entries."""
        return _matvec(self.rows, v)

    def __matmul__(self, other: "LatticeMap") -> "LatticeMap":
        return LatticeMap._from_rows(_matmul(self.rows, other.rows))

    def inverse(self) -> "LatticeMap":
        d = self.det
        adj = _adjugate3(self.rows)
        return LatticeMap._from_rows(tuple(tuple(x * d for x in row) for row in adj))

    def __pow__(self, n: int) -> "LatticeMap":
        """Square and multiply: g**4 builds only g^2 and g^4, g**5 also g^4·g."""
        if n < 0:
            return self.inverse() ** (-n)
        if n < 2:
            return self if n else LatticeMap.identity()
        half = self ** (n // 2)
        square = half @ half
        return square @ self if n & 1 else square

    def is_identity(self) -> bool:
        return self.rows == _IDENTITY_ROWS

    def __eq__(self, other):
        if not isinstance(other, LatticeMap):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"LatticeMap({list(list(r) for r in self.rows)})"


# -- exact 3x3 linear algebra ----------------------------------------------------
# The only dot, matrix-vector and matrix-matrix products, determinant and
# adjugate of the library; exact for int, Fraction or QuadSurd entries.


def _dot(u: Sequence, v: Sequence):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _matvec(m, v: Sequence) -> tuple:
    (a, b, c), (d, e, f), (g, h, i) = m
    x, y, z = v
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


def _matmul(a, b) -> tuple:
    """a·b for a 3x3 b and any number of length-3 rows in a."""
    (b1, b2, b3), (c1, c2, c3), (d1, d2, d3) = b
    return tuple([(x * b1 + y * c1 + z * d1, x * b2 + y * c2 + z * d2, x * b3 + y * c3 + z * d3)
                  for x, y, z in a])


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _adjugate3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


# -- evaluation ---------------------------------------------------------------


def _as_surd(x) -> QuadSurd:
    s = QuadSurd._coerce(x)
    return QuadSurd(x) if s is None else s


class PairVector(NamedTuple):
    """The vector (p + q·√d)/den in plain ints: integer vectors p and q over a
    nonzero den, maybe negative and not reduced with p and q (`surds` builds
    canonical surds), in the field ℚ(√d), d = 0 for ℚ."""

    p: tuple
    q: tuple
    den: int
    d: int

    @property
    def surds(self) -> tuple[QuadSurd, ...]:
        return tuple([_from_ints(x, y, self.den, self.d) for x, y in zip(self.p, self.q)])


def _int_pairs(v: Sequence) -> PairVector:
    """v = (p + q·√d)/den coordinatewise, in plain ints, for a vector of ints,
    Fractions and surds over one field ℚ(√d). An int x is read as (x, 0, 1)
    and builds no surd."""
    ps, qs, dens, ds = zip(*[(x, 0, 1, 0) if type(x) is int else _surd_parts(x) for x in v])
    fields = set(ds) - {0}
    if len(fields) > 1:
        raise IncompatibleFields(f"radicands {sorted(fields)} in one vector")
    den = lcm(*dens)
    p = tuple([x * (den // n) for x, n in zip(ps, dens)])
    q = tuple([y * (den // n) for y, n in zip(qs, dens)])
    return PairVector(p, q, den, max(fields, default=0))


def _surd_parts(x) -> tuple[int, int, int, int]:
    s = x if type(x) is QuadSurd else _as_surd(x)
    return s.p, s.q, s.den, s.d


def _pair_apply(m, v, d: int):
    """(mp + mq·√d)(p + q·√d) as an integer pair of vectors, for an integer
    pair of matrices m = (mp, mq) and of vectors v = (p, q)."""
    (mp, mq), (p, q) = m, v
    x1, y1, z1 = _matvec(mp, p)
    x2, y2, z2 = _matvec(mq, q)
    x3, y3, z3 = _matvec(mp, q)
    x4, y4, z4 = _matvec(mq, p)
    return (x1 + d * x2, y1 + d * y2, z1 + d * z2), (x3 + x4, y3 + y4, z3 + z4)


def _pair_dot(x, y, d: int) -> tuple[int, int]:
    """The dot product of two integer pairs of vectors, as an integer pair."""
    (a, b), (p, q) = x, y
    return _dot(a, p) + d * _dot(b, q), _dot(a, q) + _dot(b, p)


def trilinear_eval(T: TrilinearForm, a: Sequence, b: Sequence, c: Sequence) -> QuadSurd:
    """Fully symmetric exact evaluation T(a, b, c).

    The three vectors are cleared at once to integer pairs (p + q·√d)/den over
    one field, the pairs are contracted with the integer tensor D·T, and one
    surd is built for the result."""
    p, q, den, d = _int_pairs((*a, *b, *c))
    s = _pair_apply((T.contract(p[:3]), T.contract(q[:3])), (p[3:6], q[3:6]), d)
    return _from_ints(*_pair_dot(s, (p[6:], q[6:]), d), T.scale * den ** 3, d)


def cubic_eval(T: TrilinearForm, v: Sequence) -> QuadSurd:
    """C(v) = T(v, v, v)."""
    return trilinear_eval(T, v, v, v)


def _scaled_pullback(T: TrilinearForm, cols) -> tuple:
    """The ten entries of (D·T)(f_i, f_j, f_k), in ENTRY_KEYS order, for
    three integer columns f. Each covector (D·T)(f_i, f_j, ·), i <= j, is
    formed once and dotted with every f_k, k >= j: three contractions, six
    matrix-vector products and ten dot products, written out."""
    f1, f2, f3 = cols
    m1, m2, m3 = T.contract(f1), T.contract(f2), T.contract(f3)
    s11, s12, s13 = _matvec(m1, f1), _matvec(m1, f2), _matvec(m1, f3)
    s22, s23, s33 = _matvec(m2, f2), _matvec(m2, f3), _matvec(m3, f3)
    return (_dot(s11, f1), _dot(s11, f2), _dot(s11, f3), _dot(s12, f2), _dot(s12, f3),
            _dot(s13, f3), _dot(s22, f2), _dot(s22, f3), _dot(s23, f3), _dot(s33, f3))


def frame_table(T: TrilinearForm, frame: Sequence[PairVector]) -> dict[tuple, QuadSurd]:
    """The cubic in the coordinates of a frame (f1, f2, f3) of PairVectors over
    one den N and one field: T(f_i, f_j, f_k) on the 10 sorted index triples,
    one surd each, from one integer pullback. An irrational frame must be
    (σ(v), v, w) = ((P - Q√d)/N, (P + Q√d)/N, W/N), read on its real basis
    (P, Q, W); any other frame raises ValidationError."""
    (p1, q1, den, d), (p, q, den2, d2), (w, qw, den3, d3) = frame
    if (den2, d2, den3, d3) != (den, d, den, d):
        raise ValidationError("the frame's columns must share one denominator and one field")
    scale = T.scale * den ** 3
    if not d:
        return {key: _from_ints(x, 0, scale, 0)
                for key, x in zip(ENTRY_KEYS, _scaled_pullback(T, (p1, p, w)))}
    if p1 != p or q1 != tuple([-y for y in q]) or any(qw):
        raise ValidationError("an irrational frame must be (σ(v), v, w) with w rational")
    ppp, ppq, ppw, pqq, pqw, pww, qqq, qqw, qww, www = _scaled_pullback(T, (p, q, w))
    vvv, uuv = (ppp + 3 * d * pqq, 3 * ppq + d * qqq), (ppp - d * pqq, d * qqq - ppq)
    vvw = (ppw + d * qqw, 2 * pqw)
    # on (u, v, w) in ENTRY_KEYS order; each u-entry is the conjugate of a v-entry
    entries = ((vvv[0], -vvv[1]), uuv, (vvw[0], -vvw[1]), (uuv[0], -uuv[1]),
               (ppw - d * qqw, 0), (pww, -qww), vvv, vvw, (pww, qww), (www, 0))
    return {key: _from_ints(x, y, scale, d) for key, (x, y) in zip(ENTRY_KEYS, entries)}


def transform_cubic(T: TrilinearForm, g: LatticeMap) -> TrilinearForm:
    """Pullback (g·T)(a, b, c) = T(g a, g b, g c), exact."""
    return TrilinearForm._from_scaled(_scaled_pullback(T, tuple(zip(*g.rows))), T.scale)


def _form_pullback(L: Sequence[int], g: LatticeMap) -> tuple[int, int, int]:
    """The covector L∘g, v -> L(g v), as the row product L·g written out."""
    l1, l2, l3 = L
    (a, b, c), (d, e, f), (h, i, j) = g.rows
    return (l1 * a + l2 * d + l3 * h, l1 * b + l2 * e + l3 * i, l1 * c + l2 * f + l3 * j)


def preserves_pair(g: LatticeMap, T: TrilinearForm, L: LinearForm) -> bool:
    """True iff g leaves both the cubic and the linear form invariant: L∘g = L,
    and the ten entries of the pullback over D equal those of D·T, compared
    as one tuple."""
    return _form_pullback(L, g) == L and _scaled_pullback(T, tuple(zip(*g.rows))) == T.flat


# -- vectors -------------------------------------------------------------------


class PrimitivePart(NamedTuple):
    vector: tuple[int, int, int]
    scale: int
    flipped: bool  # True when the sign convention negated the input


def primitive_part(v: Sequence[int]) -> PrimitivePart:
    """v = +-scale * vector with gcd(vector) = 1 and first nonzero coordinate
    positive; `flipped` records whether the orientation was reversed. A
    coordinate that is not an integer raises ValidationError."""
    v = tuple(v)
    if not all(type(x) is int for x in v):
        if not all(_is_integer(x) for x in v):
            raise ValidationError(f"primitive part of a non-integer vector: {v}")
        v = tuple(int(x) for x in v)
    if all(x == 0 for x in v):
        raise ZeroVector("primitive part of the zero vector")
    g = gcd(*v)
    w = tuple(x // g for x in v)
    first = next(x for x in w if x != 0)
    if first < 0:
        return PrimitivePart(tuple(-x for x in w), g, True)
    return PrimitivePart(w, g, False)


def _normalized(v: PairVector) -> PairVector:
    """The line of v scaled to a first nonzero coordinate of 1, on integers:
    with pivot a + b√d, its first nonzero coordinate over den, v becomes
    (p + q√d)(a - b√d)/(a² - d·b²), or (p + q√d)/a when b = 0."""
    p, q, _, d = v
    pivot = next(((x, y) for x, y in zip(p, q) if x or y), None)
    if pivot is None:
        raise ZeroVector("cannot normalize the zero vector")
    a, b = pivot
    if not b:
        return PairVector(p, q, a, d)
    return PairVector(tuple([x * a - d * y * b for x, y in zip(p, q)]),
                      tuple([y * a - x * b for x, y in zip(p, q)]), a * a - d * b * b, d)


def _pair_cross(x, y, d: int) -> tuple:
    """The cross product of two integer pairs of vectors, as an integer pair."""
    (p, q), (r, s) = x, y
    a, b, c, e = cross(p, r), cross(q, s), cross(p, s), cross(q, r)
    return ((a[0] + d * b[0], a[1] + d * b[1], a[2] + d * b[2]),
            (c[0] + e[0], c[1] + e[1], c[2] + e[2]))


def cross(r1: Sequence, r2: Sequence) -> tuple:
    """Cross product; exact for int, Fraction or QuadSurd entries."""
    return (
        r1[1] * r2[2] - r1[2] * r2[1],
        r1[2] * r2[0] - r1[0] * r2[2],
        r1[0] * r2[1] - r1[1] * r2[0],
    )
