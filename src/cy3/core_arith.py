"""Exact scalars: arbitrary-precision rationals, real quadratic surds a + b*sqrt(d),
and monic-up-to-sign integer cubics.

Every comparison is decided by exact sign analysis; no floating point enters any
result. Rationals are `fractions.Fraction`; a surd with d in {0, 1} collapses to
a rational, so a single scalar type flows through the whole library.

Every `QuadSurd` satisfies one invariant: `a` and `b` are `Fraction`s, `d` is 0
or a squarefree integer > 1, and `b == 0` exactly when `d == 0`. The radicand is
made squarefree only where a field is entered: the public constructor
`QuadSurd(a, b, d)` runs `squarefree_decompose` on an untrusted `d`, and
`solve_unit_quadratic` decomposes the two factors of s^2 - 4. Arithmetic inside a
field (`+ - * /`, `inverse`, `conjugate`, `**`) keeps the already canonical `d`
and builds its results with the trusted `QuadSurd._canonical`, which never
decomposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt

from .errors import ComplexRoots, IncompatibleFields, RadicandTooLarge

# Largest trial divisor: exact for every radicand below 2**60.
TRIAL_DIVISION_LIMIT = 1 << 20


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s * f**2 with s squarefree; returns (s, f). Requires n >= 0.

    Trial division runs only while p**3 <= m, the cofactor left after removing
    every prime below p, so it costs O(n**(1/3)) steps. The m left then has at
    most two prime factors, all >= p: it is 1, q, q*r or q**2, and a single
    `isqrt` tells the square apart. No floating point is used. A cofactor that
    would need a divisor past TRIAL_DIVISION_LIMIT raises RadicandTooLarge."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1):
        return n, 1
    s, f, m = 1, 1, n
    p = 2
    while p * p * p <= m:
        if p > TRIAL_DIVISION_LIMIT:
            raise RadicandTooLarge(
                f"a {n.bit_length()}-bit radicand needs trial division past "
                f"TRIAL_DIVISION_LIMIT = {TRIAL_DIVISION_LIMIT}"
            )
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            f *= p ** (e // 2)
            if e & 1:
                s *= p
        p += 1 if p == 2 else 2
    r = isqrt(m)
    if r * r == m:
        f *= r
    else:
        s *= m
    return s, f


_ZERO = Fraction(0)


def _pair_sign(p: int, q: int, d: int) -> int:
    """Sign of p + q√d for integers p, q and a non-square d > 1 (any d if
    q = 0); squaring with sign tracking decides the opposite-sign case."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > q * q * d else sq


@total_ordering
class QuadSurd:
    """a + b*sqrt(d) with a, b rational and d a squarefree nonnegative integer.

    Canonical form: square factors of d are pulled into b, and d <= 1 collapses
    to a rational (b = 0, d = 0). Instances are immutable by convention. The
    public constructor accepts any d >= 0; `_canonical` is the trusted one.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d: int = 0):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if d < 0:
            raise ValueError("negative field discriminant")
        if b == 0:
            d = 0
        elif d <= 1:
            a += b * d  # sqrt(0) = 0, sqrt(1) = 1
            b = Fraction(0)
            d = 0
        else:
            s, f = squarefree_decompose(d)
            b *= f
            d = s
            if d == 1:
                a += b
                b = Fraction(0)
                d = 0
        self.a = a
        self.b = b
        self.d = d

    @classmethod
    def _canonical(cls, a: Fraction, b: Fraction, d: int) -> "QuadSurd":
        """Trusted constructor: `a`, `b` are Fractions and `d` is 0 or an
        already squarefree integer > 1 (a field's radicand). Only the
        `b == 0 <=> d == 0` half of the invariant is restored here."""
        obj = object.__new__(cls)
        obj.a, obj.b, obj.d = a, b, (d if b else 0)
        return obj

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QuadSurd | None":
        if isinstance(x, QuadSurd):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadSurd._canonical(Fraction(x), _ZERO, 0)
        return None

    def _common_d(self, other: "QuadSurd") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise IncompatibleFields(f"sqrt({self.d}) vs sqrt({other.d})")

    # -- predicates ---------------------------------------------------------

    def to_fraction(self) -> Fraction:
        if self.d != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def sign(self) -> int:
        """Exact sign of the integer pair left after clearing both (positive)
        denominators; no floating point."""
        a, b = self.a, self.b
        return _pair_sign(a.numerator * b.denominator, b.numerator * a.denominator, self.d)

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2*d."""
        return self.a * self.a - self.b * self.b * self.d

    def conjugate(self) -> "QuadSurd":
        return QuadSurd._canonical(self.a, -self.b, self.d)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._common_d(other)
        return QuadSurd._canonical(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadSurd._canonical(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = self._common_d(other)
        return QuadSurd._canonical(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadSurd":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("surd has zero norm")
        return QuadSurd._canonical(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = QuadSurd(1)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __lt__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        if self.d == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- display ----------------------------------------------------------

    def __repr__(self):
        return f"QuadSurd({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        if self.d == 0:
            return str(self.a)
        root = f"√{self.d}"
        bs = "" if abs(self.b) == 1 else str(abs(self.b))
        tail = f"{bs}{root}"
        if self.a == 0:
            return tail if self.b > 0 else f"-{tail}"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {tail}"


def surd_compare(x: QuadSurd, y: QuadSurd) -> int:
    """Exact three-way comparison: -1, 0 or +1. Raises IncompatibleFields for
    surds over distinct quadratic fields."""
    x = QuadSurd._coerce(x)
    y = QuadSurd._coerce(y)
    return (x - y).sign()


def solve_unit_quadratic(s: int) -> tuple[QuadSurd, QuadSurd]:
    """The two real roots (alpha, 1/alpha) of t^2 - s*t + 1, alpha >= 1/alpha.

    The discriminant s^2 - 4 = (|s| - 2)(|s| + 2) is made squarefree factor by
    factor, each about the size of |s|, so the field is entered with two
    decompositions of cost O(|s|**(1/3)). Raises ComplexRoots when s^2 < 4 (the
    finite-order candidate range)."""
    if s * s < 4:
        raise ComplexRoots(f"t^2 - {s}t + 1 has complex roots")
    half = Fraction(s, 2)
    if s in (2, -2):
        root = QuadSurd(half)  # double root s/2 = +-1
        return root, root
    d1, f1 = squarefree_decompose(abs(s) - 2)
    d2, f2 = squarefree_decompose(abs(s) + 2)
    g = gcd(d1, d2)
    # d1/g and d2/g are coprime squarefree, so their product is squarefree; it
    # is > 1 because s^2 - 4 is a square only for s = +-2.
    d, f = (d1 // g) * (d2 // g), f1 * f2 * g
    b = Fraction(f, 2)
    return QuadSurd._canonical(half, b, d), QuadSurd._canonical(half, -b, d)


@dataclass(frozen=True)
class CubicPolyZ:
    """Integer cubic c3*t^3 + c2*t^2 + c1*t + c0 with c3 = +-1."""

    c3: int
    c2: int
    c1: int
    c0: int

    def __post_init__(self):
        if self.c3 not in (1, -1):
            raise ValueError("leading coefficient must be +-1")

    def __call__(self, t):
        return ((self.c3 * t + self.c2) * t + self.c1) * t + self.c0

    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.c3, self.c2, self.c1, self.c0)

    def __str__(self):
        terms = []
        for c, mon in zip(self.coefficients(), ("t^3", "t^2", "t", "")):
            if c == 0:
                continue
            cs = "" if abs(c) == 1 and mon else str(abs(c))
            terms.append(("- " if c < 0 else "+ ") + (cs + mon if mon else str(abs(c))))
        s = " ".join(terms) if terms else "0"
        return s[2:] if s.startswith("+ ") else ("-" + s[2:] if s.startswith("- ") else s)
