"""Exact scalars: real quadratic surds (p + q*sqrt(d))/den on integers.

Every comparison is decided by exact sign analysis; no floating point enters any
result. A surd with d in {0, 1} collapses to a rational, so a single scalar type
flows through the whole library; `fractions.Fraction` appears only where a
rational enters (the public constructor) or leaves (the `a` and `b` views).

Every `QuadSurd` holds four ints p, q, den, d with one invariant: den > 0,
gcd(p, q, den) = 1, `d` is 0 or a squarefree integer > 1, and q == 0 exactly
when d == 0. The radicand is made squarefree only where a field is entered: the
public constructor `QuadSurd(a, b, d)` runs `squarefree_decompose` on an
untrusted `d`, and `solve_unit_quadratic` decomposes the two factors of s^2 - 4.
Arithmetic inside a field (`+ - * /`, `inverse`, `conjugate`, `**`) keeps the
already canonical `d`, runs on the integers and builds its result with the one
trusted constructor `_from_ints`, one gcd and a sign fix, which never
decomposes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt, lcm

from .errors import ComplexRoots, IncompatibleFields, RadicandTooLarge, ValidationError

# Largest trial divisor: exact for every radicand below 2**60.
TRIAL_DIVISION_LIMIT = 1 << 20


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s * f**2 with s squarefree; returns (s, f). n < 0 raises ValidationError.

    Trial division runs only while p**3 <= m, the cofactor left after removing
    every prime below p, so it costs O(n**(1/3)) steps. The m left then has at
    most two prime factors, all >= p: it is 1, q, q*r or q**2, and a single
    `isqrt` tells the square apart. No floating point is used. When the next
    divisor would pass TRIAL_DIVISION_LIMIT, a cofactor that is a perfect
    square r**2 still gives f*r; any other raises RadicandTooLarge."""
    if n < 0:
        raise ValidationError("negative radicand")
    if n in (0, 1):
        return n, 1
    s, f, m = 1, 1, n
    p = 2
    while p * p * p <= m:
        if p > TRIAL_DIVISION_LIMIT:
            r = isqrt(m)
            if r * r == m:
                return s, f * r
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


def _pair_sign(p: int, q: int, d: int) -> int:
    """Sign of p + q√d for integers p, q and a non-square d > 1 (any d if
    q = 0); squaring with sign tracking decides the opposite-sign case."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > q * q * d else sq


def _ratio_str(n: int, den: int) -> str:
    """str(Fraction(n, den)) for den > 0, read off the ints."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _from_ints(p: int, q: int, den: int, d: int) -> "QuadSurd":
    """The trusted constructor: (p + q√d)/den for integers with den != 0 and d
    0 or an already squarefree integer > 1 (a field's radicand). Divides out
    gcd(p, q, den), makes den positive and sets d = 0 when q = 0; it never
    decomposes."""
    g = gcd(p, q, den)
    if den < 0:
        g = -g
    obj = object.__new__(QuadSurd)
    obj.p, obj.q, obj.den, obj.d = p // g, q // g, den // g, (d if q else 0)
    return obj


@total_ordering
class QuadSurd:
    """(p + q*sqrt(d))/den with integers p, q, den and d a squarefree
    nonnegative integer; `a` = p/den and `b` = q/den as Fractions.

    Canonical form: den > 0, gcd(p, q, den) = 1, square factors of d are pulled
    into q, and d <= 1 collapses to a rational (q = 0, d = 0). Instances are
    immutable by convention. The public constructor takes a, b as ints or
    Fractions and an int d >= 0, and raises ValidationError for anything else;
    `_from_ints` is the trusted one.
    """

    __slots__ = ("p", "q", "den", "d")

    def __init__(self, a=0, b=0, d: int = 0):
        if type(d) is not int or any(isinstance(x, bool) or not isinstance(x, (int, Fraction))
                                     for x in (a, b)):
            raise ValidationError(f"surd parts must be ints or Fractions and the radicand "
                                  f"an int: {a!r}, {b!r}, {d!r}")
        a, b = Fraction(a), Fraction(b)
        if d < 0:
            raise ValidationError("negative field discriminant")
        if b and d > 1:
            d, f = squarefree_decompose(d)
            b *= f
        if not b or d <= 1:  # sqrt(0) = 0, sqrt(1) = 1
            a, b, d = a + b * d, _ZERO, 0
        den = lcm(a.denominator, b.denominator)
        self.p, self.q = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        self.den, self.d = den, d

    a = property(lambda self: Fraction(self.p, self.den), doc="The rational part, a Fraction.")
    b = property(lambda self: Fraction(self.q, self.den), doc="The √d coefficient, a Fraction.")

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "QuadSurd | None":
        if isinstance(x, QuadSurd):
            return x
        if isinstance(x, (int, Fraction)):
            return _from_ints(x.numerator, 0, x.denominator, 0)
        return None

    def _parts(self, x) -> "tuple[int, int, int, int] | None":
        """(p, q, den) of an int, Fraction or surd x and the radicand it shares
        with self, or None for any other type."""
        if isinstance(x, QuadSurd):
            if x.d and self.d and x.d != self.d:
                raise IncompatibleFields(f"sqrt({self.d}) vs sqrt({x.d})")
            return x.p, x.q, x.den, self.d or x.d
        if isinstance(x, (int, Fraction)):
            return x.numerator, 0, x.denominator, self.d
        return None

    # -- predicates ---------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the integer pair (p, q), den being positive."""
        return _pair_sign(self.p, self.q, self.d)

    def norm(self) -> "QuadSurd":
        """Field norm a^2 - b^2*d, a rational surd."""
        return _from_ints(self.p * self.p - self.q * self.q * self.d, 0, self.den * self.den, 0)

    def conjugate(self) -> "QuadSurd":
        return _from_ints(self.p, -self.q, self.den, self.d)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, n, d = o
        return _from_ints(self.p * n + p * self.den, self.q * n + q * self.den, self.den * n, d)

    __radd__ = __add__

    def __neg__(self):
        return _from_ints(-self.p, -self.q, self.den, self.d)

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, n, d = o
        return _from_ints(self.p * n - p * self.den, self.q * n - q * self.den, self.den * n, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, n, d = o
        return _from_ints(self.p * p + self.q * q * d, self.p * q + self.q * p, self.den * n, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadSurd":
        n = self.p * self.p - self.q * self.q * self.d
        if n == 0:
            raise ZeroDivisionError("surd has zero norm")
        return _from_ints(self.p * self.den, -self.q * self.den, n, self.d)

    def __truediv__(self, other):  # n(p + q√d)(r - s√d) / den(r^2 - s^2 d)
        o = self._parts(other)
        if o is None:
            return NotImplemented
        r, s, n, d = o
        norm = r * r - s * s * d
        if norm == 0:
            raise ZeroDivisionError("surd has zero norm")
        return _from_ints((self.p * r - self.q * s * d) * n, (self.q * r - self.p * s) * n,
                          self.den * norm, d)

    def __rtruediv__(self, other):
        if self._parts(other) is None:
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = _ONE
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadSurd):
            return (self.p, self.q, self.den, self.d) == (other.p, other.q, other.den, other.d)
        if isinstance(other, (int, Fraction)):
            return not self.q and self.p == other.numerator and self.den == other.denominator
        return NotImplemented

    def __lt__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        p, q, n, d = o
        return _pair_sign(self.p * n - p * self.den, self.q * n - q * self.den, d) < 0

    def __hash__(self):  # a rational surd hashes like the equal int or Fraction
        return hash((self.p, self.q, self.den, self.d)) if self.q else hash(self.a)

    def __bool__(self):
        return bool(self.p or self.q)

    # -- display ----------------------------------------------------------

    def __repr__(self):
        return f"QuadSurd({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        if self.d == 0:
            return _ratio_str(self.p, self.den)
        q = abs(self.q)
        tail = f"{'' if q == self.den else _ratio_str(q, self.den)}√{self.d}"
        if self.p == 0:
            return tail if self.q > 0 else f"-{tail}"
        return f"{_ratio_str(self.p, self.den)} {'+' if self.q > 0 else '-'} {tail}"


_ZERO, _ONE = Fraction(0), _from_ints(1, 0, 1, 0)


def solve_unit_quadratic(s: int) -> tuple[QuadSurd, QuadSurd]:
    """The two real roots (alpha, 1/alpha) of t^2 - s*t + 1, alpha >= 1/alpha.

    The discriminant s^2 - 4 = (|s| - 2)(|s| + 2) is made squarefree factor by
    factor, each about the size of |s|, so the field is entered with two
    decompositions of cost O(|s|**(1/3)). Raises ComplexRoots when s^2 < 4 (the
    finite-order candidate range)."""
    if s * s < 4:
        raise ComplexRoots(f"t^2 - {s}t + 1 has complex roots")
    if s in (2, -2):
        root = _from_ints(s, 0, 2, 0)  # double root s/2 = +-1
        return root, root
    d1, f1 = squarefree_decompose(abs(s) - 2)
    d2, f2 = squarefree_decompose(abs(s) + 2)
    g = gcd(d1, d2)
    # d1/g and d2/g are coprime squarefree, so their product is squarefree; it
    # is > 1 because s^2 - 4 is a square only for s = +-2.
    d, f = (d1 // g) * (d2 // g), f1 * f2 * g
    return _from_ints(s, f, 2, d), _from_ints(s, -f, 2, d)

