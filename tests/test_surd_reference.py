"""The integer QuadSurd (p + q√d)/den against a reference surd a + b√d kept as
two Fractions, the representation it replaced: every operation, comparison and
rendering must agree, and every result must satisfy the integer invariant."""

from fractions import Fraction
from functools import total_ordering
from math import gcd

from hypothesis import given, strategies as st

from cy3.core_arith import QuadSurd, _from_ints, _pair_sign


@total_ordering
class FractionSurd:
    """a + b√d with Fractions a, b and a squarefree d, b = 0 exactly when d = 0."""

    def __init__(self, a=0, b=0, d=0):
        self.a, self.b = Fraction(a), Fraction(b)
        self.d = d if self.b else 0

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, FractionSurd) else FractionSurd(x)

    def sign(self):
        a, b = self.a, self.b
        return _pair_sign(a.numerator * b.denominator, b.numerator * a.denominator, self.d)

    def inverse(self):
        n = self.a * self.a - self.b * self.b * self.d
        if n == 0:
            raise ZeroDivisionError
        return FractionSurd(self.a / n, -self.b / n, self.d)

    def __add__(self, other):
        other = self._coerce(other)
        return FractionSurd(self.a + other.a, self.b + other.b, self.d or other.d)

    __radd__ = __add__

    def __neg__(self):
        return FractionSurd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        d = self.d or other.d
        return FractionSurd(self.a * other.a + self.b * other.b * d,
                            self.a * other.b + self.b * other.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n):
        out = FractionSurd(1)
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __repr__(self):
        return f"QuadSurd({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        if self.d == 0:
            return str(self.a)
        bs = "" if abs(self.b) == 1 else str(abs(self.b))
        tail = f"{bs}√{self.d}"
        if self.a == 0:
            return tail if self.b > 0 else f"-{tail}"
        return f"{self.a} {'+' if self.b > 0 else '-'} {tail}"


def assert_same(x, ref):
    """x is the reference value in canonical integer form, rendered alike."""
    assert isinstance(x, QuadSurd)
    assert x.den > 0 and gcd(x.p, x.q, x.den) == 1 and (x.q == 0) == (x.d == 0)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert (x.a, x.b, x.d) == (ref.a, ref.b, ref.d)
    assert (str(x), repr(x)) == (str(ref), repr(ref))
    if not x.d:
        assert hash(x) == hash(ref.a)


ints = st.integers(-10**6, 10**6)
dens = st.integers(-300, 300).filter(bool)


@st.composite
def surd_pairs(draw):
    """Two (QuadSurd, FractionSurd) pairs over one field d, built from random
    integers p, q, den by the trusted constructor."""
    d = draw(st.sampled_from([0, 2, 3, 5, 94]))
    out = []
    for _ in range(2):
        p, q, den = draw(ints), draw(ints) if d else 0, draw(dens)
        x = _from_ints(p, q, den, d)
        ref = FractionSurd(Fraction(p, den), Fraction(q, den), d)
        assert x == QuadSurd(Fraction(p, den), Fraction(q, den), d)
        out.append((x, ref))
    return out


@given(surd_pairs(), st.one_of(ints, st.builds(Fraction, ints, dens)), st.integers(-5, 5))
def test_integer_surd_matches_the_fraction_reference(pairs, k, n):
    (x, rx), (y, ry) = pairs
    assert_same(x, rx)
    for value, ref in ((x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (-x, -rx),
                       (x + k, rx + k), (k - x, k - rx), (x * k, rx * k),
                       (x.conjugate(), FractionSurd(rx.a, -rx.b, rx.d))):
        assert_same(value, ref)
    if y:
        assert_same(x / y, rx / ry)
        assert_same(y.inverse(), ry.inverse())
        assert_same(k / y, k / ry)
    if k:
        assert_same(x / k, rx / k)
    if x or n >= 0:
        assert_same(x**n, rx**n)
    assert x.sign() == rx.sign()
    assert (x < y, x == y, x > y) == (rx < ry, rx == ry, rx > ry)
    assert (x < k, x == k, x > k) == (rx < k, rx == k, rx > k)
    assert (hash(x) == hash(y)) >= (x == y)


@given(ints, st.builds(Fraction, ints, dens))
def test_rational_surds_hash_like_ints_and_fractions(k, r):
    assert hash(QuadSurd(k)) == hash(k) and QuadSurd(k) == k
    assert hash(QuadSurd(r)) == hash(r) and QuadSurd(r) == r
    assert hash(QuadSurd(Fraction(1, 3))) == hash(Fraction(1, 3))
    assert {QuadSurd(k): 0}.keys() == {k: 0}.keys()
