"""Exact integer and quadratic-surd arithmetic owned by the benchmark.

Nothing here imports cy3: the problem generators and the output checker use
these helpers so that a defect in cy3's own arithmetic cannot hide itself.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations_with_replacement, product

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# Monomial key -> sorted 0-based index triple, the order of cy3's problem files.
MONOMIALS = {
    "x3": (0, 0, 0), "x2y": (0, 0, 1), "x2z": (0, 0, 2), "xy2": (0, 1, 1),
    "xyz": (0, 1, 2), "xz2": (0, 2, 2), "y3": (1, 1, 1), "y2z": (1, 1, 2),
    "yz2": (1, 2, 2), "z3": (2, 2, 2),
}
KEYS = tuple(sorted(MONOMIALS.values()))
MONOMIAL_OF = {v: k for k, v in MONOMIALS.items()}


def multinomial(key) -> int:
    """Number of distinct orderings of the index triple."""
    return {1: 1, 2: 3, 3: 6}[len(set(key))]


# -- integer 3x3 matrices ------------------------------------------------------


def mat(rows) -> tuple:
    return tuple(tuple(int(x) for x in r) for r in rows)


def mat_mul(a, b) -> tuple:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_vec(a, v) -> tuple:
    return tuple(sum(a[i][j] * v[j] for j in range(3)) for i in range(3))


def det3(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def inverse_unimodular(m) -> tuple:
    (a, b, c), (d, e, f), (g, h, i) = m
    det = det3(m)
    if det not in (1, -1):
        raise ValueError(f"determinant {det} is not a unit")
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return tuple(tuple(x * det for x in row) for row in adj)


def mat_pow(m, n: int) -> tuple:
    if n < 0:
        return mat_pow(inverse_unimodular(m), -n)
    out, base = IDENTITY, m
    while n:
        if n & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        n >>= 1
    return out


def order(m, cap: int = 12) -> int | None:
    """Smallest n <= cap with m^n = I, found by repeated multiplication."""
    p = m
    for n in range(1, cap + 1):
        if p == IDENTITY:
            return n
        p = mat_mul(p, m)
    return None


def rank3(m) -> int:
    """Rank of an integer 3x3 matrix by fraction-free elimination."""
    rows = [list(r) for r in m]
    rank = 0
    for col in range(3):
        pivot = next((r for r in range(rank, 3) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(3):
            if r != rank and rows[r][col]:
                f, g = rows[r][col], rows[rank][col]
                rows[r] = [x * g - y * f for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# -- cubic and linear forms ------------------------------------------------------


def six_t(cubic: dict) -> dict:
    """Integer entries of 6*T from monomial coefficients (C = T(v, v, v))."""
    return {key: 6 * cubic.get(MONOMIAL_OF[key], 0) // multinomial(key) for key in KEYS}


def pullback6(t6: dict, p) -> dict:
    """Entries of 6*T(P a, P b, P c), all integer."""
    full = {(i, j, k): t6[tuple(sorted((i, j, k)))]
            for i, j, k in product(range(3), repeat=3)}
    out = {}
    for i, j, k in combinations_with_replacement(range(3), 3):
        out[(i, j, k)] = sum(
            t * p[a][i] * p[b][j] * p[c][k]
            for (a, b, c), t in full.items() if t
        )
    return out


def cubic_from_six_t(t6: dict) -> dict:
    """Monomial coefficients (nonzero only) of the cubic with 6*T = t6."""
    out = {}
    for key, t in t6.items():
        coeff, rem = divmod(t * multinomial(key), 6)
        if rem:
            raise ValueError("cubic coefficients are not integral")
        if coeff:
            out[MONOMIAL_OF[key]] = coeff
    return out


def covector_compose(l, g) -> tuple:
    """The covector L∘g."""
    return tuple(sum(l[p] * g[p][i] for p in range(3)) for i in range(3))


def preserves(t6: dict, l, g) -> bool:
    return covector_compose(l, g) == tuple(l) and pullback6(t6, g) == t6


def conjugate(cubic: dict, l, matrices, p):
    """The problem in the frame P: T -> T∘P, L -> L∘P, g -> P^-1 g P."""
    pinv = inverse_unimodular(p)
    return (
        cubic_from_six_t(pullback6(six_t(cubic), p)),
        covector_compose(l, p),
        [mat_mul(mat_mul(pinv, g), p) for g in matrices],
    )


# -- real quadratic surds ----------------------------------------------------------


class Surd:
    """a + b*sqrt(d) with a, b rational and d >= 0 not necessarily squarefree.

    Two surds of one computation share d; values parsed from cy3 reports are
    moved onto that d with `on`, which needs only an integer square root."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d: int = 0):
        self.a, self.b, self.d = Fraction(a), Fraction(b) if d else Fraction(0), int(d)

    def on(self, d: int) -> "Surd":
        if self.b == 0 or self.d == d:
            return Surd(self.a, self.b, d)
        r2, rem = divmod(d, self.d)
        r = math.isqrt(r2)
        if rem or r * r != r2:
            raise ValueError(f"sqrt({self.d}) is not in Q(sqrt({d}))")
        return Surd(self.a, self.b / r, d)

    def _pair(self, other):
        other = other if isinstance(other, Surd) else Surd(other)
        d = max(self.d, other.d)
        return self.on(d), other.on(d), d

    def __add__(self, other):
        x, y, d = self._pair(other)
        return Surd(x.a + y.a, x.b + y.b, d)

    def __sub__(self, other):
        x, y, d = self._pair(other)
        return Surd(x.a - y.a, x.b - y.b, d)

    def __mul__(self, other):
        x, y, d = self._pair(other)
        return Surd(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, d)

    def inverse(self) -> "Surd":
        n = self.a * self.a - self.b * self.b * self.d
        return Surd(self.a / n, -self.b / n, self.d)

    def __pow__(self, n: int) -> "Surd":
        base, out = (self if n >= 0 else self.inverse()), Surd(1, 0, self.d)
        n = abs(n)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sign(self) -> int:
        sa = (self.a > 0) - (self.a < 0)
        sb = (self.b > 0) - (self.b < 0)
        if sb == 0 or self.d == 0:
            return sa
        if sa == 0 or sa == sb:
            return sa or sb
        lhs, rhs = self.a * self.a, self.b * self.b * self.d
        return 0 if lhs == rhs else (sa if lhs > rhs else sb)

    def __eq__(self, other):
        try:
            return (self - other).sign() == 0
        except ValueError:  # surds of two different fields
            return False

    __hash__ = None

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, {self.d})"


_SURD = re.compile(
    r"^(?:(?P<a>-?\d+(?:/\d+)?) (?P<op>[+-]) )?(?P<neg>-)?(?P<b>\d+(?:/\d+)?)?√(?P<d>\d+)$"
)


def parse_scalar(text: str) -> Surd:
    """Read a scalar as cy3 renders it: '5/6', '-√5', '3/2 + 1/2√5'."""
    if "√" not in text:
        return Surd(Fraction(text))
    m = _SURD.match(text)
    if m is None:
        raise ValueError(f"unreadable scalar {text!r}")
    a = Fraction(m["a"]) if m["a"] else Fraction(0)
    b = Fraction(m["b"]) if m["b"] else Fraction(1)
    if m["op"] == "-" or m["neg"]:
        b = -b
    return Surd(a, b, int(m["d"]))


def trilinear(t6: dict, u, v, w) -> Surd:
    """6*T(u, v, w) for surd or integer vectors."""
    total = Surd(0)
    for i, j, k in product(range(3), repeat=3):
        t = t6[tuple(sorted((i, j, k)))]
        if t:
            total = total + Surd(t) * _s(u[i]) * _s(v[j]) * _s(w[k])
    return total


def _s(x) -> Surd:
    return x if isinstance(x, Surd) else Surd(x)
