"""Classify a single unimodular lattice map: finite order, hyperbolic (a real
eigenvalue alpha > 1 in a real quadratic field), or unipotent with full or
deficient Jordan block. All eigen-data is computed exactly on integers. The
eigenline v of alpha = (s + f√d)/2 is a cross product of two rows of 2g - (s + f√d)·id,
written out and normalized on integer pairs; its Galois conjugate is the eigenline u
of 1/alpha (g is integral). Both stay `PairVector`s, checked by one eigen-equation
of u's pair, on the ints also v's; w is a primitive cross product of two rows of g - id.
"""

from __future__ import annotations

from typing import NamedTuple

from .core_arith import QuadSurd, solve_unit_quadratic
from .errors import DoesNotPreserveL, PostCheckFailed
from .lattice_forms import (
    _IDENTITY_ROWS,
    LatticeMap,
    LinearForm,
    PairVector,
    _form_pullback,
    _matvec,
    _normalized,
    cross,
    primitive_part,
)

# The conjugate eigenvalue pair of a finite-order det-1 map, keyed by
# s = lambda + conj(lambda): its tag and its order as roots of unity.
FINITE_PAIRS = {-2: ("-1", 2), -1: ("(-1±i√3)/2", 3), 0: ("±i", 4), 1: ("(1±i√3)/2", 6)}


class Identity(NamedTuple):
    pass


class FiniteOrder(NamedTuple):
    n: int
    lambda_tag: str


class Hyperbolic(NamedTuple):
    s: int  # trace of the quadratic factor t^2 - s*t + 1
    alpha: QuadSurd  # the root > 1
    u: PairVector  # eigenvector for 1/alpha, σ(v): v's ints with q negated
    v: PairVector  # eigenvector for alpha, first nonzero coordinate 1
    w: tuple[int, int, int]  # primitive integer eigenvector for 1


class UnipotentFull(NamedTuple):
    w: tuple[int, int, int]
    w1: tuple[int, int, int]
    w2: tuple[int, int, int]


class UnipotentDeficient(NamedTuple):
    rank_of_g_minus_id: int = 1


class OutOfTheory(NamedTuple):
    reason: str


ElementClass = (
    Identity | FiniteOrder | Hyperbolic | UnipotentFull | UnipotentDeficient | OutOfTheory
)

ORDER_SEARCH_BOUND = 12  # covers det -1 elements; the det-1 bound is 6


def _has_eigenvalue_1(g: LatticeMap) -> bool:
    """det(g - id) = 0, written out on the entries."""
    (a, b, c), (d, e, f), (h, i, j) = g.rows
    a, e, j = a - 1, e - 1, j - 1
    return a * (e * j - f * i) - b * (d * j - f * h) + c * (d * i - e * h) == 0


def finite_order(g: LatticeMap) -> int | None:
    """Smallest n <= 12 with g^n = id, or None."""
    p = g
    for n in range(1, ORDER_SEARCH_BOUND + 1):
        if p.is_identity():
            return n
        p = p @ g
    return None


def _shifted(g: LatticeMap, k: int, s: int) -> tuple:
    """The integer matrix k·g - s·id, written out on the entries."""
    (a, b, c), (d, e, f), (h, i, j) = g.rows
    return ((k * a - s, k * b, k * c), (k * d, k * e - s, k * f), (k * h, k * i, k * j - s))


def _unipotent_frame(g: LatticeMap) -> UnipotentFull | UnipotentDeficient:
    """Jordan frame (w, w1, w2) of a unipotent g other than the identity.

    w2 is the first standard basis vector with (g-id)^2 w2 != 0, w1 = (g-id)w2,
    w = (g-id)w1. If there is none, (g-id)^2 = 0 puts im(g-id) in ker(g-id), so
    rank(g-id) = 1: that deficient block cannot arise from a geometric action
    and is returned as a verdict, not raised.
    """
    n = _shifted(g, 1, 1)
    for e in _IDENTITY_ROWS:
        w1 = _matvec(n, e)
        w = _matvec(n, w1)
        if any(w):
            if any(_matvec(n, w)):
                raise PostCheckFailed("nilpotency", "(g - id)^3 e != 0")
            return UnipotentFull(w, w1, e)
    return UnipotentDeficient()


def _kernel_line(g: LatticeMap, s: int, f: int, d: int) -> tuple | None:
    """Integer vectors (p, q), p = n_i × n_j + f²d·(e_i × e_j) and q = -f·(n_i × e_j
    + e_i × n_j) on n = 2g - s·id: p + q√d is the first nonzero cross product of
    two rows of 2g - (s + f√d)·id, which spans its kernel when that is a line.
    Row 0 is nonzero (f√d is irrational), so (1, 2) never comes first; None if
    (0, 1) and (0, 2) are both 0."""
    (a, b, c), (e, h, i), (j, k, l) = _shifted(g, 2, s)
    t = f * f * d
    p, q = (b * i - c * h, c * e - a * i, a * h - b * e + t), (f * c, f * i, -f * (a + h))
    if not (any(p) or any(q)):
        p, q = (b * l - c * k, c * j - a * l - t, a * k - b * j), (-f * b, f * (a + l), -f * k)
        if not (any(p) or any(q)):
            return None
    return p, q


def _eigenvector_1(g: LatticeMap) -> tuple[int, int, int]:
    """Primitive eigenvector for 1: the first nonzero cross product of two rows of g - id."""
    n = _shifted(g, 1, 1)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        w = cross(n[i], n[j])
        if any(w):
            return primitive_part(w).vector
    raise PostCheckFailed("eigenspace for 1 is not one-dimensional")


def _eigenvector(g: LatticeMap, x: PairVector, s: int, f: int, check: str) -> PairVector:
    """x = (p + q√d)/den, after the check 2·g·x = (s + f√d)·x on the ints."""
    (p1, p2, p3), (q1, q2, q3), _, d = x
    (a1, a2, a3), (b1, b2, b3), fd = g.apply(x.p), g.apply(x.q), f * d
    if (2 * a1, 2 * a2, 2 * a3, 2 * b1, 2 * b2, 2 * b3) != (
            s * p1 + fd * q1, s * p2 + fd * q2, s * p3 + fd * q3,
            s * q1 + f * p1, s * q2 + f * p2, s * q3 + f * p3):
        raise PostCheckFailed(check)
    return x


def _real_pair_eigendata(g: LatticeMap) -> tuple[QuadSurd, PairVector, PairVector, tuple]:
    """(alpha, u, v, w) for a det-1 map with eigenvalue 1 and |s| > 2, s = trace - 1:
    alpha is the larger root of t^2 - s*t + 1 (|alpha| < 1 for s < -2), v and u = σ(v)
    the eigenlines of alpha and 1/alpha, first nonzero coordinate 1, w the fixed vector."""
    s = g.trace - 1
    alpha, beta = solve_unit_quadratic(s)
    f, d = 2 * alpha.q // alpha.den, alpha.d  # 2·alpha = s + f√d
    line = _kernel_line(g, s, f, d)
    if line is None:
        raise PostCheckFailed(f"eigenspace for ({s} + {f}√{d})/2 is not one-dimensional")
    v = _normalized(PairVector(*line, 1, d))
    # g is integral: √d -> -√d maps v onto u, and on the ints u's check is v's.
    u = _eigenvector(g, PairVector(v.p, tuple([-y for y in v.q]), v.den, d), s, -f,
                     "eigen-equation g u = u / alpha")
    w = _eigenvector_1(g)
    if g.apply(w) != w:
        raise PostCheckFailed("eigen-equation g w = w")
    p1, q1, n1, p2, q2, n2 = alpha.p, alpha.q, alpha.den, beta.p, beta.q, beta.den
    if not (beta.d == d and p1 * p2 + d * q1 * q2 == n1 * n2 and p1 * q2 + q1 * p2 == 0
            and p1 * n2 + p2 * n1 == s * n1 * n2 and q1 * n2 + q2 * n1 == 0):
        raise PostCheckFailed("alpha·beta = 1 and alpha + beta = s")
    return alpha, u, v, w


def real_pair_lines(g: LatticeMap, cls: ElementClass) -> tuple | None:
    """Eigenlines (u, v, w) of an infinite-order element with a real eigenvalue
    pair, else None. That is a Hyperbolic class, or a det-1 map with eigenvalue
    1 and a negative real pair (s < -2): out of theory as an element, since no
    eigenvalue exceeds 1, but its square is hyperbolic with the same eigenlines,
    so it certifies the same relations, factorization and scaling character."""
    if isinstance(cls, Hyperbolic):
        return cls.u, cls.v, cls.w
    if (isinstance(cls, OutOfTheory) and g.det == 1 and g.trace - 1 < -2
            and _has_eigenvalue_1(g)):
        return _real_pair_eigendata(g)[1:]
    return None


def classify(g: LatticeMap, L: LinearForm | None = None) -> ElementClass:
    """Trichotomy verdict with exact eigen-data.

    When L is given it must be preserved (L∘g = L) and nonzero, which forces the
    eigenvalue 1. With L = None the same split is computed from det(g - id) and
    the trace alone (used by the randomized oracle tests).
    """
    if L is not None:
        if L.is_zero():
            raise DoesNotPreserveL("the zero covector is not admitted")
        if _form_pullback(L, g) != L:
            raise DoesNotPreserveL(f"{g!r} does not fix {L}")

    if g.is_identity():
        return Identity()

    if g.det == -1:
        n = finite_order(g)
        if n is not None:
            return FiniteOrder(n, "real-pair")
        return OutOfTheory("determinant -1 element of infinite order")

    if not _has_eigenvalue_1(g):
        # A finite-order det-1 map always has eigenvalue 1, so this is infinite order.
        return OutOfTheory("no eigenvalue 1 (infinite order, cubic eigenvalue field)")

    s = g.trace - 1  # char poly = (t - 1)(t^2 - s*t + 1)

    if s > 2:
        return Hyperbolic(s, *_real_pair_eigendata(g))

    if s < -2:
        # Both roots of t^2 - s*t + 1 are negative reals: infinite order, but
        # no eigenvalue exceeds 1, so the element is not hyperbolic.
        return OutOfTheory(
            f"negative real eigenvalue pair (s = {s} < -2): infinite order, "
            "no eigenvalue above 1"
        )

    if s == 2:  # char poly = (t - 1)^3
        return _unipotent_frame(g)

    n = finite_order(g)
    if n is None:
        # s = -2 with a Jordan block at -1: quasi-unipotent, outside the theory.
        return OutOfTheory("infinite order with eigenvalue -1 Jordan block")
    tag, order = FINITE_PAIRS[s]
    if n != order:
        raise PostCheckFailed("order matches the eigenvalue pair", f"order {n}, pair {tag}")
    return FiniteOrder(n, tag)

