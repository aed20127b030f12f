import random
from fractions import Fraction
from math import isqrt, prod

import mpmath
import pytest
from hypothesis import given, strategies as st

from cy3.core_arith import (
    TRIAL_DIVISION_LIMIT,
    QuadSurd,
    solve_unit_quadratic,
    squarefree_decompose,
)
from cy3.errors import ComplexRoots, IncompatibleFields, RadicandTooLarge, ValidationError


def test_squarefree_decompose():
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(9) == (1, 3)
    assert squarefree_decompose(5) == (5, 1)
    assert squarefree_decompose(0) == (0, 1)
    assert squarefree_decompose(360) == (10, 6)


def _brute_squarefree(n):
    """Reference split: the largest f with f^2 | n, found by trying every f."""
    f = max(k for k in range(1, isqrt(n) + 1) if n % (k * k) == 0)
    return n // (f * f), f


def _is_squarefree(n):
    return n >= 1 and all(n % (p * p) for p in range(2, isqrt(n) + 1))


@given(st.integers(1, 10**8 - 1))
def test_squarefree_decompose_matches_brute_force(n):
    s, f = squarefree_decompose(n)
    assert s * f * f == n
    assert _is_squarefree(s)
    assert (s, f) == _brute_squarefree(n)


class TestSquarefreeCubeRootBoundary:
    """Trial division stops once p^3 exceeds the cofactor; these cases leave
    1, q, q*r or q^2 behind at exactly that point."""

    # q, r, t are primes just above the cube roots of the products below.
    Q, R, T = 101, 103, 107
    BIG, BIG2 = 1000003, 1000033

    @pytest.mark.parametrize("n, expected", [
        (Q * Q, (1, Q)),
        (Q * R, (Q * R, 1)),
        (Q**3, (Q, Q)),
        (Q * R * T, (Q * R * T, 1)),
        (Q * Q * R, (R, Q)),
        (R * R * Q, (Q, R)),
        (Q**4, (1, Q * Q)),
        (Q**5, (Q, Q * Q)),
        (BIG * BIG, (1, BIG)),
        (BIG * BIG2, (BIG * BIG2, 1)),
        (BIG**3, (BIG, BIG)),
        (3 * BIG * BIG, (3, BIG)),
        (4 * BIG, (BIG, 2)),
        (2 * 3 * BIG2 * BIG2, (6, BIG2)),
    ])
    def test_pinned(self, n, expected):
        assert squarefree_decompose(n) == expected

    @pytest.mark.parametrize("k", range(0, 41))
    def test_powers_of_two(self, k):
        assert squarefree_decompose(2**k) == (2 ** (k % 2), 2 ** (k // 2))

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            squarefree_decompose(-4)


class TestTrialDivisionLimit:
    """Trial division stops at TRIAL_DIVISION_LIMIT = 2^20 with a named error;
    every radicand below 2^60 is still decomposed exactly."""

    # The three largest primes below 2^20 and the least prime above it.
    BELOW = (1048559, 1048571, 1048573)
    ABOVE = 1048583

    def test_limit(self):
        assert TRIAL_DIVISION_LIMIT == 1 << 20

    def test_exact_just_below_two_to_the_sixty(self):
        q, r, t = self.BELOW
        assert q * r * t < 2**60
        assert squarefree_decompose(q * r * t) == (q * r * t, 1)
        assert squarefree_decompose(q * q * t) == (t, q)

    def test_cube_of_a_prime_past_the_limit_raises(self):
        with pytest.raises(RadicandTooLarge, match="61-bit radicand"):
            squarefree_decompose(self.ABOVE**3)

    def test_square_cofactor_past_the_limit_is_accepted(self):
        """The cofactor (q1*q2)^2 left at the limit has no divisor below it,
        but as a perfect square it needs none."""
        q1, q2 = self.ABOVE, 1048589
        assert squarefree_decompose((q1 * q2) ** 2 * 7) == (7, q1 * q2)


@pytest.mark.parametrize("x", [QuadSurd(Fraction(3, 2), Fraction(1, 2), 5),
                               QuadSurd(Fraction(-1, 6), Fraction(-4, 3), 94),
                               QuadSurd(0, 1, 2), QuadSurd(0, Fraction(-2, 7), 3)])
def test_str_of_a_surd_builds_no_fraction(x, fraction_builds):
    text, built = fraction_builds(str, x)
    assert text == str(x)
    assert built == 0


class TestNormalize:
    def test_square_factor_pulled_into_b(self):
        q = QuadSurd(0, 1, 8)
        assert (q.a, q.b, q.d) == (0, 2, 2)

    def test_zero_b_kills_surd(self):
        q = QuadSurd(3, 0, 5)
        assert (q.a, q.b, q.d) == (3, 0, 0)

    def test_perfect_square_radicand(self):
        q = QuadSurd(Fraction(1, 2), Fraction(1, 2), 9)
        assert (q.a, q.b, q.d) == (2, 0, 0)

    def test_idempotent(self):
        q = QuadSurd(Fraction(1, 3), Fraction(-5, 7), 12)
        again = QuadSurd(q.a, q.b, q.d)
        assert q == again

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValidationError):
            QuadSurd(1, 1, -5)

    @pytest.mark.parametrize("a, b, d", [
        (0.1, 0, 0), ("1/3", 0, 0), (True, 0, 0), (0, 1.5, 5), (0, 1, 5.0), (0, 1, Fraction(5)),
    ])
    def test_inexact_parts_rejected(self, a, b, d):
        """A float, a str or a bool part, or a radicand that is not an int, is
        bad input: no float is turned into its binary fraction."""
        with pytest.raises(ValidationError):
            QuadSurd(a, b, d)


class TestUnitQuadratic:
    def test_double_root(self):
        assert solve_unit_quadratic(2) == (QuadSurd(1), QuadSurd(1))

    def test_golden(self):
        alpha, beta = solve_unit_quadratic(3)
        assert alpha == QuadSurd(Fraction(3, 2), Fraction(1, 2), 5)
        assert alpha + beta == 3
        assert alpha * beta == 1

    def test_large_trace(self):
        alpha, beta = solve_unit_quadratic(18)
        assert alpha == QuadSurd(9, 4, 5)
        assert beta == QuadSurd(9, -4, 5)

    @pytest.mark.parametrize("s", [-1, 0, 1])
    def test_complex_roots(self, s):
        with pytest.raises(ComplexRoots):
            solve_unit_quadratic(s)

    @pytest.mark.parametrize("s", [3, -3, 7, -18, 100])
    def test_root_identities(self, s):
        alpha, beta = solve_unit_quadratic(s)
        assert alpha * beta == 1
        assert alpha + beta == s
        assert alpha >= beta


def _is_prime(n):
    return n > 1 and all(n % k for k in range(2, isqrt(n) + 1))


# s = 10^12 + 39: s - 2 and s + 2 are products of eight distinct primes, so
# s^2 - 4 itself is squarefree.
BIG_S = 10**12 + 39
BIG_S_FACTORS = ((53, 59, 349, 916319), (3, 7, 179, 266028199))


class TestUnitQuadraticSplit:
    """solve_unit_quadratic makes s^2 - 4 squarefree from its two factors
    |s| - 2 and |s| + 2; its roots must equal what the public constructor
    makes of the whole discriminant."""

    @pytest.mark.parametrize("s", [2, -2, 4, -4, 6, 7, 10, 18, -3, -18, 1442, -1442])
    def test_matches_public_constructor(self, s):
        alpha, beta = solve_unit_quadratic(s)
        ref_alpha = QuadSurd(Fraction(s, 2), Fraction(1, 2), s * s - 4)
        ref_beta = QuadSurd(Fraction(s, 2), Fraction(-1, 2), s * s - 4)
        assert (alpha.a, alpha.b, alpha.d) == (ref_alpha.a, ref_alpha.b, ref_alpha.d)
        assert (beta.a, beta.b, beta.d) == (ref_beta.a, ref_beta.b, ref_beta.d)
        _assert_canonical(alpha)
        _assert_canonical(beta)

    @pytest.mark.parametrize("s", [BIG_S, -BIG_S])
    def test_trace_1e12(self, s):
        primes = BIG_S_FACTORS[0] + BIG_S_FACTORS[1]
        assert (prod(BIG_S_FACTORS[0]), prod(BIG_S_FACTORS[1])) == (BIG_S - 2, BIG_S + 2)
        assert len(set(primes)) == 8 and all(_is_prime(p) for p in primes)
        alpha, beta = solve_unit_quadratic(s)
        assert (alpha.a, alpha.b, alpha.d) == (Fraction(s, 2), Fraction(1, 2), s * s - 4)
        assert beta == alpha.conjugate()
        assert alpha * beta == 1
        assert alpha + beta == s
        assert alpha > beta


class TestCompare:
    def test_golden_vs_one(self):
        alpha, beta = solve_unit_quadratic(3)
        assert alpha > 1
        assert beta < 1

    def test_equal(self):
        assert (QuadSurd(2) - QuadSurd(2)).sign() == 0

    def test_incompatible_fields(self):
        with pytest.raises(IncompatibleFields):
            (QuadSurd(0, 1, 2) - QuadSurd(0, 1, 3)).sign()

    def test_rational_mixes_with_any_field(self):
        assert QuadSurd(0, 1, 2) > QuadSurd(1)
        assert QuadSurd(0, 1, 3) > 1

    @pytest.mark.parametrize("a, b, d, sign", [
        (Fraction(1, 3), Fraction(-1, 7), 5, 1),  # 7 - 3√5 after clearing: 49 > 45
        (Fraction(1, 3), Fraction(-1, 6), 5, -1),  # 6 - 3√5: 36 < 45
        (Fraction(-9, 4), Fraction(3, 4), 11, 1),  # 81 < 99
        (Fraction(-5, 2), Fraction(3, 4), 11, -1),  # 100 > 99
    ])
    def test_sign_clears_unequal_denominators(self, a, b, d, sign):
        assert QuadSurd(a, b, d).sign() == sign
        assert (-QuadSurd(a, b, d)).sign() == -sign


def _random_surd(rng, d):
    a = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
    b = Fraction(rng.randint(-50, 50), rng.randint(1, 12))
    return QuadSurd(a, b, d)


def test_compare_against_high_precision_oracle():
    """1000 random surds ordered identically by exact signs and by 60-digit floats."""
    rng = random.Random(20240817)
    with mpmath.workdps(60):
        for _ in range(1000):
            d = rng.choice([2, 3, 5, 7, 10, 13])
            x = _random_surd(rng, d)
            y = _random_surd(rng, d)
            approx = lambda q: mpmath.mpf(q.a.numerator) / q.a.denominator + (
                mpmath.mpf(q.b.numerator) / q.b.denominator
            ) * mpmath.sqrt(q.d)
            diff = approx(x) - approx(y)
            expected = 0 if abs(diff) < mpmath.mpf("1e-40") else (1 if diff > 0 else -1)
            assert (x - y).sign() == expected


small_fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)
radicands = st.sampled_from([0, 2, 3, 5, 6, 7, 10])


@given(small_fractions, small_fractions, radicands)
def test_inverse_roundtrip(a, b, d):
    q = QuadSurd(a, b, d)
    if not q:
        return
    assert q * q.inverse() == 1


@given(small_fractions, small_fractions, small_fractions, small_fractions, radicands)
def test_field_arithmetic_closure(a1, b1, a2, b2, d):
    x = QuadSurd(a1, b1, d)
    y = QuadSurd(a2, b2, d)
    assert (x + y) - y == x
    assert x * y == y * x
    if y:
        assert (x / y) * y == x


@given(small_fractions, small_fractions, radicands, st.integers(-6, 6))
def test_powers_match_repeated_multiplication(a, b, d, n):
    q = QuadSurd(a, b, d)
    if not q and n < 0:
        return
    expected = QuadSurd(1)
    base = q if n >= 0 else q.inverse()
    for _ in range(abs(n)):
        expected = expected * base
    assert q**n == expected


def _assert_canonical(r):
    """The QuadSurd invariant, and agreement with the public constructor."""
    assert type(r.a) is Fraction and type(r.b) is Fraction
    assert (r.b == 0) == (r.d == 0)
    assert r.d == 0 or (r.d > 1 and _is_squarefree(r.d))
    c = QuadSurd(r.a, r.b, r.d)
    assert (r.a, r.b, r.d) == (c.a, c.b, c.d)


@given(small_fractions, small_fractions, small_fractions, small_fractions,
       st.integers(0, 10**6), st.integers(-4, 4), st.integers(-5, 5))
def test_field_results_are_canonical(a1, b1, a2, b2, d, n, k):
    """Every result of arithmetic inside one field is already canonical: it
    equals, field by field, what the public constructor makes of it."""
    x = QuadSurd(a1, b1, d)
    y = QuadSurd(a2, b2, d)
    results = [x + y, x - y, x * y, -x, x.conjugate(), x + k, k - x, k * x]
    if y:
        results += [x / y, y.inverse(), k / y]
    if x or n >= 0:
        results.append(x**n)
    for r in results:
        _assert_canonical(r)

