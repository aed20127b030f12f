import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GOLDEN_ALPHA, clear_frame, compose, is_finite_class
from cy3 import core_arith, element_classify
from cy3.core_arith import QuadSurd
from cy3.element_classify import (
    FiniteOrder,
    Hyperbolic,
    ORDER_SEARCH_BOUND,
    OutOfTheory,
    UnipotentDeficient,
    UnipotentFull,
    classify,
    finite_order,
)
from cy3.errors import DoesNotPreserveL, PostCheckFailed, RadicandTooLarge
from cy3.lattice_forms import LatticeMap, LinearForm, cross, primitive_part
from test_lattice_forms import random_unimodular

U_CHECK = "eigen-equation g u = u / alpha"


def _char_poly_at_1(g):
    """t^3 - tr*t^2 + m*t - det at t = 1, m the sum of the principal 2x2 minors;
    Cayley-Hamilton (g^3 - tr*g^2 + m*g - det = 0) checks the coefficients."""
    r = g.rows
    tr = g.trace
    m = sum(r[i][i] * r[j][j] - r[i][j] * r[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    det = sum(r[0][i] * (r[1][j] * r[2][k] - r[1][k] * r[2][j])
              for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    g2, g3 = g @ g, g @ g @ g
    for i in range(3):
        for j in range(3):
            assert g3.rows[i][j] - tr * g2.rows[i][j] + m * r[i][j] - det * (i == j) == 0
    return 1 - tr + m - det


def test_eigenvalue_1_matches_the_char_poly_at_1():
    """On 100 random unimodular maps, det(g - id) = 0 exactly when the
    characteristic polynomial vanishes at 1."""
    rng = random.Random(33)
    seen = set()
    for _ in range(100):
        g = random_unimodular(rng)
        has_1 = element_classify._has_eigenvalue_1(g)
        assert has_1 == (_char_poly_at_1(g) == 0)
        seen.add(has_1)
    assert seen == {True, False}


@given(st.integers(0, 2**32 - 1), st.integers(-5, 5), st.integers(-10**20, 10**20))
def test_shifted_matches_the_naive_matrix(seed, k, s):
    """k·g - s·id written out on the entries, against the entrywise formula."""
    g = random_unimodular(random.Random(seed), steps=6)
    shifted = element_classify._shifted(g, k, s)
    assert shifted == tuple(tuple(k * g.rows[i][j] - s * (i == j) for j in range(3))
                            for i in range(3))
    assert type(shifted) is tuple and all(type(row) is tuple for row in shifted)


class TestFiniteOrder:
    def test_rotation_order_4(self):
        g = LatticeMap([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        assert finite_order(g) == 4
        verdict = classify(g)
        assert verdict == FiniteOrder(4, "±i")

    def test_order_6(self):
        g = LatticeMap([[1, -1, 0], [1, 0, 0], [0, 0, 1]])
        assert classify(g) == FiniteOrder(6, "(1±i√3)/2")

    def test_order_6_builds_five_products(self, latticemap_builds):
        g = LatticeMap([[1, -1, 0], [1, 0, 0], [0, 0, 1]])
        latticemap_builds.clear()
        assert finite_order(g) == 6
        assert len(latticemap_builds) == 5

    def test_order_3(self):
        g = LatticeMap([[0, -1, 0], [1, -1, 0], [0, 0, 1]])
        assert classify(g) == FiniteOrder(3, "(-1±i√3)/2")

    def test_order_2(self):
        g = LatticeMap([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
        assert classify(g) == FiniteOrder(2, "-1")

    def test_det_minus_one_involution(self):
        g = LatticeMap([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert classify(g) == FiniteOrder(2, "real-pair")

    def test_infinite_order_is_none(self, golden_generator):
        assert finite_order(golden_generator) is None

    def test_classify_runs_finite_order_once(self, latticemap_builds):
        """The 5 products of one order search, and no second search for the tag."""
        g = LatticeMap([[1, -1, 0], [1, 0, 0], [0, 0, 1]])
        latticemap_builds.clear()
        assert classify(g) == FiniteOrder(6, "(1±i√3)/2")
        assert len(latticemap_builds) == 5

    def test_order_off_the_eigenvalue_pair_fails_the_post_check(self, monkeypatch):
        g = LatticeMap([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
        monkeypatch.setattr(element_classify, "finite_order", lambda g: 3)
        with pytest.raises(PostCheckFailed) as info:
            classify(g)
        assert info.value.check == "order matches the eigenvalue pair"


class TestHyperbolic:
    def test_golden_verdict(self, golden_generator, L_z):
        verdict = classify(golden_generator, L_z)
        assert isinstance(verdict, Hyperbolic)
        assert verdict.s == 3
        assert verdict.alpha == GOLDEN_ALPHA
        phi_minus = QuadSurd(Fraction(-1, 2), Fraction(-1, 2), 5)
        phi_plus = QuadSurd(Fraction(-1, 2), Fraction(1, 2), 5)
        assert verdict.u.surds == (QuadSurd(1), phi_minus, QuadSurd(0))
        assert verdict.v.surds == (QuadSurd(1), phi_plus, QuadSurd(0))
        assert verdict.w == (0, 0, 1)

    def test_eigen_equations(self, golden_generator, L_z):
        verdict = classify(golden_generator, L_z)
        g, alpha, u, v = golden_generator, verdict.alpha, verdict.u.surds, verdict.v.surds
        assert g.apply(v) == tuple(x * alpha for x in v)
        assert g.apply(u) == tuple(x * alpha.inverse() for x in u)
        assert g.apply(verdict.w) == verdict.w

    def test_inverse_swaps_expansion_lines(self, golden_generator, L_z):
        fwd = classify(golden_generator, L_z)
        bwd = classify(golden_generator.inverse(), L_z)
        assert bwd.alpha == fwd.alpha  # same alpha > 1
        assert bwd.u == fwd.v and bwd.v == fwd.u

    def test_power_scales_trace(self, golden_generator, L_z):
        sq = classify(golden_generator**2, L_z)
        assert isinstance(sq, Hyperbolic)
        assert sq.alpha == GOLDEN_ALPHA**2
        assert sq.s == 7


class TestUnipotent:
    def test_frame(self, unipotent_generator):
        w, w1, w2 = classify(unipotent_generator)
        assert w2 == (1, 0, 0) or w2 == (0, 0, 1)
        # for this generator only e3 survives two applications of (g - id)
        assert (w, w1, w2) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_classify_full(self, unipotent_generator, L_z):
        verdict = classify(unipotent_generator, L_z)
        assert verdict == UnipotentFull(w=(1, 0, 0), w1=(0, 1, 0), w2=(0, 0, 1))

    def test_deficient(self, L_z):
        g = LatticeMap([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        assert classify(g, L_z) == UnipotentDeficient(rank_of_g_minus_id=1)

    def test_frame_conjugation_covariance(self, unipotent_generator):
        rng = random.Random(88)
        for _ in range(20):
            p = random_unimodular(rng, steps=4)
            h = p @ unipotent_generator @ p.inverse()
            frame = classify(h)
            if isinstance(frame, UnipotentDeficient):
                pytest.fail("conjugate of a full block stayed full")
            w, w1, w2 = frame
            n = lambda v: tuple(
                sum((h.rows[i][j] - (1 if i == j else 0)) * v[j] for j in range(3))
                for i in range(3)
            )
            assert n(w2) == w1 and n(w1) == w and n(w) == (0, 0, 0)


class TestGuards:
    def test_zero_covector_rejected(self, golden_generator):
        with pytest.raises(DoesNotPreserveL):
            classify(golden_generator, LinearForm(0, 0, 0))

    def test_non_preserving_rejected(self, golden_generator):
        with pytest.raises(DoesNotPreserveL):
            classify(golden_generator, LinearForm(1, 0, 0))

    def test_out_of_theory_minus_two_block(self, L_z):
        g = LatticeMap([[-1, 1, 0], [0, -1, 0], [0, 0, 1]])
        verdict = classify(g, L_z)
        assert isinstance(verdict, OutOfTheory)

    @pytest.mark.parametrize("s", [-5, -68, -921, -12457])
    def test_negative_real_pair_is_out_of_theory(self, s, L_z):
        """s = trace - 1 < -2: both roots of t^2 - s t + 1 are negative, so no
        eigenvalue exceeds 1 and the element is not hyperbolic."""
        g = LatticeMap([[s, -1, 2], [1, 0, -1], [0, 0, 1]])
        assert g.trace - 1 == s
        verdict = classify(g, L_z)
        assert isinstance(verdict, OutOfTheory)
        assert "negative real eigenvalue pair" in verdict.reason
        assert f"s = {s}" in verdict.reason

    def test_positive_real_pair_stays_hyperbolic(self, L_z):
        g = LatticeMap([[5, -1, 2], [1, 0, -1], [0, 0, 1]])
        verdict = classify(g, L_z)
        assert isinstance(verdict, Hyperbolic)
        assert verdict.alpha > 1


def _companion(s):
    """Hyperbolic companion block of t^2 - s*t + 1 next to the fixed vector z."""
    return LatticeMap([[0, -1, 0], [1, s, 0], [0, 0, 1]])


# Unimodular, with last row (0, 0, 1): conjugating by it keeps L = z fixed.
FRAME_CHANGE = LatticeMap([[2, 1, 1], [1, 1, -3], [0, 0, 1]])


class TestLargeTrace:
    """A hyperbolic classify enters its quadratic field once: it splits |s| - 2
    and |s| + 2 into squarefree parts and never decomposes a radicand inside
    the field arithmetic, so its cost no longer grows like sqrt(s)."""

    @pytest.mark.parametrize("s", [3, 18, 1442, 99_991, 10**12 + 39])
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_at_most_two_squarefree_splits(self, s, conjugate, L_z, monkeypatch):
        g = _companion(s)
        if conjugate:
            g = FRAME_CHANGE.inverse() @ g @ FRAME_CHANGE
        calls = []
        original = core_arith.squarefree_decompose

        def counted(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(core_arith, "squarefree_decompose", counted)
        verdict = classify(g, L_z)
        assert isinstance(verdict, Hyperbolic)
        assert len(calls) <= 2

    @pytest.mark.parametrize("s", [10**9 + 11, 10**12 + 39])
    def test_large_trace_is_hyperbolic(self, s, L_z):
        verdict = classify(_companion(s), L_z)
        assert isinstance(verdict, Hyperbolic)
        assert verdict.s == s
        alpha, beta = verdict.alpha, verdict.alpha.conjugate()
        assert alpha * beta == 1
        assert alpha + beta == s
        assert alpha > 1

    def test_huge_trace_with_square_cofactors_is_hyperbolic(self, golden_generator, L_z):
        """The 300th power of the golden generator has s = L_600 ≈ 2.5e125,
        s - 2 = 5·F_300² and s + 2 = L_300²: trial division up to the limit
        leaves perfect-square cofactors, which need no larger divisor."""
        verdict = classify(golden_generator**300, L_z)
        assert isinstance(verdict, Hyperbolic)
        assert verdict.alpha == GOLDEN_ALPHA**300

    def test_non_square_cofactor_raises_radicand_too_large(self, L_z):
        """s - 2 = 1048583³ is the cube of the least prime past the limit, no
        square: classify stops with a named error instead of running for ever."""
        with pytest.raises(RadicandTooLarge, match="TRIAL_DIVISION_LIMIT"):
            classify(_companion(1048583**3 + 2), L_z)


def surd_apply(g, x):
    """g·x for a surd vector x, by QuadSurd products (independent of cy3's
    integer-pair eigen-check)."""
    return tuple(sum((x[j] * g.rows[i][j] for j in range(3)), start=QuadSurd(0))
                 for i in range(3))


class TestRealPairEigenvectors:
    @pytest.mark.parametrize("seed", range(12))
    def test_eigenvectors_in_a_random_frame(self, seed, L_z):
        """Companion blocks conjugated by a random unimodular P, with L = z∘P."""
        rng = random.Random(seed)
        s = rng.choice([3, 4, 5, 7, 18, 123, 1442, 99_991])
        P = random_unimodular(rng, steps=rng.randint(1, 5))
        g = P.inverse() @ _companion(s) @ P
        verdict = classify(g, compose(L_z, P))
        assert isinstance(verdict, Hyperbolic)
        alpha, u, v = verdict.alpha, verdict.u.surds, verdict.v.surds
        assert surd_apply(g, v) == tuple(x * alpha for x in v)
        assert surd_apply(g, u) == tuple(x / alpha for x in u)
        assert next(x for x in u if x) == 1
        assert next(x for x in v if x) == 1

    @staticmethod
    def _built_from(monkeypatch, pair):
        """Make _real_pair_eigendata build u from pair(x) in place of its own
        integer pair x, before the eigen-equation of u is checked."""
        original = element_classify._eigenvector

        def faulty(g, x, s, f, check):
            assert check == U_CHECK  # the one eigen-equation check of a real pair
            return original(g, pair(x), s, f, check)

        monkeypatch.setattr(element_classify, "_eigenvector", faulty)

    @pytest.mark.parametrize("wrong", ["u", "v"])
    def test_wrong_eigenvector_fails_the_post_check(self, wrong, golden_generator, L_z,
                                                    monkeypatch):
        """u from (P, Q), the eigenline of alpha, with conjugation a no-op; or v
        from (P, -Q), the eigenline of 1/alpha, through a kernel line of the
        other root handed over before u is derived from v. On the ints the one
        check of u is also the check of v, so both fail it."""
        if wrong == "u":
            self._built_from(monkeypatch, lambda x: x._replace(q=tuple(-y for y in x.q)))
        else:
            kernel_line = element_classify._kernel_line

            def other_root(*args):
                p, q = kernel_line(*args)
                return p, tuple(-y for y in q)

            monkeypatch.setattr(element_classify, "_kernel_line", other_root)
        with pytest.raises(PostCheckFailed) as info:
            classify(golden_generator, L_z)
        assert info.value.check == U_CHECK

    @pytest.mark.parametrize("fault", ["no-op", "Q doubled", "parts swapped"])
    @pytest.mark.parametrize("seed", range(4))
    def test_faulty_conjugation_fails_the_post_check(self, fault, seed, L_z, monkeypatch):
        """u is v's pair (P, Q) with √d -> -√d. A conjugation that keeps Q,
        gives -2Q or swaps P and Q yields P + Q√d, P - 2Q√d or Q + P√d, none
        of them on the line of P - Q√d since P and Q are independent (the line
        is irrational), and the one eigen-equation check names u."""
        rng = random.Random(seed)
        P = random_unimodular(rng, steps=3)
        g = P.inverse() @ _companion(rng.choice([3, 7, 123])) @ P

        def conjugation(x):
            p, q = x.p, tuple(-y for y in x.q)  # v's pair, before the conjugation
            if fault == "no-op":
                return x._replace(q=q)
            if fault == "Q doubled":
                return x._replace(q=tuple(-2 * y for y in q))
            return x._replace(p=q, q=p)

        self._built_from(monkeypatch, conjugation)
        with pytest.raises(PostCheckFailed) as info:
            classify(g, compose(L_z, P))
        assert info.value.check == U_CHECK

    @pytest.mark.parametrize("x", [
        (QuadSurd(1), QuadSurd(0), QuadSurd(0)),
        # For u (2·alpha^-1 = 3 - √5) the √5 half (2g - 3)q = -p holds for
        # p + q√5 = 1 + √5 along w, but the rational half (2g - 3)p = -5q does not.
        (QuadSurd(0), QuadSurd(0), QuadSurd(1, 1, 5)),
    ])
    def test_non_eigenvector_fails_the_post_check(self, x, golden_generator, L_z,
                                                  monkeypatch):
        # u is built from the integer pair of x
        (bad,) = clear_frame([x])
        self._built_from(monkeypatch, lambda _: bad)
        with pytest.raises(PostCheckFailed) as info:
            classify(golden_generator, L_z)
        assert info.value.check == "eigen-equation g u = u / alpha"

    @pytest.mark.parametrize("s", [3, 7, 99_991])
    def test_one_kernel_line_per_real_pair(self, s, L_z, monkeypatch):
        """One kernel line, for v: u is the conjugate of v, and w is the
        primitive first nonzero cross product of two rows of g - id."""
        calls = []
        original = element_classify._kernel_line

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(element_classify, "_kernel_line", counted)
        g = FRAME_CHANGE.inverse() @ _companion(s) @ FRAME_CHANGE
        verdict = classify(g, L_z)
        assert isinstance(verdict, Hyperbolic)
        assert len(calls) == 1
        rows = [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(g.rows)]
        w = next(c for c in (cross(rows[0], rows[1]), cross(rows[0], rows[2]),
                             cross(rows[1], rows[2])) if any(c))
        assert verdict.w == primitive_part(w).vector


def _first_row_product(g, k, root):
    """(pair, c): the first row pair of k·g - root·id, in QuadSurd arithmetic,
    whose cross product c is nonzero, or (None, None)."""
    m = [[QuadSurd(k * x) - root if i == j else QuadSurd(k * x) for j, x in enumerate(row)]
         for i, row in enumerate(g.rows)]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        r, t = m[a], m[b]
        c = (r[1] * t[2] - r[2] * t[1], r[2] * t[0] - r[0] * t[2], r[0] * t[1] - r[1] * t[0])
        if any(c):
            return (a, b), c
    return None, None


def _reference_line(g, root):
    """The kernel line of g - root·id in QuadSurd arithmetic: the first nonzero
    cross product of two of its rows, divided by its first nonzero coordinate."""
    _, c = _first_row_product(g, 1, root)
    if c is None:
        raise AssertionError("kernel is not a line")
    pivot = next(x for x in c if x)
    return tuple(x / pivot for x in c)


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False),
       st.integers(3, 10**6).flatmap(lambda s: st.sampled_from([s, -s])))
def test_real_pair_lines_match_a_surd_reference(rng, s):
    """u and v of a random unimodular conjugate of a companion block are its
    two kernel lines, each computed and normalized with QuadSurd arithmetic;
    for s < -2 through real_pair_lines of the OutOfTheory verdict."""
    P = random_unimodular(rng, steps=rng.randint(1, 6))
    g = P.inverse() @ _companion(s) @ P
    root = QuadSurd(Fraction(s, 2), Fraction(1, 2), s * s - 4)
    verdict = classify(g)
    assert isinstance(verdict, Hyperbolic if s > 0 else OutOfTheory)
    u, v, _ = element_classify.real_pair_lines(g, verdict)
    assert v.surds == _reference_line(g, root)
    assert u.surds == _reference_line(g, root.conjugate())


@pytest.mark.parametrize("pair, g", [
    ((0, 1), FRAME_CHANGE.inverse() @ _companion(7) @ FRAME_CHANGE),
    ((0, 2), _companion(7)),
    ((0, 2), LatticeMap([[2, 1, 0], [1, 1, 0], [0, 0, 1]])),  # the golden generator
])
def test_each_written_out_row_pair_matches_the_reference(pair, g):
    """The kernel line is written out for the row pairs (0, 1) and (0, 2); here
    each is the first nonzero one in QuadSurd arithmetic, (0, 2) for a block
    [[A, 0], [0, 1]], and u and v match the reference lines. The pair (1, 2)
    never comes first: see the property test below."""
    s = g.trace - 1
    root = QuadSurd(s, 1, s * s - 4)  # 2·alpha
    assert _first_row_product(g, 2, root)[0] == pair
    u, v, _ = element_classify.real_pair_lines(g, classify(g))
    assert v.surds == _reference_line(g, root / 2)
    assert u.surds == _reference_line(g, root.conjugate() / 2)


@settings(deadline=None, max_examples=80)
@given(st.lists(st.integers(-30, 30), min_size=9, max_size=9),
       st.integers(-30, 30), st.integers(-30, 30).filter(bool),
       st.sampled_from([2, 3, 5, 6, 7, 94, 10**6 + 3]), st.integers(-6, 6), st.booleans())
def test_kernel_line_is_the_first_nonzero_row_product(entries, s, f, d, t, block):
    """On any integer g and s, f != 0 and squarefree d > 1, _kernel_line is the
    first nonzero of the three row-pair cross products of 2g - (s + f√d)·id in
    QuadSurd arithmetic, and that is never the pair (1, 2): row 0 has the
    irrational entry 2g00 - s - f√d, so if rows 1 and 2 are both parallel to it,
    all three rows are parallel and f√d is a double eigenvalue of the integer
    matrix 2g - s·id, and so is its conjugate -f√d: four eigenvalues in all.
    With `block`, rows 0 and 1 of g are an SL2 block A = [[1, t], [x, 1 + tx]]
    with |tr A| > 2 and s, f, d those of A, so the pair (0, 1) vanishes."""
    rows = [entries[:3], entries[3:6], entries[6:]]
    if block:
        x = entries[0]
        rows[:2] = [[1, t, 0], [x, 1 + t * x, 0]]
        s = 2 + t * x
        if abs(s) <= 2:
            return
        alpha = core_arith.solve_unit_quadratic(s)[0]
        f, d = 2 * alpha.q // alpha.den, alpha.d
    g = LatticeMap._from_rows(tuple(map(tuple, rows)))
    pair, c = _first_row_product(g, 2, QuadSurd(s, f, d))
    assert pair in ((0, 1), (0, 2))
    assert pair == (0, 2) or not block
    p, q = element_classify._kernel_line(g, s, f, d)
    assert tuple(QuadSurd(x, y, d) for x, y in zip(p, q)) == c


class TestPostChecks:
    def test_broken_apply_fails_the_eigen_equation(self, golden_generator, L_z, monkeypatch):
        monkeypatch.setattr(LatticeMap, "apply", lambda self, v: tuple(v))
        with pytest.raises(PostCheckFailed) as info:
            classify(golden_generator, L_z)
        assert info.value.check == "eigen-equation g u = u / alpha"

    def test_wrong_fixed_vector_fails_the_eigen_equation(self, golden_generator, L_z,
                                                          monkeypatch):
        monkeypatch.setattr(element_classify, "_eigenvector_1", lambda g: (1, 0, 0))
        with pytest.raises(PostCheckFailed) as info:
            classify(golden_generator, L_z)
        assert info.value.check == "eigen-equation g w = w"

    def test_wrong_root_pair_fails_its_check(self, golden_generator, L_z, monkeypatch):
        """alpha stays right, so every eigen-equation holds, but beta = alpha
        is no root pair of t^2 - 3t + 1: alpha·beta != 1."""
        solve = element_classify.solve_unit_quadratic
        monkeypatch.setattr(element_classify, "solve_unit_quadratic",
                            lambda s: (solve(s)[0],) * 2)
        with pytest.raises(PostCheckFailed) as info:
            classify(golden_generator, L_z)
        assert info.value.check == "alpha·beta = 1 and alpha + beta = s"

    def test_eigenspace_of_dimension_three_is_named(self):
        with pytest.raises(PostCheckFailed) as info:
            element_classify._eigenvector_1(LatticeMap.identity())
        assert info.value.check == "eigenspace for 1 is not one-dimensional"


def _order_oracle(g, bound=2 * ORDER_SEARCH_BOUND):
    """Independent finiteness oracle: raw power iteration on tuples of tuples."""
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    rows = ident
    for n in range(1, bound + 1):
        rows = tuple(
            tuple(sum(rows[i][k] * g.rows[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )
        if rows == ident:
            return n
        # entries of an infinite-order unimodular map grow or cycle; a large
        # entry certifies infinite order well before the bound
        if max(abs(x) for r in rows for x in r) > 10**6:
            return None
    return None


def test_finite_infinite_split_against_oracle():
    """500 seeded unimodular words: classify's finite/infinite split must agree
    with an independent power-iteration oracle."""
    rng = random.Random(424242)
    finite_seen = infinite_seen = 0
    for _ in range(500):
        g = random_unimodular(rng, steps=rng.randint(1, 6))
        if rng.random() < 0.3:
            flip = LatticeMap([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
            g = g @ flip  # mix in det -1
        oracle_order = _order_oracle(g)
        verdict = classify(g)
        if oracle_order is None:
            assert not is_finite_class(verdict)
            infinite_seen += 1
        else:
            assert is_finite_class(verdict)
            if isinstance(verdict, FiniteOrder):
                assert verdict.n == oracle_order
            else:
                assert oracle_order == 1
            finite_seen += 1
    assert finite_seen > 10 and infinite_seen > 10
