import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (clear_frame, compose, form_entry, normalize, reconstructs,
                      scaling_value, surd)
from cy3 import cubic_geometry, group_structure
from cy3.cubic_geometry import (
    HODGE_INDEX,
    HYPERBOLIC_ROWS,
    LEFSCHETZ,
    QuadricLine,
    ThreeLines,
    UnipotentSplit,
    check_hyperbolic_relations,
    check_unipotent_relations,
    hyperbolic_factorization,
    quadric_signature,
    singular_locus,
    unipotent_factorization,
)
from cy3.element_classify import Hyperbolic, UnipotentFull, classify
from cy3.errors import (
    GeometricInconsistency,
    PostCheckFailed,
    RelationsNotVerified,
    ValidationError,
)
from cy3.group_structure import analyze_group
from cy3.lattice_forms import (
    ENTRY_KEYS,
    LatticeMap,
    LinearForm,
    PairVector,
    TrilinearForm,
    preserves_pair,
    transform_cubic,
)
from test_lattice_forms import cubics, random_unimodular, small


@pytest.fixture
def golden_frame(golden_generator, L_z):
    verdict = classify(golden_generator, L_z)
    assert isinstance(verdict, Hyperbolic)
    return verdict.u, verdict.v, verdict.w


@pytest.fixture
def standard_frame():
    """The standard basis as a hand-made hyperbolic frame: u and v cleared,
    w an int vector."""
    return (*clear_frame(((1, 0, 0), (0, 1, 0))), (0, 0, 1))


@pytest.fixture
def unipotent_frame_vectors(unipotent_generator, L_z):
    verdict = classify(unipotent_generator, L_z)
    assert isinstance(verdict, UnipotentFull)
    return verdict.w, verdict.w1, verdict.w2


def hyperbolic_split(T, L, frame):
    return hyperbolic_factorization(check_hyperbolic_relations(T, L, *frame))


def unipotent_split(T, L, frame):
    return unipotent_factorization(check_unipotent_relations(T, L, *frame))


class TestHyperbolicRelations:
    def test_golden_all_hold(self, golden_cubic, L_z, golden_frame):
        u, v, w = golden_frame
        rep = check_hyperbolic_relations(golden_cubic, L_z, u, v, w)
        assert rep.overall
        assert len(rep.rows) == 10
        assert {r.name for r in rep.rows} == {
            "u^3", "v^3", "u^2·v", "u·v^2", "u^2·w", "u·w^2",
            "v^2·w", "v·w^2", "L(u)", "L(v)",
        }

    def test_wrong_frame_fails(self, golden_cubic, L_z, standard_frame):
        rep = check_hyperbolic_relations(golden_cubic, L_z, *standard_frame)
        assert not rep.overall
        failing = {r.name for r in rep.rows if not r.holds}
        assert "u^2·w" in failing

    def test_failing_names_the_rows_that_do_not_hold(self, golden_cubic, golden_frame, L_z,
                                                     standard_frame):
        rep = check_hyperbolic_relations(golden_cubic, L_z, *golden_frame)
        assert rep.failing == []
        bad = check_hyperbolic_relations(golden_cubic, L_z, *standard_frame)
        assert bad.failing == [r.name for r in bad.rows if not r.holds] != []
        with pytest.raises(RelationsNotVerified) as info:
            hyperbolic_factorization(bad)
        assert str(info.value) == f"failing relations: {bad.failing}"

    def test_a_frame_off_the_real_basis_is_rejected(self, golden_cubic, L_z, golden_frame):
        """An irrational frame must be (σ(v), v, w) with w an int vector, over
        one den: 2u is not the conjugate of v, w + v is irrational, and u over
        twice its den is the same vector over another den."""
        u, v, w = golden_frame
        with pytest.raises(ValidationError, match="irrational frame"):
            check_hyperbolic_relations(golden_cubic, L_z,
                                       *clear_frame((tuple(x * 2 for x in u.surds), v.surds)), w)
        with pytest.raises(ValidationError, match="integer vectors"):
            check_hyperbolic_relations(golden_cubic, L_z, u, v,
                                       tuple(x + y for x, y in zip(w, v.surds)))
        u2 = PairVector(tuple(x * 2 for x in u.p), tuple(y * 2 for y in u.q), u.den * 2, u.d)
        assert u2.surds == u.surds
        with pytest.raises(ValidationError, match="one denominator"):
            check_hyperbolic_relations(golden_cubic, L_z, u2, v, w)

    def test_failed_report_blocks_factorization(self, golden_cubic, L_z, standard_frame):
        bad = check_hyperbolic_relations(golden_cubic, L_z, *standard_frame)
        with pytest.raises(RelationsNotVerified):
            hyperbolic_factorization(bad)


class TestHyperbolicFactorization:
    def test_three_lines(self, golden_cubic, golden_frame, L_z):
        fact = hyperbolic_split(golden_cubic, L_z, golden_frame)
        assert isinstance(fact, ThreeLines)
        assert fact.b == surd(Fraction(5, 6))
        three_b = fact.b * 3
        assert fact.quadric == ((0, three_b, 0), (three_b, 0, 0), (0, 0, 0))
        assert reconstructs(fact)

    def test_quadric_line(self, golden_cubic_quadric, golden_frame, L_z):
        fact = hyperbolic_split(golden_cubic_quadric, L_z, golden_frame)
        assert isinstance(fact, QuadricLine)
        assert fact.a == 1
        assert fact.b == surd(Fraction(5, 6))
        three_b = fact.b * 3
        assert fact.quadric == ((0, three_b, 0), (three_b, 0, 0), (0, 0, 1))
        assert quadric_signature(fact.quadric) == (2, 1, 0)
        assert reconstructs(fact)

    def test_false_split_fails_the_named_post_check(self, golden_cubic, L_z, standard_frame):
        """With the relation gate forced open the standard frame reaches the
        split; B = -1/6, but x^2 z and y^2 z leave C∘M = z·Q with q11, q22 != 0,
        which is no hyperbolic split."""
        report = check_hyperbolic_relations(golden_cubic, L_z, *standard_frame)
        assert not report.overall
        with pytest.raises(PostCheckFailed) as info:
            hyperbolic_factorization(report._replace(overall=True))
        assert info.value.check == "hyperbolic split C = z(A z^2 + 6B xy)"
        assert "t113 = 1/3" in str(info.value)

    def test_hodge_index_violation(self, golden_frame, L_z):
        # x^2 z vanishes on T(u, v, w)? No: pick a cubic with T(u,v,w) = 0,
        # e.g. z^3 alone (all xy-mixing entries vanish).
        T = TrilinearForm.from_cubic_coefficients({"z3": 1})
        with pytest.raises(GeometricInconsistency) as exc:
            hyperbolic_split(T, L_z, golden_frame)
        assert exc.value.mechanism == HODGE_INDEX

    def test_tangency_points_on_quadric(self, golden_cubic_quadric, golden_frame, L_z):
        fact = hyperbolic_split(golden_cubic_quadric, L_z, golden_frame)
        # in frame coordinates u, v are the first two axes: Q(u) = q11 and
        # Q(v) = q22 vanish, and the tangent planes there, rows 1 and 2 of Q,
        # are y and x
        (q11, q12, q13), (_, q22, q23), _ = fact.quadric
        assert q11 == q22 == q13 == q23 == 0
        assert q12 != 0


class TestSignatureInput:
    def test_bad_shape_rejected(self):
        with pytest.raises(ValidationError, match="expected a 3x3 matrix"):
            quadric_signature(((1, 0), (0, 1)))

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValidationError, match="matrix is not symmetric"):
            quadric_signature(((1, 2, 0), (0, 1, 0), (0, 0, 1)))

    def test_asymmetric_surd_entry_rejected(self):
        s5 = surd(0, 1, 5)
        with pytest.raises(ValidationError, match="matrix is not symmetric"):
            quadric_signature(((1, s5, 0), (-s5, 1, 0), (0, 0, 1)))

    @pytest.mark.parametrize("m", [5, [1, 2, 3], None])
    def test_non_matrix_rejected(self, m):
        """A scalar or a flat list is no matrix: the named error, not a bare
        TypeError from iterating it."""
        with pytest.raises(ValidationError, match="expected a 3x3 matrix"):
            quadric_signature(m)

    @pytest.mark.parametrize("x", ["1", None, 1.5])
    def test_non_number_entry_rejected(self, x):
        with pytest.raises(ValidationError, match="surd parts must be ints or Fractions"):
            quadric_signature(((x, 0, 0), (0, 1, 0), (0, 0, 1)))


class TestFactorizationRecord:
    """A Factorization is a NamedTuple; each kind is a slotted subclass."""

    def test_replace_keeps_the_kind(self, golden_cubic, golden_frame, L_z):
        fact = hyperbolic_split(golden_cubic, L_z, golden_frame)
        assert isinstance(fact, ThreeLines)
        flipped = fact._replace(frame=fact.frame[::-1])
        assert type(flipped) is ThreeLines
        assert flipped.frame == fact.frame[::-1] and flipped.quadric == fact.quadric

    def test_fields_are_read_only(self, golden_cubic, golden_frame, L_z):
        fact = hyperbolic_split(golden_cubic, L_z, golden_frame)
        with pytest.raises(AttributeError):
            fact.frame = ()
        with pytest.raises(AttributeError):
            fact.extra = 1


class TestSignature:
    def test_diagonal(self):
        q = ((1, 0, 0), (0, -2, 0), (0, 0, 0))
        assert quadric_signature(q) == (1, 1, 1)

    def test_hyperbolic_plane_block(self):
        q = ((0, 1, 0), (1, 0, 0), (0, 0, 3))
        assert quadric_signature(q) == (2, 1, 0)

    def test_surd_entries(self):
        s5 = surd(0, 1, 5)
        q = ((s5, 0, 0), (0, -s5, 0), (0, 0, s5))
        assert quadric_signature(q) == (2, 1, 0)

    def test_invariance_under_unimodular_congruence(self):
        """Sylvester's law: inertia is stable under 20 random congruences."""
        q = ((0, 3, 0), (3, 0, 0), (0, 0, 7))
        base = quadric_signature(q)
        rng = random.Random(314)
        for _ in range(20):
            p = random_unimodular(rng, steps=5).rows
            conj = [
                [
                    sum(
                        p[k][i] * q[k][l] * p[l][j]
                        for k in range(3)
                        for l in range(3)
                    )
                    for j in range(3)
                ]
                for i in range(3)
            ]
            assert quadric_signature(conj) == base


def to_mpf(x):
    """An int or QuadSurd (p + q√d)/den as an mpmath number at the working precision."""
    x = surd(x) if isinstance(x, int) else x
    return (mpmath.mpf(x.p) + mpmath.mpf(x.q) * mpmath.sqrt(x.d)) / x.den


def eigsy_signature(m):
    """(positive, negative, zero) eigenvalue counts of a real symmetric matrix
    from mpmath.eigsy at 50 digits; |x| <= 1e-30 counts as zero, far below
    every nonzero eigenvalue of the matrices drawn here."""
    with mpmath.workdps(50):
        values = mpmath.eigsy(mpmath.matrix([[to_mpf(x) for x in row] for row in m]),
                              eigvals_only=True)
        tiny = mpmath.mpf(10) ** -30
        return (sum(1 for x in values if x > tiny), sum(1 for x in values if x < -tiny),
                sum(1 for x in values if abs(x) <= tiny))


small_ints = st.integers(-9, 9)


@st.composite
def symmetric_matrices(draw):
    """Symmetric 3x3 matrices over ℚ(√d), d in {0, 2, 3, 5, 13}, with entries
    (a + b√d)/den for den in {1, 2, 3}: half with six free entries, half sums
    of at most two rank-one terms c·v·v^t, so singular ones of each rank and
    the zero matrix come up often."""
    d = draw(st.sampled_from([0, 2, 3, 5, 13]))

    def scalar():
        den = draw(st.sampled_from([1, 2, 3]))
        return surd(Fraction(draw(small_ints), den),
                    Fraction(draw(small_ints) if d else 0, den), d)

    if draw(st.booleans()):
        a, b, c, e, f, i = (scalar() for _ in range(6))
        return ((a, b, c), (b, e, f), (c, f, i))
    m = [[surd(0)] * 3 for _ in range(3)]
    for _ in range(draw(st.integers(0, 2))):
        c, v = draw(st.integers(-3, 3)), (scalar(), scalar(), scalar())
        m = [[m[i][j] + v[i] * v[j] * c for j in range(3)] for i in range(3)]
    return tuple(map(tuple, m))


@given(symmetric_matrices())
@example(((0, 0, 0), (0, 0, 0), (0, 0, 0)))
def test_signature_matches_mpmath_eigenvalues(m):
    assert quadric_signature(m) == eigsy_signature(m)


def test_singular_surd_signature_matches_mpmath_eigenvalues():
    """Q = v·v^t - w·w^t with v = (1, phi, 0) and w = (0, 1, √5): rank 2, det
    exactly 0, one eigenvalue of each sign."""
    phi, s5 = surd(Fraction(1, 2), Fraction(1, 2), 5), surd(0, 1, 5)
    q = ((1, phi, 0), (phi, phi, -s5), (0, -s5, -5))
    assert quadric_signature(q) == eigsy_signature(q) == (1, 1, 1)


# -- the hyperbolic certificate against a 27-term trilinear oracle ---------------

# Binary forms q = ax² + bxy + cy² with D = b² - 4ac > 0 not a square.
BINARY_FORMS = ((1, -1, -1), (1, 0, -2), (1, 0, -3), (1, 3, 1), (2, 1, -2), (3, 1, -1))


def automorph(a, b, c):
    """The 2x2 integer automorph ((t - bu)/2, -cu; au, (t + bu)/2) of q from
    the least u > 0 with t² - D·u² = 4, found by search."""
    D = b * b - 4 * a * c
    u = next(u for u in range(1, 1000) if math.isqrt(4 + D * u * u) ** 2 == 4 + D * u * u)
    t = math.isqrt(4 + D * u * u)
    return (((t - b * u) // 2, -c * u, 0), (a * u, (t + b * u) // 2, 0), (0, 0, 1))


def trilinear_eval(T, a, b, c):
    """T(a, b, c) as the 27-term sum of the Fraction entries of T, in QuadSurd
    arithmetic: a test-local oracle that shares no code with the library's
    integer-pair contractions."""
    return sum((form_entry(T, i + 1, j + 1, k + 1) * a[i] * b[j] * c[k]
                for i in range(3) for j in range(3) for k in range(3)), surd(0))


def surd_apply(g, v):
    return tuple(sum((x * y for x, y in zip(row, v)), surd(0)) for row in g.rows)


@settings(deadline=None, max_examples=30)
@given(st.randoms(use_true_random=False), st.sampled_from(BINARY_FORMS),
       st.sampled_from([0, 1, -2]), st.integers(1, 4))
def test_hyperbolic_certificate_matches_a_trilinear_oracle(rng, form, e, steps):
    """For a random unimodular P-conjugate of the pair (z·q + e·z³, z) and of
    the automorph g of q: the relation rows, the split Q, the singular lines
    and the scaling character of g and g² all equal what the oracle gives on
    the eigenframe (u, v, w) of classify."""
    a, b, c = form
    T0 = TrilinearForm.from_cubic_coefficients({"x2z": a, "xyz": b, "y2z": c, "z3": e})
    P = random_unimodular(rng, steps=steps)
    T, L = transform_cubic(T0, P), compose(LinearForm(0, 0, 1), P)
    g = P.inverse() @ LatticeMap(automorph(a, b, c)) @ P
    assert preserves_pair(g, T, L)
    cls = classify(g, L)
    assert isinstance(cls, Hyperbolic)
    frame = (cls.u.surds, cls.v.surds, cls.w)

    report = check_hyperbolic_relations(T, L, cls.u, cls.v, cls.w)
    table = {key: trilinear_eval(T, *(frame[i - 1] for i in key)) for _, key in HYPERBOLIC_ROWS}
    lines = {"L(u)": sum((x * y for x, y in zip(L, frame[0])), surd(0)),
             "L(v)": sum((x * y for x, y in zip(L, frame[1])), surd(0))}
    assert [(r.name, r.left) for r in report.rows] == [
        *((name, table[key]) for name, key in HYPERBOLIC_ROWS), *lines.items()]
    assert report.overall

    fact = hyperbolic_factorization(report)
    assert isinstance(fact, ThreeLines if e == 0 else QuadricLine)
    t = lambda i, j, k: trilinear_eval(T, frame[i], frame[j], frame[k])  # noqa: E731
    expected_q = [[t(i, j, 2) * 3 if j < 2 else t(i, 2, 2) * Fraction(3, 2) for j in range(3)]
                  for i in range(2)]
    expected_q.append([expected_q[0][2], expected_q[1][2], t(2, 2, 2)])
    assert [list(row) for row in fact.quadric] == expected_q

    singular = [line.surds for line in singular_locus(fact)]
    assert singular == [normalize(f) for f in frame[:3 if e == 0 else 2]]
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for pt in singular:
        assert all(trilinear_eval(T, pt, pt, x) == 0 for x in basis)

    betas = []
    for h in (g, g @ g):
        image = surd_apply(h ** 4, frame[1])
        beta = next(x for x in image if x) / next(x for x in frame[1] if x)
        assert image == tuple(x * beta for x in frame[1])
        assert scaling_value(h, report.source[1]) == beta
        betas.append(beta)
    assert betas == [cls.alpha ** 4, cls.alpha ** 8]
    verdict = analyze_group(T, L, [g, g @ g])
    assert verdict.witness.values == tuple(betas)


class TestUnipotentRelations:
    def test_example_all_hold(self, unipotent_cubic, L_z, unipotent_frame_vectors):
        w, w1, w2 = unipotent_frame_vectors
        rep = check_unipotent_relations(unipotent_cubic, L_z, w, w1, w2)
        assert rep.overall
        assert any(r.name == "w·w2^2 ≠ 0" for r in rep.rows)

    def test_chain_values(self, unipotent_cubic, unipotent_frame_vectors):
        from cy3.lattice_forms import trilinear_eval

        w, w1, w2 = unipotent_frame_vectors
        assert trilinear_eval(unipotent_cubic, w, w2, w2) == 2
        assert trilinear_eval(unipotent_cubic, w1, w2, w2) == 1
        assert trilinear_eval(unipotent_cubic, w1, w1, w2) == -1

    def test_wrong_cubic_fails(self, golden_cubic, L_z, unipotent_frame_vectors):
        w, w1, w2 = unipotent_frame_vectors
        rep = check_unipotent_relations(golden_cubic, L_z, w, w1, w2)
        assert not rep.overall

    @pytest.mark.parametrize("column, x", [(0, Fraction(1)), (1, Fraction(1, 2)),
                                           (2, surd(1, 1, 5)), (2, surd(1))])
    def test_a_column_that_is_not_an_int_vector_is_rejected(
            self, unipotent_cubic, L_z, unipotent_frame_vectors, column, x):
        """The frame is built from int columns: a Fraction or a surd
        coordinate raises, an integral one too."""
        frame = list(unipotent_frame_vectors)
        frame[column] = (x, *frame[column][1:])
        with pytest.raises(ValidationError, match="integer vectors"):
            check_unipotent_relations(unipotent_cubic, L_z, *frame)


@settings(deadline=None, max_examples=60)
@given(cubics(), st.tuples(small, small, small), st.booleans(), st.randoms(use_true_random=False))
def test_unipotent_w2_rows_match_trilinear_eval(T, w, flat, rng):
    """Each row w^2·e_i of the unipotent relations, for an int w, has the
    left side trilinear_eval(T, w, w, e_i) and holds exactly when that is 0.
    With `flat` the cubic is moved by a random unimodular P from one whose
    entries T(e1, e1, ·) vanish, and w = P·(k, 0, 0), so every row holds."""
    if flat:
        entries = {key: Fraction(x, T.scale) for key, x in zip(ENTRY_KEYS, T.flat)}
        entries.update({(1, 1, 1): 0, (1, 1, 2): 0, (1, 1, 3): 0})
        P = random_unimodular(rng, steps=4)
        T, w = transform_cubic(TrilinearForm(entries), P.inverse()), P.apply((w[0], 0, 0))
    report = check_unipotent_relations(T, LinearForm(0, 0, 1), w, (0, 1, 0), (0, 0, 1))
    rows = [r for r in report.rows if r.name.startswith("w^2·")]
    assert [r.name for r in rows] == ["w^2·e1", "w^2·e2", "w^2·e3"]
    for row, e in zip(rows, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        value = trilinear_eval(T, w, w, e)
        assert (row.left, row.right, row.holds) == (value, 0, value == 0)
    if flat:
        assert all(row.holds for row in rows)


def test_unipotent_w2_rows_hold_and_fail(golden_cubic, L_z):
    """At w = e1 the golden cubic z(x^2 - xy - y^2) has T(w, w, e1) =
    T(w, w, e2) = 0 and T(w, w, e3) = 1/3: the rows hold, hold and fail."""
    report = check_unipotent_relations(golden_cubic, L_z, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    rows = [(r.name, r.left, r.holds) for r in report.rows if r.name.startswith("w^2·")]
    assert rows == [("w^2·e1", 0, True), ("w^2·e2", 0, True), ("w^2·e3", Fraction(1, 3), False)]


class TestUnipotentFactorization:
    def test_example(self, unipotent_cubic, unipotent_frame_vectors, L_z):
        fact = unipotent_split(unipotent_cubic, L_z, unipotent_frame_vectors)
        assert isinstance(fact, UnipotentSplit)
        assert fact.e == 3
        assert fact.f == 1
        # with E = q13 != 0, z is tangent to Q at w = (1, 0, 0)
        assert fact.quadric[0][:2] == (0, 0)
        assert reconstructs(fact)

    def test_quadric_matrix(self, unipotent_cubic, unipotent_frame_vectors, L_z):
        fact = unipotent_split(unipotent_cubic, L_z, unipotent_frame_vectors)
        e, f = Fraction(3), Fraction(1)
        assert fact.quadric == ((0, 0, e), (0, -e, e / 2), (e, e / 2, f))

    def test_z_free_entry_fails_the_named_post_check(self, unipotent_frame_vectors, L_z):
        """An x^3 term is no multiple of z: with the relation gate forced open,
        C∘M is not z·Q however E, F and the tangency at w come out."""
        T = TrilinearForm.from_cubic_coefficients(
            {"x3": 1, "z3": 1, "xz2": 6, "y2z": -3, "yz2": 3})
        report = check_unipotent_relations(T, L_z, *unipotent_frame_vectors)
        assert not report.overall
        with pytest.raises(PostCheckFailed) as info:
            unipotent_factorization(report._replace(overall=True))
        assert info.value.check == "unipotent split C = z·Q"

    @pytest.mark.parametrize("term, entry", [("xyz", "t123 = 1/6"), ("x2z", "t113 = 1/3")])
    def test_split_not_tangent_at_w_fails_the_named_post_check(
            self, unipotent_frame_vectors, L_z, term, entry):
        """An xyz or x^2 z term leaves C∘M = z·Q with E != 0, but with
        q12 != 0 or q11 != 0, so z is not tangent to Q at w: with the relation
        gate forced open, the split post-check names the entry."""
        T = TrilinearForm.from_cubic_coefficients(
            {"z3": 1, "xz2": 6, "y2z": -3, "yz2": 3, term: 1})
        report = check_unipotent_relations(T, L_z, *unipotent_frame_vectors)
        assert not report.overall
        with pytest.raises(PostCheckFailed) as info:
            unipotent_factorization(report._replace(overall=True))
        assert info.value.check == "unipotent split C = z·Q"
        assert str(info.value).endswith(f"nonzero frame entries {entry}")

    def test_lefschetz_violation_precedes_relation_gate(
        self, split_cubic, unipotent_frame_vectors, L_z
    ):
        """E = 0 is a geometric inconsistency even when the relation report
        fails: the deeper obstruction is reported first."""
        report = check_unipotent_relations(split_cubic, L_z, *unipotent_frame_vectors)
        assert not report.overall
        with pytest.raises(GeometricInconsistency) as exc:
            unipotent_factorization(report)
        assert exc.value.mechanism == LEFSCHETZ

    def test_failed_report_blocks_when_e_nonzero(
        self, unipotent_cubic, golden_cubic, L_z, unipotent_frame_vectors
    ):
        bad = check_unipotent_relations(golden_cubic, L_z, *unipotent_frame_vectors)
        # golden cubic has T(w, w2, w2) = T(e1, e3, e3) = 0, so Lefschetz fires
        with pytest.raises(GeometricInconsistency):
            unipotent_factorization(bad)

    def test_tangency(self, unipotent_cubic, unipotent_frame_vectors, L_z):
        fact = unipotent_split(unipotent_cubic, L_z, unipotent_frame_vectors)
        # w = (1,0,0) in frame coordinates lies on Q (q11 = 0) and the tangent
        # there, row 1 of Q, is z (q12 = 0 != q13)
        assert fact.quadric[0][:2] == (0, 0)
        assert fact.quadric[0][2] != 0


class TestReconstructionAndSingularLocus:
    def test_three_lines_singular_lines(self, golden_cubic, golden_frame, L_z):
        u, v, w = golden_frame
        fact = hyperbolic_split(golden_cubic, L_z, golden_frame)
        lines = [line.surds for line in singular_locus(fact)]
        assert len(lines) == 3
        expected = {normalize(p) for p in (u.surds, v.surds, w)}
        assert set(lines) == expected

    def test_quadric_line_singular_lines(self, golden_cubic_quadric, golden_frame, L_z):
        u, v, w = golden_frame
        fact = hyperbolic_split(golden_cubic_quadric, L_z, golden_frame)
        lines = [line.surds for line in singular_locus(fact)]
        assert set(lines) == {normalize(u.surds), normalize(v.surds)}

    def test_singular_locus_builds_no_surd(self, golden_cubic, golden_frame, golden_generator,
                                           L_z, monkeypatch):
        """The singular lines are checked and returned as integer pairs: no
        PairVector.surds is read until a caller renders them, and `analyze`
        renders none."""
        reads, returned = [], []
        surds = PairVector.surds
        monkeypatch.setattr(PairVector, "surds",
                            property(lambda x: reads.append(x) or surds.fget(x)))
        lines = singular_locus(hyperbolic_split(golden_cubic, L_z, golden_frame))
        assert len(lines) == 3 and reads == []
        monkeypatch.setattr(group_structure, "singular_locus",
                            lambda fact: returned.extend(singular_locus(fact)) or returned)
        assert analyze_group(golden_cubic, L_z, [golden_generator]).kind == "AlmostAbelianRankOne"
        assert len(returned) == 3
        assert not any(x is line for x in reads for line in returned)

    def test_gradient_post_check_is_named(self, golden_cubic, golden_frame, L_z, monkeypatch):
        """A claimed singular line on which the gradient does not vanish raises
        the named post-check, not a bare ArithmeticError."""
        fact = hyperbolic_split(golden_cubic, L_z, golden_frame)
        one = PairVector((1, 1, 1), (0, 0, 0), 1, 0)
        monkeypatch.setattr(cubic_geometry, "_normalized", lambda v: one)
        with pytest.raises(PostCheckFailed) as info:
            singular_locus(fact)
        assert info.value.check == "singular-locus gradient"

    def test_unipotent_singular_line(self, unipotent_cubic, unipotent_frame_vectors, L_z):
        fact = unipotent_split(unipotent_cubic, L_z, unipotent_frame_vectors)
        (line,) = singular_locus(fact)
        assert line.surds == normalize(unipotent_frame_vectors[0])

    def test_tampered_factorizations_do_not_reconstruct(
        self, golden_cubic, golden_cubic_quadric, golden_frame, unipotent_cubic,
        unipotent_frame_vectors, L_z,
    ):
        """Changing any one of the six entries of Q breaks the reconstruction."""
        facts = [
            hyperbolic_split(golden_cubic, L_z, golden_frame),
            hyperbolic_split(golden_cubic_quadric, L_z, golden_frame),
            unipotent_split(unipotent_cubic, L_z, unipotent_frame_vectors),
        ]
        for fact in facts:
            assert reconstructs(fact)
            for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
                m = [list(row) for row in fact.quadric]
                m[i][j] = m[j][i] = m[i][j] + 1
                tampered = fact._replace(quadric=m)
                assert not reconstructs(tampered), (type(fact).__name__, i, j)

    def test_reconstruction_survives_base_change(
        self, unipotent_cubic, unipotent_generator, L_z
    ):
        """Conjugated inputs factor and reconstruct exactly."""
        rng = random.Random(77)
        for _ in range(10):
            p = random_unimodular(rng, steps=4)
            # transported pair: cubic pulled back by p, generator conjugated
            T2 = transform_cubic(unipotent_cubic, p)
            g2 = p.inverse() @ unipotent_generator @ p
            L2 = compose(L_z, p)
            verdict = classify(g2, L2)
            assert isinstance(verdict, UnipotentFull)
            rep = check_unipotent_relations(T2, L2, verdict.w, verdict.w1, verdict.w2)
            assert rep.overall
            fact = unipotent_factorization(rep)
            assert reconstructs(fact)

    def test_hyperbolic_reconstruction_survives_base_change(
        self, golden_cubic_quadric, golden_cubic, golden_generator, L_z
    ):
        cases = ((golden_cubic_quadric, QuadricLine, (1, 2, 0)),
                 (golden_cubic, ThreeLines, (1, 1, 1)))
        for T, kind, inertia in cases:
            rng = random.Random(78)
            for _ in range(10):
                p = random_unimodular(rng, steps=4)
                T2 = transform_cubic(T, p)
                g2 = p.inverse() @ golden_generator @ p
                L2 = compose(L_z, p)
                verdict = classify(g2, L2)
                assert isinstance(verdict, Hyperbolic)
                rep = check_hyperbolic_relations(T2, L2, verdict.u, verdict.v, verdict.w)
                assert rep.overall
                fact = hyperbolic_factorization(rep)
                assert isinstance(fact, kind)
                # Q is only defined up to sign (rescaling the frame), so the
                # projective invariant is the inertia up to swapping + and -
                sig = quadric_signature(fact.quadric)
                assert sorted(sig[:2]) == list(inertia[:2]) and sig[2] == inertia[2]
                assert reconstructs(fact)
