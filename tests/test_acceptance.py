"""Acceptance gate: seven end-to-end criteria, each printing one PASS/FAIL line.

Every check is exact (zero tolerance); any numeric comparison is on Fraction or
QuadSurd values, never on floats.
"""

import random
from fractions import Fraction

import pytest

from conftest import is_finite_class, reconstructs
from cy3.core_arith import QuadSurd
from cy3.cubic_geometry import (
    QuadricLine,
    ThreeLines,
    check_hyperbolic_relations,
    check_unipotent_relations,
    hyperbolic_factorization,
    quadric_signature,
    unipotent_factorization,
)
from cy3.element_classify import (
    FINITE_PAIRS,
    FiniteOrder,
    Hyperbolic,
    Identity,
    UnipotentDeficient,
    classify,
)
from cy3.errors import ConstraintViolated, GeometricInconsistency, ValidationError
from cy3.group_structure import (
    analyze_group,
    certify_discrete_cyclic,
    enumerate_symmetries,
    frame_basis,
    frame_coordinates_matrix,
    unipotent_shear,
)
from cy3.lattice_forms import (
    LatticeMap,
    LinearForm,
    TrilinearForm,
    preserves_pair,
    trilinear_eval,
)
from cy3.cli import parse_problem

L_Z = LinearForm(0, 0, 1)
GOLDEN_CUBIC = TrilinearForm.from_cubic_coefficients({"x2z": 1, "xyz": -1, "y2z": -1})
GOLDEN_CUBIC_Q = TrilinearForm.from_cubic_coefficients(
    {"x2z": 1, "xyz": -1, "y2z": -1, "z3": 1}
)
GOLDEN_GEN = LatticeMap([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
UNIPOTENT_CUBIC = TrilinearForm.from_cubic_coefficients(
    {"z3": 1, "xz2": 6, "y2z": -3, "yz2": 3}
)
UNIPOTENT_GEN = LatticeMap([[1, 1, 0], [0, 1, 1], [0, 0, 1]])

_FACTORIZATIONS = []  # collected by criteria 1-2, re-checked by criterion 5


def _verdict(num, label, body):
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def test_criterion_1_hyperbolic_pipeline():
    def body():
        cls = classify(GOLDEN_GEN, L_Z)
        assert isinstance(cls, Hyperbolic)
        assert cls.alpha == QuadSurd(Fraction(3, 2), Fraction(1, 2), 5)

        report = check_hyperbolic_relations(GOLDEN_CUBIC, L_Z, cls.u, cls.v, cls.w)
        assert report.overall and len(report.rows) == 10

        fact = hyperbolic_factorization(report)
        assert isinstance(fact, ThreeLines)
        assert fact.b == Fraction(5, 6)
        _FACTORIZATIONS.append(fact)

        report_q = check_hyperbolic_relations(GOLDEN_CUBIC_Q, L_Z, cls.u, cls.v, cls.w)
        assert report_q.overall
        fact_q = hyperbolic_factorization(report_q)
        assert isinstance(fact_q, QuadricLine)
        assert fact_q.a == 1
        assert quadric_signature(fact_q.quadric) == (2, 1, 0)
        _FACTORIZATIONS.append(fact_q)

        verdict = analyze_group(GOLDEN_CUBIC, L_Z, [GOLDEN_GEN])
        assert verdict.kind == "AlmostAbelianRankOne"

    _verdict(1, "hyperbolic pipeline (alpha, relations, ThreeLines/QuadricLine, dichotomy)", body)


def test_criterion_2_unipotent_pipeline():
    def body():
        frame = classify(UNIPOTENT_GEN)
        assert frame == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        w, w1, w2 = frame

        report = check_unipotent_relations(UNIPOTENT_CUBIC, L_Z, w, w1, w2)
        assert report.overall
        assert trilinear_eval(UNIPOTENT_CUBIC, w, w2, w2) == 2
        assert trilinear_eval(UNIPOTENT_CUBIC, w1, w2, w2) == 1
        assert trilinear_eval(UNIPOTENT_CUBIC, w1, w1, w2) == -1

        fact = unipotent_factorization(report)
        assert fact.e == 3 and fact.f == 1
        assert fact.quadric[0][:2] == (0, 0)  # z is tangent to Q at w
        _FACTORIZATIONS.append(fact)

        for n in range(1, 11):
            hf = frame_coordinates_matrix(UNIPOTENT_GEN**n, frame_basis(frame))
            h, e = hf
            assert unipotent_shear(hf) == h[0][1]
            assert Fraction(h[0][1], e) == n  # a
            assert Fraction(h[0][2], e) == Fraction(n * (n - 1), 2)  # d
        verdict = analyze_group(UNIPOTENT_CUBIC, L_Z, [UNIPOTENT_GEN**n for n in range(1, 11)])
        assert verdict.witness.values == tuple(range(1, 11))  # tau

    _verdict(2, "unipotent pipeline (frame, chain relations, E/F, tangency, tau)", body)


def test_criterion_3_trichotomy_vs_power_oracle():
    def body():
        def power_oracle(g, bound=12):
            p = g
            for n in range(1, bound + 1):
                if p.is_identity():
                    return n
                p = p @ g
            return None

        def random_word(rng):
            g = LatticeMap.identity()
            for _ in range(rng.randint(1, 6)):
                i, j = rng.sample(range(3), 2)
                rows = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
                rows[i][j] = rng.choice([-2, -1, 1, 2])
                g = g @ LatticeMap(rows)
            return g

        rng = random.Random(20250823)
        agreements = 0
        for _ in range(500):
            g = random_word(rng)
            oracle = power_oracle(g)
            cls = classify(g)
            assert is_finite_class(cls) == (oracle is not None)
            if isinstance(cls, FiniteOrder):
                assert cls.n == oracle
                if g.det == 1:
                    assert cls.n in {1, 2, 3, 4, 6}
                    assert cls.lambda_tag in {tag for tag, _ in FINITE_PAIRS.values()}
            elif isinstance(cls, Identity):
                assert oracle == 1
            agreements += 1
        assert agreements == 500

    _verdict(3, "finite/infinite split matches the power oracle on 500 seeded words", body)


def test_criterion_4_brute_force_oracle():
    def body():
        for T, gen in (
            (GOLDEN_CUBIC, GOLDEN_GEN),
            (UNIPOTENT_CUBIC, UNIPOTENT_GEN),
        ):
            found = enumerate_symmetries(T, L_Z, 2)
            found_set = set(found)
            assert gen in found_set
            assert gen.inverse() in found_set
            for g in found:
                assert preserves_pair(g, T, L_Z)
                assert g.inverse() in found_set or max(
                    abs(x) for r in g.inverse().rows for x in r
                ) > 2
                for h in found:
                    prod = g @ h
                    if max(abs(x) for r in prod.rows for x in r) <= 2:
                        assert prod in found_set

    _verdict(4, "bounded enumeration closed under inverse/products, generator found", body)


def test_criterion_5_reconstruction_identity():
    def body():
        assert len(_FACTORIZATIONS) == 3, "criteria 1-2 must run first"
        for fact in _FACTORIZATIONS:
            assert reconstructs(fact)

    _verdict(5, "re-expanding every factorization reproduces all 10 coefficients", body)


def test_criterion_6_negative_controls():
    def body():
        with pytest.raises(ValidationError):
            parse_problem('{"cubic": {"x3": 1}, "c2": [0, 0, 0]}')

        deficient = LatticeMap([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert isinstance(classify(deficient), UnipotentDeficient)

        split = TrilinearForm.from_cubic_coefficients({"xyz": 6})
        w, w1, w2 = classify(UNIPOTENT_GEN)
        with pytest.raises(GeometricInconsistency) as exc:
            unipotent_factorization(check_unipotent_relations(split, L_Z, w, w1, w2))
        assert "E" in str(exc.value)

        bad = LatticeMap([[1, 1, 1], [0, 1, 1], [0, 0, 1]])  # d = 1 != a(a-1)/2 = 0
        with pytest.raises(ConstraintViolated):
            unipotent_shear(frame_coordinates_matrix(bad, frame_basis((w, w1, w2))))

    _verdict(6, "negative controls (c2 = 0, deficient block, E = 0, bad d entry)", body)


def test_criterion_7_discrete_cyclic_certification():
    def body():
        v1 = QuadSurd(Fraction(3, 2), Fraction(1, 2), 5)  # (3+sqrt5)/2
        v2 = QuadSurd(Fraction(7, 2), Fraction(3, 2), 5)  # (7+3sqrt5)/2
        cert = certify_discrete_cyclic([v1, v2])
        assert cert.kind == "Cyclic"
        assert cert.generator == QuadSurd(Fraction(1, 2), Fraction(1, 2), 5)
        assert cert.exponents == (2, 4)
        assert cert.generator**2 == v1 and cert.generator**4 == v2

    _verdict(7, "certify_discrete_cyclic refines to the fundamental unit with exponents (2, 4)", body)
