import functools
import math
import random
import time
import traceback
from fractions import Fraction
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import GOLDEN_ALPHA, clear_frame, compose, form_entries, scaling_value, surd
from cy3 import core_arith, group_structure, lattice_forms
from cy3.core_arith import QuadSurd, squarefree_decompose
from cy3.cubic_geometry import FULL_JORDAN, HODGE_INDEX, LEFSCHETZ, QuadricLine, ThreeLines
from cy3.element_classify import classify
from cy3.errors import (
    BoundTooLarge,
    ConstraintViolated,
    GeometricInconsistency,
    IncompatibleFields,
    LinesNotPreserved,
    NonPreservingGenerator,
    NotUnipotentInFrame,
    PostCheckFailed,
    ValidationError,
)
from cy3.group_structure import (
    CharacterWitness,
    TauWitness,
    analyze_group,
    certify_discrete_cyclic,
    certify_seed,
    enumerate_symmetries,
    frame_basis,
    frame_coordinates_matrix,
    quadric_preserved_in_frame,
    seed_of,
    unipotent_shear,
)
from cy3.lattice_forms import (
    MONOMIAL_INDICES,
    LatticeMap,
    LinearForm,
    TrilinearForm,
    preserves_pair,
    transform_cubic,
)
from test_lattice_forms import random_unimodular


def _rational_inverse(m):
    """Gauss-Jordan inverse over Fraction, independent of the adjugate."""
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(3)]
         for i, row in enumerate(m)]
    for c in range(3):
        pivot = next(r for r in range(c, 3) if a[r][c])
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(3):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[3:] for row in a]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


# A det -1 symmetry of the golden pair that swaps the two eigenlines, and the
# plane flip, which fixes each of them.
LINE_SWAP = LatticeMap([[-1, 0, 0], [1, 1, 0], [0, 0, 1]])
PLANE_FLIP = LatticeMap([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])


def _swapped(frame):
    """The frame (u, v, W) with the u and v slots exchanged."""
    u, v, w = frame
    return v, u, w


class TestScalingCharacter:
    """`_scaling_value` on the frame (u, v, W) of the eigenlines of
    `classify`, as the hyperbolic route reads it."""

    @pytest.fixture
    def golden_frame(self, golden_generator, L_z):
        """The eigenframe (u, v, W) as PairVectors over one den, v for the
        larger root alpha."""
        cls = classify(golden_generator, L_z)
        return clear_frame((cls.u.surds, cls.v.surds, cls.w))

    def test_generator_value(self, golden_generator, golden_frame):
        assert scaling_value(golden_generator, golden_frame) == GOLDEN_ALPHA**4

    def test_value_does_not_depend_on_the_scale_of_the_lines(self, golden_generator,
                                                             golden_frame):
        """v scaled by the irrational mu = -3 + (3/2)√5 and u by σ(mu): the
        value on v is alpha^4, and on u, with the slots exchanged, alpha^-4."""
        u, v, w = (f.surds for f in golden_frame)
        mu = surd(-3, Fraction(3, 2), 5)
        v_scaled = tuple(x * mu for x in v)
        assert v_scaled[0].b != 0
        frame = clear_frame((tuple(x * mu.conjugate() for x in u), v_scaled, w))
        assert scaling_value(golden_generator, frame) == GOLDEN_ALPHA**4
        assert scaling_value(golden_generator, _swapped(frame)) == GOLDEN_ALPHA**-4

    def test_multiplicativity_on_words(self, golden_generator, golden_frame):
        """chi(g^a) * chi(g^b) = chi(g^(a+b)) on words up to length 4."""
        for a in range(-4, 5):
            for b in range(-4, 5):
                prod = (scaling_value(golden_generator**a, golden_frame)
                        * scaling_value(golden_generator**b, golden_frame))
                assert prod == scaling_value(golden_generator ** (a + b), golden_frame)

    def test_line_swap_absorbed_by_fourth_power(self, golden_frame):
        """A symmetry swapping the two eigenlines still yields a positive value."""
        assert scaling_value(LINE_SWAP, golden_frame) == 1
        assert scaling_value(LINE_SWAP, _swapped(golden_frame)) == 1

    def test_non_preserving_raises(self, golden_frame):
        shear = LatticeMap([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(LinesNotPreserved) as info:
            scaling_value(shear, golden_frame)
        assert str(info.value) == "restricted action does not permute the two lines"

    def test_no_fraction_before_the_eigenvalue(self, golden_generator, golden_frame,
                                               fraction_builds):
        """The frame matrix, its line checks and the eigenvalue itself stay in
        ints: no Fraction is built."""
        value, built = fraction_builds(lambda: scaling_value(golden_generator, golden_frame))
        assert value == GOLDEN_ALPHA**4
        assert built == 0


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_scaling_value_matches_a_surd_oracle(rng, steps):
    """On the eigenframe of a random unimodular P-conjugate of the golden g,
    the value of each conjugate of g, g², g⁻¹, LINE_SWAP and PLANE_FLIP is the
    eigenvalue of its 4th power on v, found by QuadSurd products: the line
    swap included. The conjugated shear moves the lines and raises."""
    p = random_unimodular(rng, steps=steps)
    p_inv = p.inverse()
    L = compose(LinearForm(0, 0, 1), p)
    cls = classify(p_inv @ GOLDEN @ p, L)
    frame = clear_frame((cls.u.surds, cls.v.surds, cls.w))
    v = frame[1].surds
    for h in (GOLDEN, GOLDEN @ GOLDEN, GOLDEN.inverse(), LINE_SWAP, PLANE_FLIP):
        h = p_inv @ h @ p
        image = tuple(sum((x * y for x, y in zip(row, v)), surd(0)) for row in (h ** 4).rows)
        beta = next(x for x in image if x) / next(x for x in v if x)
        assert image == tuple(x * beta for x in v)
        assert scaling_value(h, frame) == beta
    shear = p_inv @ LatticeMap([[1, 1, 0], [0, 1, 0], [0, 0, 1]]) @ p
    with pytest.raises(LinesNotPreserved) as info:
        scaling_value(shear, frame)
    assert str(info.value) == "restricted action does not permute the two lines"


class TestCertifyDiscreteCyclic:
    def test_all_ones_is_finite(self):
        cert = certify_discrete_cyclic([QuadSurd(1), QuadSurd(1)])
        assert cert.kind == "Finite"

    def test_singleton_refines_to_fundamental_root(self):
        """alpha^4 = ((1+sqrt5)/2)^8: the certified generator is the
        fundamental unit of Q(√5) from its continued-fraction period, and the
        exponent 8 is found by doubling and bisection on its powers."""
        cert = certify_discrete_cyclic([GOLDEN_ALPHA**4])
        assert cert.kind == "Cyclic"
        assert cert.generator == surd(Fraction(1, 2), Fraction(1, 2), 5)
        assert cert.exponents == (8,)

    def test_mixed_powers(self):
        gamma = surd(Fraction(1, 2), Fraction(1, 2), 5)
        cert = certify_discrete_cyclic([gamma**8, gamma**12, QuadSurd(1)])
        assert cert.kind == "Cyclic"
        assert cert.generator == gamma
        assert cert.exponents == (8, 12, 0)

    def test_inverse_values_get_negative_exponents(self):
        gamma = surd(Fraction(1, 2), Fraction(1, 2), 5)
        cert = certify_discrete_cyclic([gamma**8, gamma**-4])
        assert cert.kind == "Cyclic"
        assert cert.exponents[0] > 0 > cert.exponents[1]
        assert cert.generator ** cert.exponents[1] == gamma**-4

    def test_rational_powers_of_two(self):
        """4 and 8 are not units, so they generate no group of units."""
        cert = certify_discrete_cyclic([QuadSurd(4), QuadSurd(8)])
        assert cert.kind == "Inconclusive"
        assert "4 is not a unit" in cert.reason

    def test_incommensurable_units_inconclusive(self):
        # 4 and 3 + sqrt3 share no common multiplicative base
        cert = certify_discrete_cyclic([surd(4), surd(3, 1, 3)])
        assert cert.kind == "Inconclusive"

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError, match="character values must be positive"):
            certify_discrete_cyclic([QuadSurd(-2)])

    def test_only_candidates_in_the_value_field_are_powered(self, monkeypatch):
        """Every power taken is of the fundamental unit of Q(√5), the field of
        the values: the exponent post-check eps**k == v raises nothing from
        another field."""
        gamma = surd(Fraction(1, 2), Fraction(1, 2), 5)
        values = [gamma**8, gamma**12]
        powered = []
        original = QuadSurd.__pow__

        def counted(self, n):
            powered.append(self.d)
            return original(self, n)

        monkeypatch.setattr(QuadSurd, "__pow__", counted)
        cert = certify_discrete_cyclic(values)
        assert cert.generator == gamma and cert.exponents == (8, 12)
        assert powered and set(powered) == {5}

    def test_large_exponent_has_no_bound(self):
        phi = surd(Fraction(1, 2), Fraction(1, 2), 5)
        cert = certify_discrete_cyclic([phi**3000])
        assert (cert.kind, cert.generator, cert.exponents) == ("Cyclic", phi, (3000,))

    @pytest.mark.parametrize("eps", [surd(Fraction(1, 2), Fraction(1, 2), 5), surd(1, 1, 2)])
    @pytest.mark.parametrize("k", [1, -1])
    def test_the_fundamental_unit_and_its_inverse(self, eps, k):
        """The rational part of phi = (1 + √5)/2 is below that of phi**0 = 1,
        so only the exact sign of the difference finds the exponent 1."""
        cert = certify_discrete_cyclic([eps**k])
        assert (cert.kind, cert.generator, cert.exponents) == ("Cyclic", eps, (k,))

    def test_generator_is_the_fundamental_unit_not_a_power(self):
        phi = surd(Fraction(1, 2), Fraction(1, 2), 5)
        cert = certify_discrete_cyclic([(phi**2) ** 132])
        assert (cert.generator, cert.exponents) == (phi, (264,))

    @pytest.mark.parametrize("values", [
        [surd(4), surd(3, 1, 3)],
        [surd(Fraction(5, 4), Fraction(1, 4), 5)],  # norm 5/4
        [surd(Fraction(11, 7), Fraction(6, 7), 2)],  # norm 1, not integral
    ])
    def test_non_units_are_rejected_at_once(self, values):
        start = time.perf_counter()
        cert = certify_discrete_cyclic(values)
        assert time.perf_counter() - start < 0.05
        assert cert.kind == "Inconclusive"
        assert f"{values[0]} is not a unit" in cert.reason
        assert f"norm {values[0].norm()}" in cert.reason

    def test_values_over_two_fields_are_incompatible(self):
        with pytest.raises(IncompatibleFields):
            certify_discrete_cyclic([surd(Fraction(1, 2), Fraction(1, 2), 5), surd(1, 1, 2)])

    def test_wrong_exponent_fails_the_named_post_check(self, monkeypatch):
        """With phi**2 posing as the fundamental unit of Q(√5), phi reads
        exponent 1 and the exact check phi**2 == phi fails."""
        monkeypatch.setattr(group_structure, "_fundamental_unit", lambda d, ceiling: (3, 1))
        with pytest.raises(PostCheckFailed) as exc:
            certify_discrete_cyclic([surd(Fraction(1, 2), Fraction(1, 2), 5)])
        assert exc.value.check == "character value is a power of the fundamental unit"

    def test_exponents_match_the_one_step_search(self):
        """For k in [-50, 50] the doubling-and-bisection search reads the
        exponent the one-step search eps, eps^2, ... up to the value reads."""
        phi = surd(Fraction(1, 2), Fraction(1, 2), 5)
        for k in range(-50, 51):
            cert = certify_discrete_cyclic([phi**k, phi])
            assert cert.exponents == (_stepped_exponent(phi, phi**k), 1) == (k, 1)

    @pytest.mark.parametrize("k", [2400, 21600])
    def test_golden_power_exponents_take_log_many_comparisons(self, monkeypatch, k):
        """phi^2400 and phi^21600 are the character values of the 300th and
        2700th powers of the golden generator; their exponents take O(log k)
        exact comparisons, where the one-step search took k."""
        phi = surd(Fraction(1, 2), Fraction(1, 2), 5)
        calls = []
        pair_sign = group_structure._pair_sign
        monkeypatch.setattr(group_structure, "_pair_sign",
                            lambda *args: calls.append(args) or pair_sign(*args))
        cert = certify_discrete_cyclic([phi**k])
        assert (cert.kind, cert.generator, cert.exponents) == ("Cyclic", phi, (k,))
        assert len(calls) <= 3 * k.bit_length()

    @given(st.sampled_from([d for d in range(2, 501) if squarefree_decompose(d)[0] == d]),
           st.integers(-100, 100), st.integers(-100, 100))
    def test_powers_of_the_fundamental_unit(self, d, k1, k2):
        x, y = group_structure._fundamental_unit(d, (1 << 4096, 0))
        eps = surd(Fraction(x, 2), Fraction(y, 2), d)
        cert = certify_discrete_cyclic([eps**k1, eps**k2])
        if k1 == k2 == 0:
            assert cert.kind == "Finite"
        else:
            assert (cert.kind, cert.generator, cert.exponents) == ("Cyclic", eps, (k1, k2))


def _stepped_exponent(eps, v):
    """Test-local one-step search: the k with eps**k = v, stepping eps**k up
    from 1 to v, or to 1/v for v < 1."""
    u, sign = (v, 1) if v >= 1 else (v.inverse(), -1)
    k, power = 0, QuadSurd(1)
    while power < u:
        power, k = power * eps, k + 1
    return sign * k


def _least_unit(d):
    """Test-local brute force: the least y >= 1 with x^2 - D*y^2 = -4 or 4,
    D the discriminant of Q(√d), as (x, y) with (x + y√d)/2 the unit."""
    D = d if d % 4 == 1 else 4 * d
    y = 1
    while True:
        for n in (-4, 4):  # at equal y the norm -1 unit is the smaller one
            x = math.isqrt(max(D * y * y + n, 0))
            if x * x == D * y * y + n:
                return (x, y) if D == d else (x, 2 * y)
        y += 1


class TestFundamentalUnit:
    def test_matches_brute_force_for_squarefree_d_up_to_100(self):
        for d in range(2, 101):
            if squarefree_decompose(d)[0] == d:
                unit = _least_unit(d)
                assert group_structure._fundamental_unit(d, unit) == unit, d

    @pytest.mark.parametrize("d, unit", [
        (94, (2 * 2143295, 2 * 221064)),
        (331, (2 * 2785589801443970, 2 * 153109862634573)),
    ])
    def test_long_period_fields(self, d, unit):
        assert group_structure._fundamental_unit(d, (1 << 256, 0)) == unit
        x, y = unit
        assert x * x - d * y * y in (4, -4)

    def test_period_passing_the_ceiling_fails_the_post_check(self):
        """2143295 + 221064√94 is the least unit > 1, so no unit lies below it."""
        with pytest.raises(PostCheckFailed) as exc:
            group_structure._fundamental_unit(94, (2 * 2143295, 2 * 221063))
        assert exc.value.check == "fundamental unit below every unit > 1"


def _unipotent_frame(g, L=LinearForm(0, 0, 1)):
    cls = classify(g, L)
    return cls.w, cls.w1, cls.w2


class TestUnipotentConstraints:
    def test_generator_powers(self, unipotent_generator):
        frame = _unipotent_frame(unipotent_generator)
        for n in (1, 2, 3, 10):
            hf = frame_coordinates_matrix(unipotent_generator**n, frame_basis(frame))
            h, e = hf
            assert unipotent_shear(hf) == h[0][1]
            assert Fraction(h[0][1], e) == n  # a
            assert Fraction(h[1][2], e) == n  # c
            assert Fraction(h[0][2], e) == Fraction(n * (n - 1), 2)  # d

    def test_tau_additive_on_products(self, unipotent_cubic, unipotent_generator, L_z):
        """tau(g^n) = n in the frame of g, read off the witness of g, ..., g^10."""
        g = unipotent_generator
        verdict = analyze_group(unipotent_cubic, L_z, [g**n for n in range(1, 11)])
        assert verdict.witness.p == 1
        values = dict(zip(range(1, 11), verdict.witness.values))
        assert values == {n: n for n in range(1, 11)}
        for a in range(1, 3):
            for b in range(1, 3):
                assert values[a] + values[b] == values[a + b]

    def test_unipotent_route_builds_no_fraction(self, unipotent_cubic, unipotent_generator,
                                                L_z, fraction_builds):
        """On the unipotent example and its conjugate by p, whose frame has
        det 8; the route built 39 Fractions on each when its frame matrix had
        Fraction entries."""
        p = LatticeMap([[1, 2, -1], [0, 1, 0], [2, 5, -1]])
        gens = [unipotent_generator, unipotent_generator**2, unipotent_generator.inverse()]
        conjugate = (transform_cubic(unipotent_cubic, p), compose(L_z, p),
                     [p.inverse() @ h @ p for h in gens])
        assert abs(lattice_forms._det3(_unipotent_frame(conjugate[2][0], conjugate[1]))) == 8
        for problem, witness in (((unipotent_cubic, L_z, gens), TauWitness(1, (1, 2, -1), 1)),
                                 (conjugate, TauWitness(2, (2, 4, -2), 2))):
            verdict, built = fraction_builds(analyze_group, *problem)
            assert verdict.witness == witness
            assert built == 0

    def test_not_unipotent_in_frame(self, unipotent_generator, golden_generator):
        frame = _unipotent_frame(unipotent_generator)
        with pytest.raises(NotUnipotentInFrame):
            unipotent_shear(frame_coordinates_matrix(golden_generator, frame_basis(frame)))

    @given(st.randoms(use_true_random=False), st.integers(-3, 3))
    def test_frame_coordinates_match_a_rational_inverse(self, rng, k):
        """adj(M)·(h·M)/det(M) equals M⁻¹·h·M from a Gauss-Jordan inverse, on
        the frame of a random unimodular conjugate of the unipotent example."""
        p = random_unimodular(rng, steps=6)
        g = p.inverse() @ LatticeMap([[1, 1, 0], [0, 1, 1], [0, 0, 1]]) @ p
        cls = classify(g, compose(LinearForm(0, 0, 1), p))
        frame = (cls.w, cls.w1, cls.w2)
        h = g**k @ random_unimodular(rng, steps=3)
        m = [[frame[j][i] for j in range(3)] for i in range(3)]
        expected = _mat_mul(_rational_inverse(m), _mat_mul(h.rows, m))
        hm, e = frame_coordinates_matrix(h, frame_basis(frame))
        assert e == abs(lattice_forms._det3(m))
        assert [[Fraction(x, e) for x in row] for row in hm] == expected

    @staticmethod
    def fraction_check(hf):
        """The reference over Fractions for hf = H/e: (error class, message) or None."""
        hf = [[Fraction(x, hf[1]) for x in row] for row in hf[0]]
        if hf[1][0] != 0 or hf[2][0] != 0 or hf[2][1] != 0:
            return NotUnipotentInFrame, "not upper triangular in the frame basis"
        if hf[0][0] != 1 or hf[2][2] != 1:
            return NotUnipotentInFrame, "outer diagonal entries differ from 1"
        b = hf[1][1]
        if b != 1:
            return (NotUnipotentInFrame,
                    f"restricted determinant is {b}; apply the index-2 reduction first")
        a, d, c = hf[0][1], hf[0][2], hf[1][2]
        if a != c:
            return ConstraintViolated, f"a = {a} differs from c = {c}"
        if d != a * (a - 1) / 2:
            return ConstraintViolated, f"d = {d} differs from a(a-1)/2 = {a * (a - 1) / 2}"
        return None

    @given(st.integers(1, 4), st.integers(-3, 3),
           st.lists(st.tuples(st.integers(0, 9), st.integers(-5, 5)), max_size=2))
    def test_matches_the_fraction_check(self, e, k, edits):
        """The shear e·(g^k in its frame), with up to two entries overwritten,
        raises what the Fraction check on H/e raises, message bytes included;
        edit 9 changes nothing."""
        h = [[e, e * k, e * k * (k - 1) // 2], [0, e, e * k], [0, 0, e]]
        for at, value in edits:
            if at < 9:
                h[at // 3][at % 3] = value
        try:
            outcome = unipotent_shear((h, e))
        except (NotUnipotentInFrame, ConstraintViolated) as exc:
            outcome = type(exc), str(exc)
        expected = self.fraction_check((h, e))
        assert outcome == (h[0][1] if expected is None else expected)

    def test_degenerate_frame_fails_the_named_post_check(self, unipotent_generator, L_z):
        cls = classify(unipotent_generator, L_z)
        frame = (cls.w, cls.w1, tuple(a + b for a, b in zip(cls.w, cls.w1)))
        with pytest.raises(PostCheckFailed) as info:
            frame_coordinates_matrix(unipotent_generator, frame_basis(frame))
        assert info.value.check == "degenerate frame"

    def test_one_frame_matrix_per_generator(self, unipotent_cubic, unipotent_generator, L_z,
                                            monkeypatch):
        """The constraint check and the quadric check share one frame matrix."""
        calls = []
        frame_matrix = group_structure.frame_coordinates_matrix

        def counted(h, frame):
            calls.append(h)
            return frame_matrix(h, frame)

        monkeypatch.setattr(group_structure, "frame_coordinates_matrix", counted)
        g = unipotent_generator
        verdict = analyze_group(unipotent_cubic, L_z, [g, g**2, g**3])
        assert verdict.kind == "AlmostAbelianRankOne"
        assert calls == [g, g**2, g**3]

    def test_constraint_violation(self, unipotent_generator):
        frame = _unipotent_frame(unipotent_generator)
        # unit upper triangular but a != c
        h = LatticeMap([[1, 2, 0], [0, 1, 1], [0, 0, 1]])
        with pytest.raises(ConstraintViolated):
            unipotent_shear(frame_coordinates_matrix(h, frame_basis(frame)))


def unipotent_split(p=LatticeMap.identity()):
    """The unipotent example conjugated by p: its split and its generator."""
    g = p.inverse() @ LatticeMap([[1, 1, 0], [0, 1, 1], [0, 0, 1]]) @ p
    T = TrilinearForm.from_cubic_coefficients({"z3": 1, "xz2": 6, "y2z": -3, "yz2": 3})
    L = compose(LinearForm(0, 0, 1), p)
    return certify_seed(transform_cubic(T, p), L, classify(g, L)).factorization, g


def frame_of(split):
    """The `frame_basis` of the integer columns (w, w1, w2) of a unipotent split."""
    return frame_basis([f.p for f in split.frame])


def scaled(hf, scale):
    """The frame matrix (H, e) of scale·H/e."""
    scale = Fraction(scale)
    h, e = hf
    return [[x * scale.numerator for x in row] for row in h], e * scale.denominator


class TestQuadricPreservedInFrame:
    """Hf^t Q Hf = Q on the frame of the unipotent example; the messages are
    those of the Fraction check that the integer one replaced."""

    @staticmethod
    def fraction_check(hf, split):
        """The reference over Fractions for hf = H/e: the message it raises, or None."""
        hf = [[Fraction(x, hf[1]) for x in row] for row in hf[0]]
        q = [[x.a for x in row] for row in split.quadric]
        m = _mat_mul(_mat_mul([list(c) for c in zip(*hf)], q), hf)
        lam = m[0][2] / q[0][2]
        if any(m[i][j] != lam * q[i][j] for i in range(3) for j in range(3)):
            return "frame action does not rescale the quadric"
        return None if lam == 1 else f"quadric invariance scalar {lam} != 1"

    @pytest.mark.parametrize("scale, message", [
        (2, "quadric invariance scalar 4 != 1"),
        (Fraction(1, 2), "quadric invariance scalar 1/4 != 1"),
        (Fraction(2, 3), "quadric invariance scalar 4/9 != 1"),
    ])
    def test_rescaled_quadric(self, scale, message):
        split, g = unipotent_split()
        hf = scaled(frame_coordinates_matrix(g, frame_of(split)), scale)
        with pytest.raises(ConstraintViolated) as info:
            quadric_preserved_in_frame(hf, split)
        assert str(info.value) == message

    @pytest.mark.parametrize("rows", [[[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                                      [[1, 0, 0], [0, -1, 0], [0, 0, 1]]])
    def test_quadric_not_rescaled(self, rows):
        split, _ = unipotent_split()
        with pytest.raises(ConstraintViolated) as info:
            quadric_preserved_in_frame(frame_coordinates_matrix(LatticeMap(rows), frame_of(split)),
                                       split)
        assert str(info.value) == "frame action does not rescale the quadric"

    def test_passing_check_builds_no_fraction(self, fraction_builds):
        p = LatticeMap([[2, 1, 0], [1, 1, 0], [1, 2, 1]])
        for split, g in (unipotent_split(), unipotent_split(p)):
            for n in (1, 2, -3):
                hf = frame_coordinates_matrix(g ** n, frame_of(split))
                assert fraction_builds(quadric_preserved_in_frame, hf, split) == (None, 0)

    @given(st.integers(-4, 4), st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-3, 2)]),
           st.randoms(use_true_random=False))
    def test_matches_the_fraction_check(self, k, scale, rng):
        """Scaled frame matrices of powers and of random maps, in the frame of
        a random conjugate, raise exactly what the Fraction check would."""
        split, g = unipotent_split(random_unimodular(rng, steps=4))
        h = g ** k
        if rng.random() < 0.5:
            h = h @ random_unimodular(rng, steps=2)
        hf = scaled(frame_coordinates_matrix(h, frame_of(split)), scale)
        try:
            quadric_preserved_in_frame(hf, split)
            message = None
        except ConstraintViolated as exc:
            message = str(exc)
        assert message == self.fraction_check(hf, split)


class TestEnumeration:
    def test_golden_bound_2(self, golden_cubic, golden_generator, L_z):
        found = enumerate_symmetries(golden_cubic, L_z, 2)
        assert golden_generator in found
        assert golden_generator.inverse() in found
        ident = LatticeMap.identity()
        assert ident in found
        # -id negates the cubic, so it must be absent; diag(-1,-1,1) preserves it
        assert LatticeMap([[-1, 0, 0], [0, -1, 0], [0, 0, -1]]) not in found
        assert LatticeMap([[-1, 0, 0], [0, -1, 0], [0, 0, 1]]) in found
        assert all(preserves_pair(g, golden_cubic, L_z) for g in found)

    def test_sorted_and_deterministic(self, golden_cubic, L_z):
        a = enumerate_symmetries(golden_cubic, L_z, 2)
        b = enumerate_symmetries(golden_cubic, L_z, 2)
        assert a == b
        assert a == sorted(a, key=lambda g: g.rows)

    def test_bound_guard(self, golden_cubic, L_z):
        with pytest.raises(BoundTooLarge):
            enumerate_symmetries(golden_cubic, L_z, 7)

    def test_zero_covector_is_refused(self, golden_cubic):
        """The plane walk solves L(c) = l_j for a nonzero coefficient of L;
        the zero covector is refused, as `classify` refuses it."""
        with pytest.raises(ValidationError, match="^the zero covector is not admitted$"):
            enumerate_symmetries(golden_cubic, LinearForm(0, 0, 0), 1)

    def test_closure_under_product_and_inverse(self, unipotent_cubic, L_z):
        """Enumerated sets are closed under products that stay within the bound."""
        found = set(enumerate_symmetries(unipotent_cubic, L_z, 2))
        for g in found:
            for h in found:
                prod = g @ h
                if max(abs(x) for r in prod.rows for x in r) <= 2:
                    assert prod in found


# Bound-3 enumerations recorded at the seed commit, before the integer kernel.
# A bound-b enumeration (b <= 3) is the sublist with entries in [-b, b].
PINNED_BOUND_3 = {
    "golden": [
        ((-2, -1, 0), (-1, -1, 0), (0, 0, 1)), ((-2, -1, 0), (3, 2, 0), (0, 0, 1)),
        ((-2, 3, 0), (-1, 2, 0), (0, 0, 1)), ((-1, 0, 0), (0, -1, 0), (0, 0, 1)),
        ((-1, 0, 0), (1, 1, 0), (0, 0, 1)), ((-1, 1, 0), (0, 1, 0), (0, 0, 1)),
        ((-1, 1, 0), (1, -2, 0), (0, 0, 1)), ((1, -1, 0), (-1, 2, 0), (0, 0, 1)),
        ((1, -1, 0), (0, -1, 0), (0, 0, 1)), ((1, 0, 0), (-1, -1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((2, -3, 0), (1, -2, 0), (0, 0, 1)),
        ((2, 1, 0), (-3, -2, 0), (0, 0, 1)), ((2, 1, 0), (1, 1, 0), (0, 0, 1)),
    ],
    "unipotent": [
        ((1, -2, 3), (0, -1, 3), (0, 0, 1)), ((1, -2, 3), (0, 1, -2), (0, 0, 1)),
        ((1, -1, 1), (0, -1, 2), (0, 0, 1)), ((1, -1, 1), (0, 1, -1), (0, 0, 1)),
        ((1, 0, 0), (0, -1, 1), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 1, 0), (0, -1, 0), (0, 0, 1)), ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
        ((1, 2, 1), (0, -1, -1), (0, 0, 1)), ((1, 2, 1), (0, 1, 2), (0, 0, 1)),
        ((1, 3, 3), (0, -1, -2), (0, 0, 1)), ((1, 3, 3), (0, 1, 3), (0, 0, 1)),
    ],
    "golden-x+z": [
        ((-2, -1, 0), (-1, -1, 0), (3, 1, 1)), ((-2, -1, 0), (3, 2, 0), (3, 1, 1)),
        ((-2, 3, 0), (-1, 2, 0), (3, -3, 1)), ((-1, 0, 0), (0, -1, 0), (2, 0, 1)),
        ((-1, 0, 0), (1, 1, 0), (2, 0, 1)), ((-1, 1, 0), (0, 1, 0), (2, -1, 1)),
        ((-1, 1, 0), (1, -2, 0), (2, -1, 1)), ((1, -1, 0), (-1, 2, 0), (0, 1, 1)),
        ((1, -1, 0), (0, -1, 0), (0, 1, 1)), ((1, 0, 0), (-1, -1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((2, -3, 0), (1, -2, 0), (-1, 3, 1)),
        ((2, 1, 0), (-3, -2, 0), (-1, -1, 1)), ((2, 1, 0), (1, 1, 0), (-1, -1, 1)),
    ],
}
PINNED_COUNTS = {"golden": (6, 10, 14), "unipotent": (5, 8, 12), "golden-x+z": (3, 9, 14)}


@pytest.fixture
def pinned_problems(golden_cubic, unipotent_cubic, L_z):
    # The golden cubic pulled back by P = [[1,0,0],[0,1,0],[1,0,1]], so that
    # L = z becomes L∘P = x + z.
    golden_x_plus_z = TrilinearForm.from_cubic_coefficients(
        {"x3": 1, "x2y": -1, "x2z": 1, "xy2": -1, "xyz": -1, "y2z": -1}
    )
    return {
        "golden": (golden_cubic, L_z),
        "unipotent": (unipotent_cubic, L_z),
        "golden-x+z": (golden_x_plus_z, LinearForm(1, 0, 1)),
    }


@pytest.mark.parametrize("name", sorted(PINNED_BOUND_3))
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_enumeration_matches_seed_pins(name, bound, pinned_problems):
    T, L = pinned_problems[name]
    expected = [rows for rows in PINNED_BOUND_3[name]
                if max(abs(x) for row in rows for x in row) <= bound]
    assert len(expected) == PINNED_COUNTS[name][bound - 1]
    assert [g.rows for g in enumerate_symmetries(T, L, bound)] == expected


# The monomials a cubic may use so that L = z divides it twice, once or not at all.
SHAPES = {
    "L^2 | C": ("xz2", "yz2", "z3"),
    "L | C": ("x2z", "xyz", "y2z", "xz2", "yz2", "z3"),
    "L does not divide C": tuple(MONOMIAL_INDICES),
}


@functools.cache
def _unimodular_box_1():
    """Every integer 3x3 matrix with entries in [-1, 1] and det ±1, in row order."""
    box = product(product((-1, 0, 1), repeat=3), repeat=3)
    return [LatticeMap(rows) for rows in box if lattice_forms._det3(rows) in (1, -1)]


@settings(deadline=None, max_examples=25)
@given(st.randoms(use_true_random=False), st.sampled_from(sorted(SHAPES)),
       st.lists(st.integers(-2, 2), min_size=10, max_size=10))
def test_enumeration_matches_brute_force(rng, shape, coefficients):
    """Bounds 0 and 1 against all 3^9 integer matrices filtered by the det and
    the full pullback, for a small cubic of the drawn shape over L = z, put in
    the coordinates of a random unimodular P. The pullback runs once per map
    found: no map that fails an entry gets past the prefilter."""
    cubic = {m: c for m, c in zip(MONOMIAL_INDICES, coefficients) if m in SHAPES[shape]}
    if shape == "L does not divide C":
        assume(any(cubic[m] for m in ("x3", "x2y", "xy2", "y3")))
    p = random_unimodular(rng, steps=rng.randint(0, 3))
    T = transform_cubic(TrilinearForm.from_cubic_coefficients(cubic), p)
    L = compose(LinearForm(0, 0, 1), p)
    expected = [g for g in _unimodular_box_1() if preserves_pair(g, T, L)]
    with mock.patch.object(group_structure, "preserves_pair", wraps=preserves_pair) as pullback:
        assert enumerate_symmetries(T, L, 1) == expected
    assert pullback.call_count == len(expected)
    assert enumerate_symmetries(T, L, 0) == []  # the zero matrix is not unimodular


@functools.cache
def _box_2_columns():
    return tuple(product(range(-2, 3), repeat=3))


@settings(deadline=None, max_examples=30)
@given(st.tuples(*[st.integers(-3, 3)] * 3).filter(any),
       st.dictionaries(st.sampled_from(sorted(MONOMIAL_INDICES)), st.integers(-2, 2),
                       max_size=4))
@example((2, 0, 0), {"x3": 1, "y2z": 1})
@example((2, 3, 0), {"z3": 1})
@example((0, 4, -6), {"x3": 1, "xy2": -1})
def test_plane_walk_matches_the_box_oracle(l, cubic):
    """Bound 2 against the 5³ box, for any nonzero L with coefficients in
    [-3, 3], non-primitive ones and ones with no ±1 coefficient included, so
    that the solve on a plane L(c) = l_j meets nonzero remainders. The oracle
    filters columns only by L(c_j) = l_j, the definition of L∘g = L, and runs
    the full pullback on every det ±1 triple of them; the enumeration runs it
    once per map found."""
    T, L = TrilinearForm.from_cubic_coefficients(cubic), LinearForm(*l)
    columns = [[c for c in _box_2_columns() if lattice_forms._dot(l, c) == lj] for lj in l]
    expected = []
    for c1, c2, c3 in product(*columns):
        if lattice_forms._det3((c1, c2, c3)) in (1, -1):
            g = LatticeMap(tuple(zip(c1, c2, c3)))
            if preserves_pair(g, T, L):
                expected.append(g)
    expected.sort(key=lambda g: g.rows)
    with mock.patch.object(group_structure, "preserves_pair", wraps=preserves_pair) as pullback:
        found = enumerate_symmetries(T, L, 2)
    assert found == expected
    assert pullback.call_count == len(found)


# For each entry checked after the column pools, a pair with a map of entries
# in [-1, 1] and det ±1 that fixes L and every entry of the cubic but that one,
# found by a seeded search over random cubics.
NEAR_MISSES = {
    (1, 1, 2): ({"x3": -2, "x2y": 1, "x2z": 1, "xy2": 2, "xz2": 1, "y2z": -1, "z3": -1},
                (1, 0, 1)),
    (1, 1, 3): ({"x3": -2, "x2y": -2, "x2z": 2, "y3": -1, "yz2": 1}, (-1, -1, 0)),
    (1, 2, 2): ({"x2y": -2, "x2z": -1, "xy2": 2, "y2z": 1, "yz2": -1, "z3": -2}, (0, 0, -1)),
    (1, 2, 3): ({"x3": 1, "x2z": 1, "xy2": 1, "xyz": -2, "xz2": -2, "y2z": 1, "z3": 1},
                (-1, 0, -1)),
    (1, 3, 3): ({"x2y": -1, "xz2": 1, "y3": 2, "y2z": 1, "yz2": 1, "z3": -2}, (0, -1, 0)),
    (2, 2, 3): ({"x3": 1, "x2y": 2, "xy2": 2, "xz2": -2, "y3": -2, "y2z": 1, "yz2": 1},
                (0, 1, 0)),
    (2, 3, 3): ({"x3": -2, "xy2": -1, "yz2": 1}, (1, 0, -1)),
}


@pytest.mark.parametrize("entry", sorted(NEAR_MISSES), ids=str)
def test_near_miss_stops_at_its_entry(entry):
    """The near miss fails only `entry`, and the prefilter keeps it from the
    full pullback, which runs once per map found."""
    cubic, l = NEAR_MISSES[entry]
    T, L = TrilinearForm.from_cubic_coefficients(cubic), LinearForm(*l)
    entries = form_entries(T)

    def failing(g):
        moved = form_entries(transform_cubic(T, g))
        return {key for key in entries if moved[key] != entries[key]}

    assert any(compose(L, g) == L and failing(g) == {entry} for g in _unimodular_box_1())
    with mock.patch.object(group_structure, "preserves_pair", wraps=preserves_pair) as pullback:
        found = enumerate_symmetries(T, L, 1)
    assert pullback.call_count == len(found)


@pytest.mark.parametrize("bound", [1, 2])
def test_every_enumeration_survivor_is_a_symmetry(bound, monkeypatch):
    """On each benchmark catalogue entry, the full pullback runs once per map
    found: the prefilter has already matched all ten entries and L."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import problems

    for name in sorted(problems.ENUM_CATALOGUE):
        problem = problems.enum_problem(name, bound, "enumerate")
        T, L = TrilinearForm.from_cubic_coefficients(problem.cubic), LinearForm(*problem.c2)
        with mock.patch.object(group_structure, "preserves_pair",
                               wraps=preserves_pair) as pullback:
            found = enumerate_symmetries(T, L, bound)
        assert found and pullback.call_count == len(found), name


def _gl2_count(bound):
    """How many integer 2x2 matrices with entries in [-bound, bound] have det ±1."""
    box = range(-bound, bound + 1)
    return sum(abs(a * d - b * c) == 1 for a, b, c, d in product(box, repeat=4))


@pytest.mark.parametrize("bound", [0, 1, 2, 3])
def test_enumeration_of_z3_counts_gl2_times_translations(bound):
    """For C = z³ and L = z no filter prunes: the maps preserving the pair are
    exactly [[A, t], [0, 1]] with A in GL₂(ℤ) and t any column, so a bound-b
    enumeration finds n₂(b)·(2b+1)² maps, each through the pools and the full
    pullback."""
    T, L = TrilinearForm.from_cubic_coefficients({"z3": 1}), LinearForm(0, 0, 1)
    found = enumerate_symmetries(T, L, bound)
    assert len(found) == _gl2_count(bound) * (2 * bound + 1) ** 2
    assert all(g.rows[2] == (0, 0, 1) for g in found)
    if bound == 3:
        assert (_gl2_count(3), len(found)) == (232, 11368)


class TestCertifySeed:
    def test_hyperbolic_seed(self, golden_cubic, golden_generator, L_z):
        lines = seed_of(golden_generator, classify(golden_generator, L_z))
        cert = certify_seed(golden_cubic, L_z, lines)
        assert cert.relations.overall
        assert (cert.reason, cert.inconsistency) == (None, None)
        assert isinstance(cert.factorization, ThreeLines)
        assert len(cert.singular_lines) == 3

    def test_unipotent_seed(self, unipotent_cubic, unipotent_generator, L_z):
        cert = certify_seed(unipotent_cubic, L_z, classify(unipotent_generator, L_z))
        assert cert.relations.overall
        assert cert.factorization.e == 3
        assert [line.surds for line in cert.singular_lines] == [(1, 0, 0)]

    def test_hodge_index_comes_after_the_relation_gate(self, golden_generator, L_z):
        """z^3: every relation holds, then B = T(u, v, w) = 0 is returned."""
        T = TrilinearForm.from_cubic_coefficients({"z3": 1})
        lines = seed_of(golden_generator, classify(golden_generator, L_z))
        cert = certify_seed(T, L_z, lines)
        assert cert.relations.overall
        assert cert.factorization is None and cert.reason is None
        assert cert.inconsistency[0] == HODGE_INDEX

    def test_lefschetz_comes_before_the_relation_gate(self, split_cubic, unipotent_generator,
                                                      L_z):
        cert = certify_seed(split_cubic, L_z, classify(unipotent_generator, L_z))
        assert not cert.relations.overall
        assert cert.factorization is None and cert.reason is None
        assert cert.inconsistency[0] == LEFSCHETZ

    def test_each_raise_is_a_fresh_inconsistency(self, golden_generator, L_z):
        """The memoized certificate keeps the Hodge inconsistency of z^3 as
        data: three analyses that share it raise three instances, each with
        the reductions of its own call and a traceback of one depth."""
        T = TrilinearForm.from_cubic_coefficients({"z3": 1})
        schreier = ("determinant -1 generators replaced by the Schreier generators of the "
                    "det-1 subgroup (index ≤ 2)",)
        raised = []
        for generators, reductions in (([golden_generator], ()),
                                       ([golden_generator, LINE_SWAP], schreier),
                                       ([golden_generator], ())):
            with pytest.raises(GeometricInconsistency) as info:
                analyze_group(T, L_z, generators)
            assert (info.value.mechanism, info.value.reductions) == (HODGE_INDEX, reductions)
            raised.append(info.value)
        assert certify_seed.cache_info().hits == 2
        assert len({id(exc) for exc in raised}) == 3
        assert len({len(traceback.extract_tb(exc.__traceback__)) for exc in raised}) == 1

    def test_one_frame_table_per_check(self, golden_cubic_quadric, golden_generator, L_z,
                                        monkeypatch):
        """On a conjugated hyperbolic seed the frame is never cleared: the
        relation rows, the frame table, the split and the singular-line
        gradients are all read off the integer pairs that classify built."""
        rng = random.Random(5)
        p = random_unimodular(rng, steps=4)
        T = transform_cubic(golden_cubic_quadric, p)
        g, L = p.inverse() @ golden_generator @ p, compose(L_z, p)
        lines = seed_of(g, classify(g, L))
        calls = []
        int_pairs = lattice_forms._int_pairs
        monkeypatch.setattr(lattice_forms, "_int_pairs",
                            lambda v: calls.append(v) or int_pairs(v))
        cert = certify_seed(T, L, lines)
        assert isinstance(cert.factorization, QuadricLine)
        assert len(cert.singular_lines) == 2
        assert len(calls) == 0

    def test_one_clearing_per_hyperbolic_analysis(self, golden_cubic_quadric, golden_generator,
                                                  L_z, monkeypatch):
        """classify keeps u and v as integer pairs, and the relations, the
        split and the scaling character of every generator read them as they
        are: no clearing in the whole analysis of three generators."""
        rng = random.Random(6)
        p = random_unimodular(rng, steps=4)
        T = transform_cubic(golden_cubic_quadric, p)
        g, L = p.inverse() @ golden_generator @ p, compose(L_z, p)
        calls = []
        int_pairs = lattice_forms._int_pairs
        monkeypatch.setattr(lattice_forms, "_int_pairs",
                            lambda v: calls.append(v) or int_pairs(v))
        verdict = analyze_group(T, L, [g, g @ g, g.inverse()])
        assert verdict.kind == "AlmostAbelianRankOne"
        assert verdict.witness.exponents == (8, 16, -8)
        assert len(calls) == 0

    def test_no_eigenline_surd_per_hyperbolic_analysis(self, golden_cubic_quadric,
                                                       golden_generator, L_z, monkeypatch):
        """analyze renders no eigenline: the analysis of the three conjugated
        golden generators above reads PairVector.surds not once."""
        rng = random.Random(6)
        p = random_unimodular(rng, steps=4)
        T = transform_cubic(golden_cubic_quadric, p)
        g, L = p.inverse() @ golden_generator @ p, compose(L_z, p)
        reads = []
        surds = lattice_forms.PairVector.surds
        monkeypatch.setattr(lattice_forms.PairVector, "surds",
                            property(lambda x: reads.append(x) or surds.fget(x)))
        verdict = analyze_group(T, L, [g, g @ g, g.inverse()])
        assert verdict.witness.exponents == (8, 16, -8)
        assert reads == []

    def test_analyze_runs_the_unipotent_singular_locus_post_check(
            self, unipotent_cubic, unipotent_generator, L_z, monkeypatch):
        """A split claiming w2 as its singular line fails the gradient
        post-check inside analyze_group too, not only in cy3 factor."""
        factor = group_structure.unipotent_factorization

        def tampered(*args, **kwargs):
            split = factor(*args, **kwargs)
            return split._replace(frame=split.frame[::-1])

        monkeypatch.setattr(group_structure, "unipotent_factorization", tampered)
        with pytest.raises(PostCheckFailed) as info:
            analyze_group(unipotent_cubic, L_z, [unipotent_generator])
        assert info.value.check == "singular-locus gradient"


class TestAnalyzeGroup:
    def test_negative_real_pair_generator(self, golden_cubic, L_z):
        """diag(-1,-1,1)·g has s = -3: out of theory as an element, but of
        infinite order, so the group still takes the hyperbolic route."""
        h = LatticeMap([[-2, -1, 0], [-1, -1, 0], [0, 0, 1]])
        assert preserves_pair(h, golden_cubic, L_z)
        verdict = analyze_group(golden_cubic, L_z, [h])
        assert verdict.kind == "AlmostAbelianRankOne"
        assert isinstance(verdict.witness, CharacterWitness)

    def test_closure_post_check_is_named(self, golden_cubic, L_z, monkeypatch):
        import cy3.group_structure as gs

        monkeypatch.setattr(gs, "finite_order", lambda g: None)
        flip = LatticeMap([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
        with pytest.raises(PostCheckFailed) as info:
            analyze_group(golden_cubic, L_z, [flip])
        assert info.value.check == "closure elements of finite order"

    def test_infinite_closure_says_so(self, L_z):
        """Two order-4 maps that fix z generate an infinite group (their
        product is a translation in the x-y plane): the closure stops past
        24 elements, the most a finite subgroup of SL3(Z) has."""
        z3 = TrilinearForm.from_cubic_coefficients({"z3": 1})
        gens = [LatticeMap([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
                LatticeMap([[0, -1, 1], [1, 0, 0], [0, 0, 1]])]
        verdict = analyze_group(z3, L_z, gens)
        assert verdict.kind == "Inconclusive"
        assert verdict.reason.startswith("the group is infinite: its closure passed 24")

    def test_closure_takes_only_det_1_generators(self):
        flip = LatticeMap([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(PostCheckFailed) as info:
            group_structure._finite_closure([flip])
        assert info.value.check == "closure generators of determinant 1"

    @pytest.mark.parametrize("order, g", [
        (2, ((-1, 0, 0), (0, -1, 0), (0, 0, 1))),
        (3, ((0, -1, 0), (1, -1, 0), (0, 0, 1))),
        (4, ((0, -1, 0), (1, 0, 0), (0, 0, 1))),
        (6, ((1, -1, 0), (1, 0, 0), (0, 0, 1))),
    ])
    def test_closure_of_one_generator_is_its_powers(self, order, g):
        g = LatticeMap(g)
        powers = [LatticeMap.identity()]
        for _ in range(order - 1):
            powers.append(powers[-1] @ g)
        verdict = group_structure._finite_closure([g])
        assert verdict.kind == "Finite"
        assert set(verdict.elements) == set(powers) and len(verdict.elements) == order
        assert g.inverse() in verdict.elements

    def test_closure_takes_no_inverse(self):
        """The closure grows by products with the generators alone: in a
        finite group each inverse is a power."""
        gens = [LatticeMap([[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
                LatticeMap([[1, 0, 0], [0, -1, 0], [0, 0, -1]])]
        with mock.patch.object(LatticeMap, "inverse", autospec=True,
                               side_effect=LatticeMap.inverse) as inverse:
            verdict = group_structure._finite_closure(gens)
        assert (verdict.kind, len(verdict.elements)) == ("Finite", 8)
        assert inverse.call_count == 0

    def test_hyperbolic_verdict(self, golden_cubic, golden_generator, L_z):
        verdict = analyze_group(golden_cubic, L_z, [golden_generator])
        assert verdict.kind == "AlmostAbelianRankOne"
        w = verdict.witness
        assert isinstance(w, CharacterWitness)
        assert w.generator == surd(Fraction(1, 2), Fraction(1, 2), 5)
        assert w.exponents == (8,)
        assert w.values == (GOLDEN_ALPHA**4,)

    def test_unipotent_verdict(self, unipotent_cubic, unipotent_generator, L_z):
        verdict = analyze_group(unipotent_cubic, L_z, [unipotent_generator])
        assert verdict.kind == "AlmostAbelianRankOne"
        w = verdict.witness
        assert isinstance(w, TauWitness)
        assert w.p == 1
        assert w.values == (1,)
        assert w.generator_value == 1

    def test_unipotent_multiple_generators(self, unipotent_cubic, unipotent_generator, L_z):
        gens = [unipotent_generator**2, unipotent_generator**3]
        verdict = analyze_group(unipotent_cubic, L_z, gens)
        assert verdict.kind == "AlmostAbelianRankOne"
        # tau is computed in the frame of the first generator, which rescales
        # the homomorphism by a fixed factor (here 2); ratios are preserved
        v2, v3 = verdict.witness.values
        assert v2 * 3 == v3 * 2
        assert verdict.witness.generator_value == __import__("math").gcd(v2, v3)

    def test_generator_value_of_negative_taus(self, unipotent_cubic, unipotent_generator, L_z):
        """In the frame of g, g^-2 has tau = -2 and g^6 has tau = 6; the gcd
        is taken of absolute values."""
        gens = [unipotent_generator ** -2, unipotent_generator ** 6]
        verdict = analyze_group(unipotent_cubic, L_z, [unipotent_generator, *gens])
        assert verdict.witness.values == (1, -2, 6)
        verdict = analyze_group(unipotent_cubic, L_z, gens)
        assert verdict.witness.values[1] == -3 * verdict.witness.values[0] < 0
        assert verdict.witness.generator_value == abs(verdict.witness.values[0])

    @pytest.mark.parametrize("route, cubic, generator", [
        ("_unipotent_route", "unipotent_cubic", "unipotent_generator"),
        ("_hyperbolic_route", "golden_cubic", "golden_generator"),
    ])
    def test_zero_character_fails_the_tail_post_check(self, request, monkeypatch, L_z,
                                                       route, cubic, generator):
        """The seed is a generator with a nonzero character value, so phi = 0
        cannot come out of either route; if it did, the shared tail raises its
        named post-check rather than answer Finite or AlmostAbelianRankOne."""
        monkeypatch.setattr(group_structure, route,
                            lambda generators, fact, reductions: ((0,) * len(generators), None))
        T, g = request.getfixturevalue(cubic), request.getfixturevalue(generator)
        with pytest.raises(PostCheckFailed) as info:
            analyze_group(T, L_z, [g])
        assert info.value.check == "the character is nonzero on the seed generator"

    def test_finite_verdict(self, golden_cubic, L_z):
        flip = LatticeMap([[-1, 0, 0], [0, -1, 0], [0, 0, 1]])
        verdict = analyze_group(golden_cubic, L_z, [flip])
        assert verdict.kind == "Finite"
        assert LatticeMap.identity() in verdict.elements
        assert flip in verdict.elements
        assert len(verdict.elements) == 2

    def test_trivial_group(self, golden_cubic, L_z):
        verdict = analyze_group(golden_cubic, L_z, [])
        assert verdict.kind == "Finite"
        assert verdict.elements == (LatticeMap.identity(),)

    def test_enumeration_fallback(self, golden_cubic, golden_generator, L_z):
        verdict = analyze_group(golden_cubic, L_z, None, bound=2)
        assert verdict.kind == "AlmostAbelianRankOne"
        assert any("enumeration" in r for r in verdict.reductions)

    def test_each_generator_is_checked_once(self, golden_cubic, golden_generator, L_z):
        """Enumerated generators pass preserves_pair inside the enumeration
        only; given generators pass it once each in analyze_group."""
        with mock.patch.object(group_structure, "preserves_pair",
                               wraps=preserves_pair) as pullback:
            analyze_group(golden_cubic, L_z, None, bound=2)
        assert pullback.call_count == 10
        gens = [golden_generator, golden_generator ** 2, golden_generator.inverse()]
        with mock.patch.object(group_structure, "preserves_pair",
                               wraps=preserves_pair) as pullback:
            analyze_group(golden_cubic, L_z, gens)
        assert [call.args[0] for call in pullback.call_args_list] == gens

    def test_non_preserving_generator_rejected(self, golden_cubic, L_z):
        shear = LatticeMap([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(NonPreservingGenerator):
            analyze_group(golden_cubic, L_z, [shear])

    def test_deficient_unipotent_is_geometric_inconsistency(self, L_z):
        from cy3.lattice_forms import TrilinearForm

        # x^3 + y^2 z admits the rank-1 shear fixing it? Use a cubic preserved
        # by the deficient shear h: x -> x + z.
        h = LatticeMap([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        T = TrilinearForm.from_cubic_coefficients({"y3": 1})
        assert preserves_pair(h, T, L_z)
        with pytest.raises(GeometricInconsistency):
            analyze_group(T, L_z, [h])

    def test_det_minus_one_reduction(self, golden_cubic, golden_generator, L_z):
        neg = LatticeMap([[-1, 0, 0], [1, 1, 0], [0, 0, 1]])  # det -1 symmetry
        assert preserves_pair(neg, golden_cubic, L_z)
        verdict = analyze_group(golden_cubic, L_z, [golden_generator, neg])
        assert verdict.kind == "AlmostAbelianRankOne"
        assert any("determinant -1" in r for r in verdict.reductions)
        # Schreier generators for {1, neg}: g, neg·g·neg⁻¹, then neg·neg⁻¹ = neg·neg = 1.
        # neg swaps the eigenlines, so its conjugate of g scales by alpha^-4.
        assert verdict.witness.values == (GOLDEN_ALPHA**4, GOLDEN_ALPHA**-4, QuadSurd(1))
        assert verdict.witness.exponents == (8, -8, 0)

    def test_d94_automorph_given_as_a_matrix(self):
        """x^2 z - 94 y^2 z + z^3 and the automorph of the fundamental unit
        eps = 2143295 + 221064√94: the character value eps^4 has exponent 4."""
        T = TrilinearForm.from_cubic_coefficients({"x2z": 1, "y2z": -94, "z3": 1})
        a = LatticeMap([[2143295, 94 * 221064, 0], [221064, 2143295, 0], [0, 0, 1]])
        verdict = analyze_group(T, LinearForm(0, 0, 1), [a])
        assert verdict.kind == "AlmostAbelianRankOne"
        assert verdict.witness.generator == QuadSurd(2143295, 221064, 94)
        assert verdict.witness.exponents == (4,)

    def test_hyperbolic_inverse_pair(self, golden_cubic, golden_generator, L_z):
        verdict = analyze_group(
            golden_cubic, L_z, [golden_generator, golden_generator.inverse()]
        )
        assert verdict.kind == "AlmostAbelianRankOne"
        exps = verdict.witness.exponents
        assert exps[0] == -exps[1]

    @pytest.mark.parametrize("seed", range(3))
    def test_no_matrix_power_on_the_hyperbolic_route(self, golden_cubic, L_z, monkeypatch,
                                                      seed):
        """Conjugated golden generators and LINE_SWAP are certified with
        LatticeMap.__pow__ patched to raise: the route reads each generator
        through its frame matrix and takes no matrix power."""
        p = random_unimodular(random.Random(seed), steps=6)
        T, L = transform_cubic(golden_cubic, p), compose(L_z, p)
        gens = [p.inverse() @ g @ p for g in (GOLDEN, LINE_SWAP)]

        def no_power(self, n):
            raise AssertionError("LatticeMap power taken")

        monkeypatch.setattr(LatticeMap, "__pow__", no_power)
        verdict = analyze_group(T, L, gens)
        assert verdict.kind == "AlmostAbelianRankOne"
        assert verdict.witness == CharacterWitness(
            generator=surd(Fraction(1, 2), Fraction(1, 2), 5), exponents=(8, -8, 0),
            values=(GOLDEN_ALPHA**4, GOLDEN_ALPHA**-4, QuadSurd(1)))

    def test_two_golden_reflections(self, golden_cubic, L_z):
        """Two det -1 involutions: each has a trivial character, and the
        infinite part lives only in their product g (an infinite dihedral
        group has no nonzero homomorphism to Z). The Schreier generators for
        {1, LINE_SWAP} are 1, r·LINE_SWAP = g and LINE_SWAP·r = g⁻¹."""
        r = LatticeMap([[-1, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert preserves_pair(r, golden_cubic, L_z)
        for gens in ([LINE_SWAP, r], [r, LINE_SWAP]):
            verdict = analyze_group(golden_cubic, L_z, gens)
            assert verdict.kind == "AlmostAbelianRankOne"
            assert verdict.witness.exponents == (0, 8, -8)


GOLDEN = LatticeMap([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
GOLDEN_SETS = [
    [GOLDEN],
    [GOLDEN, LINE_SWAP],
    [GOLDEN, PLANE_FLIP],
    [LINE_SWAP, GOLDEN**2, PLANE_FLIP],
]


Z3 = TrilinearForm.from_cubic_coefficients({"z3": 1})
JORDAN = LatticeMap([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
SHEAR = LatticeMap([[1, 1, 0], [0, 1, 0], [0, 0, 1]])  # rank(g - id) = 1
MINUS_JORDAN = LatticeMap([[-1, 1, 0], [0, -1, 0], [0, 0, 1]])  # s = -2, infinite order


class TestVerdictOrder:
    """On C = z³ with L = z every [[A, t], [0, 1]] preserves the pair, so a
    list may mix any classes. The generators are walked in input order: the
    first deficient Jordan block raises, the first out-of-theory element that
    is no real pair answers Inconclusive, and only then are unipotent and
    hyperbolic generators told apart."""

    @pytest.mark.parametrize("gens", [[GOLDEN, JORDAN], [JORDAN, GOLDEN]])
    def test_mixed_unipotent_and_hyperbolic(self, gens, L_z):
        verdict = analyze_group(Z3, L_z, gens)
        assert (verdict.kind, verdict.reason) == (
            "Inconclusive", "mixed unipotent and hyperbolic generators")

    def test_deficient_block_after_a_hyperbolic_seed(self, L_z):
        with pytest.raises(GeometricInconsistency) as info:
            analyze_group(Z3, L_z, [GOLDEN, SHEAR])
        assert info.value.mechanism == FULL_JORDAN

    def test_minus_one_block_after_a_hyperbolic_seed(self, L_z):
        verdict = analyze_group(Z3, L_z, [GOLDEN, MINUS_JORDAN])
        assert (verdict.kind, verdict.reason) == (
            "Inconclusive", "infinite order with eigenvalue -1 Jordan block")

    def test_first_of_deficient_and_out_of_theory_decides(self, L_z):
        with pytest.raises(GeometricInconsistency):
            analyze_group(Z3, L_z, [SHEAR, MINUS_JORDAN])
        verdict = analyze_group(Z3, L_z, [MINUS_JORDAN, SHEAR])
        assert verdict.reason == "infinite order with eigenvalue -1 Jordan block"

    def test_negative_real_pair_seeds_the_hyperbolic_route(self, golden_cubic, L_z):
        """diag(-1, -1, 1)·g has s = -3 and comes first, so it is the seed: its
        v is the eigenline of (-3 + √5)/2, where g scales by phi^-2, and both
        exponents read -8."""
        verdict = analyze_group(golden_cubic, L_z, [PLANE_FLIP @ GOLDEN, GOLDEN])
        assert verdict.kind == "AlmostAbelianRankOne"
        assert verdict.witness.exponents == (-8, -8)


class TestOneRadicandPerProblem:
    """Only the seed enters its quadratic field: every other generator is read
    in the seed's frame, so analyze factors s² - 4 once, with two squarefree
    splits, whatever the number of generators."""

    @pytest.mark.parametrize("gens", [
        [GOLDEN ** 2500],
        [GOLDEN ** 2500, GOLDEN ** 2501],
        [GOLDEN ** k for k in range(2500, 2504)],
        # LINE_SWAP has det -1: its Schreier generators conjugate each power
        [GOLDEN ** 2500, GOLDEN ** 2501, LINE_SWAP],
    ], ids=["one", "two", "four", "four-schreier"])
    def test_at_most_two_squarefree_splits(self, gens, golden_cubic, L_z, monkeypatch):
        calls = []
        original = core_arith.squarefree_decompose
        monkeypatch.setattr(core_arith, "squarefree_decompose",
                            lambda n: calls.append(n) or original(n))
        verdict = analyze_group(golden_cubic, L_z, gens)
        assert verdict.kind == "AlmostAbelianRankOne"
        assert len(calls) <= 2


@settings(deadline=None, max_examples=40)
@given(st.randoms(use_true_random=False), st.sampled_from(range(len(GOLDEN_SETS))))
def test_hyperbolic_witness_is_coordinate_covariant(rng, which):
    """The golden pair in the coordinates of a random unimodular P, so that
    L∘P != z in general, with the generators conjugated: the witness
    generator, exponents and values do not change, in order: with a det -1
    generator the Schreier generators conjugate one by one."""
    T = TrilinearForm.from_cubic_coefficients({"x2z": 1, "xyz": -1, "y2z": -1})
    L = LinearForm(0, 0, 1)
    p = random_unimodular(rng, steps=6)
    assume(compose(L, p) != L)
    gens = GOLDEN_SETS[which]
    base = analyze_group(T, L, gens)
    moved = analyze_group(transform_cubic(T, p), compose(L, p),
                          [p.inverse() @ g @ p for g in gens])
    assert base.kind == moved.kind == "AlmostAbelianRankOne"
    assert moved.witness.generator == base.witness.generator
    assert moved.witness.exponents == base.witness.exponents
    assert moved.witness.values == base.witness.values


def _brute_force_closure(gens):
    """All products of the given matrices, as row tuples, with the identity."""
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    group, frontier = {identity}, [identity]
    while frontier:
        new = {tuple(map(tuple, _mat_mul(a, g))) for a in frontier for g in gens} - group
        group |= new
        frontier = list(new)
    return group


@pytest.mark.parametrize("coefficients", [
    {"x2z": 1, "y2z": 1, "z3": 1},  # square form, dihedral group of order 8
    {"x2z": 1, "xyz": 1, "y2z": 1, "z3": 1},  # hexagonal form, order 12
])
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_finite_elements_are_the_det_1_part_of_the_closure(coefficients, data):
    """For a random subset of the bound-2 symmetries, the Finite elements are
    the det-1 elements of the group the subset generates."""
    T = TrilinearForm.from_cubic_coefficients(coefficients)
    L = LinearForm(0, 0, 1)
    symmetries = enumerate_symmetries(T, L, 2)
    gens = data.draw(st.lists(st.sampled_from(symmetries), max_size=4))
    verdict = analyze_group(T, L, gens)
    assert verdict.kind == "Finite"
    expected = {m for m in _brute_force_closure([g.rows for g in gens])
                if LatticeMap(m).det == 1}
    assert {g.rows for g in verdict.elements} == expected
