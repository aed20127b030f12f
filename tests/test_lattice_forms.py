import random
import re
from fractions import Fraction
from functools import reduce
from itertools import permutations, product
from operator import add

import pytest
from hypothesis import given, strategies as st

from conftest import clear_frame, compose, form_entries, form_entry, normalize, scaled_tensor
from cy3 import core_arith
from cy3.core_arith import QuadSurd
from cy3.errors import Cy3Error, IncompatibleFields, NotUnimodular, ValidationError, ZeroVector
from cy3.lattice_forms import (
    ENTRY_KEYS,
    MONOMIAL_INDICES,
    LatticeMap,
    LinearForm,
    TrilinearForm,
    _dot,
    _form_pullback,
    _int_pairs,
    _matmul,
    _matvec,
    _normalized,
    _pair_cross,
    _scaled_pullback,
    cross,
    cubic_eval,
    frame_table,
    multinomial,
    preserves_pair,
    primitive_part,
    transform_cubic,
    trilinear_eval,
)


def random_unimodular(rng, steps=8):
    """Random SL(3,Z) word in elementary shears (an independent generator)."""
    g = LatticeMap.identity()
    for _ in range(steps):
        i, j = rng.sample(range(3), 2)
        rows = [list(r) for r in LatticeMap.identity().rows]
        rows[i][j] = rng.choice([-2, -1, 1, 2])
        g = g @ LatticeMap(rows)
    return g


def _pairs(v):
    """The integer vectors (p, q) of v = (p + q·√d)/den."""
    return _int_pairs(v)[:2]


class TestTrilinearForm:
    def test_multinomial(self):
        assert multinomial(1, 1, 1) == 1
        assert multinomial(1, 1, 2) == 3
        assert multinomial(1, 2, 3) == 6

    def test_entries_from_coefficients(self, golden_cubic):
        # z*x^2 has coefficient 1 on a weight-3 orbit, so t[113] = 1/3: over
        # D = 6 the entries 113, 123 and 223 of x^2 z - xyz - y^2 z are 2, -1, -2
        assert golden_cubic.scale == 6
        assert golden_cubic.flat == (0, 0, 2, 0, -1, 0, 0, -2, 0, 0)

    def test_coefficients_roundtrip(self, unipotent_cubic):
        coeffs = unipotent_cubic.cubic_coefficients()
        rebuilt = TrilinearForm.from_cubic_coefficients(
            {k: v for k, v in coeffs.items() if v}
        )
        assert rebuilt == unipotent_cubic

    def test_unknown_monomial_rejected(self):
        with pytest.raises(ValidationError):
            TrilinearForm.from_cubic_coefficients({"w3": 1})

    @pytest.mark.parametrize("coeffs", [{"z3": 1.5, "w3": 1}, {"w3": 1, "z3": 1.5}])
    def test_unknown_key_wins_over_a_non_integer_value(self, coeffs):
        """Every key is checked before any value, in either insertion order."""
        with pytest.raises(ValidationError) as exc:
            TrilinearForm.from_cubic_coefficients(coeffs)
        assert str(exc.value) == "unknown monomial keys: ['w3']"

    def test_unsorted_entry_key_rejected(self):
        """(3, 1, 2) is not one of the ten sorted triples; dropping it would
        build the zero form."""
        with pytest.raises(ValidationError, match=r"\(3, 1, 2\)"):
            TrilinearForm({(3, 1, 2): Fraction(1, 6)})

    @pytest.mark.parametrize("value", [Fraction(1, 2), 1.5, True, "1"])
    def test_non_integer_coefficient_rejected(self, value):
        with pytest.raises(ValidationError, match="xyz"):
            TrilinearForm.from_cubic_coefficients({"xyz": value})

    @pytest.mark.parametrize("value", [0.1, True, "1/2", "x", float("nan"), None], ids=repr)
    def test_inexact_entry_rejected(self, value):
        """An entry is an int or a Fraction: a float, a bool, a string or None
        raises ValidationError naming its key, never a silent conversion."""
        with pytest.raises(ValidationError, match=re.escape("(1, 2, 3)")):
            TrilinearForm({(1, 1, 1): 1, (1, 2, 3): value})

    def test_constructors_build_no_fraction(self, golden_generator, fraction_builds):
        coeffs = {"x2z": 1, "xyz": -1, "y2z": -1, "z3": 1}
        T, built = fraction_builds(TrilinearForm.from_cubic_coefficients, coeffs)
        assert built == 0
        pulled, built = fraction_builds(transform_cubic, T, golden_generator)
        assert built == 0
        assert form_entries(pulled) == fraction_pullback(T, golden_generator)

    def test_constructors_agree_on_one_cubic(self, golden_generator):
        """From monomials, from rational entries and by a pullback and its
        inverse, one cubic gives one canonical (scale, scaled) and one hash."""
        g = golden_generator
        coeffs = {"x2z": 2, "xyz": -2, "y2z": -2, "z3": 4}  # entries in (1/3)Z
        forms = [TrilinearForm.from_cubic_coefficients(coeffs)]
        forms.append(TrilinearForm(form_entries(forms[0])))
        forms.append(transform_cubic(transform_cubic(forms[0], g), g.inverse()))
        assert forms[0].scale == 3
        sevenths = TrilinearForm({key: Fraction(i - 4, 7) for i, key in enumerate(ENTRY_KEYS)})
        pulled = transform_cubic(sevenths, g)
        for same in (forms, [sevenths, transform_cubic(pulled, g.inverse()),
                             TrilinearForm(form_entries(sevenths))]):
            assert all(f == same[0] and hash(f) == hash(same[0]) for f in same)
            assert len({(f.scale, f.flat) for f in same}) == 1
        assert sevenths.scale == 7 and pulled != sevenths


class TestEvaluation:
    def test_cubic_eval_matches_polynomial(self, golden_cubic):
        # C(2, 1, 3) = 3*(4 - 2 - 1) = 3
        assert cubic_eval(golden_cubic, (2, 1, 3)) == 3

    def test_trilinear_eval_on_diagonal(self, golden_cubic):
        rng = random.Random(7)
        for _ in range(50):
            v = tuple(rng.randint(-4, 4) for _ in range(3))
            assert trilinear_eval(golden_cubic, v, v, v) == cubic_eval(golden_cubic, v)

    def test_trilinear_eval_symmetry(self, unipotent_cubic):
        a, b, c = (1, 2, -1), (0, 3, 1), (2, -2, 5)
        base = trilinear_eval(unipotent_cubic, a, b, c)
        assert trilinear_eval(unipotent_cubic, b, c, a) == base
        assert trilinear_eval(unipotent_cubic, c, a, b) == base
        assert trilinear_eval(unipotent_cubic, b, a, c) == base

    def test_trilinear_eval_multilinearity(self, unipotent_cubic):
        a, b, c, a2 = (1, 0, 2), (3, 1, 0), (0, 1, 1), (2, 2, -1)
        lhs = trilinear_eval(
            unipotent_cubic, tuple(x + y for x, y in zip(a, a2)), b, c
        )
        rhs = trilinear_eval(unipotent_cubic, a, b, c) + trilinear_eval(
            unipotent_cubic, a2, b, c
        )
        assert lhs == rhs

    def test_polarization_identity(self, golden_cubic_quadric):
        """6*T(a,b,c) = C(a+b+c) - C(a+b) - C(b+c) - C(a+c) + C(a) + C(b) + C(c)."""
        T = golden_cubic_quadric
        rng = random.Random(19)
        for _ in range(30):
            a, b, c = (
                tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)
            )
            s3 = tuple(x + y + z for x, y, z in zip(a, b, c))
            pairs = [tuple(x + y for x, y in zip(p, q)) for p, q in ((a, b), (b, c), (a, c))]
            rhs = cubic_eval(T, s3) - sum(
                (cubic_eval(T, p) for p in pairs), start=QuadSurd(0)
            ) + cubic_eval(T, a) + cubic_eval(T, b) + cubic_eval(T, c)
            assert 6 * trilinear_eval(T, a, b, c) == rhs

    def test_surd_arguments(self, golden_cubic, L_z):
        phi = QuadSurd(Fraction(-1, 2), Fraction(-1, 2), 5)
        u = (QuadSurd(1), phi, QuadSurd(0))
        assert cubic_eval(golden_cubic, u) == 0
        assert _dot(L_z, u) == 0


class TestLinearFormRecord:
    """LinearForm is a NamedTuple; DoesNotPreserveL messages quote its str,
    which is this repr."""

    def test_repr(self):
        assert repr(LinearForm(0, 0, 1)) == "LinearForm(l1=0, l2=0, l3=1)"

    def test_equal_records_hash_alike(self):
        assert LinearForm(1, -2, 3) == LinearForm(1, -2, 3)
        assert hash(LinearForm(1, -2, 3)) == hash(LinearForm(1, -2, 3))
        assert LinearForm(1, -2, 3) != LinearForm(1, -2, 4)

    def test_fields_are_read_only(self):
        L = LinearForm(0, 0, 1)
        with pytest.raises(AttributeError):
            L.l3 = 2

    @pytest.mark.parametrize("value", [1.0, True, "1", Fraction(1, 2)])
    def test_non_integer_coefficient_rejected(self, value):
        """A float is not decided on, True is not read as 1."""
        with pytest.raises(ValidationError, match="linear form coefficients must be integers"):
            LinearForm(0, 0, value)

    def test_integral_fraction_becomes_an_int(self):
        L = LinearForm(0, Fraction(4, 2), 1)
        assert L == (0, 2, 1) and type(L.l2) is int

    def test_form_pullback_is_the_row_product(self, golden_generator):
        L = _form_pullback(LinearForm(1, -2, 3), golden_generator)
        assert L == (0, -1, 3) and all(type(x) is int for x in L)


class TestLatticeMap:
    def test_non_unimodular_rejected(self):
        with pytest.raises(NotUnimodular):
            LatticeMap([[2, 0, 0], [0, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("value", [1.5, True, Fraction(3, 2), "1"])
    def test_non_integer_entry_rejected(self, value):
        """1.5 is not truncated to the identity; True is not read as 1."""
        with pytest.raises(ValidationError, match="must be integers"):
            LatticeMap([[value, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValidationError, match="expected a 3x3 matrix"):
            LatticeMap([[1, 0], [0, 1]])

    @pytest.mark.parametrize("rows", [5, None, [1, 0, 0], [[1, 0, 0], 0, [0, 0, 1]]])
    def test_non_iterable_matrix_or_row_rejected(self, rows):
        """A shape error, not a TypeError."""
        with pytest.raises(ValidationError, match="expected a 3x3 matrix"):
            LatticeMap(rows)

    def test_integral_fraction_entry_accepted(self):
        g = LatticeMap([[Fraction(-1), 0, 0], [0, 1, 0], [0, 0, 1]])
        assert g.rows[0] == (-1, 0, 0) and type(g.rows[0][0]) is int

    def test_inverse(self, golden_generator):
        assert (golden_generator @ golden_generator.inverse()).is_identity()

    def test_pow_matches_repeated_product(self, golden_generator):
        g = golden_generator
        assert g**3 == g @ g @ g
        assert g**-2 == g.inverse() @ g.inverse()
        assert g**-3 == g.inverse() @ g.inverse() @ g.inverse()
        assert (g**0).is_identity()
        assert g**1 == g
        assert g**4 == g @ g @ g @ g
        assert g**5 == g @ g @ g @ g @ g

    @pytest.mark.parametrize("n, maps", [(4, 2), (5, 3)])
    def test_pow_builds_one_map_per_product(self, golden_generator, latticemap_builds,
                                            n, maps):
        """g**4 builds g^2 and g^4 only; g**5 also g^4·g."""
        latticemap_builds.clear()
        golden_generator ** n
        assert len(latticemap_builds) == maps

    def test_is_identity_builds_no_map(self, golden_generator, latticemap_builds):
        latticemap_builds.clear()
        assert not golden_generator.is_identity()
        assert latticemap_builds == []

    def test_apply_vs_rows(self):
        g = LatticeMap([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert g.apply((1, 2, 3)) == (2, 3, 1)

    def test_det_negative_allowed(self):
        g = LatticeMap([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert g.det == -1


class TestTransform:
    def test_pullback_identity(self, golden_cubic):
        assert transform_cubic(golden_cubic, LatticeMap.identity()) == golden_cubic

    def test_golden_invariance(self, golden_cubic, golden_generator, L_z):
        assert preserves_pair(golden_generator, golden_cubic, L_z)

    def test_unipotent_invariance(self, unipotent_cubic, unipotent_generator, L_z):
        assert preserves_pair(unipotent_generator, unipotent_cubic, L_z)

    def test_broken_invariance(self, golden_cubic, L_z):
        h = LatticeMap([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert not preserves_pair(h, golden_cubic, L_z)

    def test_swap_does_not_preserve_linear(self, golden_cubic, L_z):
        h = LatticeMap([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert _form_pullback(L_z, h) != L_z

    def test_contravariant_composition(self, unipotent_cubic):
        """(gh)*T = h*(g*T): pullbacks compose in reverse order."""
        rng = random.Random(101)
        for _ in range(40):
            g = random_unimodular(rng)
            h = random_unimodular(rng)
            lhs = transform_cubic(unipotent_cubic, g @ h)
            rhs = transform_cubic(transform_cubic(unipotent_cubic, g), h)
            assert lhs == rhs

    def test_pullback_matches_pointwise(self, golden_cubic_quadric):
        rng = random.Random(55)
        for _ in range(25):
            g = random_unimodular(rng)
            gT = transform_cubic(golden_cubic_quadric, g)
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            assert cubic_eval(gT, v) == cubic_eval(golden_cubic_quadric, g.apply(v))

    def test_form_pullback_matches_pointwise(self, L_z):
        rng = random.Random(56)
        for _ in range(25):
            g = random_unimodular(rng)
            v = tuple(rng.randint(-5, 5) for _ in range(3))
            assert _dot(_form_pullback(L_z, g), v) == _dot(L_z, g.apply(v))


class TestVectors:
    def test_primitive_part(self):
        p = primitive_part((-4, 2, -6))
        assert p.vector == (2, -1, 3)
        assert p.scale == 2
        assert p.flipped is True

    def test_primitive_part_zero_rejected(self):
        with pytest.raises(ZeroVector):
            primitive_part((0, 0, 0))

    @pytest.mark.parametrize("v", [(Fraction(3, 2), 0, 0), (1.9, 0, 0), (1.0, 0, 0), (True, 0, 0)])
    def test_primitive_part_of_a_non_integer_rejected(self, v):
        """No coordinate is truncated: (3/2, 0, 0) and (1.9, 0, 0) gave (1, 0, 0)."""
        with pytest.raises(ValidationError):
            primitive_part(v)

    def test_primitive_part_of_integral_fractions(self):
        assert primitive_part((Fraction(-4), 0, Fraction(6, 3))) == ((2, 0, -1), 2, True)

    def test_float_coordinate_rejected_by_trilinear_eval(self):
        T = TrilinearForm.from_cubic_coefficients({"x3": 1})
        with pytest.raises(ValidationError):
            trilinear_eval(T, (0.1, 0, 0), (1, 0, 0), (1, 0, 0))

    def test_normalized(self):
        v = _normalized(_int_pairs((0, 3, -6)))
        assert v.surds == (QuadSurd(0), QuadSurd(1), QuadSurd(-2))

    def test_pair_cross_surds(self):
        phi = QuadSurd(Fraction(1, 2), Fraction(1, 2), 5)
        zero = ((0, 0, 0), (0, 0, 0))
        assert _pair_cross(_pairs((1, phi, 0)), _pairs((phi, phi * phi, QuadSurd(0))), 5) == zero
        assert _pair_cross(_pairs((1, phi, 0)), _pairs((1, -phi, 0)), 5) != zero

    def test_pair_cross_needs_both_parts(self):
        """(1 + √5, 1, 0) and (1, 1, 0): the rational part of the cross
        product vanishes, the √5 part does not. (√5, 1, 0) and (5, √5, 0):
        the rational part vanishes only with the factor d = 5."""
        root5 = QuadSurd(0, 1, 5)
        assert _pair_cross(_pairs((1 + root5, 1, 0)), _pairs((1, 1, 0)), 5) == (
            (0, 0, 0), (0, 0, 1))
        assert _pair_cross(_pairs((root5, 1, 0)), _pairs((5, root5, 0)), 5) == (
            (0, 0, 0), (0, 0, 0))
        assert _pair_cross(_pairs((root5, 1, 0)), _pairs((5, root5, 0)), 3) == (
            (0, 0, -2), (0, 0, 0))

    def test_cross_orthogonal(self):
        r1, r2 = (1, 2, 3), (4, 5, 6)
        c = cross(r1, r2)
        assert sum(x * y for x, y in zip(c, r1)) == 0
        assert sum(x * y for x, y in zip(c, r2)) == 0


coeff_strategy = st.fixed_dictionaries(
    {},
    optional={
        k: st.integers(-5, 5)
        for k in ("x3", "x2y", "x2z", "xy2", "xyz", "xz2", "y3", "y2z", "yz2", "z3")
    },
)


@given(coeff_strategy, st.integers(0, 2**32 - 1))
def test_pullback_preserves_integrality(coeffs, seed):
    """An integral cubic pulled back by a unimodular map stays integral."""
    T = TrilinearForm.from_cubic_coefficients(coeffs)
    g = random_unimodular(random.Random(seed), steps=5)
    for value in transform_cubic(T, g).cubic_coefficients().values():
        assert value.denominator == 1


# -- the integer kernel against a Fraction reference -------------------------------


def fraction_pullback(T, g):
    """Reference pullback T(g a, g b, g c) over Fractions, all 27 terms per entry."""
    cols = [[g.rows[p][i] for p in range(3)] for i in range(3)]
    return {
        (i, j, k): sum(
            (form_entry(T, p + 1, q + 1, r + 1) * cols[i - 1][p] * cols[j - 1][q] * cols[k - 1][r]
             for p in range(3) for q in range(3) for r in range(3)),
            start=Fraction(0),
        )
        for i in (1, 2, 3) for j in range(i, 4) for k in range(j, 4)
    }


def covector_pullback(L, g):
    """Reference L∘g: L dotted with each column of g, as a plain sum."""
    return tuple(sum(l * x for l, x in zip(L, col)) for col in zip(*g.rows))


def fraction_preserves(g, T, L):
    return covector_pullback(L, g) == L and fraction_pullback(T, g) == form_entries(T)


# Cubics with a known automorph fixing L = z (from the test fixtures).
AUTOMORPHED = (
    ({"x2z": 1, "xyz": -1, "y2z": -1}, ((2, 1, 0), (1, 1, 0), (0, 0, 1))),
    ({"x2z": 1, "xyz": -1, "y2z": -1, "z3": 1}, ((-1, 0, 0), (1, 1, 0), (0, 0, 1))),
    ({"z3": 1, "xz2": 6, "y2z": -3, "yz2": 3}, ((1, 1, 0), (0, 1, 1), (0, 0, 1))),
    ({"x2z": 1, "y2z": 1, "z3": 1}, ((0, -1, 0), (1, 0, 0), (0, 0, 1))),
)


def pair_and_map(seed: int, coeffs: dict, l: tuple, perturb: bool):
    """A (g, T, L) triple: half the time a known automorph conjugated by a
    random unimodular P (so g preserves the pulled-back pair), otherwise a
    random word against the given cubic and L; optionally times a shear."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        base, h = AUTOMORPHED[rng.randrange(len(AUTOMORPHED))]
        P = random_unimodular(rng, steps=rng.randint(0, 3))
        T = TrilinearForm(fraction_pullback(TrilinearForm.from_cubic_coefficients(base), P))
        L = compose(LinearForm(0, 0, 1), P)
        g = P.inverse() @ LatticeMap(h) ** rng.choice((1, 2, -1)) @ P
    else:
        T = TrilinearForm.from_cubic_coefficients(coeffs)
        L = LinearForm(*l)
        g = random_unimodular(rng, steps=rng.randint(1, 4))
    if perturb:
        g = g @ random_unimodular(rng, steps=1)
    return g, T, L


nonzero_l = st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)).filter(any)


@given(st.integers(0, 2**32 - 1), coeff_strategy, nonzero_l, st.booleans())
def test_integer_preserves_pair_matches_fraction_reference(seed, coeffs, l, perturb):
    g, T, L = pair_and_map(seed, coeffs, l, perturb)
    assert preserves_pair(g, T, L) == fraction_preserves(g, T, L)
    assert form_entries(transform_cubic(T, g)) == fraction_pullback(T, g)


def test_reference_inputs_cover_both_outcomes():
    """The generator of the property above yields preserving and
    non-preserving maps alike."""
    outcomes = {fraction_preserves(*pair_and_map(seed, {"x2z": 1}, (0, 0, 1), seed % 3 == 0))
                for seed in range(40)}
    assert outcomes == {True, False}


def test_non_integral_form_roundtrips_exactly():
    """Entries in (1/7)Z keep D = 7 and survive a pullback and its inverse."""
    rng = random.Random(77)
    T = TrilinearForm({key: Fraction(rng.randint(-9, 9), 7) for key in ENTRY_KEYS})
    assert T.scale == 7
    assert any(value.denominator == 7 for value in form_entries(T).values())
    for _ in range(20):
        g = random_unimodular(rng, steps=4)
        pulled = transform_cubic(T, g)
        assert form_entries(pulled) == fraction_pullback(T, g)
        assert transform_cubic(pulled, g.inverse()) == T
        assert preserves_pair(g, T, LinearForm(0, 0, 1)) == fraction_preserves(
            g, T, LinearForm(0, 0, 1))


# -- the contraction (D·T)(v, ·, ·) against the full 27-term sum -------------------


def contract_reference(T, v):
    """(D·T)(v, ·, ·) as the sum over a of v_a·(D·T)[a]: all 27 products of the
    full tensor, no symmetry assumed."""
    t = scaled_tensor(T)
    return [[sum(v[a] * t[a][j][k] for a in range(3)) for k in range(3)]
            for j in range(3)]


def assert_contract_exact(T, v):
    m = T.contract(v)
    assert type(m) is tuple and all(type(row) is tuple for row in m)
    assert m == tuple(zip(*m))
    assert [list(row) for row in m] == contract_reference(T, v)


# One-entry forms, and sevenths with ten distinct nonzero entries: a kernel that
# reads one entry in place of another, or one coordinate of v in place of
# another, changes some entry of the result on a vector without zeros.
CONTRACT_FORMS = {str(key): TrilinearForm({key: 1}) for key in ENTRY_KEYS}
CONTRACT_FORMS["sevenths"] = TrilinearForm(
    {key: Fraction(2 * i - 9, 7) for i, key in enumerate(ENTRY_KEYS)})
CONTRACT_VECTORS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -3, 5), (-1, -1, -1),
                    (0, -4, 7), (10**30, -7, 3**40))


@pytest.mark.parametrize("name", sorted(CONTRACT_FORMS))
def test_contract_matches_full_sum(name):
    T = CONTRACT_FORMS[name]
    for v in CONTRACT_VECTORS:
        assert_contract_exact(T, v)


def test_scaled_tensor_is_the_integer_multiple():
    T = TrilinearForm({(1, 1, 1): Fraction(1, 7), (1, 2, 3): Fraction(1, 6)})
    assert T.scale == 42
    assert T.flat[ENTRY_KEYS.index((1, 1, 1))] == 6
    assert T.flat[ENTRY_KEYS.index((1, 2, 3))] == 7
    assert TrilinearForm.from_cubic_coefficients({"z3": 1}).scale == 1


@pytest.mark.parametrize("key", ENTRY_KEYS)
def test_every_entry_is_compared(key):
    """A sign flip that negates exactly one monomial is caught by that entry."""
    odd = next(i for i in key if key.count(i) % 2 == 1)
    flip = LatticeMap([[-1 if i == odd and i == j else int(i == j) for j in (1, 2, 3)]
                       for i in (1, 2, 3)])
    T = TrilinearForm({key: Fraction(1, multinomial(*key))})
    L = LinearForm(0, 0, 0)
    assert not fraction_preserves(flip, T, L)
    assert not preserves_pair(flip, T, L)


# -- trilinear evaluation on integer pairs against a QuadSurd reference ------------


def surd_trilinear(T, a, b, c):
    """Reference T(a, b, c): all 27 terms as QuadSurd products over Fractions."""
    a, b, c = ([x if isinstance(x, QuadSurd) else QuadSurd(x) for x in v] for v in (a, b, c))
    total = QuadSurd(0)
    for i, j, k in product(range(3), repeat=3):
        t = form_entry(T, i + 1, j + 1, k + 1)
        if t:
            total = total + a[i] * b[j] * c[k] * t
    return total


small = st.integers(-6, 6)
rationals = st.builds(Fraction, small, st.integers(1, 5))


@st.composite
def cubics(draw):
    """Integral cubics (entries in (1/6)Z) or forms with entries in (1/7)Z."""
    if draw(st.booleans()):
        return TrilinearForm.from_cubic_coefficients(draw(coeff_strategy))
    return TrilinearForm({key: Fraction(draw(small), 7) for key in ENTRY_KEYS})


def coordinates(d):
    """ints, Fractions and surds over Q(√d), rational ones included."""
    return st.one_of(
        small, rationals,
        st.builds(lambda a, b: QuadSurd(a, b, d), rationals, rationals),
    )


@st.composite
def vectors_over(draw, d):
    if draw(st.integers(0, 9)) == 0:
        return (0, 0, 0)
    return tuple(draw(coordinates(d)) for _ in range(3))


big = st.integers(-10**20, 10**20)


@given(cubics(), st.tuples(st.one_of(small, big), st.one_of(small, big), st.one_of(small, big)))
def test_contract_matches_full_sum_property(T, v):
    assert_contract_exact(T, v)


@given(cubics(), st.sampled_from([2, 3, 5, 13]).flatmap(
    lambda d: st.tuples(vectors_over(d), vectors_over(d), vectors_over(d))))
def test_trilinear_eval_matches_surd_reference(T, vectors):
    a, b, c = vectors
    value = trilinear_eval(T, a, b, c)
    expected = surd_trilinear(T, a, b, c)
    assert value == expected
    assert (value.a, value.b, value.d) == (expected.a, expected.b, expected.d)
    assert isinstance(value.a, Fraction) and isinstance(value.b, Fraction)
    assert trilinear_eval(T, c, a, b) == value


@pytest.mark.parametrize("vectors", [
    ((QuadSurd(0, 1, 2), 1, 0), (QuadSurd(0, 1, 3), 0, 1), (1, 1, 1)),
    ((1, 0, 0), (0, 1, 0), (QuadSurd(1, 1, 2), QuadSurd(0, 1, 5), 0)),
    ((QuadSurd(0, 1, 7), 0, 0), (1, 1, 1), (0, 0, QuadSurd(2, 1, 11))),
])
def test_trilinear_eval_rejects_mixed_fields(vectors, golden_cubic_quadric):
    with pytest.raises(IncompatibleFields):
        trilinear_eval(golden_cubic_quadric, *vectors)


def test_sqrt5_frame_table_and_normalization_build_no_fraction(golden_cubic_quadric,
                                                               fraction_builds):
    """Surds stay integer pairs through the clearing and frame table of a √5
    frame and the projective normalization of its lines."""
    u = (QuadSurd(-1, 1, 5) / 2, 1, 0)
    v = (QuadSurd(-1, -1, 5) / 2, 1, 0)
    frame = (u, v, (0, 0, 1))
    table, built = fraction_builds(
        lambda f: frame_table(golden_cubic_quadric, clear_frame(f)), frame)
    assert built == 0
    assert table == {(i, j, k): trilinear_eval(golden_cubic_quadric, frame[i - 1],
                                                frame[j - 1], frame[k - 1])
                     for i, j, k in ENTRY_KEYS}
    assert any(x.d == 5 for x in table.values())
    for line in (u, v):
        normal, built = fraction_builds(normalize, line)
        assert normal == (1, QuadSurd(1, 1, 5) / 2 if line is u else QuadSurd(1, -1, 5) / 2, 0)
        assert built == 0


def test_int_coordinates_are_cleared_without_a_surd(monkeypatch):
    """_int_pairs reads an int x as (x, 0, 1): an int vector, alone or as a
    column of a √5 frame, is cleared without building a surd."""
    half = QuadSurd(1, 1, 5) / 2
    frame = ((half.conjugate(), 1, 0), (half, 1, 0), (0, 0, 7))
    built = []
    from_ints = core_arith._from_ints
    monkeypatch.setattr(core_arith, "_from_ints", lambda *a: built.append(a) or from_ints(*a))
    assert _int_pairs((3, -4, 0)) == ((3, -4, 0), (0, 0, 0), 1, 0)
    assert clear_frame(frame)[2] == ((0, 0, 14), (0, 0, 0), 2, 5)
    assert built == []


@st.composite
def eigenframes(draw):
    """Frames (σ(v), v, w) over √2, √3, √5 or √13 with w rational, as
    `classify` builds them; zero vectors included."""
    v = draw(vectors_over(draw(st.sampled_from([2, 3, 5, 13]))))
    w = draw(st.one_of(st.just((0, 0, 0)), st.tuples(*[st.one_of(small, rationals)] * 3)))
    return tuple(x.conjugate() if type(x) is QuadSurd else x for x in v), v, w


@given(cubics(), eigenframes())
def test_frame_table_matches_trilinear_eval(T, frame):
    """The frame table of an eigenframe holds T(f_i, f_j, f_k) on every sorted
    index triple."""
    table = frame_table(T, clear_frame(frame))
    assert sorted(table) == sorted(ENTRY_KEYS)
    for i, j, k in ENTRY_KEYS:
        assert table[i, j, k] == trilinear_eval(T, frame[i - 1], frame[j - 1], frame[k - 1])


def test_frame_table_rejects_columns_over_two_denominators(golden_cubic_quadric):
    """The columns of a frame share one den and one field: the same vectors
    with one column over twice its den, or over another field, raise."""
    u, v, w = clear_frame(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    frame_table(golden_cubic_quadric, (u, v, w))
    for bad in (w._replace(p=(0, 0, 2), den=2), w._replace(d=5)):
        with pytest.raises(ValidationError, match="one denominator and one field"):
            frame_table(golden_cubic_quadric, (u, v, bad))


# -- the unrolled 3x3 kernels against naive sums -----------------------------------


def naive_dot(u, v):
    return reduce(add, (x * y for x, y in zip(u, v)))


def naive_pullback(dt, p, q, d):
    """(D·T)(f_i, f_j, f_k) for columns f = p + q·√d as an integer pair, from
    the 27-term triple sum over pair products."""

    def mul(x, y):
        return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    f = [tuple(zip(a, b)) for a, b in zip(p, q)]
    out = {}
    for i, j, k in ENTRY_KEYS:
        terms = [(dt[a][b][c], mul(mul(f[i - 1][a], f[j - 1][b]), f[k - 1][c]))
                 for a, b, c in product(range(3), repeat=3)]
        out[i, j, k] = (sum(t * x for t, (x, _) in terms), sum(t * y for t, (_, y) in terms))
    return out


big = st.integers(-10**6, 10**6)
int_columns = st.tuples(*[st.tuples(big, big, big)] * 3)
scaled_forms = st.builds(TrilinearForm._from_scaled, st.tuples(*[big] * 10), st.integers(1, 42))


@given(scaled_forms, int_columns)
def test_scaled_pullback_matches_the_triple_sum(T, p):
    zero = ((0, 0, 0),) * 3
    naive = naive_pullback(scaled_tensor(T), p, zero, 0)
    assert _scaled_pullback(T, p) == tuple(naive[key][0] for key in ENTRY_KEYS)


@st.composite
def pair_checks(draw):
    """A (g, T, L) triple: one time in four a known automorph of its cubic
    with L = z, which preserves the pair, otherwise a random word against a
    random form and L, which mostly does not."""
    if draw(st.integers(0, 3)) == 0:
        coeffs, h = draw(st.sampled_from(AUTOMORPHED))
        return LatticeMap(h), TrilinearForm.from_cubic_coefficients(coeffs), LinearForm(0, 0, 1)
    g = random_unimodular(random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(1, 4)))
    return g, draw(cubics()), LinearForm(*draw(st.tuples(*[st.integers(-2, 2)] * 3)))


@given(pair_checks())
def test_preserves_pair_is_the_pullback_and_the_l_check(triple):
    g, T, L = triple
    assert preserves_pair(g, T, L) == (transform_cubic(T, g) == T
                                       and covector_pullback(L, g) == L)


def assert_flat_is_ten_ints(T):
    assert type(T.flat) is tuple and len(T.flat) == 10 and all(type(x) is int for x in T.flat)


@given(st.dictionaries(st.sampled_from(ENTRY_KEYS), rationals), coeff_strategy,
       st.integers(0, 2**32 - 1))
def test_flat_is_ten_ints(entries, coeffs, seed):
    g = random_unimodular(random.Random(seed), steps=4)
    for T in (TrilinearForm(entries), TrilinearForm.from_cubic_coefficients(coeffs)):
        assert_flat_is_ten_ints(T)
        assert_flat_is_ten_ints(transform_cubic(T, g))


def entries(kind, d):
    return {"int": big, "Fraction": rationals,
            "QuadSurd": st.builds(lambda a, b: QuadSurd(a, b, d), rationals, rationals),
            "mixed": coordinates(d)}[kind]


@pytest.mark.parametrize("kind", ["int", "Fraction", "QuadSurd", "mixed"])
@given(data=st.data(), d=st.sampled_from([2, 3, 5, 13]), rows=st.integers(1, 3))
def test_matvec_and_matmul_match_naive_sums(kind, data, d, rows):
    vector = st.tuples(*[entries(kind, d)] * 3)
    a = data.draw(st.tuples(*[vector] * rows))
    b, v = data.draw(st.tuples(vector, vector, vector)), data.draw(vector)
    assert _matmul(a, b) == tuple(tuple(naive_dot(r, c) for c in zip(*b)) for r in a)
    assert _matvec(b, v) == tuple(naive_dot(r, v) for r in b)
    if kind == "int":
        assert all(type(x) is int for r in _matmul(a, b) for x in r)


# -- the written-out constructors against the two-pass and Fraction paths ----------


class IntSubclass(int):
    """An int that is not exactly an int: accepted, and stored as a plain int."""


def two_pass_rows(rows):
    """Test-local copy of the two-pass LatticeMap validation: the rows it
    stores, or the error it raises; the determinant by the Leibniz formula."""
    try:
        rows = tuple(tuple(r) for r in rows)
    except TypeError:
        raise ValidationError("expected a 3x3 matrix") from None
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValidationError("expected a 3x3 matrix")
    if not all(not isinstance(x, bool) and isinstance(x, (int, Fraction)) and x.denominator == 1
               for r in rows for x in r):
        raise ValidationError(f"matrix entries must be integers: {rows}")
    rows = tuple(tuple(int(x) for x in r) for r in rows)
    det = sum((-1) ** sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3))
              * rows[0][p[0]] * rows[1][p[1]] * rows[2][p[2]] for p in permutations(range(3)))
    if det not in (1, -1):
        raise NotUnimodular(f"determinant {det}")
    return rows


# Each entry of a drawn matrix is an int rewrapped as one of these.
INTEGRAL_WRAPS = (int, Fraction, IntSubclass)
ANY_WRAPS = INTEGRAL_WRAPS + (bool, float, str, lambda x: None,
                              lambda x: Fraction(2 * x + 1, 2))


@st.composite
def matrix_inputs(draw):
    """Rows for LatticeMap: a unimodular word or a small integer matrix, most
    often 3x3, else of 2 to 4 rows of 2 to 4 entries, its entries rewrapped as
    ints, bools, an int subclass, integral or non-integral Fractions, floats,
    strs or None; or a value that is no matrix at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([None, 5, "abc", 1.5, [1, 0, 0], [[1, 0, 0], 7, [0, 0, 1]],
                                     [[1, 0, 0], None, [0, 0, 1]], ["100", "010", "001"]]))
    if draw(st.booleans()):
        rows = random_unimodular(random.Random(draw(st.integers(0, 2**16))), steps=3).rows
    else:
        size = st.sampled_from([3, 3, 3, 3, 2, 4])
        rows = [[draw(st.integers(-2, 2)) for _ in range(draw(size))] for _ in range(draw(size))]
    wraps = draw(st.sampled_from([(int,), INTEGRAL_WRAPS, ANY_WRAPS]))
    return [[draw(st.sampled_from(wraps))(x) for x in r] for r in rows]


@given(matrix_inputs())
def test_lattice_map_matches_the_two_pass_validation(rows):
    """Accept or reject alike, with one exception class and one message, and
    store the same rows, every entry exactly an int."""
    try:
        expected = two_pass_rows(rows)
    except Cy3Error as exc:
        with pytest.raises(Cy3Error) as got:
            LatticeMap(rows)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        g = LatticeMap(rows)
        assert g.rows == expected and type(g.rows) is tuple
        assert all(type(r) is tuple and all(type(x) is int for x in r) for r in g.rows)


monomial_values = st.one_of(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).map(Fraction))


@given(st.dictionaries(st.sampled_from(sorted(MONOMIAL_INDICES)), monomial_values))
def test_from_cubic_coefficients_matches_the_fraction_entries(coeffs):
    """Monomials give the form of the rational entries c/m, and its ten flat
    entries over its scale are those entries, read without the constructor."""
    T = TrilinearForm.from_cubic_coefficients(coeffs)
    entries = {MONOMIAL_INDICES[name]: Fraction(c) / multinomial(*MONOMIAL_INDICES[name])
               for name, c in coeffs.items()}
    expected = TrilinearForm(entries)
    assert (T.scale, T.flat) == (expected.scale, expected.flat)
    for key, x in zip(ENTRY_KEYS, T.flat):
        assert Fraction(x, T.scale) == entries.get(key, 0)
        assert type(x) is int
