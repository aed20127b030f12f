"""Group-level certification: given generators (or a brute-force enumeration)
of the symmetries of a pair (cubic, linear form), decide Finite versus
almost abelian of rank 1, with an explicit witness.

The unipotent witness is the integer-valued homomorphism h -> p * a_h read off
the frame matrix; the hyperbolic witness is the scaling character on the
invariant plane, certified to land in a discrete cyclic group of quadratic
units (within an explicit exponent bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .core_arith import QuadSurd
from .cubic_geometry import (
    FULL_JORDAN,
    UnipotentSplit,
    check_hyperbolic_relations,
    check_unipotent_relations,
    hyperbolic_factorization,
    singular_locus,
    unipotent_factorization,
)
from .element_classify import (
    UnipotentDeficient,
    UnipotentFull,
    OutOfTheory,
    classify,
    finite_order,
    real_pair_lines,
)
from .errors import (
    BoundTooLarge,
    ConstraintViolated,
    DoesNotPreserveL,
    GeometricInconsistency,
    LinesNotPreserved,
    NonIntegral,
    NonPreservingGenerator,
    NotUnipotentInFrame,
    PostCheckFailed,
)
from .lattice_forms import (
    LatticeMap,
    LinearForm,
    TrilinearForm,
    _dot,
    _matvec,
    cross,
    preserves_pair,
    primitive_part,
)

ENUMERATION_BOUND_GUARD = 6
EXPONENT_BOUND = 64
CLOSURE_ELEMENT_CAP = 5000
CLOSURE_WORD_CAP = 24


@dataclass(frozen=True)
class RestrictedAction:
    """Action of a symmetry on the invariant plane ker(L), in a deterministic
    integral basis of ker(L) ∩ Z^3."""

    matrix: tuple[tuple[int, int], tuple[int, int]]
    basis: tuple[tuple[int, int, int], tuple[int, int, int]]

    @property
    def det(self) -> int:
        m = self.matrix
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]


@dataclass(frozen=True)
class UnipotentConstraintRecord:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction


@dataclass(frozen=True)
class TauWitness:
    p: int
    values: tuple[int, ...]  # tau of each generator, same order
    generator_value: int  # gcd of the nonzero tau values


@dataclass(frozen=True)
class CharacterWitness:
    generator: QuadSurd  # gamma > 1 generating the certified cyclic group
    exponents: tuple[int, ...]  # exponent of each generator's 4th-power value
    values: tuple[QuadSurd, ...]  # the 4th-power scaling values themselves
    exponent_bound: int


@dataclass(frozen=True)
class GroupVerdict:
    kind: str  # "Finite" | "AlmostAbelianRankOne" | "Inconclusive"
    elements: tuple[LatticeMap, ...] | None = None
    witness: TauWitness | CharacterWitness | None = None
    reductions: tuple[str, ...] = ()
    reason: str | None = None


# -- plane restriction ----------------------------------------------------------


def plane_basis(L: LinearForm) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Deterministic integral basis of ker(L) ∩ Z^3 for a nonzero covector."""
    l1, l2, l3 = L.coefficients()
    g = math.gcd(math.gcd(abs(l1), abs(l2)), abs(l3))
    if g == 0:
        raise ValueError("zero covector has no rank-2 kernel lattice")
    l1, l2, l3 = l1 // g, l2 // g, l3 // g
    if l2 == 0 and l3 == 0:
        # l = (+-1, 0, 0)
        return ((0, 1, 0), (0, 0, 1))
    g1 = math.gcd(abs(l2), abs(l3))
    x, y = _bezout(l2, l3)  # x*l2 + y*l3 = g1
    b1 = (g1, -x * l1, -y * l1)
    b2 = (0, l3 // g1, -l2 // g1)
    return (_sign_fix(b1), _sign_fix(b2))


def _bezout(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _sign_fix(v):
    first = next((x for x in v if x != 0), 0)
    return tuple(-x for x in v) if first < 0 else tuple(v)


def restrict_to_plane(h: LatticeMap, L: LinearForm) -> RestrictedAction:
    """Express h on the kernel-lattice basis of L; requires L∘h = L."""
    if L.compose(h) != L:
        raise DoesNotPreserveL(f"{h!r} does not fix {L}")
    b1, b2 = plane_basis(L)
    cols = []
    for b in (b1, b2):
        image = h.apply(b)
        c1, c2 = _plane_coordinates(image, b1, b2)
        if c1.denominator != 1 or c2.denominator != 1:
            raise ArithmeticError("restriction is not integral")
        cols.append((int(c1), int(c2)))
    matrix = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
    return RestrictedAction(matrix=matrix, basis=(b1, b2))


def _plane_coordinates(x: Sequence, b1: Sequence, b2: Sequence):
    """Solve x = c1*b1 + c2*b2 exactly; works for Fraction or surd coordinates."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = b1[i] * b2[j] - b1[j] * b2[i]
        if det:
            if isinstance(det, int):
                det = Fraction(det)
            c1 = (x[i] * b2[j] - x[j] * b2[i]) / det
            c2 = (b1[i] * x[j] - b1[j] * x[i]) / det
            # consistency on the remaining coordinate
            k = ({0, 1, 2} - {i, j}).pop()
            if b1[k] * c1 + b2[k] * c2 != x[k]:
                raise ArithmeticError("vector is not in the plane")
            return c1, c2
    raise ArithmeticError("degenerate plane basis")


# -- scaling character ----------------------------------------------------------


def _same_line_2d(u, v) -> bool:
    return u[0] * v[1] - u[1] * v[0] == 0


def _apply2(m, v):
    return (
        v[0] * m[0][0] + v[1] * m[0][1],
        v[0] * m[1][0] + v[1] * m[1][1],
    )


def scaling_character(h2: RestrictedAction, line1: Sequence, line2: Sequence) -> QuadSurd:
    """Positive eigenvalue of h2^4 on line1.

    Passing to 4th powers removes the finite ambiguity of line swaps and signs,
    so the returned value is a multiplicative character on the group."""
    line1 = tuple(x if isinstance(x, (Fraction, QuadSurd)) else Fraction(x) for x in line1)
    line2 = tuple(x if isinstance(x, (Fraction, QuadSurd)) else Fraction(x) for x in line2)
    m = h2.matrix
    img1, img2 = _apply2(m, line1), _apply2(m, line2)
    if not (
        (_same_line_2d(img1, line1) and _same_line_2d(img2, line2))
        or (_same_line_2d(img1, line2) and _same_line_2d(img2, line1))
    ):
        raise LinesNotPreserved("restricted action does not permute the two lines")
    m4 = _mat2_pow(m, 4)
    img = _apply2(m4, line1)
    pivot = 0 if line1[0] else 1
    beta = img[pivot] / line1[pivot]
    if _apply2(m4, line1) != tuple(x * beta for x in line1):
        raise LinesNotPreserved("4th power does not fix line1")
    if not beta > 0:
        raise LinesNotPreserved("4th-power scalar is not positive")
    return beta if isinstance(beta, QuadSurd) else QuadSurd(beta)


def _mat2_pow(m, n: int):
    out = ((1, 0), (0, 1))
    base = m
    while n:
        if n & 1:
            out = _mat2_mul(out, base)
        base = _mat2_mul(base, base)
        n >>= 1
    return out


def _mat2_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


# -- discrete cyclic certification ----------------------------------------------


@dataclass(frozen=True)
class CyclicCertificate:
    kind: str  # "Finite" | "Cyclic" | "Inconclusive"
    generator: QuadSurd | None = None
    exponents: tuple[int, ...] = ()
    exponent_bound: int = EXPONENT_BOUND
    reason: str | None = None


def certify_discrete_cyclic(values: Sequence[QuadSurd]) -> CyclicCertificate:
    """Certify that positive quadratic units lie in one discrete cyclic group.

    Returns the minimal gamma > 1 (searched through exact k-th roots, exponents
    bounded by EXPONENT_BOUND) such that every value is an integer power of
    gamma, together with the exponent of each input value.
    """
    values = [v if isinstance(v, QuadSurd) else QuadSurd(v) for v in values]
    if any(not v > 0 for v in values):
        raise ValueError("character values must be positive")
    if all(v == 1 for v in values):
        return CyclicCertificate(kind="Finite")

    one = QuadSurd(1)
    normalized = [(v if v > one else v.inverse(), v > one or v == one) for v in values]
    nontrivial = sorted({v for v, _ in normalized if v != one}, key=float)

    gamma0 = nontrivial[0]
    for v in nontrivial[1:]:
        gamma0 = _unit_gcd(gamma0, v)
        if gamma0 is None:
            return CyclicCertificate(kind="Inconclusive",
                                     reason="values generate no common cyclic group")

    base_exponents = []
    for v, positive in normalized:
        k = _unit_log(v, gamma0)
        if k is None:
            return CyclicCertificate(
                kind="Inconclusive",
                reason=f"exponent of {v} exceeds the bound {EXPONENT_BOUND}",
            )
        base_exponents.append(k if positive else -k)

    gamma, root_index = _deepest_root(gamma0, max(abs(k) for k in base_exponents))
    exponents = tuple(k * root_index for k in base_exponents)
    return CyclicCertificate(kind="Cyclic", generator=gamma, exponents=exponents)


def _unit_gcd(a: QuadSurd, b: QuadSurd) -> QuadSurd | None:
    """Multiplicative Euclid on units > 1; None if it fails to terminate.

    Incommensurable inputs never terminate and their coordinates roughly double
    in digit count each round, so the loop also bails out on coefficient size."""

    def too_large(x: QuadSurd) -> bool:
        return max(
            x.a.numerator.bit_length(), x.a.denominator.bit_length(),
            x.b.numerator.bit_length(), x.b.denominator.bit_length(),
        ) > 1 << 16

    for _ in range(4 * EXPONENT_BOUND):
        if a == b:
            return a
        if a < b:
            a, b = b, a
        while a >= b:
            a = a / b
        if a == 1:
            return b
        if too_large(a) or too_large(b):
            return None
        a, b = b, a
    return None


def _unit_log(v: QuadSurd, base: QuadSurd) -> int | None:
    """Exact k with v = base**k, 0 <= k <= EXPONENT_BOUND, else None."""
    acc = QuadSurd(1)
    for k in range(EXPONENT_BOUND + 1):
        if acc == v:
            return k
        acc = acc * base
    return None


def _deepest_root(gamma0: QuadSurd, max_exp: int) -> tuple[QuadSurd, int]:
    """Largest k with an exact k-th root of gamma0 in its field, subject to the
    overall exponent bound; float approximations only propose candidates, the
    acceptance test is exact."""
    top = EXPONENT_BOUND // max(max_exp, 1)
    for k in range(top, 1, -1):
        root = _exact_kth_root(gamma0, k)
        if root is not None:
            return root, k
    return gamma0, 1


def _exact_kth_root(value: QuadSurd, k: int) -> QuadSurd | None:
    try:
        approx = float(value) ** (1.0 / k)
    except OverflowError:
        return None
    candidates = []
    for norm_sign in (1, -1):
        t = approx + norm_sign / approx
        for denom in (1, 2):
            s = Fraction(round(t * denom), denom)
            disc = s * s - 4 * norm_sign
            if disc < 0:
                continue
            if disc == 0:
                candidates.append(QuadSurd(s / 2))
                continue
            # (s + sqrt(disc))/2 with disc rational: scale to an integer radicand
            num, den = disc.numerator, disc.denominator
            candidates.append(QuadSurd(s / 2, Fraction(1, 2 * den), num * den))
    for cand in candidates:
        # A power of an irrational unit > 1 stays irrational and in its field.
        if cand.d != value.d or not cand > 1:
            continue
        try:
            if cand ** k == value:
                return cand
        except Exception:
            continue
    return None


# -- unipotent constraints -------------------------------------------------------


def _frame_matrix_inverse(frame):
    cols = frame
    m = [[Fraction(cols[j][i]) for j in range(3)] for i in range(3)]
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    if det == 0:
        raise ArithmeticError("degenerate frame")
    inv = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            r = [a for a in range(3) if a != i]
            c = [a for a in range(3) if a != j]
            minor = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
            inv[j][i] = minor / det if (i + j) % 2 == 0 else -minor / det
    return inv, m


def frame_coordinates_matrix(h: LatticeMap, frame) -> list[list[Fraction]]:
    """h expressed in the (w, w1, w2) frame basis, exact rational entries."""
    inv, m = _frame_matrix_inverse(frame)
    hm = [[sum(Fraction(h.rows[i][k]) * m[k][j] for k in range(3)) for j in range(3)]
          for i in range(3)]
    return [[sum(inv[i][k] * hm[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def verify_unipotent_constraints(
    h: LatticeMap, frame, p: int
) -> UnipotentConstraintRecord:
    """Check that h is unit upper triangular in the frame with a = c and
    d = a(a-1)/2; violations mean h does not belong to a group of the certified
    shape."""
    hf = frame_coordinates_matrix(h, frame)
    if hf[1][0] != 0 or hf[2][0] != 0 or hf[2][1] != 0:
        raise NotUnipotentInFrame("not upper triangular in the frame basis")
    if hf[0][0] != 1 or hf[2][2] != 1:
        raise NotUnipotentInFrame("outer diagonal entries differ from 1")
    b = hf[1][1]
    if b != 1:
        raise NotUnipotentInFrame(
            f"restricted determinant is {b}; apply the index-2 reduction first"
        )
    a, d, c = hf[0][1], hf[0][2], hf[1][2]
    if a != c:
        raise ConstraintViolated(f"a = {a} differs from c = {c}")
    if d != a * (a - 1) / 2:
        raise ConstraintViolated(f"d = {d} differs from a(a-1)/2 = {a * (a - 1) / 2}")
    return UnipotentConstraintRecord(a=a, b=b, c=c, d=d)


def tau(record: UnipotentConstraintRecord, p: int) -> int:
    """The integer p * a_h; the primitivity scale p clears the denominator."""
    value = record.a * p
    if value.denominator != 1:
        raise NonIntegral(f"p·a = {value} is not an integer")
    return int(value)


def quadric_preserved_in_frame(hf, split: UnipotentSplit) -> None:
    """Entrywise check that Hf^t Q Hf = Q (the invariance scalar is 1)."""
    q = [[x.to_fraction() for x in row] for row in split.quadric.m]
    ht_q = [[sum(hf[k][i] * q[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]
    ht_q_h = [[sum(ht_q[i][k] * hf[k][j] for k in range(3)) for j in range(3)]
              for i in range(3)]
    # the scalar is forced to 1 by taking determinants; read it off a pivot entry
    lam = ht_q_h[0][2] / q[0][2]
    if any(ht_q_h[i][j] != lam * q[i][j] for i in range(3) for j in range(3)):
        raise ConstraintViolated("frame action does not rescale the quadric")
    if lam != 1:
        raise ConstraintViolated(f"quadric invariance scalar {lam} != 1")


# -- enumeration -----------------------------------------------------------------


def enumerate_symmetries(
    T: TrilinearForm,
    L: LinearForm,
    bound: int,
    *,
    allow_large_bound: bool = False,
) -> list[LatticeMap]:
    """All unimodular maps with entries in [-bound, bound] preserving (T, L).

    Brute-force oracle over the integer tensor D·T: columns are pooled by L
    and the cubic value, pairs by the entries (1,1,2) and (1,2,2), and third
    columns by dot products with the slices (D·T)(c1,c1,·), (D·T)(c1,c2,·),
    (D·T)(c2,c2,·) and the det. Every survivor is re-verified by the full
    pullback in `preserves_pair`."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound > ENUMERATION_BOUND_GUARD and not allow_large_bound:
        raise BoundTooLarge(
            f"bound {bound} exceeds the guard {ENUMERATION_BOUND_GUARD}"
        )
    dt = T.scaled
    l = L.coefficients()
    # Column pools: c is a candidate j-th column iff L(c) = l_j and
    # (D·T)(c, c, c) = (D·T)_jjj; each is kept with its contraction (D·T)(c, ·, ·).
    pools = ([], [], [])
    for c in product(range(-bound, bound + 1), repeat=3):
        lc = _dot(l, c)
        if lc not in l:
            continue
        m = T.contract(c)
        cc = _dot(_matvec(m, c), c)
        for j in range(3):
            if lc == l[j] and cc == dt[j][j][j]:
                pools[j].append((c, m))
    t112, t122 = dt[0][0][1], dt[0][1][1]
    t113, t123, t223 = dt[0][0][2], dt[0][1][2], dt[1][1][2]
    second = [(c2, _matvec(m2, c2)) for c2, m2 in pools[1]]
    third = [c3 for c3, _ in pools[2]]
    found = []
    for c1, m1 in pools[0]:
        s11 = _matvec(m1, c1)  # (D·T)(c1, c1, ·)
        for c2, s22 in second:
            if _dot(s11, c2) != t112:
                continue
            s12 = _matvec(m1, c2)  # (D·T)(c1, c2, ·)
            if _dot(s12, c2) != t122:
                continue
            n = cross(c1, c2)  # det(c1, c2, c3) = n·c3
            for c3 in third:
                if (_dot(s11, c3) != t113 or _dot(s12, c3) != t123
                        or _dot(s22, c3) != t223 or _dot(n, c3) not in (1, -1)):
                    continue
                g = LatticeMap(tuple(zip(c1, c2, c3)))
                if preserves_pair(g, T, L):
                    found.append(g)
    found.sort(key=lambda g: g.rows)
    return found


# -- the dichotomy pipeline -------------------------------------------------------


def analyze_group(
    T: TrilinearForm,
    L: LinearForm,
    generators: Sequence[LatticeMap] | None = None,
    *,
    bound: int = 3,
    allow_large_bound: bool = False,
) -> GroupVerdict:
    """Certify the Finite / AlmostAbelianRankOne dichotomy for the group
    generated by the given symmetries (or by a bounded enumeration)."""
    reductions: list[str] = []
    if generators is None:
        generators = enumerate_symmetries(T, L, bound, allow_large_bound=allow_large_bound)
        reductions.append(f"generators from brute-force enumeration, bound {bound}")
    generators = list(generators)
    for g in generators:
        if not preserves_pair(g, T, L):
            raise NonPreservingGenerator(f"{g!r} does not preserve the pair")
    if not generators:
        return GroupVerdict(kind="Finite", elements=(LatticeMap.identity(),),
                            reductions=tuple(reductions))

    neg = [g for g in generators if g.det == -1]
    pos = [g for g in generators if g.det == 1]
    if neg:
        reduced = set(pos)
        for a in neg:
            reduced.add(a @ a)
            for b in neg:
                if b is not a:
                    reduced.add(a @ b)
        generators = sorted(reduced, key=lambda g: g.rows)
        reductions.append("determinant -1 generators replaced by det-1 products (index ≤ 2)")

    classes = [classify(g, L) for g in generators]
    lines = [real_pair_lines(g, c) for g, c in zip(generators, classes)]

    for cls, real_pair in zip(classes, lines):
        if isinstance(cls, UnipotentDeficient):
            raise GeometricInconsistency(FULL_JORDAN, "rank(g - id) = 1")
        if isinstance(cls, OutOfTheory) and real_pair is None:
            return GroupVerdict(kind="Inconclusive", reason=cls.reason,
                                reductions=tuple(reductions))

    unipotents = [(g, c) for g, c in zip(generators, classes) if isinstance(c, UnipotentFull)]
    hyperbolics = [real_pair for real_pair in lines if real_pair is not None]

    if unipotents and hyperbolics:
        return GroupVerdict(
            kind="Inconclusive",
            reason="mixed unipotent and hyperbolic generators",
            reductions=tuple(reductions),
        )

    if not unipotents and not hyperbolics:
        return _finite_closure(generators, reductions)

    if unipotents:
        return _unipotent_route(T, L, generators, unipotents[0], reductions)
    return _hyperbolic_route(T, L, generators, hyperbolics[0], reductions)


def _finite_closure(generators, reductions) -> GroupVerdict:
    gens = {g for g in generators} | {g.inverse() for g in generators}
    elements = {LatticeMap.identity()} | gens
    frontier = set(elements)
    for _ in range(CLOSURE_WORD_CAP):
        new = set()
        for a in frontier:
            for g in gens:
                prod = a @ g
                if prod not in elements:
                    new.add(prod)
        if not new:
            ordered = sorted(elements, key=lambda g: g.rows)
            if any(finite_order(g) is None for g in ordered):
                raise PostCheckFailed("closure elements of finite order")
            return GroupVerdict(kind="Finite", elements=tuple(ordered),
                                reductions=tuple(reductions))
        elements |= new
        frontier = new
        if len(elements) > CLOSURE_ELEMENT_CAP:
            break
    return GroupVerdict(
        kind="Inconclusive",
        reason=f"closure exceeded {CLOSURE_ELEMENT_CAP} elements without an "
               "infinite-order witness",
        reductions=tuple(reductions),
    )


def _unipotent_route(T, L, generators, seed, reductions) -> GroupVerdict:
    g0, cls = seed
    frame = (cls.w, cls.w1, cls.w2)
    report = check_unipotent_relations(T, L, *frame)
    split = unipotent_factorization(T, *frame, relation_report=report)
    p = primitive_part(cls.w).scale
    taus = []
    for h in generators:
        h_eff = h
        try:
            record = verify_unipotent_constraints(h_eff, frame, p)
        except NotUnipotentInFrame as exc:
            # det(h|_L) = -1: pass to the square (index-2 reduction)
            h_eff = h @ h
            try:
                record = verify_unipotent_constraints(h_eff, frame, p)
            except NotUnipotentInFrame:
                return GroupVerdict(
                    kind="Inconclusive",
                    reason=f"generator not unipotent in the frame: {exc}",
                    reductions=tuple(reductions),
                )
            reductions = list(reductions) + [
                "generator squared to reach det(h|_L) = 1 (index ≤ 2)"
            ]
        quadric_preserved_in_frame(frame_coordinates_matrix(h_eff, frame), split)
        taus.append(tau(record, p))
    nonzero = [abs(t) for t in taus if t]
    generator_value = math.gcd(*nonzero) if nonzero else 0
    if generator_value == 0:
        # all generators act trivially on the frame, hence are the identity
        return _finite_closure(generators, reductions)
    witness = TauWitness(p=p, values=tuple(taus), generator_value=generator_value)
    return GroupVerdict(kind="AlmostAbelianRankOne", witness=witness,
                        reductions=tuple(reductions))


def _hyperbolic_route(T, L, generators, lines, reductions) -> GroupVerdict:
    u, v, w = lines
    report = check_hyperbolic_relations(T, L, u, v, w)
    if not report.overall:
        failing = [r.name for r in report.rows if not r.holds]
        return GroupVerdict(kind="Inconclusive",
                            reason=f"hyperbolic relations failed: {failing}",
                            reductions=tuple(reductions))
    fact = hyperbolic_factorization(T, u, v, w, relation_report=report)
    singular_locus(fact)  # gradient post-check on the certified lines
    b1, b2 = plane_basis(L)
    u_plane = _plane_coordinates(u, b1, b2)
    v_plane = _plane_coordinates(v, b1, b2)
    values = []
    for h in generators:
        restricted = restrict_to_plane(h, L)
        try:
            # v carries the larger root alpha of the seed generator
            values.append(scaling_character(restricted, v_plane, u_plane))
        except LinesNotPreserved as exc:
            return GroupVerdict(kind="Inconclusive", reason=str(exc),
                                reductions=tuple(reductions))
    reductions = list(reductions) + [
        "scaling character computed on 4th powers (index ≤ 4)"
    ]
    cert = certify_discrete_cyclic(values)
    if cert.kind == "Inconclusive":
        return GroupVerdict(kind="Inconclusive", reason=cert.reason,
                            reductions=tuple(reductions))
    if cert.kind == "Finite":
        return _finite_closure(generators, reductions)
    witness = CharacterWitness(
        generator=cert.generator,
        exponents=cert.exponents,
        values=tuple(values),
        exponent_bound=cert.exponent_bound,
    )
    return GroupVerdict(kind="AlmostAbelianRankOne", witness=witness,
                        reductions=tuple(reductions))
