"""Group-level certification: given generators (or a brute-force enumeration)
of the symmetries of a pair (cubic, linear form), decide Finite versus
almost abelian of rank 1, with an explicit witness.

Only the seed, the first infinite-order generator, enters its quadratic
field; the others are tagged on integers. Both infinite routes read each
generator h as its integer frame matrix (H, e) in the basis of the seed's
frame. The unipotent witness is the integer-valued homomorphism h -> p * a_h,
a_h = H01/e. The hyperbolic witness is the scaling character, the eigenvalue
of h^4 on an eigenline read off the first two columns of H, certified to land
in the discrete cyclic group generated by the fundamental unit of the seed's
real quadratic field.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

from .core_arith import QuadSurd, _from_ints, _pair_sign, _ratio_str
from .cubic_geometry import (
    FULL_JORDAN,
    Factorization,
    RelationReport,
    UnipotentSplit,
    check_hyperbolic_relations,
    check_unipotent_relations,
    hyperbolic_factorization,
    singular_locus,
    unipotent_factorization,
)
from .element_classify import (
    MEMO_SIZE,
    Hyperbolic,
    UnipotentDeficient,
    UnipotentFull,
    OutOfTheory,
    _real_pair_eigendata,
    classify,
    finite_order,
    has_real_pair,
)
from .errors import (
    BoundTooLarge,
    ConstraintViolated,
    GeometricInconsistency,
    LinesNotPreserved,
    NonIntegral,
    NonPreservingGenerator,
    NotUnipotentInFrame,
    PostCheckFailed,
    RelationsNotVerified,
    ValidationError,
)
from .lattice_forms import (
    LatticeMap,
    LinearForm,
    TrilinearForm,
    _adjugate3,
    _as_surd,
    _det3,
    _matmul,
    preserves_pair,
    primitive_part,
)

ENUMERATION_BOUND_GUARD = 6
FINITE_SUBGROUP_BOUND = 24  # the largest order of a finite subgroup of SL3(Z)


class TauWitness(NamedTuple):
    p: int
    values: tuple[int, ...]  # tau of each generator, same order
    generator_value: int  # gcd of the nonzero tau values


class CharacterWitness(NamedTuple):
    generator: QuadSurd  # gamma > 1 generating the certified cyclic group
    exponents: tuple[int, ...]  # exponent of each generator's 4th-power value
    values: tuple[QuadSurd, ...]  # the 4th-power scaling values themselves


class GroupVerdict(NamedTuple):
    kind: str  # "Finite" | "AlmostAbelianRankOne" | "Inconclusive"
    elements: tuple[LatticeMap, ...] | None = None
    witness: TauWitness | CharacterWitness | None = None
    reductions: tuple[str, ...] = ()
    reason: str | None = None


# -- frame matrix and scaling character -----------------------------------------


def frame_basis(frame) -> tuple[tuple, tuple, int]:
    """(M, A, e) for any integer frame, such as (w, w1, w2) of a unipotent
    split or the real basis (P, Q, W) of a hyperbolic one: M holds the frame
    vectors as columns, e = |det M| > 0 and A = ±adj(M) = e·M⁻¹, all integers.
    Each route forms it once for all its generators."""
    m = tuple(zip(*frame))
    det = _det3(m)
    if det == 0:
        raise PostCheckFailed("degenerate frame")
    adj = _adjugate3(m)
    return m, adj if det > 0 else tuple(tuple(-x for x in row) for row in adj), abs(det)


def frame_coordinates_matrix(h: LatticeMap, basis) -> tuple[tuple, int]:
    """h in the basis of a frame, given as its `frame_basis` (M, A, e), as
    (H, e) with M⁻¹·h·M = H/e: H = A·h·M, all integers."""
    m, adj, e = basis
    return _matmul(adj, _matmul(h.rows, m)), e


def _scaling_value(hf, d: int) -> QuadSurd:
    """Positive eigenvalue of h^4 on v, for a symmetry h that fixes or swaps
    the eigenlines u = σ(v) and v = (P + Q√d)/N of a hyperbolic frame (u, v, W).
    On the frame matrix hf = (H, e) of h on the real basis (P, Q, W), h·v = β·v
    exactly when the first two columns of H are (a, d·b, 0) and (b, a, 0), and
    h·v = β·u when they are (a, -d·b, 0) and (b, -a, 0), with β = (a + b√d)/e.
    Then h^4·v is β^4·v, or N(β)^2·v as h^2·v = β·σ(β)·v: passing to 4th
    powers removes the finite ambiguity of line swaps and signs, so the value
    is a positive multiplicative character on the group."""
    ((a, b, _), (x, y, _), (z1, z2, _)), e = hf
    fixes = (x, y) == (d * b, a)
    if z1 or z2 or not (fixes or (x, y) == (-d * b, -a)):
        raise LinesNotPreserved("restricted action does not permute the two lines")
    beta = _from_ints(a, b, e, d)
    return beta ** 4 if fixes else beta.norm() ** 2


# -- discrete cyclic certification ----------------------------------------------


class CyclicCertificate(NamedTuple):
    kind: str  # "Finite" | "Cyclic" | "Inconclusive"
    generator: QuadSurd | None = None
    exponents: tuple[int, ...] = ()
    reason: str | None = None


def certify_discrete_cyclic(values: Sequence[QuadSurd]) -> CyclicCertificate:
    """Certify that positive quadratic units lie in one discrete cyclic group.

    Every positive unit of the ring of integers of K = Q(√d) is a power of the
    fundamental unit eps > 1 (Dirichlet's unit theorem), so the generator is
    eps itself, computed from one continued-fraction period. The exponent of
    each value is found by doubling, then bisection, on exact comparisons in
    O(log k) products, and confirmed by eps**k == v. A value that is not a unit
    of that ring (a rational value other than 1 included) gives Inconclusive;
    a value that is not positive raises ValidationError, and units over two
    fields raise IncompatibleFields when first compared.
    """
    values = [_as_surd(v) for v in values]
    if any(not v > 0 for v in values):
        raise ValidationError("character values must be positive")
    if all(v == 1 for v in values):
        return CyclicCertificate(kind="Finite")
    for v in values:
        if v != 1 and (2 * v.p % v.den or v.norm() not in (1, -1)):
            return CyclicCertificate(
                kind="Inconclusive",
                reason=f"{v} is not a unit of the ring of integers (norm {v.norm()})",
            )

    # Each value as u**sign with u >= 1.
    above = [(v, 1) if v > 1 else (v.inverse(), -1) for v in values]
    smallest = min(u for u, _ in above if u != 1)
    d = smallest.d
    eps = _fundamental_unit(d, (2 * smallest.p // smallest.den, 2 * smallest.q // smallest.den))
    generator = _from_ints(eps[0], eps[1], 2, d)
    exponents = []
    for v, (u, sign) in zip(values, above):
        ux, uy = 2 * u.p // u.den, 2 * u.q // u.den
        powers = [eps]  # eps**(2**i) = (x + y√d)/2, squared until it reaches u
        while _pair_sign(ux - powers[-1][0], uy - powers[-1][1], d) > 0:
            x, y = powers[-1]
            powers.append(((x * x + d * y * y) // 2, x * y))
        k, x, y = 0, 2, 0  # the largest k with eps**k = (x + y√d)/2 below u
        for i in reversed(range(len(powers))):
            a, b = powers[i]
            a, b = (x * a + d * y * b) // 2, (x * b + y * a) // 2
            if _pair_sign(ux - a, uy - b, d) > 0:
                k, x, y = k + (1 << i), a, b
        k += _pair_sign(ux - x, uy - y, d) > 0  # the least k with eps**k >= u
        if generator ** (sign * k) != v:
            raise PostCheckFailed("character value is a power of the fundamental unit",
                                  f"{generator} ** {sign * k} != {v}")
        exponents.append(sign * k)
    return CyclicCertificate(kind="Cyclic", generator=generator, exponents=tuple(exponents))


def _fundamental_unit(d: int, ceiling: tuple[int, int]) -> tuple[int, int]:
    """(x, y) with eps = (x + y√d)/2 > 1 the fundamental unit of Q(√d), for a
    squarefree d > 1, in plain integers.

    The complete quotients (P + √d)/Q of omega = (1 + √d)/2 if d = 1 (mod 4),
    else omega = √d, are reduced from the first step on and purely periodic,
    and their product over one period is eps (Cohen, GTM 138, §5.7). No unit
    > 1 is below eps, so a running product that passes `ceiling`, a unit > 1
    given as (x, y), fails a post-check; the loop takes O(log ceiling) steps."""
    r = math.isqrt(d)

    def step(p, q):
        p = (p + r) // q * q - p
        return p, (d - p * p) // q

    p, q = first = step(*((1, 2) if d % 4 == 1 else (0, 1)))
    x, y, den = 1, 0, 1  # running product (x + y√d)/den
    while True:
        x, y, den = x * p + y * d, x + y * p, den * q
        g = math.gcd(x, y, den)
        x, y, den = x // g, y // g, den // g
        if _pair_sign(2 * x - ceiling[0] * den, 2 * y - ceiling[1] * den, d) > 0:
            raise PostCheckFailed("fundamental unit below every unit > 1",
                                  f"the period of √{d} passes {ceiling}")
        p, q = step(p, q)
        if (p, q) == first:
            return 2 * x // den, 2 * y // den


# -- unipotent constraints -------------------------------------------------------


def unipotent_shear(hf) -> int:
    """Check that h, given by its frame matrix hf = (H, e), is unit upper
    triangular with a = c and d = a(a-1)/2, and return H01 = e·a. Violations
    mean h does not belong to a group of the certified shape."""
    h, e = hf
    if h[1][0] or h[2][0] or h[2][1]:
        raise NotUnipotentInFrame("not upper triangular in the frame basis")
    if h[0][0] != e or h[2][2] != e:
        raise NotUnipotentInFrame("outer diagonal entries differ from 1")
    if h[1][1] != e:
        raise NotUnipotentInFrame(f"restricted determinant is {_ratio_str(h[1][1], e)}; "
                                  "apply the index-2 reduction first")
    a, d, c = h[0][1], h[0][2], h[1][2]
    if a != c:
        raise ConstraintViolated(f"a = {_ratio_str(a, e)} differs from c = {_ratio_str(c, e)}")
    if 2 * e * d != a * (a - e):
        raise ConstraintViolated(f"d = {_ratio_str(d, e)} differs from a(a-1)/2 = "
                                 f"{_ratio_str(a * (a - e), 2 * e * e)}")
    return a


def quadric_preserved_in_frame(hf, split: UnipotentSplit) -> None:
    """Entrywise check that Hfᵀ·Q·Hf = Q (the invariance scalar is 1) for the
    frame matrix hf = (H, e), on integers: with Q = Q'/f over the lcm
    denominator, it reads Hᵀ·Q'·H = e²·Q'."""
    h, e = hf
    f = math.lcm(*(x.den for row in split.quadric for x in row))
    q = tuple(tuple(x.p * (f // x.den) for x in row) for row in split.quadric)
    m = _matmul(_matmul(tuple(zip(*h)), q), h)
    # the scalar is forced to 1 by taking determinants; read it off a pivot entry
    if any(m[i][j] * q[0][2] != m[0][2] * q[i][j] for i in range(3) for j in range(3)):
        raise ConstraintViolated("frame action does not rescale the quadric")
    if m[0][2] != e * e * q[0][2]:
        raise ConstraintViolated(
            f"quadric invariance scalar {_from_ints(m[0][2], 0, e * e * q[0][2], 0)} != 1")


# -- enumeration -----------------------------------------------------------------


def enumerate_symmetries(
    T: TrilinearForm,
    L: LinearForm,
    bound: int,
    *,
    allow_large_bound: bool = False,
) -> list[LatticeMap]:
    """All unimodular maps with entries in [-bound, bound] preserving (T, L).

    Oracle over the integer tensor D·T, third column first. Column j lies on
    the plane L(c) = l_j, so its pool walks only that plane's points in the
    box, solving c_k of one nonzero l_k by a divmod per pair of the other two
    coordinates; it keeps a point with (D·T)(c, c, c) = (D·T)_jjj and its
    covector s = (D·T)(c, c, ·), written out on the six quadratic monomials
    of c. For each third column c3, on the six entries of (D·T)(c3, ·, ·),
    first columns are kept by the entries (1,3,3) and (1,1,3), second columns
    by (2,3,3) and (2,2,3), and pairs of those by (1,2,3), (1,1,2), (1,2,2)
    and the det, so a survivor matches L and all ten entries; `preserves_pair`
    still re-verifies each. The zero covector raises ValidationError."""
    if bound < 0:
        raise ValidationError(f"bound {bound} must be nonnegative")
    if bound > ENUMERATION_BOUND_GUARD and not allow_large_bound:
        raise BoundTooLarge(f"bound {bound} exceeds the guard {ENUMERATION_BOUND_GUARD}")
    if L.is_zero():
        raise ValidationError("the zero covector is not admitted")
    l = L.coefficients()
    t111, t112, t113, t122, t123, t133, t222, t223, t233, t333 = T.flat
    k = max(range(3), key=lambda i: abs(l[i]))
    lk, (li, lj) = l[k], l[:k] + l[k + 1:]
    box = range(-bound, bound + 1)
    pools = ([], [], [])
    for level in dict.fromkeys(l):
        targets = [(pools[j], (t111, t222, t333)[j]) for j in range(3) if l[j] == level]
        for x in box:
            rest = level - li * x
            for y in box:
                ck, r = divmod(rest - lj * y, lk)
                if r or not -bound <= ck <= bound:
                    continue
                a, b, c = (ck, x, y) if k == 0 else (x, ck, y) if k == 1 else (x, y, ck)
                aa, ab, ac, bb, bc, cc = a * a, 2 * a * b, 2 * a * c, b * b, 2 * b * c, c * c
                s1 = t111 * aa + t112 * ab + t113 * ac + t122 * bb + t123 * bc + t133 * cc
                s2 = t112 * aa + t122 * ab + t123 * ac + t222 * bb + t223 * bc + t233 * cc
                s3 = t113 * aa + t123 * ab + t133 * ac + t223 * bb + t233 * bc + t333 * cc
                value = s1 * a + s2 * b + s3 * c
                for pool, diagonal in targets:
                    if value == diagonal:
                        pool.append((a, b, c, s1, s2, s3))
    found = []
    for x3, y3, z3, e1, e2, e3 in pools[2]:
        (m11, m12, m13), (_, m22, m23), (_, _, m33) = T.contract((x3, y3, z3))
        firsts, seconds = [], []
        for kept, pool, tj33, tjj3 in ((firsts, pools[0], t133, t113),
                                       (seconds, pools[1], t233, t223)):
            for a, b, c, s1, s2, s3 in pool:
                if e1 * a + e2 * b + e3 * c == tj33:
                    # the covector (D·T)(c, c3, ·)
                    r1 = m11 * a + m12 * b + m13 * c
                    r2 = m12 * a + m22 * b + m23 * c
                    r3 = m13 * a + m23 * b + m33 * c
                    if r1 * a + r2 * b + r3 * c == tjj3:
                        kept.append((a, b, c, s1, s2, s3, r1, r2, r3))
        for x1, y1, z1, u1, u2, u3, r1, r2, r3 in firsts:
            # det(c1, c2, c3) = c2 · (c3 × c1)
            n1, n2, n3 = y3 * z1 - z3 * y1, z3 * x1 - x3 * z1, x3 * y1 - y3 * x1
            for x2, y2, z2, v1, v2, v3, _, _, _ in seconds:
                if (r1 * x2 + r2 * y2 + r3 * z2 == t123 and u1 * x2 + u2 * y2 + u3 * z2 == t112
                        and v1 * x1 + v2 * y1 + v3 * z1 == t122
                        and n1 * x2 + n2 * y2 + n3 * z2 in (1, -1)):
                    g = LatticeMap._from_rows(((x1, x2, x3), (y1, y2, y3), (z1, z2, z3)))
                    if preserves_pair(g, T, L):
                        found.append(g)
    found.sort(key=lambda g: g.rows)
    return found


# -- seed certification ----------------------------------------------------------


class SeedCertificate(NamedTuple):
    """The relation report of one infinite-order seed, then either the
    factorization of C with its singular lines (`PairVector`s), or the reason
    the relation gate gave, or the (mechanism, detail) of the inconsistency
    the factorization found, which each caller raises afresh."""

    relations: RelationReport
    factorization: Factorization | None = None
    singular_lines: tuple = ()
    reason: str | None = None
    inconsistency: tuple[str, str] | None = None


@lru_cache(maxsize=MEMO_SIZE)
def certify_seed(T: TrilinearForm, L: LinearForm, seed) -> SeedCertificate:
    """Check the intersection relations of a seed's frame and factor C along L.

    The seed is a UnipotentFull class or the eigenlines (u, v, w) of a real
    pair. Each factorization keeps its own order of checks: the hyperbolic
    relation gate comes before B = 0, the unipotent E = 0 before the gate. The
    singular lines are post-checked against the gradient of C. Memoized on
    the values of T, L and the seed, so factor and analyze share one run."""
    if isinstance(seed, UnipotentFull):
        kind, factor = "unipotent", unipotent_factorization
        relations = check_unipotent_relations(T, L, seed.w, seed.w1, seed.w2)
    else:
        kind, factor = "hyperbolic", hyperbolic_factorization
        relations = check_hyperbolic_relations(T, L, *seed)
    try:
        fact = factor(relations)
    except RelationsNotVerified:
        return SeedCertificate(relations, reason=f"{kind} relations failed: {relations.failing}")
    except GeometricInconsistency as exc:
        return SeedCertificate(relations, inconsistency=(exc.mechanism, exc.detail))
    return SeedCertificate(relations, fact, tuple(singular_locus(fact)))


def seed_of(g: LatticeMap, cls):
    """The seed a generator g of class cls offers `certify_seed`: its
    UnipotentFull class or its real-pair eigenlines (u, v, w), which a
    Hyperbolic class carries, else None. A UnipotentDeficient class violates
    the full-Jordan condition and raises."""
    if isinstance(cls, UnipotentDeficient):
        raise GeometricInconsistency(FULL_JORDAN, "rank(g - id) = 1")
    if isinstance(cls, UnipotentFull):
        return cls
    if isinstance(cls, Hyperbolic):
        return cls.u, cls.v, cls.w
    return _real_pair_eigendata(g)[1:] if has_real_pair(g) else None


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
    generated by the given symmetries (or by a bounded enumeration).

    With a det -1 generator a, the verdict is on the det-1 subgroup (index
    ≤ 2), generated by its Schreier generators for the transversal {1, a}: s
    and a·s·a⁻¹ for a det-1 s, s·a⁻¹ and a·s for a det -1 s, in input order
    without repeats. The witness has one entry per Schreier generator.

    Every step that replaces the generators appends to one list of
    reductions, which the verdict receives once, or a GeometricInconsistency
    raised on the way."""
    reductions: list[str] = []
    if generators is None:
        # every enumerated map has passed preserves_pair inside the enumeration
        generators = enumerate_symmetries(T, L, bound, allow_large_bound=allow_large_bound)
        reductions.append(f"generators from brute-force enumeration, bound {bound}")
    else:
        for g in generators:
            if not preserves_pair(g, T, L):
                raise NonPreservingGenerator(f"{g!r} does not preserve the pair")
    try:
        verdict = _dichotomy(T, L, list(generators), reductions)
    except GeometricInconsistency as exc:
        exc.reductions = tuple(reductions)
        raise
    return verdict._replace(reductions=tuple(reductions))


def _dichotomy(T, L, generators, reductions) -> GroupVerdict:
    a = next((g for g in generators if g.det == -1), None)
    if a is not None:
        a_inv = a.inverse()
        generators = list(dict.fromkeys(
            x for s in generators
            for x in ((s, a @ s @ a_inv) if s.det == 1 else (s @ a_inv, a @ s))))
        reductions.append("determinant -1 generators replaced by the Schreier "
                          "generators of the det-1 subgroup (index ≤ 2)")

    # Tags on integers: a real pair enters no field, and classify needs none for
    # the rest. It gets no L: every generator here was checked to preserve it.
    infinite = []  # (g, its UnipotentFull class, or None for a real pair)
    for g in generators:
        cls = None if has_real_pair(g) else classify(g)
        if isinstance(cls, OutOfTheory):
            return GroupVerdict(kind="Inconclusive", reason=cls.reason)
        if cls is None or seed_of(g, cls) is not None:  # raises on a deficient block
            infinite.append((g, cls))
    if not infinite:
        return _finite_closure(generators)
    unipotent = infinite[0][1] is not None
    if any((cls is not None) != unipotent for _, cls in infinite):
        return GroupVerdict(kind="Inconclusive",
                            reason="mixed unipotent and hyperbolic generators")

    cert = certify_seed(T, L, seed_of(*infinite[0]))
    if cert.inconsistency is not None:
        raise GeometricInconsistency(*cert.inconsistency)
    if cert.reason is not None:
        return GroupVerdict(kind="Inconclusive", reason=cert.reason)
    route = _unipotent_route if unipotent else _hyperbolic_route
    character = route(generators, cert.factorization, reductions)
    if isinstance(character, str):
        return GroupVerdict(kind="Inconclusive", reason=character)
    phi, witness = character
    # the seed is a generator: its tau is p in its own frame, and its alpha^4 is not 1
    if not any(phi):
        raise PostCheckFailed("the character is nonzero on the seed generator")
    return GroupVerdict(kind="AlmostAbelianRankOne", witness=witness)


def _finite_closure(generators) -> GroupVerdict:
    """The group generated by det-1 maps, listed while it has at most
    FINITE_SUBGROUP_BOUND elements; past that bound it is infinite. The set
    grows by products with the generators alone, no inverses: a finite set
    closed under products in a group is a subgroup, so the monoid that the
    generators of an infinite group generate is infinite."""
    if any(g.det != 1 for g in generators):
        raise PostCheckFailed("closure generators of determinant 1")
    gens = set(generators)
    elements = {LatticeMap.identity()} | gens
    frontier = set(elements)
    while len(elements) <= FINITE_SUBGROUP_BOUND:
        new = {a @ g for a in frontier for g in gens} - elements
        if not new:
            ordered = sorted(elements, key=lambda g: g.rows)
            if any(finite_order(g) is None for g in ordered):
                raise PostCheckFailed("closure elements of finite order")
            return GroupVerdict(kind="Finite", elements=tuple(ordered))
        elements |= new
        frontier = new
    return GroupVerdict(
        kind="Inconclusive",
        reason=f"the group is infinite: its closure passed {FINITE_SUBGROUP_BOUND} "
               "elements, the most a finite subgroup of SL3(Z) has, but no "
               "infinite-order witness was found",
    )


def _unipotent_route(generators, split: UnipotentSplit, reductions) -> tuple | str:
    """(phi, witness), phi = tau per generator, or why the route is inconclusive."""
    basis = frame_basis([f.p for f in split.frame])
    p = primitive_part(split.frame[0].p).scale
    taus = []
    for h in generators:
        hf = frame_coordinates_matrix(h, basis)
        try:
            shear = unipotent_shear(hf)
        except NotUnipotentInFrame as exc:
            # det(h|_L) = -1: pass to the square (index-2 reduction)
            hf = frame_coordinates_matrix(h @ h, basis)
            try:
                shear = unipotent_shear(hf)
            except NotUnipotentInFrame:
                return f"generator not unipotent in the frame: {exc}"
            reductions.append("generator squared to reach det(h|_L) = 1 (index ≤ 2)")
        quadric_preserved_in_frame(hf, split)
        # tau = p·a = p·H01/e; the primitivity scale p clears the denominator
        t, r = divmod(p * shear, hf[1])
        if r:
            raise NonIntegral(f"p·a = {_ratio_str(p * shear, hf[1])} is not an integer")
        taus.append(t)
    return taus, TauWitness(p=p, values=tuple(taus), generator_value=math.gcd(*taus))


def _hyperbolic_route(generators, fact: Factorization, reductions) -> tuple | str:
    """(phi, witness), phi = the exponents of the 4th-power scaling values per
    generator, () when all are 1, or why the route is inconclusive."""
    _, (p, q, _, d), w = fact.frame  # v carries the larger root alpha of the seed
    basis = frame_basis((p, q, w.p))
    values = []
    for h in generators:
        try:
            values.append(_scaling_value(frame_coordinates_matrix(h, basis), d))
        except LinesNotPreserved as exc:
            return str(exc)
    reductions.append("scaling character computed on 4th powers (index ≤ 4)")
    cert = certify_discrete_cyclic(values)
    if cert.kind == "Inconclusive":
        return cert.reason
    return cert.exponents, CharacterWitness(generator=cert.generator, exponents=cert.exponents,
                                            values=tuple(values))
