"""Intersection-relation checks and factorization certificates for the cubic.

A hyperbolic frame (u, v, w) splits the cubic as z(A z^2 + 6 B x y) in frame
coordinates; a full unipotent frame (w, w1, w2) splits it as
z(F z^2 + 2 E x z - E y^2 + E y z). Both certificates carry the frame, so the
split is checked forward: the original cubic evaluated on the frame vectors
must give the split's entries, which for a basis is the same as re-expanding
the factors in standard coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core_arith import QuadSurd
from .errors import (
    GeometricInconsistency,
    NotOnQuadric,
    PostCheckFailed,
    RelationsNotVerified,
    SingularPoint,
)
from .lattice_forms import (
    _IDENTITY_ROWS,
    ENTRY_KEYS,
    LinearForm,
    TrilinearForm,
    _adjugate3,
    _as_surd,
    _det3,
    _dot,
    _matvec,
    projective_normalize,
    trilinear_eval,
)

HODGE_INDEX = "Hodge index theorem (triple product u·v·w must be nonzero)"
LEFSCHETZ = "Lefschetz hyperplane theorem (w·w2^2 must be nonzero)"
FULL_JORDAN = (
    "full Jordan block requirement (rank(g - id) = 2 for geometric unipotent actions)"
)


@dataclass(frozen=True)
class RelationRow:
    name: str
    left: QuadSurd
    right: QuadSurd
    holds: bool


@dataclass(frozen=True)
class RelationReport:
    rows: tuple[RelationRow, ...]
    overall: bool

    @classmethod
    def from_rows(cls, rows) -> "RelationReport":
        rows = tuple(rows)
        return cls(rows=rows, overall=all(r.holds for r in rows))

    @property
    def failing(self) -> list[str]:
        """Names of the rows that do not hold, in row order."""
        return [r.name for r in self.rows if not r.holds]


def _eq_row(name: str, left, right=QuadSurd(0)) -> RelationRow:
    left = _as_surd(left)
    right = _as_surd(right)
    return RelationRow(name, left, right, left == right)


def _neq_row(name: str, left, right=QuadSurd(0)) -> RelationRow:
    left = _as_surd(left)
    right = _as_surd(right)
    return RelationRow(name, left, right, left != right)


class QuadraticForm:
    """Symmetric 3x3 matrix of exact scalars."""

    __slots__ = ("m",)

    def __init__(self, m: Sequence[Sequence]):
        m = tuple(tuple(_as_surd(x) for x in row) for row in m)
        if len(m) != 3 or any(len(r) != 3 for r in m):
            raise ValueError("expected a 3x3 matrix")
        if m != tuple(zip(*m)):
            raise ValueError("matrix is not symmetric")
        self.m = m

    def eval(self, v: Sequence) -> QuadSurd:
        v = tuple(_as_surd(x) for x in v)
        return _dot(v, _matvec(self.m, v))

    def gradient(self, v: Sequence) -> tuple:
        v = tuple(_as_surd(x) for x in v)
        return tuple(x * 2 for x in _matvec(self.m, v))

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return self.m == other.m

    def __repr__(self):
        return f"QuadraticForm({[[str(x) for x in row] for row in self.m]})"


@dataclass(frozen=True)
class ThreeLines:
    """C = L1 * L2 * L in frame coordinates (x, y, z) = (u, v, w)-coordinates:
    L2 = x, L1 = 6B y, L = z."""

    cubic: TrilinearForm
    frame: tuple  # columns (u, v, w)
    b: QuadSurd  # B = T(u, v, w)
    l1: tuple  # covectors in frame coordinates
    l2: tuple
    l: tuple


@dataclass(frozen=True)
class QuadricLine:
    """C = Q * L in frame coordinates; tangency points listed in standard
    coordinates. `tangent` marks the unipotent single-tangency split."""

    cubic: TrilinearForm
    frame: tuple
    quadric: QuadraticForm  # in frame coordinates
    a: QuadSurd  # A = T(w, w, w); for the unipotent split this holds F
    b: QuadSurd  # B = T(u, v, w); for the unipotent split this holds E
    tangency_points: tuple
    tangent: bool = False


@dataclass(frozen=True)
class UnipotentSplit:
    """Result of the unipotent factorization: C = z(Fz^2 + 2Exz - Ey^2 + Eyz)."""

    cubic: TrilinearForm
    frame: tuple  # (w, w1, w2) integer vectors
    e: Fraction
    f: Fraction
    quadric: QuadraticForm
    linear_in_frame: tuple  # the covector z


Factorization = ThreeLines | QuadricLine | UnipotentSplit


def check_hyperbolic_relations(
    T: TrilinearForm, L: LinearForm, u: Sequence, v: Sequence, w: Sequence
) -> RelationReport:
    """The eight vanishing triple products of a hyperbolic frame plus
    L(u) = L(v) = 0, all exact."""
    tv = lambda a, b, c: trilinear_eval(T, a, b, c)
    rows = [
        _eq_row("u^3", tv(u, u, u)),
        _eq_row("v^3", tv(v, v, v)),
        _eq_row("u^2·v", tv(u, u, v)),
        _eq_row("u·v^2", tv(u, v, v)),
        _eq_row("u^2·w", tv(u, u, w)),
        _eq_row("u·w^2", tv(u, w, w)),
        _eq_row("v^2·w", tv(v, v, w)),
        _eq_row("v·w^2", tv(v, w, w)),
        _eq_row("L(u)", L(u)),
        _eq_row("L(v)", L(v)),
    ]
    return RelationReport.from_rows(rows)


def hyperbolic_factorization(
    T: TrilinearForm,
    u: Sequence,
    v: Sequence,
    w: Sequence,
    *,
    relation_report: RelationReport | None = None,
) -> Factorization:
    """Split C as three planes (A = 0) or quadric-plus-plane (A != 0).

    A = T(w,w,w), B = T(u,v,w). B = 0 contradicts the Hodge index theorem for
    genuine geometric inputs and raises GeometricInconsistency.
    """
    if relation_report is not None and not relation_report.overall:
        raise RelationsNotVerified(f"failing relations: {relation_report.failing}")
    a = trilinear_eval(T, w, w, w)
    b = trilinear_eval(T, u, v, w)
    if not b:
        raise GeometricInconsistency(HODGE_INDEX, "B = T(u, v, w) = 0")
    frame = (tuple(_as_surd(x) for x in u), tuple(_as_surd(x) for x in v),
             tuple(_as_surd(x) for x in w))
    if not a:
        six_b = b * 6
        return ThreeLines(
            cubic=T,
            frame=frame,
            b=b,
            l1=(QuadSurd(0), six_b, QuadSurd(0)),
            l2=(QuadSurd(1), QuadSurd(0), QuadSurd(0)),
            l=(QuadSurd(0), QuadSurd(0), QuadSurd(1)),
        )
    three_b = b * 3
    q = QuadraticForm(
        (
            (QuadSurd(0), three_b, QuadSurd(0)),
            (three_b, QuadSurd(0), QuadSurd(0)),
            (QuadSurd(0), QuadSurd(0), a),
        )
    )
    return QuadricLine(
        cubic=T, frame=frame, quadric=q, a=a, b=b,
        tangency_points=(frame[0], frame[1]), tangent=False,
    )


def quadric_signature(Q: QuadraticForm) -> tuple[int, int, int]:
    """Sylvester inertia (positive, negative, zero) of Q from the signs of its
    characteristic polynomial p = t^3 - tr·t^2 + m·t - det. All roots of p are
    real (Q is real symmetric), so by Descartes' rule of signs p(t) and p(-t)
    have as many positive roots as sign changes; 0 is a root as often as
    trailing coefficients vanish."""
    m, adj = Q.m, _adjugate3(Q.m)
    signs = [1, -(m[0][0] + m[1][1] + m[2][2]).sign(),
             (adj[0][0] + adj[1][1] + adj[2][2]).sign(), -_det3(m).sign()]

    def changes(seq):
        nonzero = [x for x in seq if x]
        return sum(x != y for x, y in zip(nonzero, nonzero[1:]))

    zero = next(k for k, x in enumerate(reversed(signs)) if x)
    return changes(signs), changes([x * (-1) ** k for k, x in enumerate(signs)]), zero


def tangent_plane(Q: QuadraticForm, pt: Sequence) -> tuple:
    """Projective gradient covector of Q at a smooth point of the quadric."""
    if Q.eval(pt) != 0:
        raise NotOnQuadric(f"Q({[str(_as_surd(x)) for x in pt]}) != 0")
    grad = Q.gradient(pt)
    if not any(grad):
        raise SingularPoint("vanishing gradient")
    return projective_normalize(grad)


def check_unipotent_relations(
    T: TrilinearForm, L: LinearForm, w: Sequence, w1: Sequence, w2: Sequence
) -> RelationReport:
    """Vanishing and chain relations of a full unipotent frame.

    The cycle identity "w^2 = 0" lives in codimension 2; its lattice shadow is
    T(w, w, x) = 0 for every basis vector x, which is the only consequence the
    certification needs.
    """
    tv = lambda a, b, c: trilinear_eval(T, a, b, c)
    ww22 = tv(w, w2, w2)
    w1w22 = tv(w1, w2, w2)
    w12w2 = tv(w1, w1, w2)
    rows = [
        _eq_row("L(w)", L(w)),
        _eq_row("L(w1)", L(w1)),
        *[_eq_row(f"w^2·e{i + 1}", tv(w, w, e)) for i, e in enumerate(_IDENTITY_ROWS)],
        _eq_row("w1^3", tv(w1, w1, w1)),
        _eq_row("w·w1^2", tv(w, w1, w1)),
        _eq_row("w·w1·w2", tv(w, w1, w2)),
        _eq_row("w·w2^2 = 2·w1·w2^2", ww22, w1w22 * 2),
        _eq_row("w·w2^2 = -2·w1^2·w2", ww22, w12w2 * (-2)),
        _neq_row("w·w2^2 ≠ 0", ww22),
    ]
    return RelationReport.from_rows(rows)


def unipotent_factorization(
    T: TrilinearForm,
    w: Sequence,
    w1: Sequence,
    w2: Sequence,
    *,
    relation_report: RelationReport | None = None,
) -> UnipotentSplit:
    """E = 3 T(w,w2,w2)/2, F = T(w2,w2,w2); E = 0 contradicts the Lefschetz
    hyperplane theorem and raises GeometricInconsistency."""
    e_surd = trilinear_eval(T, w, w2, w2) * Fraction(3, 2)
    if not e_surd:
        raise GeometricInconsistency(LEFSCHETZ, "E = 3·T(w, w2, w2)/2 = 0")
    if relation_report is not None and not relation_report.overall:
        raise RelationsNotVerified(f"failing relations: {relation_report.failing}")
    f_surd = trilinear_eval(T, w2, w2, w2)
    e = e_surd.to_fraction()
    f = f_surd.to_fraction()
    q = QuadraticForm(
        (
            (Fraction(0), Fraction(0), e),
            (Fraction(0), -e, e / 2),
            (e, e / 2, f),
        )
    )
    # L in frame coordinates is z; it must be tangent to Q at w = (1, 0, 0).
    plane = tangent_plane(q, (1, 0, 0))
    if plane != (QuadSurd(0), QuadSurd(0), QuadSurd(1)):
        raise PostCheckFailed("tangent plane", f"L is not tangent to Q at w: {plane}")
    frame = (tuple(int(x) for x in w), tuple(int(x) for x in w1),
             tuple(int(x) for x in w2))
    return UnipotentSplit(
        cubic=T, frame=frame, e=e, f=f, quadric=q,
        linear_in_frame=(QuadSurd(0), QuadSurd(0), QuadSurd(1)),
    )


# -- reconstruction and singular loci -----------------------------------------


def _frame_entries(fact: Factorization) -> dict[tuple[int, int, int], QuadSurd]:
    """Trilinear entries of the split cubic in frame coordinates."""
    zero = QuadSurd(0)
    entries = {key: zero for key in ENTRY_KEYS}
    if isinstance(fact, ThreeLines):
        entries[(1, 2, 3)] = fact.b  # C = 6Bxyz
    elif isinstance(fact, QuadricLine):
        entries[(1, 2, 3)] = fact.b  # C = z(Az^2 + 6Bxy)
        entries[(3, 3, 3)] = fact.a
    else:
        e, f = QuadSurd(fact.e), QuadSurd(fact.f)
        third = QuadSurd(Fraction(1, 3))
        entries[(3, 3, 3)] = f  # C = z(Fz^2 + 2Exz - Ey^2 + Eyz)
        entries[(1, 3, 3)] = e * third * 2
        entries[(2, 2, 3)] = -(e * third)
        entries[(2, 3, 3)] = e * third
    return entries


def reconstruction_matches(fact: Factorization) -> bool:
    """True iff the cubic evaluated on the frame vectors gives all 10 entries
    of the split. The frame is a basis M, so T∘M equals the split exactly when
    re-expanding the factors in standard coordinates gives back T."""
    if not _det3(fact.frame):
        raise PostCheckFailed("frame is degenerate")
    f, split = fact.frame, _frame_entries(fact)
    return all(trilinear_eval(fact.cubic, f[i - 1], f[j - 1], f[k - 1]) == split[i, j, k]
               for i, j, k in ENTRY_KEYS)


def singular_locus(fact: Factorization) -> list[tuple]:
    """Projective singular lines of the split cubic, in standard coordinates.

    Every returned line is post-checked to annihilate the exact gradient of C."""
    if isinstance(fact, ThreeLines):
        lines = [fact.frame[0], fact.frame[1], fact.frame[2]]
    elif isinstance(fact, QuadricLine):
        # Q = Az^2 + 6Bxy restricted to z = 0 cuts the two frame axes.
        lines = [fact.frame[0], fact.frame[1]]
    else:
        # z = 0 forces -E y^2 = 0, leaving only the tangency line.
        w = tuple(QuadSurd(x) for x in fact.frame[0])
        lines = [w]
    out = []
    for line in lines:
        pt = projective_normalize(line)
        for e in _IDENTITY_ROWS:
            grad_component = trilinear_eval(fact.cubic, pt, pt, e)
            if grad_component:
                raise PostCheckFailed(
                    "singular-locus gradient",
                    f"gradient does not vanish on claimed singular line {pt}",
                )
        out.append(pt)
    return out
