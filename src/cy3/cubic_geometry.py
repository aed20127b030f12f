"""Intersection-relation checks and factorization certificates for the cubic.

Every certificate is one split C = z·Q in the coordinates (x, y, z) of a frame
M = (f1, f2, f3) with L(f1) = L(f2) = 0, so that z is proportional to L. All of
it is read off the frame table t_ijk = T(f_i, f_j, f_k), the cubic in frame
coordinates: C∘M = z·Q exactly when the z-free entries t111, t112, t122, t222
vanish, and then q_ij = 3·t_ij3 for i, j ≤ 2, q_i3 = (3/2)·t_i33, q_33 = t_333.
A hyperbolic frame (u, v, w) gives z(A z^2 + 6B xy), a full unipotent frame
(w, w1, w2) gives z(F z^2 + 2E xz - E y^2 + E yz).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .core_arith import QuadSurd, _from_ints, _pair_sign
from .errors import GeometricInconsistency, PostCheckFailed, RelationsNotVerified, ValidationError
from .lattice_forms import (
    LinearForm,
    PairVector,
    TrilinearForm,
    _dot,
    _int_pairs,
    _matvec,
    _pair_apply,
    _pair_cross,
    _pair_dot,
    _normalized,
    _rows3,
    frame_table,
)

HODGE_INDEX = "Hodge index theorem (triple product u·v·w must be nonzero)"
LEFSCHETZ = "Lefschetz hyperplane theorem (w·w2^2 must be nonzero)"
FULL_JORDAN = "full Jordan block requirement (rank(g - id) = 2 for geometric unipotent actions)"


class RelationRow(NamedTuple):
    name: str
    left: QuadSurd
    right: QuadSurd
    holds: bool


class RelationReport(NamedTuple):
    rows: tuple[RelationRow, ...]
    overall: bool
    # (T, frame, table): the cubic, the frame's PairVector columns and the
    # frame table, which the factorization reads off; not rendered.
    source: tuple

    @classmethod
    def from_rows(cls, rows, source: tuple) -> "RelationReport":
        rows = tuple(rows)
        return cls(rows=rows, overall=all(r.holds for r in rows), source=source)

    @property
    def failing(self) -> list[str]:
        """Names of the rows that do not hold, in row order."""
        return [r.name for r in self.rows if not r.holds]


def _row(name: str, left: QuadSurd, right=QuadSurd(0), *, equal: bool = True) -> RelationRow:
    """The row "left = right" of surds, or "left != right" when `equal` is False."""
    return RelationRow(name, left, right, (left == right) == equal)


def _form_rows(L: LinearForm, names: tuple, frame) -> list[RelationRow]:
    """The rows L(f) = 0 for the named leading PairVector columns f of a frame."""
    return [_row(f"L({name})", _from_ints(_dot(L, f.p), _dot(L, f.q), f.den, f.d))
            for name, f in zip(names, frame)]


class Factorization(NamedTuple):
    """C = z·Q(x, y, z) in the coordinates of `frame`, Q as read off the
    frame table. Each kind is a subclass; its named constants are views of Q."""

    cubic: TrilinearForm
    frame: tuple  # PairVector columns (f1, f2, f3) over one den
    quadric: tuple  # symmetric 3x3 rows of surds, in frame coordinates


class _HyperbolicSplit(Factorization):
    """Frame (u, v, w): C = z(A z^2 + 6B xy)."""

    __slots__ = ()

    @property
    def a(self) -> QuadSurd:
        """A = T(w, w, w) = q_33."""
        return self.quadric[2][2]

    @property
    def b(self) -> QuadSurd:
        """B = T(u, v, w) = q_12 / 3."""
        return self.quadric[0][1] / 3


class ThreeLines(_HyperbolicSplit):
    """A = 0: C = 6B y · x · z, three planes of the frame."""

    __slots__ = ()


class QuadricLine(_HyperbolicSplit):
    """A != 0: the quadric A z^2 + 6B xy meets the plane z in the lines u, v."""

    __slots__ = ()


class UnipotentSplit(Factorization):
    """Frame (w, w1, w2) of integer vectors, den = 1: C = z(F z^2 + 2E xz - E y^2 + E yz),
    with Q tangent to the plane z at w."""

    __slots__ = ()

    @property
    def e(self) -> QuadSurd:
        """E = q_13 = 3 T(w, w2, w2) / 2, rational."""
        return self.quadric[0][2]

    @property
    def f(self) -> QuadSurd:
        """F = q_33 = T(w2, w2, w2), rational."""
        return self.quadric[2][2]


# The entries of the frame table that C∘M = z·Q forces to vanish.
Z_FREE = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))


def _read_quadric(t) -> tuple:
    """Q with C∘M = z·Q, built on the ints of the entries of the frame table
    t of a split cubic."""

    def q(key, den=1):
        x = t[key]
        return _from_ints(3 * x.p, 3 * x.q, den * x.den, x.d)

    q12, q13, q23 = q((1, 2, 3)), q((1, 3, 3), 2), q((2, 3, 3), 2)
    return (
        (q((1, 1, 3)), q12, q13),
        (q12, q((2, 2, 3)), q23),
        (q13, q23, t[3, 3, 3]),
    )


def _checked_quadric(t, check: str, vanishing=()) -> tuple:
    """Q read off the frame table t, after the post-check that the z-free
    entries and the further entries `vanishing` are 0."""
    nonzero = [f"t{i}{j}{k} = {t[i, j, k]}" for i, j, k in (*Z_FREE, *vanishing) if t[i, j, k]]
    if nonzero:
        raise PostCheckFailed(check, f"nonzero frame entries {', '.join(nonzero)}")
    return _read_quadric(t)


HYPERBOLIC_ROWS = (
    ("u^3", (1, 1, 1)), ("v^3", (2, 2, 2)), ("u^2·v", (1, 1, 2)), ("u·v^2", (1, 2, 2)),
    ("u^2·w", (1, 1, 3)), ("u·w^2", (1, 3, 3)), ("v^2·w", (2, 2, 3)), ("v·w^2", (2, 3, 3)),
)


def _int_columns(cols: Sequence[Sequence], den: int, d: int) -> tuple[PairVector, ...]:
    """Int columns c as PairVectors c·den over den; any other raises ValidationError."""
    if not all(type(x) is int for c in cols for x in c):
        raise ValidationError(f"frame columns must be integer vectors: {cols}")
    return tuple([PairVector(tuple([x * den for x in c]), (0, 0, 0), den, d) for c in cols])


def check_hyperbolic_relations(
    T: TrilinearForm, L: LinearForm, u: PairVector, v: PairVector, w: Sequence[int]
) -> RelationReport:
    """The eight vanishing triple products of a hyperbolic frame, read off
    its frame table, plus L(u) = L(v) = 0, all exact, on the frame (u, v, W):
    the eigenlines as `classify` checked them and W = w·N over v's den N. A u
    that is not σ(v), or a w that is not an int vector, raises ValidationError."""
    frame = (u, v, *_int_columns((w,), v.den, v.d))
    t = frame_table(T, frame)
    rows = [_row(name, t[key]) for name, key in HYPERBOLIC_ROWS]
    return RelationReport.from_rows([*rows, *_form_rows(L, ("u", "v"), frame)], (T, frame, t))


def hyperbolic_factorization(relations: RelationReport) -> Factorization:
    """Split C as three planes (A = 0) or quadric-plus-plane (A != 0), read
    off the frame table of a hyperbolic relation report.

    A failing report raises RelationsNotVerified. A = T(w,w,w), B = T(u,v,w).
    B = 0 contradicts the Hodge index theorem for genuine geometric inputs and
    raises GeometricInconsistency. The split is post-checked on the frame
    table: every entry but B and A must vanish.
    """
    if not relations.overall:
        raise RelationsNotVerified(f"failing relations: {relations.failing}")
    T, frame, t = relations.source
    if not t[1, 2, 3]:
        raise GeometricInconsistency(HODGE_INDEX, "B = T(u, v, w) = 0")
    quadric = _checked_quadric(t, "hyperbolic split C = z(A z^2 + 6B xy)",
                               ((1, 1, 3), (2, 2, 3), (1, 3, 3), (2, 3, 3)))
    return (QuadricLine if t[3, 3, 3] else ThreeLines)(T, frame, quadric)


def quadric_signature(Q: Sequence[Sequence]) -> tuple[int, int, int]:
    """Sylvester inertia (positive, negative, zero) of Q, the 3x3 rows of a
    `Factorization.quadric`, from the signs of its characteristic polynomial
    p = t^3 - tr·t^2 + m·t - det. All roots of p are real (Q is real
    symmetric), so by Descartes' rule of signs p(t) and p(-t) have as many
    positive roots as sign changes; 0 is a root as often as trailing
    coefficients vanish. The coefficient m is the sum of the three principal
    2x2 minors, the diagonal of the adjugate. All three are signs of integer
    pairs: Q cleared over one denominator D > 0 scales them by D, D² and D³.
    A Q that is not a symmetric 3x3 matrix of numbers raises ValidationError."""
    p, q, _, d = _int_pairs([x for row in _rows3(Q) for x in row])
    if (p, q) != (p[0::3] + p[1::3] + p[2::3], q[0::3] + q[1::3] + q[2::3]):
        raise ValidationError("matrix is not symmetric")
    r1, r2, r3 = (p[:3], q[:3]), (p[3:6], q[3:6]), (p[6:], q[6:])
    a1, a2, a3 = _pair_cross(r2, r3, d), _pair_cross(r3, r1, d), _pair_cross(r1, r2, d)  # adj(Q)
    signs = [1, -_pair_sign(p[0] + p[4] + p[8], q[0] + q[4] + q[8], d),
             _pair_sign(a1[0][0] + a2[0][1] + a3[0][2], a1[1][0] + a2[1][1] + a3[1][2], d),
             -_pair_sign(*_pair_dot(r1, a1, d), d)]

    def changes(seq):
        nonzero = [x for x in seq if x]
        return sum(x != y for x, y in zip(nonzero, nonzero[1:]))

    zero = next(k for k, x in enumerate(reversed(signs)) if x)
    return changes(signs), changes([x * (-1) ** k for k, x in enumerate(signs)]), zero


def check_unipotent_relations(
    T: TrilinearForm, L: LinearForm, w: Sequence, w1: Sequence, w2: Sequence
) -> RelationReport:
    """Vanishing and chain relations of a full unipotent frame, the chain
    read off its frame table.

    The cycle identity "w^2 = 0" lives in codimension 2; its lattice shadow is
    T(w, w, x) = 0 for every basis vector x, which is the only consequence the
    certification needs, read as D·T(w, w, ·) over D. Columns must be int vectors.
    """
    frame = _int_columns((w, w1, w2), 1, 0)
    t = frame_table(T, frame)
    ww22 = t[1, 3, 3]
    rows = [
        *_form_rows(L, ("w", "w1"), frame),
        *[_row(f"w^2·e{i + 1}", _from_ints(x, 0, T.scale, 0))
          for i, x in enumerate(_matvec(T.contract(w), w))],
        _row("w1^3", t[2, 2, 2]),
        _row("w·w1^2", t[1, 2, 2]),
        _row("w·w1·w2", t[1, 2, 3]),
        _row("w·w2^2 = 2·w1·w2^2", ww22, t[2, 3, 3] * 2),
        _row("w·w2^2 = -2·w1^2·w2", ww22, t[2, 2, 3] * (-2)),
        _row("w·w2^2 ≠ 0", ww22, equal=False),
    ]
    return RelationReport.from_rows(rows, (T, frame, t))


def unipotent_factorization(relations: RelationReport) -> UnipotentSplit:
    """The split read off the frame table of a unipotent relation report.

    E = 3 T(w,w2,w2)/2, F = T(w2,w2,w2); E = 0 contradicts the Lefschetz
    hyperplane theorem and raises GeometricInconsistency, before a failing
    report raises RelationsNotVerified. The split is post-checked on the frame
    table. With E = q13 != 0, L = z is tangent to Q at w = (1, 0, 0) exactly
    when q11 = q12 = 0, so t113 and t123 must vanish too."""
    T, frame, t = relations.source
    if not t[1, 3, 3]:
        raise GeometricInconsistency(LEFSCHETZ, "E = 3·T(w, w2, w2)/2 = 0")
    if not relations.overall:
        raise RelationsNotVerified(f"failing relations: {relations.failing}")
    q = _checked_quadric(t, "unipotent split C = z·Q", ((1, 1, 3), (1, 2, 3)))
    return UnipotentSplit(T, frame, q)


# -- singular loci ------------------------------------------------------------


def singular_locus(fact: Factorization) -> list[PairVector]:
    """Projective singular lines of the split cubic, in standard coordinates:
    all three frame lines of ThreeLines; u and v for QuadricLine, where
    A z^2 + 6B xy meets z = 0; w for the unipotent split, where z = 0 forces
    -E y^2 = 0. Each is the normalized integer pair (p, q) over n of its column.

    Every returned line is post-checked against the gradient of C, computed
    from T: T(pt, pt, ·) must vanish, for pt = (p + q√d)/n its `surds`. The
    check contracts D·T with (p, q), so it builds no surd."""
    n = 3 if isinstance(fact, ThreeLines) else 2 if isinstance(fact, QuadricLine) else 1
    T, out = fact.cubic, []
    for col in fact.frame[:n]:
        p, q, _, d = line = _normalized(col)
        if any(map(any, _pair_apply((T.contract(p), T.contract(q)), (p, q), d))):
            raise PostCheckFailed(
                "singular-locus gradient",
                f"gradient does not vanish on claimed singular line {line.surds}",
            )
        out.append(line)
    return out
