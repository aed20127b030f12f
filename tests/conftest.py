from fractions import Fraction
from itertools import product

import pytest

from cy3 import LatticeMap, LinearForm, TrilinearForm, cubic_eval
from cy3.core_arith import QuadSurd
from cy3.element_classify import FiniteOrder, Identity
from cy3.lattice_forms import ENTRY_KEYS, PairVector, _form_pullback, _int_pairs, _normalized


def form_entries(T) -> dict:
    """The ten distinct entries of T, Fractions on the sorted index triples."""
    return {key: Fraction(x, T.scale) for key, x in zip(ENTRY_KEYS, T.flat)}


def form_entry(T, i: int, j: int, k: int) -> Fraction:
    """The entry T[ijk], indices from 1 in any order."""
    return Fraction(T.flat[ENTRY_KEYS.index(tuple(sorted((i, j, k))))], T.scale)


def scaled_tensor(T) -> tuple:
    """D·T as nested 3x3x3 tuples of ints indexed from 0."""
    flat = dict(zip(ENTRY_KEYS, T.flat))
    return tuple(tuple(tuple(flat[tuple(sorted((i, j, k)))] for k in (1, 2, 3))
                       for j in (1, 2, 3)) for i in (1, 2, 3))


def normalize(v) -> tuple:
    """The surds of the line of v scaled to a first nonzero coordinate of 1."""
    return _normalized(_int_pairs(v)).surds


def clear_frame(frame) -> tuple:
    """The 3-vectors of a hand-made frame cleared at once to integer pairs
    over one field and one denominator, one PairVector each."""
    p, q, den, d = _int_pairs([x for f in frame for x in f])
    return tuple([PairVector(p[i:i + 3], q[i:i + 3], den, d) for i in range(0, len(p), 3)])


def compose(L, g) -> LinearForm:
    """The linear form L∘g, v -> L(g v)."""
    return LinearForm(*_form_pullback(L, g))


@pytest.fixture
def L_z():
    return LinearForm(0, 0, 1)


@pytest.fixture
def latticemap_builds(monkeypatch):
    """A list that gains one entry per LatticeMap constructed from here on."""
    builds = []
    init, trusted = LatticeMap.__init__, LatticeMap._from_rows.__func__

    def counted(self, rows):
        builds.append(rows)
        init(self, rows)

    def counted_trusted(cls, rows):
        builds.append(rows)
        return trusted(cls, rows)

    monkeypatch.setattr(LatticeMap, "__init__", counted)
    monkeypatch.setattr(LatticeMap, "_from_rows", classmethod(counted_trusted))
    return builds


@pytest.fixture
def fraction_builds(monkeypatch):
    """fraction_builds(fn, *args) -> (fn(*args), the number of Fractions built
    meanwhile)."""

    def run(fn, *args):
        built = []
        new = Fraction.__new__

        def counted(cls, *a, **kw):
            built.append(a)
            return new(cls, *a, **kw)

        monkeypatch.setattr(Fraction, "__new__", counted)
        try:
            return fn(*args), len(built)
        finally:
            monkeypatch.undo()

    return run


@pytest.fixture
def golden_cubic():
    """C = z(x^2 - xy - y^2)."""
    return TrilinearForm.from_cubic_coefficients({"x2z": 1, "xyz": -1, "y2z": -1})


@pytest.fixture
def golden_cubic_quadric():
    """C' = z(x^2 - xy - y^2 + z^2)."""
    return TrilinearForm.from_cubic_coefficients(
        {"x2z": 1, "xyz": -1, "y2z": -1, "z3": 1}
    )


@pytest.fixture
def golden_generator():
    return LatticeMap([[2, 1, 0], [1, 1, 0], [0, 0, 1]])


@pytest.fixture
def unipotent_cubic():
    """C = z^3 + 6xz^2 - 3y^2z + 3yz^2."""
    return TrilinearForm.from_cubic_coefficients(
        {"z3": 1, "xz2": 6, "y2z": -3, "yz2": 3}
    )


@pytest.fixture
def unipotent_generator():
    return LatticeMap([[1, 1, 0], [0, 1, 1], [0, 0, 1]])


@pytest.fixture
def split_cubic():
    """C = 6xyz, already in split coordinates."""
    return TrilinearForm.from_cubic_coefficients({"xyz": 6})


def surd(a, b=0, d=0):
    return QuadSurd(Fraction(a), Fraction(b), d)


GOLDEN_ALPHA = surd(Fraction(3, 2), Fraction(1, 2), 5)  # (3 + sqrt5)/2


def reconstructs(fact) -> bool:
    """True iff re-expanding the split z·Q in standard coordinates gives back
    C: C(M·X) = Z·Q(X) for the frame M at every X in {0, 1, 2, 3}^3, which
    determines a cubic in three variables."""
    q, frame = fact.quadric, [f.surds for f in fact.frame]
    for x in product(range(4), repeat=3):
        point = [sum(x[k] * frame[k][i] for k in range(3)) for i in range(3)]
        zq = x[2] * sum(q[i][j] * x[i] * x[j] for i in range(3) for j in range(3))
        if cubic_eval(fact.cubic, point) != zq:
            return False
    return True


def is_finite_class(c) -> bool:
    """True for the element classes of finite order."""
    return isinstance(c, (Identity, FiniteOrder))
