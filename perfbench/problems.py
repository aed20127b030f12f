"""Seeded problem streams, one per workload.

Every stream cycles through a fixed sequence of problem classes, so any seed
gives the same class mix in the same order and only the parameters inside a
class change with the seed. A run that completes more problems therefore
measures the same mix, which keeps medians and tails comparable between
commits of different speed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import count

from exact import IDENTITY, conjugate, mat, mat_mul, mat_pow, preserves, six_t

WORKLOADS = ("certify", "enumerate", "classify-sweep")


@dataclass(frozen=True)
class Problem:
    """One problem file plus what the generator knows about its answer.

    `expect` maps each command to the verdict the generator knows is right:
    a verdict kind, "GeometricInconsistency:<keyword>" for a named mechanism,
    "raises:<ErrorName>" for a named Cy3Error, or None when no definitive
    answer is known. `exponents` gives h_i = g0^k_i for each matrix when the
    matrices are powers of one generator g0; witnesses must be proportional.
    """

    cls: str
    cubic: dict
    c2: tuple
    matrices: tuple
    bound: int | None
    commands: tuple
    expect: dict = field(default_factory=dict)
    exponents: tuple | None = None
    catalogue: str | None = None

    @property
    def text(self) -> str:
        data = {"cubic": self.cubic, "c2": list(self.c2)}
        if self.matrices:
            data["matrices"] = [[list(r) for r in g] for g in self.matrices]
        if self.bound is not None:
            data["bound"] = self.bound
        return json.dumps(data, sort_keys=True)


# -- building blocks ---------------------------------------------------------------

# Indefinite binary forms (a, b, c), q = ax^2 + bxy + cy^2, keyed by the
# nonsquare discriminant D = b^2 - 4ac, and the least solution of t^2 - Du^2 = 4.
FIELDS = {
    5: ((1, -1, -1), (1, 1, -1), (-1, 1, 1)),
    8: ((1, 0, -2), (2, 0, -1), (1, 2, -1)),
    12: ((1, 0, -3), (3, 0, -1), (1, 2, -2)),
    13: ((1, 1, -3), (3, 1, -1), (1, 3, -1)),
    21: ((1, 1, -5), (5, 1, -1), (1, 3, -3)),
}
PELL = {5: (3, 1), 8: (6, 2), 12: (4, 1), 13: (11, 3), 21: (5, 1)}

# Definite forms with their finite automorphisms (det 1 rotations, det -1 swap).
DEFINITE = {
    (1, 0, 1): (((0, -1), (1, 0)), ((0, 1), (1, 0))),
    (1, 1, 1): (((0, -1), (1, 1)), ((-1, -1), (1, 0)), ((0, 1), (1, 0))),
}

L_Z = (0, 0, 1)
PLANE_FLIP = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))
JORDAN = ((1, 1, 0), (0, 1, 1), (0, 0, 1))


def block(m2, column=(0, 0), corner=1) -> tuple:
    """[[M, c], [0, corner]]: fixes L = z when corner = 1."""
    (a, b), (c, d) = m2
    return ((a, b, column[0]), (c, d, column[1]), (0, 0, corner))


def automorph(q, d: int) -> tuple:
    """The 2x2 integer automorph of q with trace t from t^2 - D u^2 = 4."""
    a, b, c = q
    t, u = PELL[d]
    return (((t - b * u) // 2, -c * u), (a * u, (t + b * u) // 2))


def z_times(q, k: int = 1, e: int = 0) -> dict:
    """Monomials of k*z*q(x, y) + e*z^3."""
    a, b, c = q
    out = {"x2z": k * a, "xyz": k * b, "y2z": k * c, "z3": e}
    return {m: v for m, v in out.items() if v}


def unimodular_word(rng: random.Random, length: int) -> tuple:
    """Product of `length` random transvections I + s*E_ij, s in {-2, -1, 1, 2}."""
    p = IDENTITY
    for _ in range(length):
        i, j = rng.sample(range(3), 2)
        rows = [list(r) for r in IDENTITY]
        rows[i][j] = rng.choice((-2, -1, 1, 2))
        p = mat_mul(p, mat(rows))
    return p


def _even_draws(u: float):
    """Endless draws in [0, 1) from the golden-ratio sequence starting at u:
    uniform in the limit and spread evenly over [0, 1) in every prefix, so each
    run covers the range the same way however many problems it completes."""
    step = (math.sqrt(5) - 1) / 2
    while True:
        yield u
        u = (u + step) % 1.0


def _make(cls, cubic, matrices, p, commands, *, bound=None, l=L_Z, **extra):
    cubic, c2, gens = conjugate(cubic, l, matrices, p)
    meant_to_preserve = extra.get("expect", {}).get("analyze") != "raises:NonPreservingGenerator"
    if meant_to_preserve and not all(preserves(six_t(cubic), c2, g) for g in gens):
        raise RuntimeError(f"generator defect: a {cls} problem does not preserve the pair")
    return Problem(cls=cls, cubic=cubic, c2=c2,
                   matrices=tuple(gens), bound=bound, commands=commands, **extra)


# -- certify -----------------------------------------------------------------------

# Seventeen hyperbolic slots in twenty-four keep the median well inside the
# hyperbolic cluster, the main user path, instead of between classes.
CERTIFY_CYCLE = (
    "hyperbolic", "unipotent", "hyperbolic-power", "hyperbolic-set", "hyperbolic",
    "finite", "hyperbolic-power", "hyperbolic", "hodge", "hyperbolic-set",
    "hyperbolic-power", "hyperbolic", "lefschetz", "hyperbolic", "unipotent-set",
    "hyperbolic-power", "hyperbolic-set", "deficient", "hyperbolic", "hyperbolic-power",
    "hyperbolic", "nonpreserving", "hyperbolic-power", "hyperbolic-set",
)
CERTIFY_COMMANDS = ("classify", "factor", "analyze")
HYPERBOLIC_OK = {"classify": None, "factor": "Factorized", "analyze": "AlmostAbelianRankOne"}


def _certify(index: int, cls: str, rng: random.Random) -> Problem:
    # The two largest costs, the size of P and the field, rotate with the
    # cycle count instead of being drawn, so every run covers them evenly.
    rounds, slot = divmod(index, len(CERTIFY_CYCLE))
    p = unimodular_word(rng, rounds % 5)
    d = sorted(FIELDS)[(rounds // 5 + slot) % len(FIELDS)]
    q = rng.choice(FIELDS[d])
    g0 = block(automorph(q, d))
    k, e = rng.choice((1, 2, 3)), rng.choice((0, 0, 1, -2))
    make = lambda cubic, gens, expect, **kw: _make(  # noqa: E731
        cls, cubic, gens, p, CERTIFY_COMMANDS, expect=expect, **kw)
    if cls == "hyperbolic":
        return make(z_times(q, k, e), [g0], HYPERBOLIC_OK, exponents=(1,))
    if cls == "hyperbolic-power":
        n = rng.choice((2, 3, -1, -2))
        return make(z_times(q, k, e), [mat_pow(g0, n)], HYPERBOLIC_OK, exponents=(n,))
    if cls == "hyperbolic-set":
        ns = rng.sample((1, 2, 3, -1), 2) + rng.choice(([], [0]))
        gens = [mat_pow(g0, n) if n else PLANE_FLIP for n in ns]
        return make(z_times(q, k, e), gens, HYPERBOLIC_OK, exponents=tuple(ns))
    if cls in ("unipotent", "unipotent-set"):
        big_e, f = rng.choice((1, 2, 3, -1, -2)), rng.randint(-2, 2)
        cubic = {"z3": f, "xz2": 2 * big_e, "y2z": -big_e, "yz2": big_e}
        cubic = {m: v for m, v in cubic.items() if v}
        ns = [rng.choice((1, 2, -1))] if cls == "unipotent" else rng.sample((1, 2, 3, -1), 2)
        gens = [mat_pow(JORDAN, n) for n in ns]
        return make(cubic, gens, HYPERBOLIC_OK, exponents=tuple(ns))
    if cls == "finite":
        q_def = rng.choice(sorted(DEFINITE))
        m2s = rng.sample(DEFINITE[q_def], rng.randint(1, 2))
        expect = {"classify": None, "factor": "Inconclusive", "analyze": "Finite"}
        return make(z_times(q_def, k, e), [block(m) for m in m2s], expect)
    if cls == "hodge":
        expect = {"classify": None, "factor": "GeometricInconsistency:Hodge",
                  "analyze": "GeometricInconsistency:Hodge"}
        return make({"z3": k}, [g0], expect)
    if cls == "lefschetz":
        expect = {"classify": None, "factor": "GeometricInconsistency:Lefschetz",
                  "analyze": "GeometricInconsistency:Lefschetz"}
        return make({"z3": k}, [JORDAN], expect)
    if cls == "deficient":
        shear = block(((1, rng.choice((1, 2, -1))), (0, 1)))
        cubic = {m: rng.randint(-3, 3) for m in ("y3", "y2z", "yz2")}
        cubic["z3"] = k
        expect = {"classify": None, "factor": "GeometricInconsistency:Jordan",
                  "analyze": "GeometricInconsistency:Jordan"}
        return make({m: v for m, v in cubic.items() if v}, [shear], expect)
    if cls == "nonpreserving":
        other = rng.choice([x for x in sorted(FIELDS) if x != d])
        expect = {"classify": None, "factor": None,
                  "analyze": "raises:NonPreservingGenerator"}
        return make(z_times(rng.choice(FIELDS[other]), k, e), [g0], expect)
    raise ValueError(cls)


# -- enumerate ---------------------------------------------------------------------

# Fixed inputs: bounded enumeration depends on coordinates, so each entry's
# counts are recorded once (enum_counts.json) and checked on every run.
ENUM_CATALOGUE = {
    "golden": (z_times((1, -1, -1)), L_Z, IDENTITY),
    "golden-quadric": (z_times((1, -1, -1), 1, 1), L_Z, IDENTITY),
    "unipotent": ({"z3": 1, "xz2": 6, "y2z": -3, "yz2": 3}, L_Z, IDENTITY),
    "golden-conj": (z_times((1, -1, -1)), L_Z, ((1, 0, 0), (0, 1, 0), (1, 0, 1))),
    "unipotent-conj": ({"z3": 1, "xz2": 6, "y2z": -3, "yz2": 3}, L_Z,
                       ((1, 0, 0), (0, 1, 0), (0, 1, 1))),
    "quadric-conj": (z_times((1, -1, -1), 1, 1), L_Z, ((1, 0, 0), (1, 1, 0), (0, 0, 1))),
    "finite-square": (z_times((1, 0, 1), 1, 1), L_Z, IDENTITY),
    "finite-hexagonal": (z_times((1, 1, 1), 1, 2), L_Z, ((1, 0, 0), (0, 1, 0), (0, 1, 1))),
}
ENUM_BOUNDS = (1, 2)
ENUM_COMMANDS = ("enumerate", "analyze")


def enum_problem(name: str, bound: int, command: str) -> Problem:
    cubic, l, p = ENUM_CATALOGUE[name]
    return _make(f"enum-b{bound}", cubic, [], p, (command,), bound=bound, l=l, catalogue=name)


# -- classify-sweep ------------------------------------------------------------------

# Seven slots in twelve with a hyperbolic quadratic factor put the median inside
# that cluster rather than on the edge between it and the cheap classes.
SWEEP_CYCLE = ("hyperbolic", "unipotent", "hyperbolic", "deficient", "hyperbolic",
               "finite", "hyperbolic", "det-1", "hyperbolic", "out-of-theory",
               "hyperbolic", "hyperbolic")
SWEEP_TRACE_RANGE = (3, 100_000)
# Draws for the known-defect probes: companion blocks with s = trace - 1 < -2,
# where no eigenvalue exceeds 1, so by cy3's own definition the matrix is not
# hyperbolic. cy3 answers them wrongly at the seed (README, "Findings"); they
# are checked and reported by every classify-sweep run, outside the measured
# stream, so that a run of a correct program reports "correct": true.
DEFECT_PROBE_DRAWS = (0.05, 0.3, 0.55, 0.8)


def _sweep(index: int, cls: str, rng: random.Random, u: float) -> Problem:
    lo, hi = (math.log10(x) for x in SWEEP_TRACE_RANGE)
    size = max(3, int(10 ** (lo + u * (hi - lo))))
    col = (rng.randint(-size, size), rng.randint(-size, size))
    if cls in ("hyperbolic", "hyperbolic-negative"):
        s = size if cls == "hyperbolic" else -size
        g = block(((s, -1), (1, 0)), (rng.randint(-2, 2), rng.randint(-2, 2)))
    elif cls == "unipotent":
        g = block(((1, rng.choice((1, 2, -1))), (0, 1)), (col[0], col[1] or 1))
    elif cls == "deficient":
        g = block(((1, rng.choice((1, 2, -1))), (0, 1)), (col[0], 0))
    elif cls == "finite":
        rotations = [m for ms in DEFINITE.values() for m in ms[:-1]]
        g = block(rng.choice(rotations + [((-1, 0), (0, -1))]), col)
    elif cls == "det-1":
        m2 = rng.choice((((0, 1), (1, 0)), ((-1, 0), (0, 1)), ((size, 1), (1, 0))))
        g = block(m2, col)
    elif cls == "out-of-theory":
        g = block(((-1, rng.choice((1, 2, -1))), (0, -1)), col)
    else:
        raise ValueError(cls)
    p = unimodular_word(rng, index // len(SWEEP_CYCLE) % 3)
    return _make(cls, {"z3": rng.choice((1, 2, -1))}, [g], p, ("classify",),
                 expect={"classify": None})


def defect_probes() -> list[Problem]:
    """Fixed classify problems with s < -2, the same for every seed."""
    rng = random.Random("classify-sweep:defect-probes")
    return [_sweep(i, "hyperbolic-negative", rng, u) for i, u in enumerate(DEFECT_PROBE_DRAWS)]


# -- streams ---------------------------------------------------------------------------


def cycle_length(workload: str) -> int:
    """Problems per cycle of a workload's class sequence; a run ends only at
    the end of a cycle, so every run measures whole cycles of the mix."""
    return {"certify": len(CERTIFY_CYCLE), "classify-sweep": len(SWEEP_CYCLE),
            "enumerate": len(ENUM_CATALOGUE) * len(ENUM_BOUNDS) * len(ENUM_COMMANDS)}[workload]


def stream(workload: str, seed: int):
    """Endless deterministic problem stream for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        for i in count():
            yield _certify(i, CERTIFY_CYCLE[i % len(CERTIFY_CYCLE)], rng)
    elif workload == "enumerate":
        # A block runs every catalogue entry at each bound with each command
        # once, in a seeded order.
        order = [(name, bound, command) for name in sorted(ENUM_CATALOGUE)
                 for bound in ENUM_BOUNDS for command in ENUM_COMMANDS]
        while True:
            rng.shuffle(order)
            for name, bound, command in order:
                yield enum_problem(name, bound, command)
    elif workload == "classify-sweep":
        # The hyperbolic problems, which take almost all the time, are the
        # same for every seed: the cost of one classify moves with the square
        # factors of trace^2 - 4 and, by up to a factor of two, with the
        # conjugator, so seeded ones would move the tail from seed to seed.
        # The seed varies every other class.
        hyperbolic_rng = random.Random("classify-sweep:hyperbolic")
        hyperbolic_draws, other_draws = _even_draws(0.5), _even_draws(rng.random())
        for i in count():
            cls = SWEEP_CYCLE[i % len(SWEEP_CYCLE)]
            if cls == "hyperbolic":
                yield _sweep(i, cls, hyperbolic_rng, next(hyperbolic_draws))
            else:
                yield _sweep(i, cls, rng, next(other_draws))
    else:
        raise ValueError(f"unknown workload {workload!r}")
