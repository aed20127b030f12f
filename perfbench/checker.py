"""Exact re-check of cy3 reports, independent of cy3's code.

Each check recomputes what the report claims from the problem's integers with
the benchmark's own arithmetic (exact.py): the trichotomy from the integer
characteristic polynomial and matrix powers, alpha as the root > 1 of
t^2 - s t + 1, invariance of the pair by an integer pullback of 6T, and the
tau and scaling-character witnesses. `check` returns one of OK, INCONCLUSIVE
(an honest "Inconclusive" where the generator knows a definitive answer) or
FAILED, with a reason.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from exact import (
    IDENTITY,
    Surd,
    det3,
    mat,
    mat_mul,
    mat_vec,
    order,
    parse_scalar,
    preserves,
    rank3,
    six_t,
    trilinear,
)

OK, INCONCLUSIVE, FAILED = "ok", "inconclusive", "failed"

ENUM_COUNTS_FILE = Path(__file__).with_name("enum_counts.json")

# Eigenvalue-pair tags of finite-order det 1 maps, keyed by s = trace - 1.
LAMBDA_TAGS = {-2: "-1", -1: "(-1±i√3)/2", 0: "±i", 1: "(1±i√3)/2"}


class Rejected(Exception):
    """A report claim that does not re-check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Rejected(message)


def load_enum_counts() -> dict:
    return json.loads(ENUM_COUNTS_FILE.read_text(encoding="utf-8"))


# -- single elements ----------------------------------------------------------------


def expected_kind(g) -> str:
    """Trichotomy from the integer characteristic polynomial and powers."""
    if g == IDENTITY:
        return "Identity"
    tr = g[0][0] + g[1][1] + g[2][2]
    minors = sum(g[i][i] * g[j][j] - g[i][j] * g[j][i] for i, j in ((0, 1), (0, 2), (1, 2)))
    det = det3(g)
    if det == -1:
        return "FiniteOrder" if order(g) else "OutOfTheory"
    if 1 - tr + minors - det != 0:  # no eigenvalue 1
        return "OutOfTheory"
    s = tr - 1
    if s > 2:
        return "Hyperbolic"
    if s < -2:  # both roots of t^2 - st + 1 are negative: no alpha > 1, infinite order
        return "OutOfTheory"
    if s == 2:
        full = rank3(_minus_id(g)) == 2
        return "UnipotentFull" if full else "UnipotentDeficient"
    return "FiniteOrder" if order(g) else "OutOfTheory"


def _minus_id(g):
    return tuple(tuple(g[i][j] - (i == j) for j in range(3)) for i in range(3))


def _surd_apply(g, v):
    return [sum((Surd(g[i][j]) * v[j] for j in range(3)), Surd(0)) for i in range(3)]


def _same(xs, ys) -> bool:
    return all(x == y for x, y in zip(xs, ys))


def check_class(g, cls: dict) -> None:
    kind = expected_kind(g)
    require(cls.get("kind") == kind, f"class {cls.get('kind')} but {kind} expected")
    if kind == "Hyperbolic":
        s = g[0][0] + g[1][1] + g[2][2] - 1
        require(cls["s"] == s, f"s = {cls['s']} but trace - 1 = {s}")
        alpha = parse_scalar(cls["alpha"])
        require(alpha * alpha - alpha * s + 1 == Surd(0), "alpha is not a root of t^2 - st + 1")
        require((alpha - 1).sign() > 0, "alpha is not > 1")
        u = [parse_scalar(x) for x in cls["u"]]
        v = [parse_scalar(x) for x in cls["v"]]
        w = tuple(cls["w"])
        require(any(w) and math.gcd(*w) == 1 and mat_vec(g, w) == w,
                "w is not a primitive fixed vector")
        require(any(x.sign() for x in v) and _same(_surd_apply(g, v), [alpha * x for x in v]),
                "v is not an alpha-eigenvector")
        beta = Surd(s) - alpha
        require(any(x.sign() for x in u) and _same(_surd_apply(g, u), [beta * x for x in u]),
                "u is not a 1/alpha-eigenvector")
    elif kind == "UnipotentFull":
        n = _minus_id(g)
        w, w1, w2 = (tuple(cls[k]) for k in ("w", "w1", "w2"))
        require(any(w) and mat_vec(n, w2) == w1 and mat_vec(n, w1) == w
                and not any(mat_vec(n, w)), "(w, w1, w2) is not a Jordan chain")
    elif kind == "UnipotentDeficient":
        require(cls["rank_of_g_minus_id"] == rank3(_minus_id(g)), "wrong rank of g - id")
    elif kind == "FiniteOrder":
        require(cls["n"] == order(g), f"order {cls['n']} but {order(g)} by powers")
        tag = "real-pair" if det3(g) == -1 else LAMBDA_TAGS.get(g[0][0] + g[1][1] + g[2][2] - 1)
        require(cls["lambda"] == tag, f"eigenvalue tag {cls['lambda']} but {tag}")


def check_elements(problem, report: dict, t6) -> None:
    elements = report["elements"]
    require(len(elements) <= len(problem.matrices), "more elements than matrices")
    for g, element in zip(problem.matrices, elements):
        require(mat(element["matrix"]) == g, "element matrix differs from the input")
        require(element["preserves_pair"] == preserves(t6, problem.c2, g),
                "preserves_pair flag is wrong")
        check_class(g, element["class"])


# -- certificates -------------------------------------------------------------------


def check_factorization(problem, report: dict, t6) -> None:
    seed_index = next(i for i, g in enumerate(problem.matrices)
                      if expected_kind(g) in ("Hyperbolic", "UnipotentFull"))
    cls = report["elements"][seed_index]["class"]
    fact = report["factorization"]
    require(all(r["holds"] for rel in report["relations"] for r in rel["rows"]),
            "a relation row failed in a factorized report")
    if cls["kind"] == "Hyperbolic":
        u = [parse_scalar(x) for x in cls["u"]]
        v = [parse_scalar(x) for x in cls["v"]]
        w = cls["w"]
        b = _div6(trilinear(t6, u, v, w))
        a = _div6(trilinear(t6, w, w, w))
        require(b.sign() != 0 and parse_scalar(fact["B"]) == b, "B is not T(u, v, w)")
        want = "ThreeLines" if a.sign() == 0 else "QuadricLine"
        require(fact["kind"] == want, f"factorization {fact['kind']} but {want} expected")
        if want == "QuadricLine":
            require(parse_scalar(fact["A"]) == a, "A is not T(w, w, w)")
    else:
        w, w2 = cls["w"], cls["w2"]
        e = _div6(trilinear(t6, w, w2, w2)) * Surd(Fraction(3, 2))
        f = _div6(trilinear(t6, w2, w2, w2))
        require(e.sign() != 0 and parse_scalar(fact["E"]) == e, "E is not 3T(w, w2, w2)/2")
        require(parse_scalar(fact["F"]) == f, "F is not T(w2, w2, w2)")
        require(fact["kind"] == "QuadricLine" and fact["tangent"] is True,
                "unipotent split is not a tangent quadric-line")
    basis = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    for line in fact["singular_locus"]:
        pt = [parse_scalar(x) for x in line]
        require(any(x.sign() for x in pt), "zero singular line")
        require(all(trilinear(t6, pt, pt, e).sign() == 0 for e in basis),
                "gradient does not vanish on a claimed singular line")


def _div6(x: Surd) -> Surd:
    """T(...) from a 6T(...) value."""
    return x * Surd(Fraction(1, 6))


def check_closure(elements, t6, l, generators=(), reduced=False) -> None:
    """A finite group of symmetries of the pair that contains the generators;
    after the det -1 reduction it must contain the det 1 generators and the
    products of pairs of det -1 generators instead."""
    group = {mat(m) for m in elements}
    require(len(group) == len(elements), "repeated group elements")
    require(IDENTITY in group, "identity missing from the finite group")
    require(all(preserves(t6, l, g) for g in group), "a group element does not preserve the pair")
    require(all(mat_mul(a, b) in group for a in group for b in group),
            "finite group is not closed under products")
    if reduced:
        negative = [g for g in generators if det3(g) == -1]
        generators = [g for g in generators if det3(g) == 1]
        generators += [mat_mul(a, b) for a in negative for b in negative]
    require(all(g in group for g in generators), "a generator is missing from the group")


def _reduced(report: dict) -> bool:
    return any("determinant -1" in r for r in report["reductions"])


def check_witness(problem, verdict: dict, report: dict) -> None:
    witness = verdict.get("witness")
    require(witness is not None, "AlmostAbelianRankOne without a witness")
    known = problem.exponents if problem.matrices and not _reduced(report) else None
    if witness["type"] == "tau":
        values = witness["values"]
        nonzero = [abs(t) for t in values if t]
        require(nonzero and witness["generator_value"] == math.gcd(*nonzero),
                "tau generator value is not the gcd of the tau values")
        if known:
            require(_proportional(values, known), "tau values are not proportional to the powers")
        return
    gamma = parse_scalar(witness["generator"])
    require((gamma - 1).sign() > 0, "character generator is not > 1")
    values = [parse_scalar(x) for x in witness["values"]]
    require(len(values) == len(witness["exponents"]), "exponent count differs from values")
    for value, k in zip(values, witness["exponents"]):
        require(value.sign() > 0 and gamma ** k == value, "gamma^k differs from a character value")
    if known:
        require(len(values) == len(problem.matrices), "one character value per generator expected")
        for g, value in zip(problem.matrices, values):
            s = g[0][0] + g[1][1] + g[2][2] - 1
            if s * s > 4:
                alpha4 = Surd(Fraction(s, 2), Fraction(1, 2), s * s - 4) ** 4
                require(value == alpha4 or value == alpha4.inverse(),
                        "character value is not alpha^4 or alpha^-4")
            else:
                require(value == Surd(1), "finite-order generator with a nontrivial character")
        require(_proportional(witness["exponents"], known),
                "character exponents are not proportional to the powers")


def _proportional(values, known) -> bool:
    """values = c * known for one nonzero rational c."""
    pairs = list(zip(values, known))
    return (len(values) == len(known) and all(bool(v) == bool(k) for v, k in pairs)
            and all(v * k0 == v0 * k for v, k in pairs for v0, k0 in pairs))


# -- one command --------------------------------------------------------------------


def check(problem, command: str, outcome, enum_counts: dict | None = None):
    """Check one outcome: ("report", report, exit_code) or ("raised", name, message).

    Returns (status, reason)."""
    try:
        return _check(problem, command, outcome, enum_counts)
    except Rejected as exc:
        return FAILED, f"{problem.cls} {command}: {exc}"
    except (KeyError, TypeError, ValueError, IndexError, StopIteration) as exc:
        return FAILED, f"{problem.cls} {command}: malformed report ({type(exc).__name__}: {exc})"


def _check(problem, command, outcome, enum_counts):
    t6 = six_t(problem.cubic)
    if problem.catalogue is not None:
        return _check_enumeration(problem, command, outcome, t6, enum_counts)
    expect = problem.expect.get(command)
    if outcome[0] == "raised":
        require(expect == f"raises:{outcome[1]}", f"unexpected {outcome[1]}: {outcome[2]}")
        return OK, ""
    _, report, code = outcome
    check_elements(problem, report, t6)
    verdict = report["verdict"]
    if command == "classify":
        require(code == 0 and len(report["elements"]) == len(problem.matrices),
                "classify did not classify every matrix")
        return OK, ""
    if expect is None:
        return OK, ""
    if expect.startswith("raises:"):
        raise Rejected(f"{expect[7:]} expected, got exit {code}")
    if expect.startswith("GeometricInconsistency:"):
        require(code == 2 and verdict["kind"] == "GeometricInconsistency"
                and expect.split(":")[1] in verdict["mechanism"],
                f"{expect} expected, got {verdict}")
        return OK, ""
    if code == 3 and verdict["kind"] == "Inconclusive" and expect != "Inconclusive":
        return INCONCLUSIVE, verdict.get("reason", "")
    want_code = 3 if expect == "Inconclusive" else 0
    require(code == want_code and verdict["kind"] == expect,
            f"{expect} expected, got exit {code} {verdict}")
    if expect == "Factorized":
        check_factorization(problem, report, t6)
    elif expect == "Finite":
        check_closure(verdict["elements"], t6, problem.c2, problem.matrices, _reduced(report))
        require(verdict["order"] == len(verdict["elements"]), "order differs from the element count")
    elif expect == "AlmostAbelianRankOne":
        check_witness(problem, verdict, report)
    return OK, ""


def _check_enumeration(problem, command, outcome, t6, enum_counts):
    recorded = (enum_counts or load_enum_counts())[problem.catalogue][str(problem.bound)]
    require(outcome[0] == "report", f"unexpected {outcome[1]}")
    _, report, code = outcome
    verdict = report["verdict"]
    if command == "enumerate":
        found = [mat(e["matrix"]) for e in report["elements"]]
        require(code == 0 and verdict["count"] == len(found) == recorded["enumerate"],
                f"count {verdict.get('count')} but {recorded['enumerate']} recorded")
        require(len(set(found)) == len(found), "repeated symmetries")
        for g in found:
            require(max(abs(x) for r in g for x in r) <= problem.bound, "entry above the bound")
            require(det3(g) in (1, -1) and preserves(t6, problem.c2, g),
                    "an enumerated matrix does not preserve the pair")
        return OK, ""
    kind, size = recorded["analyze"]
    if code == 3 and verdict["kind"] == "Inconclusive" and kind != "Inconclusive":
        return INCONCLUSIVE, verdict.get("reason", "")
    require(verdict["kind"] == kind, f"{kind} recorded, got {verdict['kind']}")
    if kind == "Finite":
        check_closure(verdict["elements"], t6, problem.c2)
        require(verdict["order"] == len(verdict["elements"]) == size,
                f"group order {verdict['order']} but {size} recorded")
    elif kind == "AlmostAbelianRankOne":
        require(verdict["witness"]["type"] == size, f"{size} witness recorded")
        check_witness(problem, verdict, report)
    return OK, ""
