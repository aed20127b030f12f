"""File-driven front end.

A problem file is a JSON object with keys "cubic" (monomial-coefficient map,
missing monomials are 0), "c2" (three integers, not all zero), optional
"matrices" (3x3 integer matrices of determinant +-1), and optional "bound".
Reports are emitted as JSON or text with every exact value rendered losslessly.

Exit codes: 0 definitive verdict, 1 input error, 2 geometric inconsistency,
3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from . import __version__
from .core_arith import QuadSurd
from .cubic_geometry import (
    FULL_JORDAN,
    QuadricLine,
    ThreeLines,
    UnipotentSplit,
    quadric_signature,
)
from .element_classify import ElementClass, FiniteOrder, UnipotentDeficient, classify
from .errors import (
    BoundTooLarge,
    Cy3Error,
    GeometricInconsistency,
    NotUnimodular,
    ParseError,
    PostCheckFailed,
    ValidationError,
)
from .group_structure import (
    CharacterWitness,
    GroupVerdict,
    TauWitness,
    analyze_group,
    certify_seed,
    enumerate_symmetries,
    seed_of,
)
from .lattice_forms import (
    LatticeMap,
    LinearForm,
    PairVector,
    TrilinearForm,
    preserves_pair,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_GEOMETRIC = 2
EXIT_INCONCLUSIVE = 3

COMMANDS = ("classify", "factor", "analyze", "enumerate")

PROBLEM_KEYS = {"cubic", "c2", "matrices", "bound"}

WITNESS_TYPES = {TauWitness: "tau", CharacterWitness: "character"}


class ProblemFile(NamedTuple):
    cubic: TrilinearForm
    c2: LinearForm
    matrices: tuple[LatticeMap, ...]
    bound: int | None


def parse_problem(text: str) -> ProblemFile:
    """Parse and validate a problem file; all invariant violations are named."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise ParseError(str(exc)) from None
    if not isinstance(data, dict):
        raise ParseError("top-level value must be a JSON object")
    unknown = set(data) - PROBLEM_KEYS
    if unknown:
        raise ValidationError(f"unknown keys: {sorted(unknown)}")

    cubic_raw = data.get("cubic", {})
    if not isinstance(cubic_raw, dict):
        raise ValidationError("'cubic' must be an object of monomial coefficients")
    cubic = TrilinearForm.from_cubic_coefficients(cubic_raw)

    try:  # any JSON value but an array of 3 integers fails to unpack or to validate
        c2 = LinearForm(*data.get("c2", ()))
    except (TypeError, ValidationError):
        raise ValidationError("'c2' must be an array of 3 integers") from None
    if c2.is_zero():
        raise ValidationError(
            "c2 = 0 is rejected: the pairing with the second Chern class is "
            "assumed nonzero"
        )

    matrices_raw = data.get("matrices", [])
    if not isinstance(matrices_raw, list):
        raise ValidationError("'matrices' must be an array of 3x3 integer matrices")
    matrices = []
    for i, m in enumerate(matrices_raw):
        try:
            matrices.append(LatticeMap(m))
        except NotUnimodular as exc:
            raise ValidationError(f"matrix {i} is not unimodular: {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"matrix {i}: {exc}") from exc

    bound = data.get("bound")
    if bound is not None and (not isinstance(bound, int) or isinstance(bound, bool)):
        raise ValidationError("'bound' must be an integer")
    return ProblemFile(cubic=cubic, c2=c2, matrices=tuple(matrices), bound=bound)


# -- rendering -------------------------------------------------------------------


def render(record, out: dict) -> dict:
    """out, followed by a record's fields in order: a QuadSurd as its str, a
    PairVector as the strs of its surds and a vector as a list, whose surd
    coordinates print as str."""
    for name, x in zip(record._fields, record):
        t = type(x)
        if t is QuadSurd:
            x = str(x)
        elif t is PairVector:
            x = render_vector(x.surds)
        elif t is tuple:
            x = [str(y) if type(y) is QuadSurd else y for y in x]
        out[name] = x
    return out


def render_vector(v) -> list[str]:
    return [str(x) for x in v]


def render_class(cls) -> dict:
    """{"kind": class name, **fields}; FiniteOrder's tag is keyed "lambda", and
    UnipotentDeficient notes the full-Jordan condition it violates."""
    if not isinstance(cls, ElementClass):
        raise PostCheckFailed("known element class", type(cls).__name__)
    out = render(cls, {"kind": type(cls).__name__})
    if isinstance(cls, FiniteOrder):
        out["lambda"] = out.pop("lambda_tag")
    elif isinstance(cls, UnipotentDeficient):
        out["note"] = FULL_JORDAN
    return out


def render_factorization(fact) -> dict:
    if isinstance(fact, ThreeLines):
        return {
            "kind": "ThreeLines",
            "frame": [render_vector(col.surds) for col in fact.frame],
            "B": str(fact.b),
            # C = L1·L2·L with the covectors 6B·y, x and z of the frame
            "lines_in_frame": {
                "L1": render_vector((0, fact.b * 6, 0)),
                "L2": render_vector((1, 0, 0)),
                "L": render_vector((0, 0, 1)),
            },
        }
    if isinstance(fact, QuadricLine):
        frame = [render_vector(col.surds) for col in fact.frame]
        return {
            "kind": "QuadricLine",
            "frame": frame,
            "A": str(fact.a),
            "B": str(fact.b),
            "quadric_in_frame": [render_vector(row) for row in fact.quadric],
            "signature": list(quadric_signature(fact.quadric)),
            "tangency_points": frame[:2],
            "tangent": False,
        }
    if not isinstance(fact, UnipotentSplit):
        raise PostCheckFailed("known factorization", type(fact).__name__)
    return {
        "kind": "QuadricLine",
        "frame": [list(col.p) for col in fact.frame],
        "E": str(fact.e),
        "F": str(fact.f),
        "quadric_in_frame": [render_vector(row) for row in fact.quadric],
        "signature": list(quadric_signature(fact.quadric)),
        "tangency_points": [render_vector(fact.frame[0].p)],
        "tangent": True,
    }


def render_verdict(verdict: GroupVerdict) -> dict:
    out: dict = {"kind": verdict.kind}
    if verdict.elements is not None:
        out["elements"] = [[list(r) for r in g.rows] for g in verdict.elements]
        out["order"] = len(verdict.elements)
    if verdict.witness is not None:
        out["witness"] = render(verdict.witness,
                                {"type": WITNESS_TYPES[type(verdict.witness)]})
    if verdict.reason:
        out["reason"] = verdict.reason
    return out


# -- command pipelines ------------------------------------------------------------


def run(problem: ProblemFile, command: str, *, bound: int | None = None,
        allow_large_bound: bool = False) -> tuple[dict, int]:
    """Run one pipeline; returns (report, exit code). A generator that does
    not preserve the pair raises instead, with no report: DoesNotPreserveL
    (L∘g != L) under classify and factor, NonPreservingGenerator under
    analyze; `main` prints either as "cy3: ..." on stderr and exits 1."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    report = {
        "version": __version__,
        "elements": [],
        "relations": [],
        "factorization": None,
        "verdict": None,
        "reductions": [],
    }
    T, L = problem.cubic, problem.c2
    try:
        if command in ("classify", "factor") and not problem.matrices:
            raise ValidationError(f"{command} needs at least one matrix")
        if command == "classify":
            report["elements"] = [_element(g, T, L)[0] for g in problem.matrices]
            return report, EXIT_OK
        if command == "factor":
            return _run_factor(problem, report)
        if command == "analyze":
            generators = list(problem.matrices) or None
            verdict = analyze_group(
                T, L, generators,
                bound=_effective_bound(problem, bound, default=3),
                allow_large_bound=allow_large_bound,
            )
            report["verdict"] = render_verdict(verdict)
            report["reductions"] = list(verdict.reductions)
            code = EXIT_OK if verdict.kind != "Inconclusive" else EXIT_INCONCLUSIVE
            return report, code
        # enumerate
        found = enumerate_symmetries(
            T, L, _effective_bound(problem, bound, default=2),
            allow_large_bound=allow_large_bound,
        )
        report["elements"] = [
            {"matrix": [list(r) for r in g.rows], "preserves_pair": True}
            for g in found
        ]
        report["verdict"] = {"kind": "Enumeration", "count": len(found)}
        return report, EXIT_OK
    except (BoundTooLarge, ValidationError) as exc:
        report["verdict"] = {"kind": "InputError", "message": str(exc)}
        return report, EXIT_INPUT
    except GeometricInconsistency as exc:
        report["verdict"] = {
            "kind": "GeometricInconsistency",
            "mechanism": exc.mechanism,
            "message": str(exc),
        }
        report["reductions"] = list(exc.reductions)
        return report, EXIT_GEOMETRIC


def _effective_bound(problem: ProblemFile, cli_bound: int | None, default: int) -> int:
    """The bound given to run, else the problem's, else `default`; a negative
    bound is bad input also when matrices make it unused."""
    bound = next(b for b in (cli_bound, problem.bound, default) if b is not None)
    if bound < 0:
        raise ValidationError(f"bound {bound} must be nonnegative")
    return bound


def _element(g: LatticeMap, T: TrilinearForm, L: LinearForm) -> tuple[dict, object]:
    """The report entry of one input matrix, and its class."""
    cls = classify(g, L)
    return {
        "matrix": [list(r) for r in g.rows],
        "preserves_pair": preserves_pair(g, T, L),
        "class": render_class(cls),
    }, cls


def _run_factor(problem: ProblemFile, report: dict) -> tuple[dict, int]:
    T, L = problem.cubic, problem.c2
    seed = None
    for g in problem.matrices:
        entry, cls = _element(g, T, L)
        report["elements"].append(entry)
        # past the first seed, a generator is only checked for full Jordan blocks
        if seed is None or isinstance(cls, UnipotentDeficient):
            seed = seed_of(g, cls)
    if seed is None:
        report["verdict"] = {
            "kind": "Inconclusive",
            "reason": "no infinite-order generator to factor against",
        }
        return report, EXIT_INCONCLUSIVE
    cert = certify_seed(T, L, seed)
    report["relations"].append({"rows": [render(r, {}) for r in cert.relations.rows],
                                "overall": cert.relations.overall})
    if cert.inconsistency is not None:
        raise GeometricInconsistency(*cert.inconsistency)
    if cert.reason is not None:
        report["verdict"] = {"kind": "Inconclusive", "reason": cert.reason}
        return report, EXIT_INCONCLUSIVE
    fact = cert.factorization
    rendered = render_factorization(fact)
    # a singular line equal to its column reuses its strings (a unipotent frame renders ints)
    columns = {} if isinstance(fact, UnipotentSplit) else dict(zip(fact.frame, rendered["frame"]))
    rendered["singular_locus"] = [columns.get(line) or render_vector(line.surds)
                                  for line in cert.singular_lines]
    report["factorization"] = rendered
    report["verdict"] = {"kind": "Factorized"}
    return report, EXIT_OK


# -- text rendering and entry point -------------------------------------------------


def format_text(report: dict) -> str:
    lines = [f"cy3 report (version {report['version']})"]
    for element in report["elements"]:
        cls = element.get("class")
        if cls is None:
            lines.append(f"  symmetry {element['matrix']}")
            continue
        detail = ", ".join(
            f"{k}={v}" for k, v in cls.items() if k != "kind"
        )
        lines.append(
            f"  element {element['matrix']}: {cls['kind']}"
            + (f" ({detail})" if detail else "")
            + ("" if element.get("preserves_pair", True) else " [does NOT preserve the pair]")
        )
    for rel in report["relations"]:
        lines.append(f"  relations: {'all hold' if rel['overall'] else 'FAILED'}")
        for row in rel["rows"]:
            mark = "ok" if row["holds"] else "FAIL"
            lines.append(f"    [{mark}] {row['name']}: {row['left']} vs {row['right']}")
    fact = report["factorization"]
    if fact:
        lines.append(f"  factorization: {fact['kind']}")
        for key in ("A", "B", "E", "F", "signature", "singular_locus"):
            if key in fact:
                lines.append(f"    {key} = {fact[key]}")
    verdict = report["verdict"]
    if verdict:
        detail = ", ".join(f"{k}={v}" for k, v in verdict.items() if k != "kind")
        lines.append(f"  verdict: {verdict['kind']}" + (f" ({detail})" if detail else ""))
    for reduction in report["reductions"]:
        lines.append(f"  reduction: {reduction}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cy3",
        description="Exact analysis of cubic-form symmetries on a rank-3 lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("classify", "classify each input matrix against the linear form"),
        ("factor", "verify relations and factor the cubic along an infinite-order symmetry"),
        ("analyze", "certify the finite / almost-abelian-rank-1 dichotomy"),
        ("enumerate", "brute-force all bounded symmetries of the pair"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument("--bound", type=int, default=None,
                       help="entry bound for enumeration")
        p.add_argument("--allow-large-bound", action="store_true",
                       help="override the enumeration bound guard")
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
        problem = parse_problem(text)
    except OSError as exc:
        print(f"cy3: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ParseError, UnicodeDecodeError, ValidationError) as exc:
        print(f"cy3: invalid problem file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # Accepted input may still yield report integers past the int-string digit limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        report, code = run(problem, args.command, bound=args.bound,
                           allow_large_bound=args.allow_large_bound)
        if args.format == "json":
            print(json.dumps(report, indent=2, sort_keys=False))
        else:
            print(format_text(report), end="")
    except Cy3Error as exc:
        print(f"cy3: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
