import hashlib
import json
import sys

import pytest

from cy3 import group_structure
from cy3.cli import (
    EXIT_GEOMETRIC,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    main,
    parse_problem,
    render_class,
    render_factorization,
    run,
)
from cy3.cubic_geometry import FULL_JORDAN, LEFSCHETZ
from cy3.element_classify import classify
from cy3.errors import (
    DoesNotPreserveL,
    NonPreservingGenerator,
    ParseError,
    PostCheckFailed,
    ValidationError,
)
from cy3.group_structure import certify_seed, seed_of
from cy3.lattice_forms import MONOMIAL_INDICES, PairVector

GOLDEN = {
    "cubic": {"x2z": 1, "xyz": -1, "y2z": -1},
    "c2": [0, 0, 1],
    "matrices": [[[2, 1, 0], [1, 1, 0], [0, 0, 1]]],
}

GOLDEN_QUADRIC = {
    "cubic": {"x2z": 1, "xyz": -1, "y2z": -1, "z3": 1},
    "c2": [0, 0, 1],
    "matrices": [[[2, 1, 0], [1, 1, 0], [0, 0, 1]]],
}

UNIPOTENT = {
    "cubic": {"z3": 1, "xz2": 6, "y2z": -3, "yz2": 3},
    "c2": [0, 0, 1],
    "matrices": [[[1, 1, 0], [0, 1, 1], [0, 0, 1]]],
}

SPLIT = {
    "cubic": {"xyz": 6},
    "c2": [0, 0, 1],
    "matrices": [[[1, 1, 0], [0, 1, 1], [0, 0, 1]]],
}

# L∘g = (1, 0, 1) is not L = z; the shear keeps L but moves the golden cubic
MOVES_L = {**GOLDEN, "matrices": [[[1, 0, 0], [0, 1, 0], [1, 0, 1]]]}
MOVES_CUBIC = {**GOLDEN, "matrices": [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]]}

# c2 = (0, 0, 10^5000): one more digit than Python's default int-string limit
DIGITS_5001 = '{"cubic": {"z3": 1}, "c2": [0, 0, 1' + "0" * 5000 + "]}"


def problem(data):
    return parse_problem(json.dumps(data))


class TestParse:
    def test_golden_roundtrip(self):
        p = problem(GOLDEN)
        assert p.c2.coefficients() == (0, 0, 1)
        assert len(p.matrices) == 1
        assert p.bound is None

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_problem('{"cubic": {,}')
        assert "line 1" in str(exc.value)

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError):
            parse_problem("[1, 2, 3]")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError) as exc:
            problem({**GOLDEN, "plot": True})
        assert "plot" in str(exc.value)

    def test_unknown_monomial_rejected(self):
        with pytest.raises(ValidationError):
            problem({"cubic": {"w3": 1}, "c2": [0, 0, 1]})

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            problem({"cubic": {"x3": 1.5}, "c2": [0, 0, 1]})

    def test_boolean_coefficient_rejected(self):
        with pytest.raises(ValidationError):
            problem({"cubic": {"x3": True}, "c2": [0, 0, 1]})

    def test_zero_c2_rejected(self):
        with pytest.raises(ValidationError) as exc:
            problem({"cubic": {"x3": 1}, "c2": [0, 0, 0]})
        assert "c2 = 0" in str(exc.value)

    def test_bad_c2_shape_rejected(self):
        with pytest.raises(ValidationError):
            problem({"cubic": {}, "c2": [0, 1]})

    def test_non_unimodular_matrix_rejected(self):
        with pytest.raises(ValidationError) as exc:
            problem({"cubic": {}, "c2": [0, 0, 1],
                     "matrices": [[[2, 0, 0], [0, 1, 0], [0, 0, 1]]]})
        assert "matrix 0" in str(exc.value)

    @pytest.mark.parametrize("matrices", [5, None, True, 1.5, "[[1, 0, 0]]"])
    def test_matrices_must_be_an_array(self, matrices):
        """A string is not read one character at a time."""
        with pytest.raises(ValidationError, match="'matrices' must be an array"):
            problem({**GOLDEN, "matrices": matrices})

    @pytest.mark.parametrize("matrix, message", [
        (5, "matrix 0: expected a 3x3 matrix"),
        ([[1, 0, 0], 7, [0, 0, 1]], "matrix 0: expected a 3x3 matrix"),
        ([[1, 0], [0, 1]], "matrix 0: expected a 3x3 matrix"),
        ([[1, 0, 0], [0, True, 0], [0, 0, 1]], "matrix 0: matrix entries must be integers"),
        ([[1.0, 0, 0], [0, 1, 0], [0, 0, 1]], "matrix 0: matrix entries must be integers"),
    ])
    def test_bad_matrix_names_its_index(self, matrix, message):
        with pytest.raises(ValidationError) as exc:
            problem({**GOLDEN, "matrices": [matrix]})
        assert str(exc.value).startswith(message)

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_problem("[" * 100_000 + "]" * 100_000)

    def test_integer_past_the_digit_limit_is_a_parse_error(self):
        with pytest.raises(ParseError, match="5001 digits"):
            parse_problem(DIGITS_5001)

    @pytest.mark.parametrize("c2", [[0, 0, 1.0], [0, True, 1], [0, "1", 1], None, "123",
                                    {"a": 1, "b": 2, "c": 3}, [0, 0, 0, 1]])
    def test_c2_must_be_three_integers(self, c2):
        with pytest.raises(ValidationError) as exc:
            problem({**GOLDEN, "c2": c2})
        assert str(exc.value) == "'c2' must be an array of 3 integers"

    def test_bad_bound_rejected(self):
        with pytest.raises(ValidationError):
            problem({"cubic": {}, "c2": [0, 0, 1], "bound": "big"})

    def test_parsing_a_cubic_builds_no_fraction(self, fraction_builds):
        parsed, built = fraction_builds(problem, GOLDEN_QUADRIC)
        assert built == 0
        assert parsed.cubic.cubic_coefficients() == {
            name: GOLDEN_QUADRIC["cubic"].get(name, 0) for name in MONOMIAL_INDICES}


class TestClassifyCommand:
    def test_hyperbolic_report(self):
        report, code = run(problem(GOLDEN), "classify")
        assert code == EXIT_OK
        (el,) = report["elements"]
        assert el["preserves_pair"] is True
        assert el["class"]["kind"] == "Hyperbolic"
        assert el["class"]["s"] == 3
        assert el["class"]["alpha"] == "3/2 + 1/2√5"
        assert el["class"]["u"] == ["1", "-1/2 - 1/2√5", "0"]
        assert el["class"]["v"] == ["1", "-1/2 + 1/2√5", "0"]
        assert el["class"]["w"] == [0, 0, 1]

    def test_unipotent_report(self):
        report, code = run(problem(UNIPOTENT), "classify")
        assert code == EXIT_OK
        (el,) = report["elements"]
        assert el["class"] == {
            "kind": "UnipotentFull",
            "w": [1, 0, 0],
            "w1": [0, 1, 0],
            "w2": [0, 0, 1],
        }

    def test_requires_matrices(self):
        data = {"cubic": GOLDEN["cubic"], "c2": [0, 0, 1]}
        report, code = run(problem(data), "classify")
        assert code == EXIT_INPUT
        assert report["verdict"]["kind"] == "InputError"


class TestFactorCommand:
    def test_three_lines(self):
        report, code = run(problem(GOLDEN), "factor")
        assert code == EXIT_OK
        fact = report["factorization"]
        assert fact["kind"] == "ThreeLines"
        assert fact["B"] == "5/6"
        assert len(fact["singular_locus"]) == 3
        assert report["relations"][0]["overall"] is True
        assert report["verdict"] == {"kind": "Factorized"}

    @pytest.mark.parametrize("data, kind", [(GOLDEN, "ThreeLines"),
                                            (GOLDEN_QUADRIC, "QuadricLine")])
    def test_each_distinct_line_renders_once(self, monkeypatch, data, kind):
        """The surds of u and v are read once for the element entry and once
        for the frame, each other frame column once, and a singular line only
        when it differs from its column, whose strings it reuses otherwise."""
        parsed = problem(data)
        (g,), T, L = parsed.matrices, parsed.cubic, parsed.c2
        cls = classify(g, L)
        cert = certify_seed(T, L, seed_of(g, cls))
        frame = cert.factorization.frame
        expected = [cls.u, cls.v, *frame,
                    *(line for line, col in zip(cert.singular_lines, frame) if line != col)]
        reads = []
        surds = PairVector.surds
        monkeypatch.setattr(PairVector, "surds",
                            property(lambda x: reads.append(x) or surds.fget(x)))
        report, _ = run(parsed, "factor")
        fact = report["factorization"]
        assert fact["kind"] == kind and reads == expected
        assert fact["singular_locus"] == fact["frame"][:len(fact["singular_locus"])]

    def test_quadric_line(self):
        report, code = run(problem(GOLDEN_QUADRIC), "factor")
        assert code == EXIT_OK
        fact = report["factorization"]
        assert fact["kind"] == "QuadricLine"
        assert fact["A"] == "1"
        assert fact["B"] == "5/6"
        assert fact["signature"] == [2, 1, 0]
        assert fact["tangent"] is False
        assert len(fact["tangency_points"]) == 2

    def test_unipotent_tangent_quadric(self):
        report, code = run(problem(UNIPOTENT), "factor")
        assert code == EXIT_OK
        fact = report["factorization"]
        assert fact["kind"] == "QuadricLine"
        assert fact["E"] == "3"
        assert fact["F"] == "1"
        assert fact["tangent"] is True
        assert fact["tangency_points"] == [["1", "0", "0"]]
        assert fact["singular_locus"] == [["1", "0", "0"]]

    def test_negative_real_pair_seeds_the_factorization(self):
        """s = -3: the element is out of theory, but its eigenlines still
        certify the three-line factorization."""
        data = dict(GOLDEN, matrices=[[[-2, -1, 0], [-1, -1, 0], [0, 0, 1]]])
        report, code = run(problem(data), "factor")
        assert code == EXIT_OK
        assert report["elements"][0]["class"]["kind"] == "OutOfTheory"
        assert report["factorization"]["kind"] == "ThreeLines"
        assert report["factorization"]["B"] == "5/6"

    def test_lefschetz_violation_exits_2(self):
        report, code = run(problem(SPLIT), "factor")
        assert code == EXIT_GEOMETRIC
        assert report["verdict"]["kind"] == "GeometricInconsistency"
        assert "Lefschetz" in report["verdict"]["mechanism"]

    def test_finite_only_is_inconclusive(self):
        data = {
            "cubic": GOLDEN["cubic"],
            "c2": [0, 0, 1],
            "matrices": [[[-1, 0, 0], [0, -1, 0], [0, 0, 1]]],
        }
        report, code = run(problem(data), "factor")
        assert code == EXIT_INCONCLUSIVE
        assert report["verdict"]["kind"] == "Inconclusive"


class TestSeedCertificate:
    @pytest.mark.parametrize("data, check, row, kind", [
        (GOLDEN, "check_hyperbolic_relations", "u^3", "hyperbolic"),
        (UNIPOTENT, "check_unipotent_relations", "w1^3", "unipotent"),
    ])
    def test_factor_and_analyze_give_one_relation_reason(self, monkeypatch, data, check,
                                                         row, kind):
        """A failing relation row is the same Inconclusive from both commands;
        analyze used to let the unipotent RelationsNotVerified escape."""
        relations = getattr(group_structure, check)

        def failing(*args):
            report = relations(*args)
            rows = tuple(r._replace(holds=False) if r.name == row else r for r in report.rows)
            return report._replace(rows=rows, overall=False)

        monkeypatch.setattr(group_structure, check, failing)
        for command in ("factor", "analyze"):
            report, code = run(problem(data), command)
            assert code == EXIT_INCONCLUSIVE
            assert report["verdict"]["reason"] == f"{kind} relations failed: ['{row}']"
        report, _ = run(problem(data), "factor")
        assert report["relations"][0]["overall"] is False
        assert report["factorization"] is None

    def test_lefschetz_report_carries_its_relations(self):
        """E = 0 comes before the relation gate, and the report keeps the
        relation rows that were checked."""
        report, code = run(problem(SPLIT), "factor")
        assert code == EXIT_GEOMETRIC
        assert report["verdict"]["mechanism"] == LEFSCHETZ
        rows = {r["name"]: r["holds"] for r in report["relations"][0]["rows"]}
        assert rows["w·w2^2 ≠ 0"] is False


def test_factor_checks_full_jordan_past_the_seed():
    """The unipotent seed comes first; the shear x -> x + y after it has
    rank(g - id) = 1 and still raises, with both elements reported."""
    shear = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    report, code = run(problem({**UNIPOTENT, "matrices": UNIPOTENT["matrices"] + [shear]}),
                       "factor")
    assert code == EXIT_GEOMETRIC
    assert report["verdict"]["mechanism"] == FULL_JORDAN
    assert len(report["elements"]) == 2


class TestAnalyzeCommand:
    def test_hyperbolic_dichotomy(self):
        report, code = run(problem(GOLDEN), "analyze")
        assert code == EXIT_OK
        verdict = report["verdict"]
        assert verdict["kind"] == "AlmostAbelianRankOne"
        w = verdict["witness"]
        assert w["type"] == "character"
        assert w["generator"] == "1/2 + 1/2√5"
        assert w["exponents"] == [8]
        assert "exponent_bound" not in w

    def test_hyperbolic_power_keeps_the_fundamental_unit(self):
        """g**40 has alpha = phi**80, so its character value is phi**320."""
        a, b = 1, 0
        for _ in range(80):
            a, b = a + b, a
        data = dict(GOLDEN, matrices=[[[a, b, 0], [b, a - b, 0], [0, 0, 1]]])
        report, code = run(problem(data), "analyze")
        assert code == EXIT_OK
        w = report["verdict"]["witness"]
        assert (w["generator"], w["exponents"]) == ("1/2 + 1/2√5", [320])

    def test_unipotent_dichotomy(self):
        report, code = run(problem(UNIPOTENT), "analyze")
        assert code == EXIT_OK
        w = report["verdict"]["witness"]
        assert w == {"type": "tau", "p": 1, "values": [1], "generator_value": 1}

    def test_enumeration_fallback(self):
        data = {"cubic": GOLDEN["cubic"], "c2": [0, 0, 1], "bound": 2}
        report, code = run(problem(data), "analyze")
        assert code == EXIT_OK
        assert report["verdict"]["kind"] == "AlmostAbelianRankOne"
        assert any("enumeration" in r for r in report["reductions"])

    def test_deficient_unipotent_exits_2(self):
        data = {
            "cubic": {"y3": 1},
            "c2": [0, 0, 1],
            "matrices": [[[1, 0, 1], [0, 1, 0], [0, 0, 1]]],
        }
        report, code = run(problem(data), "analyze")
        assert code == EXIT_GEOMETRIC
        assert "Jordan" in report["verdict"]["mechanism"]

    def test_inconsistency_keeps_its_reductions(self):
        """z³ with L = z: the full-Jordan failure is found among the Schreier
        generators of the bound-3 enumeration, and the report says so."""
        report, code = run(problem({"cubic": {"z3": 1}, "c2": [0, 0, 1]}), "analyze")
        assert code == EXIT_GEOMETRIC
        assert report["verdict"]["mechanism"] == FULL_JORDAN
        assert report["reductions"] == [
            "generators from brute-force enumeration, bound 3",
            "determinant -1 generators replaced by the Schreier generators of the "
            "det-1 subgroup (index ≤ 2)",
        ]


def _fibonacci_power(n):
    """The n-th power of the golden generator [[2, 1, 0], [1, 1, 0], [0, 0, 1]]."""
    a, b = 1, 0
    for _ in range(2 * n):
        a, b = a + b, a
    return [[a, b, 0], [b, a - b, 0], [0, 0, 1]]


PINNED_PROBLEMS = {
    "golden": GOLDEN,
    "golden-quadric": GOLDEN_QUADRIC,
    "unipotent": UNIPOTENT,
    "d94-automorph": {
        "cubic": {"x2z": 1, "y2z": -94, "z3": 1},
        "c2": [0, 0, 1],
        "matrices": [[[2143295, 94 * 221064, 0], [221064, 2143295, 0], [0, 0, 1]]],
    },
    "golden-with-det-minus-one": dict(
        GOLDEN, matrices=GOLDEN["matrices"] + [[[-1, 0, 0], [1, 1, 0], [0, 0, 1]]]),
    "golden-power-40": dict(GOLDEN, matrices=[_fibonacci_power(40)]),
}

# sha256 of json.dumps(report, indent=2) and the exit code, per problem and command.
PINNED_REPORTS = [
    ("golden", "classify", 0,
     "bb1a7c1fb3dc901a39a00f9aecf50fab35c250297cfebefa6741cc2a851a55ad"),
    ("golden", "factor", 0,
     "e98616efc816754a66e26b3278e3105a5c0350a2cdbab5dc4dc9822b9bdfeba3"),
    ("golden", "analyze", 0,
     "52c77dfb4b20a8e404410e590c6a2a0e84cfd7fa738e050aa2ad16fa4d56860f"),
    ("golden-quadric", "classify", 0,
     "bb1a7c1fb3dc901a39a00f9aecf50fab35c250297cfebefa6741cc2a851a55ad"),
    ("golden-quadric", "factor", 0,
     "c860d3febe473a2e4c51cc013ec5f1fdd4220c4fc32f3cd70c4b07aca8c169ee"),
    ("golden-quadric", "analyze", 0,
     "52c77dfb4b20a8e404410e590c6a2a0e84cfd7fa738e050aa2ad16fa4d56860f"),
    ("unipotent", "classify", 0,
     "013be42d5598b352133f5503d1c20c58f3eb4e01dcb357fe1fd49a5556acb9a9"),
    ("unipotent", "factor", 0,
     "d00f82ac1c5bea728ff5c1ea8fc7788ba18b0bf4b88477f3a91d910860b895d3"),
    ("unipotent", "analyze", 0,
     "f1f43b9fa29c1dc21763f9b4026418af76698061d9a84c0d3ccf494d33617812"),
    ("d94-automorph", "classify", 0,
     "9d33ad13db43422fbe2a8c806c02567f1a1ce87c21144a99df148ff326e037dd"),
    ("d94-automorph", "factor", 0,
     "475e70bf9a9b2a5d2ce15c2a2e8eaa6691302eb82b81b672d6ee4c5c3f3a929d"),
    ("d94-automorph", "analyze", 0,
     "46d6fa7d428a116be5b97921b9fefbd1429e0fa044945bbe8bbafd74a7d9c531"),
    ("golden-with-det-minus-one", "classify", 0,
     "ee75f2503ce6e7e521283678fac936a001d81e468cbddbdbd2b99c7e47dc62db"),
    ("golden-with-det-minus-one", "factor", 0,
     "c4774143fd82c13fa4b773c232462b9f4fe495865b3543b0e4c69328977b2cc2"),
    ("golden-with-det-minus-one", "analyze", 0,
     "378e4ccce415acccc00dc502a00be9bcb2e100dfd3643143a859a78da79faa40"),
    ("golden-power-40", "classify", 0,
     "ef805a2339267ea4fb88dc061f6af2127b23189d74b675bea7e6d8084248e91b"),
    ("golden-power-40", "factor", 0,
     "448a3ca72cdeaec0babd3dd85b2b5cf362c3148191b5df10a1e9be18ba154353"),
    ("golden-power-40", "analyze", 0,
     "b918166341bae3aa229a451ea059f37242ee9d4052e189b68fd71debddd88a4c"),
]


@pytest.mark.parametrize("name, command, code, digest", PINNED_REPORTS)
def test_report_bytes_are_pinned(name, command, code, digest):
    """The JSON report bytes of each fixture stay the same across refactors."""
    report, got = run(problem(PINNED_PROBLEMS[name]), command)
    text = json.dumps(report, indent=2)
    assert (got, hashlib.sha256(text.encode()).hexdigest()) == (code, digest), text


class TestEnumerateCommand:
    def test_golden_bound_2(self):
        data = {"cubic": GOLDEN["cubic"], "c2": [0, 0, 1]}
        report, code = run(problem(data), "enumerate")
        assert code == EXIT_OK
        assert report["verdict"] == {"kind": "Enumeration", "count": 10}
        matrices = [el["matrix"] for el in report["elements"]]
        assert GOLDEN["matrices"][0] in matrices
        assert matrices == sorted(matrices)

    def test_bound_guard_exits_1(self):
        data = {"cubic": GOLDEN["cubic"], "c2": [0, 0, 1], "bound": 7}
        report, code = run(problem(data), "enumerate")
        assert code == EXIT_INPUT
        assert report["verdict"]["kind"] == "InputError"

    def test_cli_bound_overrides_problem_bound(self):
        data = {"cubic": GOLDEN["cubic"], "c2": [0, 0, 1], "bound": 7}
        report, code = run(problem(data), "enumerate", bound=1)
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", ["enumerate", "analyze"])
    def test_negative_bound_is_an_input_error(self, command):
        """A negative bound, in the problem file or given to run, is reported
        as an InputError with exit 1, not raised; also when matrices make
        enumeration unused."""
        data = {"cubic": GOLDEN["cubic"], "c2": [0, 0, 1]}
        for report, code in (run(problem({**data, "bound": -1}), command),
                             run(problem(data), command, bound=-1),
                             run(problem({**GOLDEN, "bound": -1}), command)):
            assert code == EXIT_INPUT
            assert report["verdict"] == {"kind": "InputError",
                                         "message": "bound -1 must be nonnegative"}


NON_PRESERVING = [
    (MOVES_L, "classify", DoesNotPreserveL),
    (MOVES_L, "factor", DoesNotPreserveL),
    (MOVES_L, "analyze", NonPreservingGenerator),
    (MOVES_CUBIC, "analyze", NonPreservingGenerator),
]


class TestNonPreservingGenerator:
    """A generator that does not preserve the pair is raised by `run`, not
    reported; `main` prints it as "cy3: ..." on stderr and exits 1 with no
    report."""

    @pytest.mark.parametrize("data, command, error", NON_PRESERVING)
    def test_run_raises(self, data, command, error):
        with pytest.raises(error):
            run(problem(data), command)

    @pytest.mark.parametrize("data, command, error", NON_PRESERVING)
    def test_main_exits_1_with_no_report(self, tmp_path, capsys, data, command, error):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        assert main([command, "--input", str(path)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cy3: ") and "Traceback" not in err


class TestRenderDispatch:
    """An object the renderers do not know raises a named error, also under
    python -O, which would strip a bare assert."""

    def test_unknown_element_class(self):
        with pytest.raises(PostCheckFailed) as info:
            render_class(object())
        assert info.value.check == "known element class"

    def test_unknown_factorization(self):
        with pytest.raises(PostCheckFailed) as info:
            render_factorization(object())
        assert info.value.check == "known factorization"


class TestMain:
    def _write(self, tmp_path, data):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_analyze_json_output(self, tmp_path, capsys):
        code = main(["analyze", "--input", self._write(tmp_path, GOLDEN)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        report = json.loads(out)
        assert set(report) == {
            "version", "elements", "relations", "factorization",
            "verdict", "reductions",
        }
        assert report["verdict"]["kind"] == "AlmostAbelianRankOne"

    def test_output_is_deterministic(self, tmp_path, capsys):
        path = self._write(tmp_path, GOLDEN_QUADRIC)
        main(["factor", "--input", path])
        first = capsys.readouterr().out
        main(["factor", "--input", path])
        second = capsys.readouterr().out
        assert first == second

    def test_text_format(self, tmp_path, capsys):
        code = main(
            ["classify", "--input", self._write(tmp_path, UNIPOTENT),
             "--format", "text"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "UnipotentFull" in out
        assert out.startswith("cy3 report")

    def test_missing_file(self, capsys):
        code = main(["analyze", "--input", "/nonexistent/problem.json"])
        assert code == EXIT_INPUT
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_problem_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"cubic": {}, "c2": [0, 0, 0]}')
        code = main(["analyze", "--input", str(path)])
        assert code == EXIT_INPUT
        assert "invalid problem file" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"cubic": {"z3": 1}, "c2": [0, 0, 1], "matrices": 5}',
        "[" * 100_000 + "]" * 100_000,
        DIGITS_5001,
        b"\xff\xfe",  # not UTF-8: bad input, not a UnicodeDecodeError
    ], ids=["matrices-5", "nested-100000", "digits-5001", "not-utf8"])
    def test_bad_matrices_and_deep_nesting_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["analyze", "--input", str(path)]) == EXIT_INPUT
        assert "invalid problem file" in capsys.readouterr().err

    def test_analyze_prints_integers_past_the_digit_limit(self, tmp_path, capsys):
        """golden^2700 has entries of about 1130 digits and parses; the value of
        its 4th power, phi^21600, has more than 4300 and must still print, and
        main leaves the interpreter's limit as it found it."""
        a, b = 1, 0
        for _ in range(5400):
            a, b = a + b, a
        data = dict(GOLDEN, matrices=[[[a, b, 0], [b, a - b, 0], [0, 0, 1]]])
        limit = sys.get_int_max_str_digits()
        code = main(["analyze", "--input", self._write(tmp_path, data)])
        assert sys.get_int_max_str_digits() == limit
        assert code == EXIT_OK
        witness = json.loads(capsys.readouterr().out)["verdict"]["witness"]
        assert (witness["generator"], witness["exponents"]) == ("1/2 + 1/2√5", [21600])

    def test_geometric_inconsistency_exit_code(self, tmp_path, capsys):
        code = main(["factor", "--input", self._write(tmp_path, SPLIT)])
        assert code == EXIT_GEOMETRIC
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["enumerate", "analyze"])
    def test_negative_bound_flag(self, tmp_path, capsys, command):
        data = {"cubic": GOLDEN["cubic"], "c2": [0, 0, 1]}
        code = main([command, "--input", self._write(tmp_path, data), "--bound", "-1"])
        assert code == EXIT_INPUT
        out = capsys.readouterr().out
        assert json.loads(out)["verdict"]["kind"] == "InputError"

    def test_allow_large_bound_flag(self, tmp_path, capsys):
        data = {"cubic": GOLDEN["cubic"], "c2": [0, 0, 1]}
        code = main(
            ["enumerate", "--input", self._write(tmp_path, data),
             "--bound", "7", "--allow-large-bound"]
        )
        assert code == EXIT_OK
        capsys.readouterr()
