"""Self-tests of the benchmark: seeded streams, the exact checker, the deadline.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import signal
import time
from itertools import islice

import pytest

import checker
import problems
import run

cy3 = run.import_cy3()

N = 48  # four certify cycles, four sweep cycles, one and a half enumerate blocks


def _take(workload, seed, n=N):
    return list(islice(problems.stream(workload, seed), n))


@pytest.mark.parametrize("workload", problems.WORKLOADS)
def test_stream_is_deterministic_per_seed(workload):
    first, second = _take(workload, 11), _take(workload, 11)
    assert [p.text for p in first] == [p.text for p in second]
    assert [p.commands for p in first] == [p.commands for p in second]


@pytest.mark.parametrize("workload", problems.WORKLOADS)
def test_held_out_seed_changes_problems_not_mix(workload):
    seen, held_out = _take(workload, 11), _take(workload, 12)
    assert [p.text for p in seen] != [p.text for p in held_out]
    if workload == "enumerate":  # blocks are permutations of one catalogue
        block = problems.cycle_length(workload)
        key = lambda p: (p.catalogue, p.bound, p.commands)  # noqa: E731
        assert sorted(map(key, seen[:block])) == sorted(map(key, held_out[:block]))
    else:
        assert [p.cls for p in seen] == [p.cls for p in held_out]


def _s(problem):
    return sum(problem.matrices[0][i][i] for i in range(3)) - 1


def test_sweep_traces_cover_the_range():
    sizes = [_s(p) for p in _take("classify-sweep", 3, 240) if p.cls == "hyperbolic"]
    lo, hi = problems.SWEEP_TRACE_RANGE
    assert min(sizes) < 10 * lo and max(sizes) > hi / 10


# -- checker -------------------------------------------------------------------------


def _solve(problem, command):
    return run.Runner(cy3).solve(problem, command)


def _first(workload, cls, seed=5):
    return next(p for p in problems.stream(workload, seed) if p.cls == cls)


def _status(problem, command, outcome):
    return checker.check(problem, command, outcome)[0]


def _corrupt(outcome, edit):
    kind, report, code = outcome
    report = copy.deepcopy(report)
    edit(report)
    return kind, report, code


def test_genuine_reports_pass():
    for cls in ("hyperbolic", "hyperbolic-set", "unipotent-set", "finite", "hodge", "nonpreserving"):
        problem = _first("certify", cls)
        for command in problem.commands:
            assert _status(problem, command, _solve(problem, command)) == checker.OK, (cls, command)


def test_negative_trace_is_not_hyperbolic():
    # s = trace - 1 < -2: both roots of t^2 - st + 1 are negative, so there is
    # no alpha > 1 and the matrix has infinite order.
    probes = problems.defect_probes()
    assert [p.text for p in probes] == [p.text for p in problems.defect_probes()]
    for problem in probes:
        assert _s(problem) < -2
        assert checker.expected_kind(problem.matrices[0]) == "OutOfTheory"
    assert checker.expected_kind(_first("classify-sweep", "hyperbolic").matrices[0]) == "Hyperbolic"


def test_corrupted_class_is_rejected():
    problem = _first("certify", "hyperbolic")
    outcome = _solve(problem, "classify")
    assert _status(problem, "classify", outcome) == checker.OK

    def wrong_alpha(r):
        r["elements"][0]["class"]["alpha"] = "2 + √3"

    def wrong_flag(r):
        r["elements"][0]["preserves_pair"] = False

    def wrong_eigenvector(r):
        cls = r["elements"][0]["class"]
        cls["u"], cls["v"] = cls["v"], cls["u"]

    for edit in (wrong_alpha, wrong_flag, wrong_eigenvector):
        assert _status(problem, "classify", _corrupt(outcome, edit)) == checker.FAILED


def test_corrupted_witnesses_are_rejected():
    hyperbolic = _first("certify", "hyperbolic-set")
    outcome = _solve(hyperbolic, "analyze")

    def wrong_value(r):
        r["verdict"]["witness"]["values"][0] = "2 + √3"

    def wrong_exponent(r):
        r["verdict"]["witness"]["exponents"][0] += 1

    for edit in (wrong_value, wrong_exponent):
        assert _status(hyperbolic, "analyze", _corrupt(outcome, edit)) == checker.FAILED

    unipotent = _first("certify", "unipotent-set")
    outcome = _solve(unipotent, "analyze")

    def wrong_gcd(r):
        r["verdict"]["witness"]["generator_value"] += 1

    assert _status(unipotent, "analyze", _corrupt(outcome, wrong_gcd)) == checker.FAILED


def test_corrupted_factorization_and_control_are_rejected():
    problem = _first("certify", "hyperbolic")
    outcome = _solve(problem, "factor")

    def wrong_b(r):
        r["factorization"]["B"] = "7"

    assert _status(problem, "factor", _corrupt(outcome, wrong_b)) == checker.FAILED

    control = _first("certify", "hodge")
    outcome = _solve(control, "factor")

    def wrong_mechanism(r):
        r["verdict"]["mechanism"] = "Lefschetz hyperplane theorem"

    assert _status(control, "factor", _corrupt(outcome, wrong_mechanism)) == checker.FAILED
    raised = ("raised", "ValidationError", "not the expected error")
    assert _status(_first("certify", "nonpreserving"), "analyze", raised) == checker.FAILED


def test_corrupted_enumeration_is_rejected():
    problem = problems.enum_problem("golden", 1, "enumerate")
    outcome = _solve(problem, "enumerate")
    assert _status(problem, "enumerate", outcome) == checker.OK

    def drop_one(r):
        r["elements"].pop()
        r["verdict"]["count"] -= 1

    def not_a_symmetry(r):
        r["elements"][0]["matrix"] = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]

    for edit in (drop_one, not_a_symmetry):
        assert _status(problem, "enumerate", _corrupt(outcome, edit)) == checker.FAILED


def test_inconclusive_is_counted_apart_from_failures():
    problem = _first("certify", "hyperbolic")
    report = json.loads(json.dumps(_solve(problem, "analyze")[1]))
    report["verdict"] = {"kind": "Inconclusive", "reason": "cap reached"}
    assert _status(problem, "analyze", ("report", report, 3)) == checker.INCONCLUSIVE


# -- deadline ---------------------------------------------------------------------------


class _HangingCli:
    def parse_problem(self, text):
        return text

    def run(self, problem, command):
        while True:
            time.sleep(0.01)


def test_deadline_turns_a_hang_into_a_failure(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.2)
    runner = run.Runner(cy3)
    runner.cli = _HangingCli()
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        start = time.perf_counter()
        elapsed, status, reason = runner.attempt(_first("certify", "hyperbolic"))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert status == checker.FAILED and "deadline" in reason
    assert time.perf_counter() - start < 2
