"""cy3 benchmark: one closed-loop caller, one process, no threads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Problems come from a seeded stream (problems.py). Each one goes through the
user path, cy3.cli.run(parse_problem(text), command) plus json.dumps of the
report, under a per-problem deadline, and is re-checked by the benchmark's own
exact checker (checker.py) before the next one starts.

--trace 0 measures the end-to-end metrics. --trace 1 runs the same stream
untraced for a third of --seconds, then traced over the same problems, and
reports the per-layer metrics plus the tracing overhead. Both print one line
per metric and, as the last line, a JSON object with "correct", "attempted",
"failed" and "metrics". classify-sweep also checks a few fixed problems with a
known cy3 defect after the measured stream and prints how many of them fail;
they do not count in the JSON line. The run exits non-zero when cy3's sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import problems  # noqa: E402
from tracer import Tracer  # noqa: E402

DEADLINE_S = 10.0  # per problem; the slowest problem at the seed takes under 2 s
SETUP_SAMPLES = 11  # fresh-interpreter imports per run; setup_s is their median
# Fixed per workload so that runs of different speed report the same
# percentile: the highest of p80/p90/p95/p98/p99 with at least ten samples
# beyond it at the seed commit with --seconds 20.
TAIL_PERCENTILE = {"certify": 95, "enumerate": 80, "classify-sweep": 98}
# The least odd s >= 10^k + 1 with s^2 - 4 squarefree, per decade k: fixed, so
# the series does not move with the seed, and with no square factor to shorten
# squarefree_decompose.
SCALING_TRACES = {1: 13, 2: 103, 3: 1003, 4: 10003, 5: 100003}
SCALING_REPEATS = 5

# The host's speed drifts by up to a factor of two within seconds (other
# tenants share its cores), and the drift slows cy3 and any other Python code
# alike. So every measured stretch is sampled with a fixed loop of exact
# arithmetic and reported in steady seconds (see Meter). The loop has both
# kinds of work cy3 does: Fraction arithmetic, as in QuadSurd, and integer
# remainders, as in squarefree_decompose.
REFERENCE_SOURCE = (
    "acc = Fraction(0)\n"
    "for i in range(1, 120):\n"
    "    acc += Fraction(i, i + 7) * Fraction(3, i + 1)\n"
    "rem, n = 0, 1000003 * 999983\n"
    "for p in range(2, 3000):\n"
    "    rem += n % (p * p)\n"
)
REFERENCE_LOOP = compile(REFERENCE_SOURCE, "<reference>", "exec")
REFERENCE_S = 0.0014  # the reference loop at this host's typical speed
SAMPLE_CPU_S = 0.05  # CPU seconds between reference samples inside a stretch
# The reference for setup_s: a fixed set of standard-library modules, and
# their import time in a fresh interpreter at this host's typical speed.
REFERENCE_IMPORTS = ("import argparse, calendar, difflib, email.parser, http.client, "
                     "logging, pprint, xml.dom.minidom")
REFERENCE_IMPORT_S = 0.05


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so no `except Exception` in cy3 hides it."""


def _on_alarm(signum, frame):
    raise Deadline()


def import_cy3():
    """Import cy3 from this checkout's src/, and only from there."""
    if not (SRC / "cy3" / "__init__.py").is_file():
        sys.exit(f"perfbench: cy3 sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import cy3
    import cy3.cli
    import cy3.errors

    if Path(cy3.__file__).resolve().parent != SRC / "cy3":
        sys.exit(f"perfbench: imported cy3 from {cy3.__file__}, not from {SRC}")
    return cy3


def reference() -> float:
    """Seconds the reference loop takes now: the host's current speed."""
    start = perf_counter()
    exec(REFERENCE_LOOP, {"Fraction": Fraction})
    return perf_counter() - start


class Meter:
    """Times stretches of work in steady seconds.

    The reference loop runs before and after a stretch and, on SIGPROF, every
    SAMPLE_CPU_S of CPU time inside it, so a long stretch is scaled by the
    host's speed during it and not only at its ends. Raw seconds spent in the
    samples are subtracted; `spent` lets callers subtract them from parts."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.begin = 0.0

    def _sample(self, signum, frame):
        start = perf_counter()
        self.samples.append(reference())
        self.spent += perf_counter() - start

    def start(self, before: float) -> None:
        """Begin a stretch; `before` is a reference time taken just now."""
        self.samples, self.spent = [before], 0.0
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)
        self.begin = perf_counter()

    def stop(self) -> tuple[float, float, float]:
        """End the stretch: (raw seconds, steady seconds per raw second, the
        reference time taken after it)."""
        raw = perf_counter() - self.begin
        signal.setitimer(signal.ITIMER_PROF, 0)
        raw -= self.spent
        after = reference()
        self.samples.append(after)
        return raw, REFERENCE_S * statistics.fmean(1 / r for r in self.samples), after

    def time(self, fn, *args) -> float:
        """Steady seconds of one call."""
        self.start(reference())
        fn(*args)
        raw, scale, _ = self.stop()
        return raw * scale


def timed_import(statement: str) -> float:
    """Raw seconds an import statement takes in a fresh interpreter."""
    code = f"import time\nt = time.perf_counter()\n{statement}\nprint(time.perf_counter() - t)\n"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                         cwd=HERE.parent, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def time_import() -> float:
    """Steady seconds `import cy3` takes in a fresh interpreter, scaled by a
    fixed set of standard-library imports timed in another fresh interpreter
    right after it. Imports read files and run module bodies, which the host's
    drift slows differently from the Fraction loop, so their reference is an
    import too."""
    seconds = timed_import("import cy3")
    return seconds * REFERENCE_IMPORT_S / timed_import(REFERENCE_IMPORTS)


# -- one problem ------------------------------------------------------------------


class Runner:
    """Solves and checks problems; `render` and the cli module calls can be traced."""

    def __init__(self, cy3):
        self.meter = Meter()
        self.cli = cy3.cli
        self.error_type = cy3.errors.Cy3Error
        self.render = json.dumps
        self.enum_counts = checker.load_enum_counts()

    def solve(self, problem, command):
        try:
            report, code = self.cli.run(self.cli.parse_problem(problem.text), command)
            self.render(report)
            return ("report", report, code)
        except self.error_type as exc:
            return ("raised", type(exc).__name__, str(exc))

    def attempt(self, problem):
        """(raw seconds, status, reason) for one problem, all commands included."""
        start, spent = perf_counter(), self.meter.spent

        def elapsed():
            return perf_counter() - start - (self.meter.spent - spent)

        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            outcomes = [(c, self.solve(problem, c)) for c in problem.commands]
            signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            return elapsed(), checker.FAILED, f"deadline {DEADLINE_S} s exceeded"
        except Exception as exc:  # anything but a named Cy3Error is a failure
            signal.setitimer(signal.ITIMER_REAL, 0)
            return elapsed(), checker.FAILED, f"{type(exc).__name__}: {exc}"
        elapsed = elapsed()
        status, reason = checker.OK, ""
        for command, outcome in outcomes:
            verdict, why = checker.check(problem, command, outcome, self.enum_counts)
            if verdict == checker.FAILED:
                return elapsed, verdict, why
            if verdict == checker.INCONCLUSIVE:
                status, reason = verdict, why
        return elapsed, status, reason


class Tally:
    """Per-problem steady latencies and statuses of one run, plus its wall
    time in steady and in raw seconds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.statuses: list[str] = []
        self.reasons: list[str] = []
        self.wall = 0.0
        self.raw_wall = 0.0

    def add(self, elapsed, status, reason):
        self.latencies.append(elapsed)
        self.statuses.append(status)
        if reason and status == checker.FAILED:
            self.reasons.append(reason)

    @property
    def attempted(self):
        return len(self.statuses)

    @property
    def failed(self):
        return self.statuses.count(checker.FAILED)


def drive(runner, workload, seed, *, seconds=None, count=None) -> Tally:
    """Closed loop over the seeded stream for at least `seconds` steady
    seconds, ending with a whole cycle of the workload's mix, or for exactly
    `count` problems. Counting steady seconds makes a run do the same work
    however fast the host is at the time.

    Each problem, from drawing it to checking its report, is one stretch of
    the runner's Meter; the reference samples do not count in the run's wall
    time."""
    tally = Tally()
    stream = problems.stream(workload, seed)
    cycle = problems.cycle_length(workload)

    def more():
        if count is not None:
            return tally.attempted < count
        return tally.wall < seconds or tally.attempted % cycle

    before = reference()
    while more():
        runner.meter.start(before)
        problem = next(stream)
        try:
            latency, status, reason = runner.attempt(problem)
        except Deadline:  # the alarm fired just as the problem finished
            latency, status, reason = DEADLINE_S, checker.FAILED, "deadline exceeded"
        interval, scale, before = runner.meter.stop()
        tally.add(latency * scale, status, reason)
        tally.wall += interval * scale
        tally.raw_wall += interval
    return tally


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


# -- end-to-end run -------------------------------------------------------------------


def end_to_end(runner, workload, seed, seconds) -> tuple[dict, Tally, list[str]]:
    time_import()  # the first import may compile bytecode
    setup_s = statistics.median(time_import() for _ in range(SETUP_SAMPLES))
    tally = drive(runner, workload, seed, seconds=seconds)
    n = tally.attempted
    p = TAIL_PERCENTILE[workload]
    beyond = n - math.ceil(p / 100 * n)
    metrics = {
        "problems_per_s": ((n - tally.failed) / tally.wall, "1/s"),
        "latency_p50_ms": (statistics.median(tally.latencies) * 1000, "ms"),
        "latency_tail_ms": (percentile(tally.latencies, p) * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [
        f"failed_share {tally.failed / n:.6f} share",
        f"inconclusive_share {tally.statuses.count(checker.INCONCLUSIVE) / n:.6f} share",
        f"samples {n}, tail = p{p} with {beyond} samples beyond it",
        f"wall {tally.wall:.3f} steady s, {tally.raw_wall:.3f} raw s "
        f"(host slowdown {tally.raw_wall / tally.wall:.3f})",
    ]
    return metrics, tally, notes


# -- traced run ---------------------------------------------------------------------------


def scaling_series(meter) -> dict:
    """Median of SCALING_REPEATS classify calls per trace decade and
    enumerations per bound, in steady milliseconds, measured untraced on the
    layer functions themselves. The inputs are fixed, not seeded."""
    from cy3.element_classify import classify
    from cy3.group_structure import enumerate_symmetries
    from cy3.lattice_forms import LatticeMap, LinearForm, TrilinearForm

    def median_ms(fn, *args):
        return statistics.median(meter.time(fn, *args) for _ in range(SCALING_REPEATS)) * 1000

    L = LinearForm(0, 0, 1)
    out = {}
    for k, s in SCALING_TRACES.items():
        g = LatticeMap(problems.block(((s, -1), (1, 0)), (1, 1)))
        out[f"element_classify.classify_ms.trace_1e{k}"] = (median_ms(classify, g, L), "ms")
    golden = TrilinearForm.from_cubic_coefficients({"x2z": 1, "xyz": -1, "y2z": -1})
    for bound in (1, 2):
        out[f"group_structure.enum_ms.bound_{bound}"] = (
            median_ms(enumerate_symmetries, golden, L, bound), "ms")
    return out


def per_layer(runner, workload, seed, seconds) -> tuple[dict, Tally, list[str]]:
    scaling = scaling_series(runner.meter)
    plain = drive(runner, workload, seed, seconds=seconds / 3)
    tracer = Tracer(runner.error_type)
    tracer.install()
    runner.render = tracer.wrap("cli", "json_dumps", json.dumps)
    try:
        traced = drive(runner, workload, seed, count=plain.attempted)
    finally:
        runner.render = json.dumps
        tracer.uninstall()
    summary = tracer.summary()
    fns = summary["functions"]
    n = traced.attempted
    to_steady = traced.wall / traced.raw_wall  # spans are in raw seconds

    def calls(name):
        return fns.get(name, {}).get("calls", 0)

    def total(name):
        return fns.get(name, {}).get("total_s", 0.0) * to_steady

    layer_self = {layer: 0.0 for layer in tracer.layer_of}
    for name, row in fns.items():
        layer_self[name.split(".")[0]] += row["self_s"] * to_steady
    in_enum = summary["nested_calls"].get(
        "group_structure.enumerate_symmetries>lattice_forms.preserves_pair", 0)
    found = tracer.result_sizes["group_structure.enumerate_symmetries"]
    per = "count/problem"
    metrics = {
        "core_arith.self_s": (layer_self["core_arith"] / n, "s/problem"),
        "core_arith.surd_new": (tracer.surd_new / n, per),
        "core_arith.squarefree_calls": (calls("core_arith.squarefree_decompose") / n, per),
        "core_arith.squarefree_s": (total("core_arith.squarefree_decompose") / n, "s/problem"),
        "core_arith.max_coeff_bits": (tracer.max_coeff_bits, "bits"),
        "lattice_forms.self_s": (layer_self["lattice_forms"] / n, "s/problem"),
        "lattice_forms.trilinear_eval.calls": (calls("lattice_forms.trilinear_eval") / n, per),
        "lattice_forms.cubic_eval.calls": (calls("lattice_forms.cubic_eval") / n, per),
        "lattice_forms.transform_cubic.calls": (calls("lattice_forms.transform_cubic") / n, per),
        "lattice_forms.preserves_pair.calls": (calls("lattice_forms.preserves_pair") / n, per),
        "lattice_forms.latticemap_new": (tracer.latticemap_new / n, per),
        "element_classify.self_s": (layer_self["element_classify"] / n, "s/problem"),
        "element_classify.classify.calls": (calls("element_classify.classify") / n, per),
        "element_classify.finite_order.calls": (calls("element_classify.finite_order") / n, per),
        "cubic_geometry.self_s": (layer_self["cubic_geometry"] / n, "s/problem"),
        "cubic_geometry.relations.calls": (
            (calls("cubic_geometry.check_hyperbolic_relations")
             + calls("cubic_geometry.check_unipotent_relations")) / n, per),
        "cubic_geometry.singular_locus.s": (total("cubic_geometry.singular_locus") / n, "s/problem"),
        "group_structure.self_s": (layer_self["group_structure"] / n, "s/problem"),
        "group_structure.enumerate_symmetries.s": (
            total("group_structure.enumerate_symmetries") / n, "s/problem"),
        "group_structure.enumerate_symmetries.calls": (
            calls("group_structure.enumerate_symmetries") / n, per),
        "group_structure.enum_yield": (found / in_enum if in_enum else 0.0, "ratio"),
        "group_structure.certify_discrete_cyclic.s": (
            total("group_structure.certify_discrete_cyclic") / n, "s/problem"),
        "group_structure.analyze_group.calls": (calls("group_structure.analyze_group") / n, per),
        "cli.self_s": (layer_self["cli"] / n, "s/problem"),
    }
    for layer in sorted(set(tracer.layer_of)):
        metrics[f"{layer}.raised"] = (tracer.raised[layer] / n, per)
    metrics.update(scaling)
    untraced_s, traced_s = sum(plain.latencies[:n]), sum(traced.latencies)
    metrics["trace.overhead"] = (traced_s / untraced_s - 1, "ratio")

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload}-seed{seed}.json"
    dump.write_text(json.dumps({"workload": workload, "seed": seed, "problems": n,
                                **summary, "span_list": tracer.spans()}), encoding="utf-8")
    dominant = max(layer_self, key=layer_self.get)
    notes = [f"problems {n} untraced then traced, spans {summary['spans']}, "
             f"dominant layer by self time: {dominant}, span table: {dump.relative_to(HERE.parent)}"]
    tally = Tally()
    for part in (plain, traced):
        tally.latencies += part.latencies
        tally.statuses += part.statuses
        tally.reasons += part.reasons
    return metrics, tally, notes


def probe_known_defect(runner) -> str:
    """Check the s < -2 classify probes, which are not part of the measured
    stream, and say how many of them fail the checker."""
    probes = problems.defect_probes()
    reasons = [reason for _, status, reason in map(runner.attempt, probes)
               if status == checker.FAILED]
    detail = f" ({reasons[0]})" if reasons else ""
    return f"known defect, s < -2: {len(reasons)}/{len(probes)} probes fail the checker{detail}"


# -- entry point -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=problems.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cy3 = import_cy3()
    signal.signal(signal.SIGALRM, _on_alarm)
    measure = per_layer if args.trace else end_to_end
    runner = Runner(cy3)
    metrics, tally, notes = measure(runner, args.workload, args.seed, args.seconds)
    if args.workload == "classify-sweep":
        notes.append(probe_known_defect(runner))

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for line in notes:
        print(f"{args.workload} {line}")
    for reason in tally.reasons[:20]:
        print(f"{args.workload} FAILED {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
