"""List the functions of `src/cy3` that no `cy3` command enters.

The probe runs `cy3.cli.run` under each of the commands classify, factor,
analyze and enumerate, with bound 1, on seed 1's slice of the report corpus
(tools/report_corpus.py): the first 96 certify, 32 enumerate and 240
classify-sweep problems of the benchmark streams and the 4 classify-sweep
defect probes. It then runs `cy3.cli.main` once with `--format json` and once
with `--format text`. Every Python call is recorded with `sys.setprofile`;
the functions, methods and named nested functions defined in `src/cy3` that
were never entered are printed as `file:line name`, in file and line order.
An error that is not a `Cy3Error` stops the probe, since a fault would hide
what its caller would have entered.
Code that runs only while `cy3` is imported (module and class bodies, and what
they call) is not traced, so it is listed too.

    python tools/reachability.py
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
import tempfile
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import cy3  # noqa: E402
import problems  # noqa: E402
from cy3.cli import COMMANDS, main as cli_main, parse_problem, run  # noqa: E402
from cy3.errors import Cy3Error  # noqa: E402

SEED = 1
PER_WORKLOAD = {"certify": 96, "enumerate": 32, "classify-sweep": 240}
BOUND = 1


def defined_code() -> dict:
    """Every code object of a function defined in `src/cy3`, mapped to its
    display name: module functions, methods (properties, class- and static
    methods included) and the named functions nested in them."""
    found = {}

    def add(code, name):
        if Path(code.co_filename).resolve().is_relative_to(SRC) and code not in found:
            found[code] = name
            for const in code.co_consts:
                if inspect.iscode(const) and not const.co_name.startswith("<"):
                    add(const, f"{name}.{const.co_name}")

    for info in pkgutil.iter_modules(cy3.__path__):
        module = importlib.import_module(f"cy3.{info.name}")
        for value in vars(module).values():
            if inspect.isfunction(value):
                add(value.__code__, value.__qualname__)
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for name, attr in vars(value).items():
                    fn = getattr(attr, "fget", None) or getattr(attr, "__func__", attr)
                    if inspect.isfunction(fn):
                        add(fn.__code__, f"{value.__qualname__}.{name}")
    return found


def workload() -> None:
    """The commands on seed 1's corpus slice, then the entry point twice."""
    texts = [p.text for workload, n in PER_WORKLOAD.items()
             for p in islice(problems.stream(workload, SEED), n)]
    texts += [p.text for p in problems.defect_probes()]
    for text in texts:
        for command in COMMANDS:
            try:
                run(parse_problem(text), command, bound=BOUND)
            except Cy3Error:  # a library error is an outcome; any other is a fault
                pass
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(texts[0])
        with contextlib.redirect_stdout(io.StringIO()):
            for fmt in ("json", "text"):
                cli_main(["analyze", "--input", path, "--format", fmt])


def main() -> int:
    defined = defined_code()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        workload()
    finally:
        sys.setprofile(None)
    missed = sorted((Path(code.co_filename).resolve().relative_to(ROOT).as_posix(),
                     code.co_firstlineno, name)
                    for code, name in defined.items() if code not in entered)
    for path, line, name in missed:
        print(f"{path}:{line} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
