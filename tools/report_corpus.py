"""Rebuild the report corpus and print its size and sha256.

The corpus is what `cy3.cli.run` gives under each of the commands classify,
factor, analyze and enumerate for, with each of the seeds 1, 2, 3, 4 and 11,
the first 96 certify, 32 enumerate and 240 classify-sweep problems of the
benchmark streams (perfbench/problems.py) and the 4 classify-sweep defect
probes: 7440 reports. A report enters as its exit code and the bytes of
`json.dumps(report, indent=2)`; a raised error enters as its type and message.
Two commits that print the same digest give byte-identical reports on all of
them. The reports are computed by os.cpu_count() spawned worker processes and
hashed in corpus order, so the digest does not depend on the worker count.

    python tools/report_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import problems  # noqa: E402
from cy3.cli import COMMANDS, parse_problem, run  # noqa: E402

SEEDS = (1, 2, 3, 4, 11)
PER_SEED = {"certify": 96, "enumerate": 32, "classify-sweep": 240}


def corpus():
    """Every problem of the corpus, in a fixed order."""
    for seed in SEEDS:
        for workload, n in PER_SEED.items():
            yield from islice(problems.stream(workload, seed), n)
        yield from problems.defect_probes()


def outcome(text: str, command: str) -> str:
    try:
        report, code = run(parse_problem(text), command)
    except Exception as exc:  # a raised error is part of the corpus
        return f"raised {type(exc).__name__}: {exc}"
    return f"exit {code}\n{json.dumps(report, indent=2)}"


def main() -> int:
    texts, commands = zip(*[(p.text, c) for p in corpus() for c in COMMANDS])
    digest = hashlib.sha256()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(os.cpu_count(), mp_context=spawn) as pool:
        for out in pool.map(outcome, texts, commands, chunksize=32):
            digest.update(out.encode() + b"\n\0")
    print(len(texts), digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
