"""Record the enumeration counts that the checker compares against.

    python3 perfbench/record_enum_counts.py

Runs `enumerate` and `analyze` on every catalogue entry of the enumerate
workload at each bound, with the cy3 of this checkout, and writes
enum_counts.json: the symmetry count, and the analyze verdict kind with the
group order (Finite) or the witness type (AlmostAbelianRankOne). Re-record only
at a commit whose enumeration is trusted; the file holds the seed commit's
counts.
"""

import json
import sys

from run import import_cy3  # also puts this directory on sys.path
from checker import ENUM_COUNTS_FILE
from problems import ENUM_BOUNDS, ENUM_CATALOGUE, enum_problem


def main() -> int:
    cy3 = import_cy3()
    counts = {}
    for name in sorted(ENUM_CATALOGUE):
        counts[name] = {}
        for bound in ENUM_BOUNDS:
            problem = enum_problem(name, bound, "enumerate")
            parsed = cy3.cli.parse_problem(problem.text)
            found, _ = cy3.cli.run(parsed, "enumerate")
            report, _ = cy3.cli.run(parsed, "analyze")
            verdict = report["verdict"]
            size = verdict.get("order") or verdict.get("witness", {}).get("type")
            counts[name][str(bound)] = {"enumerate": found["verdict"]["count"],
                                        "analyze": [verdict["kind"], size]}
    ENUM_COUNTS_FILE.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(json.dumps(counts, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
