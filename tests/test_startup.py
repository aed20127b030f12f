"""`import cy3` loads every submodule and no heavy standard-library module.

The records are NamedTuples, so neither `dataclasses` nor the `inspect` it
pulls in is imported. The check runs in a fresh interpreter with -S, so that
only cy3's own imports count and no site-packages hook does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SUBMODULES = ("core_arith", "lattice_forms", "element_classify", "cubic_geometry",
              "group_structure", "errors")

PROBE = """
import json, sys
import cy3
after_cy3 = sorted(sys.modules)
import cy3.cli
print(json.dumps([after_cy3, sorted(sys.modules)]))
"""


def test_import_loads_all_submodules_and_no_dataclasses():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    after_cy3, after_cli = map(set, json.loads(out))
    for loaded in (after_cy3, after_cli):
        assert not {"dataclasses", "inspect"} & loaded
        assert {f"cy3.{name}" for name in SUBMODULES} <= loaded
