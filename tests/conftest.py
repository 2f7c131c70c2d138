"""Run the suite against this checkout's src/, installed or not.

src/ goes first on sys.path for the tests and first on PYTHONPATH for
the CLI subprocesses they start, so another installed copy of nilharm
is never the one under test.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p])
