"""Run the suite against this checkout's src/, installed or not.

src/ goes first on sys.path for the tests and first on PYTHONPATH for
the CLI subprocesses they start, so another installed copy of nilharm
is never the one under test.  The count_fractions fixture counts the
Fractions a call builds.
"""

import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
             if p])


@pytest.fixture
def count_fractions(monkeypatch):
    """count_fractions(call) -> (call(), the number of Fractions built
    while it ran), every construction going through Fraction.__new__."""
    def count(call):
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(1)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        try:
            return call(), len(built)
        finally:
            monkeypatch.undo()
    return count
