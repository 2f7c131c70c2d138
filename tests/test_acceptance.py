"""Acceptance gate: one test per shipped criterion, fixed seed.

Each numbered test runs the same criterion function the `selftest`
subcommand uses, so the suite and the CLI can never drift apart.
Criterion 3's octonionic-double clause asserts the normal-form Pfaffian
+-a1*(a1^2+a2^2+a3^2) on the split that drops (0, e3); the README's
"Case 3 normal form" shows why no split of the paper's form gives the
+-a1*a2*a3 an earlier version expected.  Tolerances are pinned inside
the criterion functions.
"""

import subprocess
import sys

from nilharm import selftest


SEED = 0


def _run(k):
    res = selftest.CRITERIA[k](seed=SEED)
    assert res["passed"], res["detail"]
    return res


def test_criterion_1_octonion_table():
    _run(1)


def test_criterion_2_catalog_construction():
    _run(2)


def test_criterion_3_normal_form_pfaffians():
    _run(3)


def test_criterion_4_square_integrability_and_splits():
    _run(4)


def test_criterion_5_exact_pfaffian_randomized():
    _run(5)


def test_criterion_6_flat_inversion_heisenberg():
    # the 60s runtime bound is enforced inside the criterion itself
    _run(6)


def test_criterion_7_stepwise_inversion():
    # the 600s runtime bound is enforced inside the criterion itself
    _run(7)


def test_criterion_8_flatness_identity():
    _run(8)


def test_criterion_9_orbit_invariants():
    _run(9)


def test_criterion_10_cli_selftest():
    """`nilharm selftest` exits 0 with byte-identical repeated output."""
    # this interpreter and, through conftest, this checkout's src/: an
    # installed `nilharm` script may run another copy of the package
    cmd = [sys.executable, "-m", "nilharm.cli", "selftest"]
    first = subprocess.run(cmd, capture_output=True, timeout=900)
    second = subprocess.run(cmd, capture_output=True, timeout=900)
    assert first.stdout == second.stdout, "selftest output is not stable"
    assert first.returncode == 0, (
        "selftest reported failing criteria:\n"
        + first.stdout.decode(errors="replace"))
