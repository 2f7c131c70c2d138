"""The acceptance checks, runnable from the CLI and from the test suite.

Each criterion function returns {"criterion", "passed", "detail"}.
Tolerances and runtime bounds are pinned here; the test suite asserts
on these results so the CLI selftest and pytest agree by construction.
Results carry no timing telemetry: under a fixed seed the whole report
is reproducible verbatim, which the CLI relies on for byte-identical
JSON output.  Criterion 1 is composition.table_failures, the check
the octonion table already passed at import, run on the table as it
stands at call time.
"""

import random
import time
from fractions import Fraction
from math import prod

import numpy as np

from . import composition, linalg
from .algebra import derived_inside_center, jacobi_defect, nilpotency_class
from .catalog import (free_two_step, heisenberg, lambda_a, octonion_double)
from .gaussians import GaussianTestFunction
from .inversion import (flatness_identity_gap, invert_flat, invert_stepwise,
                        orbit_space_quadrature_check)
from .orbits import l1_complement_indices, orbit_representative, skew_spectrum
from .pfaffian import (LinearFunctional, b_matrix, b_matrix_poly,
                       is_square_integrable, pfaffian)
from .polynomials import Poly
from .stepwise import find_codim_split


def _result(criterion, failures, detail):
    """A criterion's result: passed, with detail, when failures is
    empty, and otherwise failed, with the first five failures."""
    return {"criterion": criterion, "passed": not failures,
            "detail": "; ".join(failures[:5]) if failures else detail}


def criterion_1(seed=0):
    """Octonion table: triples, squares, identity, anticommutation."""
    failures = composition.table_failures(composition.TABLE)
    return _result(1, failures, "all 21 triple products, 7 squares, "
                   "identity, anticommutation")


def _constructible():
    return ([heisenberg(n, "C") for n in range(1, 5)]
            + [heisenberg(n, "H") for n in range(1, 4)] + [heisenberg(1, "O")]
            + [free_two_step(n, F) for n in range(2, 6) for F in "RC"]
            + [octonion_double()])


def criterion_2(seed=0):
    """Structural suite on every constructible catalog algebra."""
    failures = []
    algs = _constructible()
    for alg in algs:
        if jacobi_defect(alg) != 0:
            failures.append(f"{alg.name}: jacobi defect nonzero")
        try:
            if nilpotency_class(alg) != 2:
                failures.append(f"{alg.name}: nilpotency class != 2")
        except ValueError:  # the lower central series stalls
            failures.append(f"{alg.name}: not nilpotent")
        if not derived_inside_center(alg):
            failures.append(f"{alg.name}: derived not inside center")
    return _result(2, failures, f"{len(algs)} algebras checked")


def _units(m, parts):
    """The unit arguments of lambda_a in m coefficients, each coefficient
    taking the values in parts: (1,), or (1, 1j) for complex a_k."""
    return [[w if j == k else 0 for j in range(m)]
            for k in range(m) for w in parts]


def _lambda_a_poly(alg, units):
    """lambda_a at a = sum_k t_k units[k], with Poly coefficients: as
    lambda_a is linear in a, the sum of t_k * lambda_a(alg, units[k])."""
    n = len(units)
    coeffs = [Poly.zero(n)] * len(alg.center_indices)
    for k, unit in enumerate(units):
        for i, c in enumerate(lambda_a(alg, unit)):
            coeffs[i] = coeffs[i] + Poly.variable(n, k) * c
    return coeffs


def criterion_3(seed=0):
    """Restricted Pfaffian at lambda_a, exact symbolic equality."""
    # |Pf(lambda_a)| is |a_1 ... a_m| on case 1 (m <= 3) and
    # |a_1 ... a_m|^2 on case 6 (m <= 2, a_k complex).  On case 3 it is
    # |a1 (a1^2 + a2^2 + a3^2)| on the split search's split, which
    # drops (0, e7), the unit of a1.  G2 = Aut(O) makes every
    # codimension-1 l1 containing z give a linear form times |lambda|^2,
    # so a1a2a3 is out of reach of any split (README, "Case 3 normal
    # form").
    rows = [(f"case1 m={m}", free_two_step(2 * m + 1, "R"), _units(m, (1,)),
             prod) for m in (1, 2, 3)]
    rows += [(f"case6 m={m}", free_two_step(2 * m + 1, "C"),
              _units(m, (1, 1j)),
              lambda a: prod(a[k] * a[k] + a[k + 1] * a[k + 1]
                             for k in range(0, len(a), 2)))
             for m in (1, 2)]
    rows.append(("case3", octonion_double(), _units(3, (1,)),
                 lambda a: a[0] * sum(t * t for t in a)))
    failures = []
    for label, alg, units, expect in rows:
        pf = pfaffian(b_matrix_poly(alg, _lambda_a_poly(alg, units),
                                    v_indices=l1_complement_indices(alg)))
        expected = expect([Poly.variable(len(units), k)
                           for k in range(len(units))])
        if not (pf == expected or pf == -expected):
            failures.append(f"{label}: Pf(lambda_a) = {pf.format()}, "
                            f"expected +-{expected.format()}")

    return _result(3, failures, "case1 m<=3, case6 m<=2, case3 all match")


def criterion_4(seed=0):
    """Square-integrability classification plus stepwise splits."""
    failures = []

    sq_true = ([heisenberg(n, "C") for n in range(1, 5)]
               + [heisenberg(n, "H") for n in range(1, 4)]
               + [heisenberg(1, "O")])
    sq_false = ([free_two_step(n, "R") for n in (3, 5)]
                + [free_two_step(n, "C") for n in (3, 5)]
                + [octonion_double()])

    for alg in sq_true:
        if not is_square_integrable(alg):
            failures.append(f"{alg.name}: expected square integrable")
        else:
            try:
                find_codim_split(alg)
                failures.append(f"{alg.name}: split search did not refuse")
            except ValueError:
                pass
    for alg in sq_false:
        if is_square_integrable(alg):
            failures.append(f"{alg.name}: expected NOT square integrable")
            continue
        dec = find_codim_split(alg)
        if dec is None:
            failures.append(f"{alg.name}: no stepwise split found")
        elif not all(dec.verification.values()):
            failures.append(f"{alg.name}: split flags {dec.verification}")

    return _result(4, failures, f"{len(sq_true)} square integrable, "
                   f"{len(sq_false)} stepwise splits verified")


def criterion_5(seed=0):
    """Pfaffian oracle: Pf^2 = det and congruence covariance, exact."""
    rng = random.Random(seed + 5)
    failures = []

    def random_skew(n):
        mat = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                val = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                mat[i][j] = val
                mat[j][i] = -val
        return mat

    for n in (2, 4, 6, 8):
        for _ in range(50):
            mat = random_skew(n)
            pf = pfaffian(mat)
            if pf * pf != linalg.det(mat):
                failures.append(f"Pf^2 != det at dim {n}")
                break

    for trial in range(20):
        n = (4, 6)[trial % 2]
        mat = random_skew(n)
        q = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
             for _ in range(n)]
        qmqt = linalg.mat_mul(linalg.mat_mul(q, mat), linalg.transpose(q))
        if pfaffian(qmqt) != linalg.det(q) * pfaffian(mat):
            failures.append(f"congruence covariance fails at trial {trial}")
            break

    return _result(5, failures, "200 determinant checks, 20 congruence "
                   "checks, exact")


def criterion_6(seed=0):
    """Flat inversion on h_{1;C}: 5 points, < 1e-6, <= 1e5 nodes."""
    start = time.perf_counter()
    alg = heisenberg(1, "C")
    f = GaussianTestFunction(np.diag([1.0, 0.7, 1.3]),
                             np.array([0.1, -0.2, 0.3]), amp=2.0)
    rng = np.random.default_rng(seed)
    points = [np.zeros(3)] + [rng.normal(0.0, 0.6, size=3) for _ in range(4)]
    failures = []
    worst = 0.0
    for pt in points:
        rep = invert_flat(alg, f, pt)
        entry = rep.entries[0]
        worst = max(worst, entry["rel_error"])
        if entry["rel_error"] >= 1e-6:
            failures.append(f"rel error {entry['rel_error']:.2e} at {pt}")
        if entry["z_nodes"] > 10 ** 5:
            failures.append(f"{entry['z_nodes']} nodes exceeds 1e5")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"wall time {elapsed:.1f}s exceeds 60s")
    return _result(6, failures, f"5 points, max rel error {worst:.2e}")


def criterion_7(seed=0):
    """Stepwise inversion: case1 (m=1) at 3 points; case3 at the origin."""
    start = time.perf_counter()
    failures = []

    f = GaussianTestFunction.standard(6)
    points = [[0.0] * 6,
              [0.1, -0.2, 0.15, 0.3, -0.1, 0.0],   # x2-component zero
              [0.15, -0.2, 0.1, 0.3, -0.25, 0.2]]
    worst = 0.0
    for pt in points:
        rep = invert_stepwise("case1", f, pt)
        err = rep.entries[0]["rel_error"]
        worst = max(worst, err)
        if err >= 1e-3:
            failures.append(f"case1 rel error {err:.2e} at {pt}")
    case1_time = time.perf_counter() - start
    if case1_time >= 600.0:
        failures.append(f"case1 wall time {case1_time:.0f}s exceeds 10 min")

    f3 = GaussianTestFunction.standard(14)
    rep3 = invert_stepwise("case3", f3, [0.0] * 14,
                           quad_settings={"rtol": 1e-6})
    err3 = rep3.entries[0]["rel_error"]
    if err3 >= 1e-2:
        failures.append(f"case3 origin rel error {err3:.2e}")

    # timing stays out of detail so results are reproducible verbatim
    return _result(7, failures, f"case1 max rel {worst:.2e}; case3 origin "
                   f"rel {err3:.2e}")


def criterion_8(seed=0):
    """Flatness identity on closed-form paths, < 1e-10 relative."""
    failures = []

    alg = heisenberg(1, "C")
    f = GaussianTestFunction(np.diag([1.0, 0.7, 1.3]),
                             np.array([0.1, -0.2, 0.3]), amp=2.0)
    gap, _, _ = flatness_identity_gap(alg, f, [0.4, -0.3, 0.8])
    if gap >= 1e-10:
        failures.append(f"h1C gap {gap:.2e}")

    algq = heisenberg(1, "H")
    fq = GaussianTestFunction(np.diag([0.6, 0.8, 1.0, 1.2, 1.4, 0.9, 1.1]),
                              np.full(7, 0.2))
    gapq, _, _ = flatness_identity_gap(algq, fq, [0.1] * 7)
    if gapq >= 1e-10:
        failures.append(f"h1H gap {gapq:.2e}")

    return _result(8, failures, f"gaps {gap:.1e} (h1C), {gapq:.1e} (h1H)")


def criterion_9(seed=0):
    """Orbit machinery: spectrum invariance, normal forms, radial identity."""
    failures = []
    rng = np.random.default_rng(seed + 9)

    for n in (2, 4, 6, 8):
        for _ in range(20):
            a = rng.normal(size=(n, n))
            M = a - a.T
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            s1, k1 = skew_spectrum(M)
            s2, k2 = skew_spectrum(q @ M @ q.T)
            if k1 != k2 or len(s1) != len(s2) or \
               max((abs(x - y) for x, y in zip(s1, s2)), default=0) >= 1e-9:
                failures.append(f"spectrum not invariant at dim {n}")
                break

    alg = free_two_step(3, "R")
    for _ in range(10):
        coeffs = [Fraction(int(rng.integers(-9, 10)),
                           int(rng.integers(1, 10))) for _ in range(3)]
        rep = orbit_representative(alg, coeffs)
        again = orbit_representative(alg, lambda_a(alg, [
            Fraction(v).limit_denominator(10 ** 12) for v in rep.invariants]))
        if max((abs(x - y) for x, y in zip(rep.invariants, again.invariants)),
               default=0) >= 1e-9:
            failures.append("case1 representative not idempotent")
            break
        M = np.array(b_matrix(alg, LinearFunctional(alg, coeffs)).matrix,
                     dtype=float)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        Mr = q @ M @ q.T
        rot_coeffs = [Mr[pq] for pq in alg.meta["wedge_pairs"]]
        rep_rot = orbit_representative(alg, rot_coeffs)
        if max((abs(x - y)
                for x, y in zip(rep.invariants, rep_rot.invariants)),
               default=0) >= 1e-9:
            failures.append("case1 representative not rotation-invariant")
            break

    chk = orbit_space_quadrature_check(heisenberg(1, "H"), seed=seed)
    if chk["rel_diff"] >= 1e-6:
        failures.append(f"radial identity rel diff {chk['rel_diff']:.2e}")

    return _result(9, failures, "spectra invariant; case1 normal form "
                   f"stable; radial identity rel diff {chk['rel_diff']:.1e}")


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9,
}


def run_all(seed=0, only=None):
    results = []
    for k in sorted(CRITERIA):
        if only and k not in only:
            continue
        results.append(CRITERIA[k](seed=seed))
    return results
