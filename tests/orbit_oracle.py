"""A named check of the orbit layer, in selftest's result form: the
kernel dimension orbit_representative reports against the exact radical
of b_lambda, so a float rank decision that drifts from the exact one
fails it.  The tests run it, and so does a mutation row."""

import random
from fractions import Fraction

from nilharm.catalog import free_two_step, lambda_a, octonion_double
from nilharm.orbits import darboux_basis, orbit_representative
from nilharm.pfaffian import LinearFunctional, b_matrix

# the real radical dimensions per kernel direction of the orbit: one on
# cases 1 and 3, two on case 6, whose kernel is complex
KERNEL_UNIT = {"case1": 1, "case6": 2, "case3": 1}


def radical_algebras():
    """free2step:n:R and free2step:n:C for n <= 7, and octdouble."""
    return ([free_two_step(n, F) for n in range(2, 8) for F in "RC"]
            + [octonion_double()])


def near_radical_functionals():
    """lambda_a(1, 10^-k) on free2step:5:R and lambda_a((1, 0), (10^-k,
    0)) on free2step:5:C for k = 9..14: each has the radical of a
    generic lambda, but a sigma from 1e-9 down to under a float floor
    relative to the largest entry, yet above the resolution n * 2.2e-16
    of the float spectrum."""
    real, cplx = free_two_step(5, "R"), free_two_step(5, "C")
    for k in range(9, 15):
        small = Fraction(1, 10 ** k)
        yield real, lambda_a(real, [1, small])
        yield cplx, lambda_a(cplx, [(1, 0), (small, 0)])


def kernel_dims_match_the_exact_radical(seed=70, draws=4):
    """At seeded rational lambda, the k-th draw of `draws` with each
    coefficient nonzero at chance k / draws so that the radicals vary,
    and at the near_radical_functionals, kernel_dim times its case's
    unit equals darboux_basis's radical dimension of b_lambda on the
    full v."""
    rng = random.Random(seed)
    failures, seen = [], set()
    seeded = [(alg, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     if rng.random() < k / draws else Fraction(0)
                     for _ in alg.center_indices])
              for alg in radical_algebras() for k in range(1, draws + 1)]
    for alg, lam in seeded + list(near_radical_functionals()):
        if not any(lam):
            continue
        rep = orbit_representative(alg, lam)
        radical = darboux_basis(
            b_matrix(alg, LinearFunctional(alg, lam)).matrix).radical_dim
        seen.add(radical)
        if rep.kernel_dim * KERNEL_UNIT[rep.case_tag] != radical:
            failures.append(f"{alg.name} at {[str(c) for c in lam]}: "
                            f"kernel {rep.kernel_dim}, radical {radical}")
    return {"passed": not failures,
            "detail": "; ".join(failures) or f"radicals {sorted(seen)}"}
