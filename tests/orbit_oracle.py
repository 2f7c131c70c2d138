"""Named checks of the orbit layer, in selftest's result form: the
kernel dimension orbit_representative reports against the exact radical
of b_lambda, so a float rank decision that drifts from the exact one
fails it; the sigmas of an orbit with two or more invariants, read off
the float spectrum, against the exact trace of -b_lambda^2, so a
spectrum scaled or shifted fails it; and case 6's exact pairing rule,
the complex-bilinearity check, against the algebras it must pass and
fail and against the float spectrum it pairs.  The tests run them, and
so do mutation rows."""

import random
from fractions import Fraction

import numpy as np

from nilharm import orbits
from nilharm.algebra import LieAlgebraData
from nilharm.catalog import (free_two_step, from_name, lambda_a,
                             octonion_double)
from nilharm.orbits import darboux_basis, orbit_representative
from nilharm.pfaffian import LinearFunctional, b_matrix

# the real radical dimensions per kernel direction of the orbit: one on
# cases 1 and 3, two on case 6, whose kernel is complex
KERNEL_UNIT = {"case1": 1, "case6": 2, "case3": 1}
# the times each sigma appears in the real spectrum of i b_lambda
SIGMA_GROUP = {"case1": 1, "case6": 2, "case3": 3}


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


def sigmas_match_the_exact_trace(seed=71, draws=4):
    """At `draws` seeded rational lambda on each of free2step:5:R, 5:C
    and 7:R, whose orbits have two or three invariants, sum_j 2 g
    sigma_j^2 equals tr(-b_lambda^2), the exact sum of the squares of
    b_matrix's entries, to 1e-12 relative; g is the case's group.  A
    lambda whose orbit has fewer than two invariants is a failure, as
    the check would not read the float spectrum there."""
    rng = random.Random(seed)
    failures, counts = [], []
    for alg in (free_two_step(5, "R"), free_two_step(5, "C"),
                free_two_step(7, "R")):
        for _ in range(draws):
            lam = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                   for _ in alg.center_indices]
            rep = orbit_representative(alg, lam)
            counts.append(len(rep.invariants))
            want = sum(x * x for row in b_matrix(
                alg, LinearFunctional(alg, lam)).matrix for x in row)
            got = sum(2 * SIGMA_GROUP[rep.case_tag] * s * s
                      for s in rep.invariants)
            if len(rep.invariants) < 2 or abs(got - want) > 1e-12 * want:
                failures.append(f"{alg.name} at {[str(c) for c in lam]}: "
                                f"sigmas {rep.invariants}, sum {got}, "
                                f"tr(-b^2) {float(want)}")
    return {"passed": not failures,
            "detail": "; ".join(failures)
            or f"invariants per orbit {sorted(set(counts))}"}


def edited_copy(alg, doubled):
    """A copy of alg with the brackets [e_i, e_j], (i, j) in doubled,
    doubled, and the meta keys family and F."""
    entries = [(i, j, k, 2 * c if (i, j) in doubled else c)
               for (i, j), row in alg.brackets().items() for k, c in row]
    return LieAlgebraData(alg.dim, alg.basis_labels, entries,
                          center_indices=alg.center_indices,
                          complement_indices=alg.complement_indices,
                          meta={k: alg.meta[k] for k in ("family", "F")
                                if k in alg.meta})


def not_complex_bilinear():
    """free2step:3:C with only [u1, u2] and [iu1, u2] doubled, not [u1,
    iu2] and [iu1, iu2]: the real spectrum at (u1 ^ u2)* is [1, 2],
    which pairs no sigma."""
    alg = from_name("free2step:3:C")
    u1, u2 = alg.complement_indices[0:4:2]
    return edited_copy(alg, {(u1, u2), (u1 + 1, u2)})


def case6_pairs_by_the_bilinearity_check(seed=72, draws=4):
    """free2step:n:C for n <= 7 passes orbits._complex_bilinear and
    not_complex_bilinear() fails it; on each algebra that passes, at
    `draws` seeded rational lambda, an orbit with two or more
    invariants (its exact rank from darboux_basis) has an eigvalsh
    spectrum of i b_lambda whose positive values pair within 1e-9 of
    the largest: the float bound the exact check replaces."""
    rng = random.Random(seed)
    failures, paired = [], 0
    for alg, want in ([(free_two_step(n, "C"), True) for n in range(2, 8)]
                      + [(not_complex_bilinear(), False)]):
        name = alg.name or "the not complex-bilinear copy"
        if orbits._complex_bilinear(alg) != want:
            failures.append(f"{name}: the check gives {not want}")
        if not orbits._complex_bilinear(alg):
            continue
        for _ in range(draws):
            lam = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                   for _ in alg.center_indices]
            M = b_matrix(alg, LinearFunctional(alg, lam)).matrix
            n, rank = len(M), len(M) - darboux_basis(M).radical_dim
            if rank < 8:        # fewer than two invariants, of rank 4 each
                continue
            positive = np.linalg.eigvalsh(1j * np.array(M, dtype=float))[
                n - rank // 2:]
            paired += 1
            if max(positive[1::2] - positive[::2]) > 1e-9 * positive[-1]:
                failures.append(f"{name} at {[str(c) for c in lam]}: "
                                f"spectrum {positive.tolist()} unpaired")
    return {"passed": not failures,
            "detail": "; ".join(failures)
            or f"{paired} orbits with two or more invariants pair"}
