"""The Pfaffian by cofactor expansion, the oracle of the pivot-pair
elimination that pf_at, pfaffian() and darboux_basis read, and a named
check in selftest's result form that compares pf_at with it on forms
whose blocks interleave, so a permutation sign lost between the blocks
fails it.  The tests run it, and so does a mutation row."""

import random
from fractions import Fraction

from nilharm.algebra import LieAlgebraData
from nilharm.catalog import from_name
from nilharm.orbits import l1_complement_indices
from nilharm.pfaffian import LinearFunctional, b_matrix, pf_at


def expansion_pfaffian(matrix, zero=0, one=1):
    """Pf of a skew matrix of numbers by expansion along its first index.

    Pf(i0, rest) = sum over t of (-1)^t m[i0][rest[t]] Pf(rest minus
    rest[t]), memoized on index tuples; only the strict upper triangle
    is read and zero entries are skipped.  zero and one are the ring's
    identities: each sum starts from zero, and the empty tuple's
    Pfaffian is one.  Odd size gives zero.  Up to 2^n index tuples on a
    dense n x n, so n <= 20 or a sparse form.
    """
    if len(matrix) % 2:
        return zero
    memo = {(): one}

    def pf(indices):
        if indices in memo:
            return memo[indices]
        row = matrix[indices[0]]
        rest = indices[1:]
        total = zero
        for t, j in enumerate(rest):
            entry = row[j]
            if not entry:
                continue
            term = entry * pf(rest[:t] + rest[t + 1:])
            total = total + term if t % 2 == 0 else total - term
        memo[indices] = total
        return total

    total = pf(tuple(range(len(matrix))))
    del pf      # pf refers to itself: free memo and matrix now, not at gc
    return total


def interleaved_blocks():
    """A 2-step algebra on x1..x6, z1, z2 whose skew pattern splits into
    the blocks {x1, x3}, {x2, x4, x5, x6}: listing them in that order
    is an odd permutation, so Pf carries its sign.  [x1, x3] = z1,
    [x2, x5] = z2, [x2, x6] = z1 + z2, [x4, x5] = 2 z1, [x4, x6] = z2."""
    entries = [(0, 2, 6, 1), (1, 4, 7, 1), (1, 5, 6, 1), (1, 5, 7, 1),
               (3, 4, 6, 2), (3, 5, 7, 1)]
    return LieAlgebraData(8, ["x1", "x2", "x3", "x4", "x5", "x6", "z1", "z2"],
                          entries, center_indices=(6, 7),
                          complement_indices=tuple(range(6)))


def pf_at_matches_the_expansion(seed=71, draws=3):
    """At seeded rational lambda, pf_at equals the expansion of b_lambda
    on the interleaved algebra, heisenberg:2:H, octdouble's l1 split and
    free2step:5:C's; the detail counts the nonzero values compared."""
    rng = random.Random(seed)
    failures, nonzero = [], 0
    for alg in (interleaved_blocks(), from_name("heisenberg:2:H"),
                from_name("octdouble"), from_name("free2step:5:C")):
        v = l1_complement_indices(alg)
        for _ in range(draws):
            lam = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in alg.center_indices]
            want = expansion_pfaffian(b_matrix(
                alg, LinearFunctional(alg, lam), v_indices=v).matrix,
                Fraction(0), Fraction(1))
            got = pf_at(alg, lam, v_indices=v)
            nonzero += want != 0
            if got != want:
                failures.append(f"{alg.name or 'interleaved'} at "
                                f"{[str(c) for c in lam]}: {got} != {want}")
    return {"passed": not failures,
            "detail": "; ".join(failures) or f"{nonzero} nonzero values"}
