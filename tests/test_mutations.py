"""Mutation rows: a numeric check counts only if it is not circular.

Each row names one fault and one check that must fail under it: return
passed False, or refuse the input with the row's ValueError or
RuntimeError message.  The fault is applied with monkeypatch and the
check runs in-process: an acceptance criterion, by its number in
selftest.CRITERIA, or a named check, a function of no arguments in the
tests that returns a result of the criteria's form.  A row that no
criterion catches today is a strict xfail naming ROADMAP item 3: the
flat and stepwise inversion checks cancel c and |Pf| (inversion module
docstring), so a wrong constant or Pfaffian passes them.  When a
character computed without c and Pf lands, those rows pass and their
markers go.

Criterion 10 is the byte-identity of two `selftest --json` outputs, a
check with no entry in selftest.CRITERIA: its row puts a clock reading
into criterion 1's detail and runs `cli.run` twice in-process.

An orbit with one invariant, the orbits of criterion 9 among them, has
its sigma from the exact trace of -b_lambda^2 in orbits._one_invariant,
and criterion 9 catches it doubled.  An orbit with two or more reads its
sigmas off the float spectrum of orbits._skew_eigenvalues; criterion 9
runs no such orbit, and the named check
orbit_oracle.sigmas_match_the_exact_trace catches them doubled.
Criterion 9 reads no kernel_dim; the named check
orbit_oracle.kernel_dims_match_the_exact_radical compares each
kernel_dim with the exact radical from darboux_basis, and catches the
orbit's kernel_dim off by one.  Case 6 pairs its sigmas by the exact
check orbits._complex_bilinear, which criterion 9 runs on no complex
algebra; the named check
orbit_oracle.case6_pairs_by_the_bilinearity_check catches it passing
every algebra (the copy that is not complex-bilinear passes) and J
without its sign (free2step:n:C fails).  The named check
pfaffian_oracle.pf_at_matches_the_expansion catches pf_at's blocks
multiplied without the sign of their permutation.
"""

import importlib
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from nilharm import (catalog, cli, composition, inversion, orbits, quadrature,
                     selftest)
from nilharm.algebra import LieAlgebraData
from orbit_oracle import (case6_pairs_by_the_bilinearity_check,
                          kernel_dims_match_the_exact_radical,
                          sigmas_match_the_exact_trace)
from pfaffian_oracle import pf_at_matches_the_expansion


def slice_at_minus_x(monkeypatch):
    core = inversion._character_core
    monkeypatch.setattr(inversion, "_character_core",
                        lambda alg, g, at=None: core(alg, g, -at))


def translation_bracket_sign_flipped(monkeypatch):
    # A_x = 1 + B/2 becomes 1 - B/2
    translation = inversion.translation_matrix
    monkeypatch.setattr(inversion, "translation_matrix",
                        lambda alg, x: 2 * np.eye(alg.dim)
                        - translation(alg, x))


def group_multiply_half_negated(monkeypatch):
    # X + Y + [X,Y]/2 becomes X + Y - [X,Y]/2, which is Y * X
    multiply = inversion.group_multiply
    monkeypatch.setattr(inversion, "group_multiply",
                        lambda alg, X, Y: multiply(alg, Y, X))


def hermite_weights_without_exp(monkeypatch):
    def gauss_hermite(n):
        if n not in quadrature._rule_cache:
            quadrature._rule_cache[n] = np.polynomial.hermite.hermgauss(n)
        return quadrature._rule_cache[n]

    # a fresh cache, so the correct rules cached so far are not read and
    # the wrong ones do not outlive the test
    monkeypatch.setattr(quadrature, "_rule_cache", {})
    monkeypatch.setattr(quadrature, "gauss_hermite", gauss_hermite)


def flat_constant_7(monkeypatch):
    monkeypatch.setattr(inversion, "flat_constant", lambda alg: 7)


def pf_polynomial_times_3(monkeypatch):
    pf = inversion.pf_polynomial
    monkeypatch.setattr(inversion, "pf_polynomial",
                        lambda alg, **kw: pf(alg, **kw) * 3)


def pfaffian_times_3(monkeypatch):
    pf = selftest.pfaffian
    monkeypatch.setattr(selftest, "pfaffian", lambda form: pf(form) * 3)


def pf_blocks_unsigned(monkeypatch):
    # pf_at multiplies its blocks' Pfaffians without the sign of the
    # permutation that lists the blocks in order
    module = importlib.import_module("nilharm.pfaffian")
    blocks = module._pf_blocks

    def unsigned(n, pattern):
        sign, *rest = blocks(n, pattern)
        return (abs(sign), *rest)

    monkeypatch.setattr(module, "_pf_blocks", unsigned)


def free2step_3_R_square_integrable(monkeypatch):
    decide = selftest.is_square_integrable
    monkeypatch.setattr(selftest, "is_square_integrable",
                        lambda alg, **kw: alg.name == "free2step:3:R"
                        or decide(alg, **kw))


def octdouble_lambda_a_off_the_split(monkeypatch):
    # a1 on (e3,0)* instead of (e7,0)*: the split drops (0, e7), whose
    # Pf is +-t7*|t|^2, zero on the whole (e3, e6, e2)* family
    monkeypatch.setattr(catalog, "OCTDOUBLE_LAMBDA_SUPPORT", (2, 5, 1))


def heisenberg_edited(monkeypatch, n, F, edit):
    """selftest builds heisenberg:n:F from edit(its bracket entries)."""
    heisenberg = selftest.heisenberg

    def edited(m, G):
        alg = heisenberg(m, G)
        if (m, G) != (n, F):
            return alg
        entries = [(i, j, k, c) for (i, j), pairs in alg.brackets().items()
                   for k, c in pairs]
        return LieAlgebraData(alg.dim, alg.basis_labels, edit(entries),
                              alg.center_indices, alg.complement_indices,
                              name=alg.name, meta=alg.meta)

    monkeypatch.setattr(selftest, "heisenberg", edited)


def h1H_first_constant_negated(monkeypatch):
    # the Pf of h(1;H) becomes -t1^2 + t2^2 + t3^2, which is not radial
    def negate_first(entries):
        i, j, k, c = entries[0]
        return [(i, j, k, -c)] + entries[1:]

    heisenberg_edited(monkeypatch, 1, "H", negate_first)


# heisenberg:2:C has the basis z1, u1e0, u1e1, u2e0, u2e1

def h2C_three_step(monkeypatch):
    # [u1e0, u2e0] += u2e1: C^3 = span(z1)
    heisenberg_edited(monkeypatch, 2, "C", lambda e: e + [(1, 3, 4, 1)])


def h2C_not_nilpotent(monkeypatch):
    # [z1, u1e0] += u1e1: C^2 = C^3 = span(z1, u1e1)
    heisenberg_edited(monkeypatch, 2, "C", lambda e: e + [(0, 1, 2, 1)])


def octonion_sign_1_2_flipped(monkeypatch):
    # e1 e2 = -e3 in the table that every product reads
    table = [list(r) for r in composition.TABLE]
    sign, k = table[1][2]
    table[1][2] = (-sign, k)
    monkeypatch.setattr(composition, "TABLE",
                        tuple(tuple(r) for r in table))


def radial_jacobian_2_pi_r2(monkeypatch):
    # the radial factor 4 pi r^2 of the orbit-space check becomes 2 pi r^2
    monkeypatch.setattr(inversion, "math", SimpleNamespace(pi=math.pi / 2))


def one_invariant_sigma_doubled(monkeypatch):
    # the sigma of an orbit with one invariant doubled, the kernel dim
    # kept
    one_invariant = orbits._one_invariant

    def doubled(*args):
        sigmas = one_invariant(*args)
        return None if sigmas is None else [2 * s for s in sigmas]

    monkeypatch.setattr(orbits, "_one_invariant", doubled)


def skew_spectrum_doubled(monkeypatch):
    # every eigenvalue of i b_lambda doubled: the sigmas of an orbit
    # with two or more invariants doubled, the kernel dim kept
    eigenvalues = orbits._skew_eigenvalues

    def doubled(M):
        return [2 * e for e in eigenvalues(M)]

    monkeypatch.setattr(orbits, "_skew_eigenvalues", doubled)


def skew_spectrum_kernel_plus_1(monkeypatch):
    # one more kernel direction than the exact rank leaves
    rep = orbits.OrbitRepresentative
    monkeypatch.setattr(orbits, "OrbitRepresentative",
                        lambda tag, a, kernel_dim: rep(tag, a, kernel_dim + 1))


def bilinearity_check_always_true(monkeypatch):
    monkeypatch.setattr(orbits, "_complex_bilinear", lambda alg: True)


def complex_structure_unsigned(monkeypatch):
    # J e_im = e_re instead of -e_re: a reflection, not a complex
    # structure
    structure = orbits._complex_structure
    monkeypatch.setattr(orbits, "_complex_structure", lambda v: {
        a: (b, 1) for a, (b, _) in structure(v).items()})


def row(mutation, check, marks=(), raises=None):
    """check: a criterion's number or a named check.  raises: the
    message of the ValueError or RuntimeError by which the check
    refuses the mutation, if it does not return a fail."""
    name = getattr(check, "__name__", check)
    return pytest.param(mutation, check, raises, marks=marks,
                        id=f"{mutation.__name__}-{name}")


ITEM_3 = pytest.mark.xfail(strict=True, reason="item 3",
                           raises=AssertionError)

ROWS = [
    row(octonion_sign_1_2_flipped, 1),
    row(h2C_three_step, 2),
    row(h2C_not_nilpotent, 2),
    row(pfaffian_times_3, 3),
    row(octdouble_lambda_a_off_the_split, 3),
    row(free2step_3_R_square_integrable, 4),
    row(pfaffian_times_3, 5),
    row(slice_at_minus_x, 6),
    row(slice_at_minus_x, 8),
    row(translation_bracket_sign_flipped, 7),
    row(group_multiply_half_negated, 7,
        raises="factorization failed to recompose"),
    row(hermite_weights_without_exp, 6),
    row(hermite_weights_without_exp, 7),
    row(h1H_first_constant_negated, 9,
        raises="integrand is not rotation-invariant; refusing"),
    row(radial_jacobian_2_pi_r2, 9),
    row(one_invariant_sigma_doubled, 9),
    row(skew_spectrum_doubled, sigmas_match_the_exact_trace),
    row(skew_spectrum_kernel_plus_1, kernel_dims_match_the_exact_radical),
    row(bilinearity_check_always_true, case6_pairs_by_the_bilinearity_check),
    row(complex_structure_unsigned, case6_pairs_by_the_bilinearity_check),
    row(pf_blocks_unsigned, pf_at_matches_the_expansion),
] + [row(mutation, criterion, ITEM_3)
     for mutation in (flat_constant_7, pf_polynomial_times_3)
     for criterion in (6, 7, 8)]


@pytest.mark.parametrize("mutation, check, raises", ROWS)
def test_mutation_fails_its_criterion(monkeypatch, mutation, check, raises):
    mutation(monkeypatch)
    if isinstance(check, int):
        check = selftest.CRITERIA[check]
    if raises:
        with pytest.raises((ValueError, RuntimeError), match=raises):
            check()
        return
    result = check()
    assert not result["passed"], result["detail"]


def test_criterion_1_names_the_products_the_flip_breaks(monkeypatch):
    octonion_sign_1_2_flipped(monkeypatch)
    assert selftest.CRITERIA[1]()["detail"] == (
        "e1e2 != e3; e1e2 != -e2e1; e2e1 != -e1e2")


def test_a_clock_reading_in_a_detail_fails_criterion_10(monkeypatch):
    argv = ["selftest", "--only", "1", "--json"]
    assert cli.run(argv).human_text == cli.run(argv).human_text
    criterion_1 = selftest.CRITERIA[1]
    monkeypatch.setitem(selftest.CRITERIA, 1, lambda seed=0: dict(
        criterion_1(seed), detail=f"{time.perf_counter_ns()} ns"))
    assert cli.run(argv).human_text != cli.run(argv).human_text
