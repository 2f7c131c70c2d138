"""Stepwise splits n = l1 + l2ps and their exact verification."""

import importlib
import json
from itertools import combinations
from pathlib import Path

import pytest

from nilharm import linalg, stepwise
from nilharm.algebra import LieAlgebraData
from nilharm.catalog import (abelian, direct_sum, free_two_step, from_name,
                             heisenberg, octonion_double)
from nilharm.gaussians import GaussianTestFunction
from nilharm.inversion import invert_stepwise
from nilharm.orbits import l1_complement_indices, pf_nonsingular
from nilharm.pfaffian import is_square_integrable
from nilharm.stepwise import (StepwiseDecomposition, case_number,
                              decompose, find_codim_split, verify)

pfaffian = importlib.import_module("nilharm.pfaffian")
REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "reference.json").read_text(encoding="utf-8"))


def test_case1_split_shape():
    dec = decompose("case1", n=3)
    alg = dec.algebra
    assert len(dec.l2_indices) == 1
    assert set(dec.l1_indices) | set(dec.l2_indices) == set(range(alg.dim))
    assert dec.l2_indices[0] == alg.complement_indices[-1]
    assert all(dec.verification.values())


def test_case1_larger_n():
    dec = decompose("case1", n=5)
    assert all(dec.verification.values())
    assert len(dec.l1_indices) == dec.algebra.dim - 1


def test_case6_split_drops_a_complex_pair():
    dec = decompose("case6", n=3)
    assert len(dec.l2_indices) == 2
    assert all(dec.verification.values())


def test_case3_split_is_codimension_one():
    dec = decompose("case3")
    assert dec.algebra.dim == 14
    assert len(dec.l2_indices) == 1
    assert all(dec.verification.values())
    with pytest.raises(ValueError):
        decompose("case3", n=5)


@pytest.mark.parametrize("case, n", [("case1", n) for n in (3, 5, 7, 9)]
                         + [("case6", 3), ("case6", 5), ("case3", None)])
def test_decompose_reads_the_split_search(case, n):
    dec = decompose(case, n=n)
    found = find_codim_split(dec.algebra)
    assert (dec.l1_indices, dec.l2_indices, dec.verification) == \
        (found.l1_indices, found.l2_indices, found.verification)
    assert all(dec.verification.values())


def test_case_number_reads_tags_with_or_without_the_prefix():
    assert [case_number(t) for t in ("case1", "1", "Case_6", "6", "CASE3",
                                     "3_")] == [1, 1, 6, 6, 3, 3]
    assert [case_number(t) for t in ("case2", "case", "", "casecase1",
                                     "octdouble", "13")] == [None] * 6


def test_decompose_input_validation():
    with pytest.raises(ValueError):
        decompose("case2")
    with pytest.raises(ValueError):
        decompose("case1", n=4)   # needs odd n
    with pytest.raises(ValueError):
        decompose("case1", n=1)


def test_verification_flags_meaning():
    # the flag is read on the parent algebra: l1 contains Z and Pf of
    # b_lambda on v1 = l1 ∩ v is a nonzero polynomial on z*
    dec = decompose("case1", n=3)
    alg, l1 = dec.algebra, set(dec.l1_indices)
    flags = dec.verification
    assert set(flags) == {"l1_is_ideal", "direct_sum",
                          "l2_abelian_subalgebra", "l1_square_integrable"}
    assert set(alg.center_indices) <= l1
    v1 = [i for i in alg.complement_indices if i in l1]
    assert is_square_integrable(alg, v_indices=v1)
    assert not is_square_integrable(alg)


def test_one_l1_pattern_per_split(monkeypatch):
    builds = []
    build = pfaffian._skew_pattern

    def counting(alg, v_indices):
        builds.append(tuple(v_indices))
        return build(alg, v_indices)

    monkeypatch.setattr(pfaffian, "_skew_pattern", counting)
    dec = decompose("case1", n=3)
    verify(dec)
    rep = invert_stepwise(dec, GaussianTestFunction.standard(6), [0.0] * 6)
    assert rep.entries[0]["rel_error"] < 1e-9
    v1 = tuple(i for i in dec.algebra.complement_indices
               if i in dec.l1_indices)
    assert builds == [v1]


def two_center_algebra():
    """z = (z1, z2), v = (u1, u2, u3): [u1, u2] = z1, [u1, u3] = z2."""
    return LieAlgebraData(5, ["z1", "z2", "u1", "u2", "u3"],
                          [(2, 3, 0, 1), (2, 4, 1, 1)],
                          center_indices=(0, 1), complement_indices=(2, 3, 4))


def test_l1_must_be_square_integrable_modulo_the_center_of_n():
    alg = two_center_algebra()
    # dropping u1 leaves an abelian ideal: its own center is all of l1,
    # and Pf on v1 = (u2, u3) vanishes on z*
    flags = verify(StepwiseDecomposition(alg, [0, 1, 3, 4], [2]))
    assert flags["l1_is_ideal"] and flags["l2_abelian_subalgebra"]
    assert not flags["l1_square_integrable"]
    dec = find_codim_split(alg)
    assert dec.l2_indices == (4,) and all(dec.verification.values())


def test_pf_nonsingular_reads_the_split_of_a_non_catalog_algebra():
    # the search drops u3, so Pf on v1 = (u1, u2) is t1
    alg = two_center_algebra()
    assert l1_complement_indices(alg) == [2, 3]
    assert pf_nonsingular(alg, [1, 0]) and pf_nonsingular(alg, [-2, 5])
    assert not pf_nonsingular(alg, [0, 1])


def test_pair_splits_of_free2step_3_leave_no_square_integrable_l1():
    alg = free_two_step(3, "R")
    u1, u2, u3 = alg.complement_indices
    for l2 in ((u2, u3), (u1, u3), (u1, u2)):
        l1 = [i for i in range(alg.dim) if i not in l2]
        flags = verify(StepwiseDecomposition(alg, l1, l2))
        assert flags["l1_is_ideal"] and not flags["l1_square_integrable"]


def test_l1_must_contain_the_center_of_n():
    # h(1;C) + R: l1 = h(1;C) is an ideal with Pf = t1 on v1, but it
    # leaves out the central R
    alg = direct_sum(heisenberg(1, "C"), abelian(1))
    z = alg.center_indices[-1]
    l1 = [i for i in range(alg.dim) if i != z]
    flags = verify(StepwiseDecomposition(alg, l1, [z]))
    assert flags["l1_is_ideal"] and flags["l2_abelian_subalgebra"]
    assert not flags["l1_square_integrable"]


def l1_center(alg, l1):
    """The center of l1 in l1's coordinates: the kernel of the ad rows
    of l1 on l1, read from the dense table."""
    table = alg.structure
    zero = (0,) * alg.dim
    rows = []
    for i in l1:
        cols = [table.get((i, j), zero) if i < j
                else [-c for c in table.get((j, i), zero)] for j in l1]
        rows.extend(list(enumerate(row)) for row in zip(*cols) if any(row))
    return linalg.kernel(rows, len(l1))


SPLIT_FAMILIES = ([f"free2step:{n}:{F}" for n in (3, 5, 7) for F in "RC"]
                  + ["octdouble", "table:2.1:1", "table:2.1:1:n=5",
                     "table:2.1:3", "table:2.1:6", "table:2.1:6:n=5"])


@pytest.mark.parametrize("name", SPLIT_FAMILIES)
def test_square_integrable_l1_has_center_z(monkeypatch, name):
    # every candidate the search tries; where the flag holds, a kernel
    # computed here (no code shared with verify) gives z(l1) = Z
    tried = []
    check = stepwise.verify

    def recording(dec):
        tried.append(dec)
        return check(dec)

    monkeypatch.setattr(stepwise, "verify", recording)
    alg = from_name(name)
    dec = find_codim_split(alg)
    assert dec is not None and tried[-1] is dec
    for cand in tried:
        if cand.verification["l1_square_integrable"]:
            l1 = cand.l1_indices
            units = [[int(a == l1.index(z)) for a in range(len(l1))]
                     for z in alg.center_indices]
            assert l1_center(alg, l1) == units, cand.l2_indices
    split = REFERENCE["algebras"].get(alg.name, {}).get("split")
    if split is not None:
        assert list(dec.l1_indices) == split["l1"]
        assert list(dec.l2_indices) == split["l2"]
        assert dec.verification == split["flags"]


def first_split_over_both_codimensions(alg):
    """The split search before it kept only even v1: every single drop,
    then every pair, trailing coordinates first within each."""
    comp = alg.complement_indices
    candidates = [(i,) for i in reversed(comp)]
    candidates.extend(reversed(list(combinations(comp, 2))))
    for dropped in candidates:
        dec = StepwiseDecomposition(
            alg, [i for i in range(alg.dim) if i not in dropped], dropped)
        try:
            flags = verify(dec)
        except ValueError:
            continue
        if all(flags.values()):
            return dec
    return None


@pytest.mark.parametrize("name", SPLIT_FAMILIES + ["two_center"])
def test_split_search_tries_even_v1_only_and_finds_the_same_split(
        monkeypatch, name):
    alg = two_center_algebra() if name == "two_center" else from_name(name)
    want = first_split_over_both_codimensions(alg)
    tried = []
    check = stepwise.verify

    def recording(dec):
        tried.append(dec)
        return check(dec)

    monkeypatch.setattr(stepwise, "verify", recording)
    got = stepwise._first_split(alg)
    assert (got.l1_indices, got.l2_indices, got.verification) == \
        (want.l1_indices, want.l2_indices, want.verification)
    assert all((len(alg.complement_indices) - len(dec.l2_indices)) % 2 == 0
               for dec in tried)


def test_case6_goes_straight_to_the_pair_it_returns(monkeypatch):
    tried = []
    check = stepwise.verify

    def recording(dec):
        tried.append(dec.l2_indices)
        return check(dec)

    monkeypatch.setattr(stepwise, "verify", recording)
    dec = decompose("case6", n=7)
    assert tried == [dec.l2_indices] and len(dec.l2_indices) == 2


def test_bad_split_fails_verification():
    alg = free_two_step(3, "R")
    # dropping a center coordinate cannot give an ideal complement
    z_last = alg.center_indices[-1]
    l1 = [k for k in range(alg.dim) if k != z_last]
    dec = StepwiseDecomposition(alg, l1, [z_last])
    flags = verify(dec)
    assert not flags["l1_is_ideal"]


def test_nonabelian_l2_flagged():
    alg = free_two_step(3, "R")
    u = list(alg.complement_indices)
    l2 = u[:2]   # [u1, u2] != 0
    l1 = [k for k in range(alg.dim) if k not in set(l2)]
    dec = StepwiseDecomposition(alg, l1, l2)
    flags = verify(dec)
    assert not flags["l2_abelian_subalgebra"]


def test_partition_validation():
    alg = free_two_step(3, "R")
    with pytest.raises(ValueError):
        StepwiseDecomposition(alg, [0, 1], [1, 2])
    with pytest.raises(ValueError):
        StepwiseDecomposition(alg, [0], list(range(1, alg.dim - 1)))


def test_find_codim_split_refuses_square_integrable():
    with pytest.raises(ValueError):
        find_codim_split(heisenberg(2, "C"))


def test_find_codim_split_families():
    for alg in (free_two_step(3, "R"), free_two_step(5, "R"),
                free_two_step(3, "C"), octonion_double()):
        dec = find_codim_split(alg)
        assert dec is not None
        assert all(dec.verification.values())
        assert len(dec.l2_indices) <= 2


def test_even_free_two_step_needs_no_split():
    # even n has a nonzero full Pfaffian, so the search refuses to run
    assert is_square_integrable(free_two_step(4, "R"))
    with pytest.raises(ValueError):
        find_codim_split(free_two_step(4, "R"))


def test_as_dict_round_trip_fields():
    dec = decompose("case6")
    doc = dec.as_dict()
    assert doc["l1_indices"] == list(dec.l1_indices)
    assert doc["l2_indices"] == list(dec.l2_indices)
    assert doc["verification"] == dec.verification
    assert doc["algebra"] == dec.algebra.name
