"""Stepwise splits n = l1 + l2ps and their exact verification."""

import pytest

from nilharm import stepwise
from nilharm.catalog import free_two_step, heisenberg, octonion_double
from nilharm.gaussians import GaussianTestFunction
from nilharm.inversion import invert_stepwise
from nilharm.pfaffian import is_square_integrable
from nilharm.stepwise import (StepwiseDecomposition, decompose,
                              find_codim_split, verify)


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


def test_decompose_input_validation():
    with pytest.raises(ValueError):
        decompose("case2")
    with pytest.raises(ValueError):
        decompose("case1", n=4)   # needs odd n
    with pytest.raises(ValueError):
        decompose("case1", n=1)


def test_verification_flags_meaning():
    dec = decompose("case1", n=3)
    flags = dec.verification
    assert set(flags) == {"l1_is_ideal", "direct_sum",
                          "l2_abelian_subalgebra", "l1_square_integrable"}
    sub = dec.l1_subalgebra()
    assert is_square_integrable(sub)


def test_l1_subalgebra_is_built_once_per_split(monkeypatch):
    calls = []
    build = stepwise.subalgebra

    def counting(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(stepwise, "subalgebra", counting)
    dec = decompose("case1", n=3)
    assert dec.l1_subalgebra() is dec.l1_subalgebra()
    verify(dec)
    rep = invert_stepwise(dec, GaussianTestFunction.standard(6), [0.0] * 6)
    assert rep.entries[0]["rel_error"] < 1e-9
    assert calls == [dec.l1_indices]
    assert dec.l1_subalgebra().name == "free2step:3:R.l1"


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
