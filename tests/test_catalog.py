"""Families, table rows, naming, and the special functionals."""

from fractions import Fraction

import pytest

from nilharm import catalog, composition
from nilharm.algebra import LieAlgebraData, jacobi_defect, nilpotency_class
from nilharm.catalog import (CatalogError, abelian, direct_sum, free_two_step,
                             from_name, get_entry, heisenberg, lambda_a,
                             list_entries, octonion_double)
from octonion_oracle import conj, im, mul, unit


def test_heisenberg_dimensions():
    # dim = n*dim_F + dim_ImF
    assert heisenberg(1, "C").dim == 2 + 1
    assert heisenberg(3, "C").dim == 6 + 1
    assert heisenberg(1, "H").dim == 4 + 3
    assert heisenberg(2, "H").dim == 8 + 3
    assert heisenberg(1, "O").dim == 8 + 7
    assert len(heisenberg(2, "H").center_indices) == 3


def test_free_two_step_dimensions():
    # n + n(n-1)/2 over R, doubled wedge part over C
    alg = free_two_step(4, "R")
    assert alg.dim == 4 + 6
    assert len(alg.center_indices) == 6
    algc = free_two_step(3, "C")
    assert algc.dim == 6 + 6
    assert len(algc.center_indices) == 6


def free_two_step_by_hand(n, F):
    """Lambda^2 F^n + F^n with the R and C realifications written out:
    the oracle for the one loop over the octonion table."""
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    if F == "R":
        zdim, vdim = len(pairs), n
        labels = [f"u{p + 1}∧u{q + 1}" for p, q in pairs]
        labels += [f"u{p + 1}" for p in range(n)]
        entries = [(zdim + p, zdim + q, t, 1)
                   for t, (p, q) in enumerate(pairs)]
    else:
        zdim, vdim = 2 * len(pairs), 2 * n
        labels = []
        for p, q in pairs:
            labels += [f"u{p + 1}∧u{q + 1}", f"i(u{p + 1}∧u{q + 1})"]
        for p in range(n):
            labels += [f"u{p + 1}", f"iu{p + 1}"]
        entries = []
        for t, (p, q) in enumerate(pairs):
            pr, qr = zdim + 2 * p, zdim + 2 * q
            entries += [(pr, qr, 2 * t, 1),            # [u_p, u_q]
                        (pr, qr + 1, 2 * t + 1, 1),    # [u_p, iu_q]
                        (pr + 1, qr, 2 * t + 1, 1),    # [iu_p, u_q]
                        (pr + 1, qr + 1, 2 * t, -1)]   # [iu_p, iu_q]
    dim = zdim + vdim
    return LieAlgebraData(dim, labels, entries, range(zdim),
                          range(zdim, dim), name=f"free2step:{n}:{F}",
                          meta={"family": "free2step", "n": n, "F": F,
                                "wedge_pairs": tuple(pairs)})


@pytest.mark.parametrize("F", ["R", "C"])
@pytest.mark.parametrize("n", range(2, 8))
def test_free_two_step_matches_the_written_out_realification(n, F):
    got, want = free_two_step(n, F), free_two_step_by_hand(n, F)
    for attr in ("dim", "basis_labels", "center_indices",
                 "complement_indices", "name", "meta"):
        assert getattr(got, attr) == getattr(want, attr), attr
    # the rows, in insertion order too
    assert [list(row.items()) for row in got._rows] == \
        [list(row.items()) for row in want._rows]


def test_octonion_double_shape():
    alg = octonion_double()
    assert alg.dim == 14
    assert len(alg.center_indices) == 7
    assert jacobi_defect(alg) == 0
    assert nilpotency_class(alg) == 2


def test_heisenberg_bracket_is_imaginary_part():
    # [x, y] = Im(x conj(y)) forces [e0, e1] = -e1 component in C
    alg = heisenberg(1, "C")
    v0, v1 = alg.complement_indices
    vec = alg.structure[(v0, v1)]
    z = alg.center_indices[0]
    nonzero = [(k, c) for k, c in enumerate(vec) if c != 0]
    assert len(nonzero) == 1
    assert nonzero[0][0] == z
    assert abs(nonzero[0][1]) == 1


def test_from_name_matches_direct_constructors():
    pairs = [("heisenberg:2:C", heisenberg(2, "C")),
             ("heisenberg:1:H", heisenberg(1, "H")),
             ("heisenberg:1:O", heisenberg(1, "O")),
             ("free2step:3:R", free_two_step(3, "R")),
             ("free2step:3:C", free_two_step(3, "C")),
             ("octdouble", octonion_double()),
             ("abelian:5", abelian(5))]
    for name, direct in pairs:
        alg = from_name(name)
        assert alg.dim == direct.dim
        assert alg.structure == direct.structure
        assert alg.center_indices == direct.center_indices


def test_from_name_table_rows_with_params():
    alg = from_name("table:2.1:1:n=5")
    assert alg.dim == free_two_step(5, "R").dim
    alg = from_name("table:2.2:10")
    assert alg.dim == 2 * heisenberg(1, "H").dim


def test_from_name_errors_list_families():
    with pytest.raises(CatalogError) as err:
        from_name("mystery:3")
    assert "heisenberg:<n>:<C|H|O>" in str(err.value)
    with pytest.raises(CatalogError) as err:
        from_name("heisenberg:2:Q")
    assert "C, H, O" in str(err.value)
    with pytest.raises(CatalogError):
        from_name("free2step:2")


def test_table_entries_present():
    assert len(list_entries("2.1")) == 23
    assert len(list_entries("2.2")) == 25
    assert len(list_entries()) == 48
    entry = get_entry("2.1", 2)
    assert "Spin(7)" in entry.group_K
    with pytest.raises(CatalogError):
        get_entry("2.1", 99)


def test_constructible_rows_build_two_step_algebras():
    for entry in list_entries(constructible=True):
        alg = entry.build()
        assert jacobi_defect(alg) == 0
        assert nilpotency_class(alg) <= 2


def dense_table(dim, entries):
    """The dense table of a constructor's entries, built as the dense
    constructors did: dim-length Fraction rows, repeated components
    added, all-zero rows dropped."""
    table = {}
    for i, j, k, c in entries:
        table.setdefault((i, j), [Fraction(0)] * dim)[k] += Fraction(c)
    return {key: tuple(vec) for key, vec in table.items() if any(vec)}


def test_rows_derive_the_constructor_table_and_hold_ints(monkeypatch):
    made = []

    def recording(**kwargs):
        made.append(kwargs)
        return LieAlgebraData(**kwargs)

    monkeypatch.setattr(catalog, "LieAlgebraData", recording)
    for entry in list_entries(constructible=True):
        alg = entry.build()
        assert made[-1]["dim"] == alg.dim
        assert alg.structure == dense_table(alg.dim, made[-1]["entries"])
        assert all(type(c) is int
                   for row in alg.brackets().values() for _, c in row)


def test_lambda_a_free_real_layout():
    alg = free_two_step(5, "R")
    pairs = alg.meta["wedge_pairs"]
    coeffs = lambda_a(alg, [Fraction(2), Fraction(-3)])
    assert coeffs[pairs.index((0, 1))] == 2
    assert coeffs[pairs.index((2, 3))] == -3
    assert sum(1 for c in coeffs if c != 0) == 2
    with pytest.raises(CatalogError):
        lambda_a(alg, [1, 1, 1])
    # a complex coefficient is refused over R, a real one accepted
    with pytest.raises(CatalogError, match="over R takes real a_k"):
        lambda_a(alg, [(1, 2)])
    assert lambda_a(alg, [(2, 0), complex(-3, 0)]) == coeffs


def test_lambda_a_complex_split():
    alg = free_two_step(5, "C")
    coeffs = lambda_a(alg, [(Fraction(1), Fraction(2))])
    nz = [(t, c) for t, c in enumerate(coeffs) if c != 0]
    assert len(nz) == 2
    assert nz[0][1] == 1 and nz[1][1] == 2
    assert nz[1][0] == nz[0][0] + 1


def test_lambda_a_octonion_double_units():
    alg = octonion_double()
    coeffs = lambda_a(alg, [5, 7, 11])
    # supported at the duals of e3, e6, e2
    assert coeffs[2] == 5
    assert coeffs[5] == 7
    assert coeffs[1] == 11
    with pytest.raises(CatalogError):
        lambda_a(alg, [1, 2])


def test_lambda_a_rejects_unknown_family():
    with pytest.raises(CatalogError):
        lambda_a(heisenberg(1, "C"), [1])


def test_direct_sum_blocks():
    a = heisenberg(1, "C")
    b = abelian(2)
    s = direct_sum(a, b)
    assert s.dim == a.dim + b.dim
    assert len(s.center_indices) == len(a.center_indices) + 2
    assert jacobi_defect(s) == 0



# The catalog reads (sign, m) from composition.TABLE; these oracles build
# the same entries from products of coefficient-list elements.

def heisenberg_oracle_entries(n, F):
    d = {"C": 2, "H": 4, "O": 8}[F]
    units = [unit(d, k) for k in range(d)]
    entries = []
    for p in range(n):
        base = d - 1 + p * d
        for k in range(d):
            for l in range(k + 1, d):
                # [u_p e_k, u_p e_l] = Im(e_k * conj(e_l)) in the center
                prod = im(mul(units[k], conj(units[l])))
                entries.extend((base + k, base + l, m - 1, prod[m])
                               for m in range(1, d) if prod[m] != 0)
    return entries


def octdouble_oracle_entries():
    units = [unit(8, k) for k in range(8)]
    entries = []
    for i in range(1, 8):
        for j in range(i + 1, 8):
            # [(0, e_i), (0, e_j)] = (-Im(e_i e_j), 0)
            prod = mul(units[i], units[j])
            entries.extend((6 + i, 6 + j, m - 1, -prod[m])
                           for m in range(1, 8) if prod[m] != 0)
    return entries


ORACLE_NAMES = ([f"heisenberg:{n}:{F}" for F in "CH" for n in range(1, 5)]
                + ["heisenberg:1:O", "octdouble"])


def oracle_entries(name):
    if name == "octdouble":
        return octdouble_oracle_entries()
    _, n, F = name.split(":")
    return heisenberg_oracle_entries(int(n), F)


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_table_read_brackets_match_the_composition_products(name):
    alg = from_name(name)
    oracle = LieAlgebraData(alg.dim, alg.basis_labels, oracle_entries(name),
                            alg.center_indices, alg.complement_indices)
    assert alg.brackets() and alg.brackets() == oracle.brackets()


def test_from_name_reads_the_table_without_multiplying(monkeypatch):
    def refuse(*args):
        raise AssertionError("composition product called")

    monkeypatch.setattr(composition, "multiply", refuse)
    for name in ORACLE_NAMES:
        assert from_name(name).brackets()
