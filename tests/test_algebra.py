"""Structure constants, brackets, and the z + v bookkeeping."""

import importlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilharm import linalg
from nilharm.algebra import (LieAlgebraData, bracket, center,
                             derived_inside_center, derived_subalgebra,
                             jacobi_defect, nilpotency_class)
from nilharm.catalog import abelian, free_two_step, from_name, heisenberg, \
    list_entries, octonion_double
from nilharm.inversion import group_multiply


def rand_vec(rng, n):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(n)]


def bracket_basis(alg, i, j):
    """[b_i, b_j] as a coefficient vector, read off the dense table."""
    if i > j:
        return [-c for c in bracket_basis(alg, j, i)]
    return list(alg.structure.get((i, j), [0] * alg.dim))


def to_json(alg):
    """JSON-ready dict: the bracket entries, rationals as "p/q"."""
    doc = {
        "dim": alg.dim,
        "labels": list(alg.basis_labels),
        "center": list(alg.center_indices),
        "complement": list(alg.complement_indices),
        "entries": [[i, j, k, str(Fraction(c))]
                    for (i, j), row in alg.brackets().items() for k, c in row],
    }
    if alg.name:
        doc["name"] = alg.name
    if alg.meta:
        doc["meta"] = alg.meta
    return doc


def from_json(doc):
    return LieAlgebraData(
        dim=doc["dim"],
        basis_labels=doc["labels"],
        entries=[(i, j, k, Fraction(c)) for i, j, k, c in doc["entries"]],
        center_indices=doc["center"],
        complement_indices=doc["complement"],
        name=doc.get("name", ""),
        meta=doc.get("meta"),
    )


def test_bracket_is_bilinear_and_antisymmetric():
    alg = heisenberg(2, "C")
    rng = random.Random(5)
    for _ in range(20):
        x, y, z = (rand_vec(rng, alg.dim) for _ in range(3))
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = bracket(alg, [a * xi + yi for xi, yi in zip(x, y)], z)
        rhs = [a * u + v for u, v in
               zip(bracket(alg, x, z), bracket(alg, y, z))]
        assert lhs == rhs
        assert bracket(alg, x, y) == [-c for c in bracket(alg, y, x)]
        assert bracket(alg, x, x) == [Fraction(0)] * alg.dim


def test_jacobi_holds_for_every_catalog_family():
    for alg in (heisenberg(1, "C"), heisenberg(2, "H"), heisenberg(1, "O"),
                free_two_step(3, "R"), free_two_step(3, "C"),
                octonion_double(), abelian(4)):
        assert jacobi_defect(alg) == 0


def test_jacobi_defect_detects_a_broken_table():
    # [x,y] = z and [x,z] = x: cyclic sum at (x,y,z) leaves -z over
    entries = [(0, 1, 2, 1), (0, 2, 0, 1)]
    alg = LieAlgebraData(3, ["x", "y", "z"], entries,
                         center_indices=(), complement_indices=(0, 1, 2))
    assert jacobi_defect(alg) == 1


def jacobi_defect_all_triples(alg):
    """The defect over every basis triple, from the dense bracket: the
    oracle of the visit of triples through a nonzero bracket only."""
    def e(m):
        return [int(t == m) for t in range(alg.dim)]
    worst = 0
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            for k in range(j + 1, alg.dim):
                terms = [bracket(alg, bracket(alg, e(p), e(q)), e(r))
                         for p, q, r in ((i, j, k), (j, k, i), (k, i, j))]
                worst = max([worst, *(abs(sum(c)) for c in zip(*terms))])
    return worst


def table(n, entries):
    return LieAlgebraData(n, [f"b{t}" for t in range(n)], entries,
                          center_indices=(), complement_indices=range(n))


def random_tables():
    """Sparse random integer tables on six vectors, most of them
    neither Lie nor nilpotent: ten with one component per bracket and
    ten with up to three."""
    tables = []
    for seed in range(20):
        rng = random.Random(seed)
        n = 6
        tables.append(table(n, [(i, j, rng.randrange(n),
                                 rng.choice((-2, -1, 1, 2)))
                                for i in range(n) for j in range(i + 1, n)
                                if rng.random() < 0.3
                                for _ in range(1 if seed < 10 else 3)]))
    return tables


def filiform(steps, seed, closed=False):
    """A seeded filiform table of class steps on b0..b_steps:
    [b0, b_i] = c_i b_(i+1), plus random [b_i, b_j] into b_k with
    k >= i + j, which keeps b_k in the k-th term of the series.  closed
    adds [b0, b_steps] = b1, after which the series stalls.  The table
    is returned in a seeded unimodular basis, so that its brackets and
    the terms of its series are not coordinate."""
    rng = random.Random(seed)
    nonzero = (-3, -2, -1, 1, 2, 3)
    entries = [(0, i, i + 1, rng.choice(nonzero)) for i in range(1, steps)]
    entries += [(i, j, k, rng.choice(nonzero))
                for i in range(1, steps) for j in range(i + 1, steps)
                for k in range(i + j, steps + 1) if rng.random() < 0.5]
    if closed:
        entries.append((0, steps, 1, 1))
    n = steps + 1
    alg = table(n, entries)
    # new basis vector q is column q of P: unit upper triangular, and
    # sparse, so that the brackets stay sparse too
    P = [[int(i == j) if i >= j else rng.choice((-1, 0, 0, 1))
          for j in range(n)] for i in range(n)]
    cols = [[P[i][q] for i in range(n)] for q in range(n)]
    changed = []
    for p in range(n):
        for q in range(p + 1, n):
            v = bracket(alg, cols[p], cols[q])
            y = [0] * n          # P y = v, by back substitution
            for i in reversed(range(n)):
                y[i] = v[i] - sum(P[i][j] * y[j] for j in range(i + 1, n))
            changed += [(p, q, k, c) for k, c in enumerate(y) if c]
    return table(n, changed)


SEEDED_TABLES = random_tables() + [
    filiform(steps, seed, closed)
    for steps in (3, 4) for seed in range(3) for closed in (False, True)]


def test_jacobi_defect_matches_the_all_triples_loop():
    broken = LieAlgebraData(3, ["x", "y", "z"], [(0, 1, 2, 1), (0, 2, 0, 1)],
                            center_indices=(), complement_indices=(0, 1, 2))
    # the defect is a maximum, so a triple left out shows on some
    # tables only: the seeded sparse tables
    for alg in [broken] + SEEDED_TABLES:
        assert jacobi_defect(alg) == jacobi_defect_all_triples(alg)


def test_nilpotency_class_refuses_a_non_nilpotent_table():
    # the table above: C^2 = C^3 = span(x, z), so the series stalls
    entries = [(0, 1, 2, 1), (0, 2, 0, 1)]
    alg = LieAlgebraData(3, ["x", "y", "z"], entries,
                         center_indices=(), complement_indices=(0, 1, 2))
    with pytest.raises(ValueError, match="not nilpotent"):
        nilpotency_class(alg)


def test_two_step_and_derived_inside_center():
    alg = free_two_step(4, "R")
    assert nilpotency_class(alg) == 2
    zset = set(alg.center_indices)
    for row in derived_subalgebra(alg):
        assert all(row[k] == 0 for k in range(alg.dim) if k not in zset)


def test_center_matches_declared_indices():
    alg = heisenberg(2, "C")
    rows = center(alg)
    assert len(rows) == len(alg.center_indices)
    zset = set(alg.center_indices)
    for row in rows:
        assert all(row[k] == 0 for k in range(alg.dim) if k not in zset)


def test_abelian_center_is_everything():
    alg = abelian(3)
    assert nilpotency_class(alg) == 1
    assert len(center(alg)) == 3
    assert derived_subalgebra(alg) == []


def ad_matrix(alg, i):
    """Matrix of ad(b_i) acting on coefficient columns."""
    mat = [[0] * alg.dim for _ in range(alg.dim)]
    for j in range(alg.dim):
        for k, c in alg.bracket_row(i, j):
            mat[k][j] = c
    return mat


def test_ad_matrix_columns_are_brackets():
    alg = heisenberg(1, "H")
    for i in range(alg.dim):
        M = ad_matrix(alg, i)
        for j in range(alg.dim):
            col = [M[r][j] for r in range(alg.dim)]
            assert col == bracket_basis(alg, i, j)


def center_dense(alg):
    """The center as the kernel of the stacked dense ad matrices: the
    oracle of the equations read from the nonzero brackets only."""
    stacked = [list(enumerate(row)) for i in range(alg.dim)
               for row in ad_matrix(alg, i) if any(row)]
    return linalg.kernel(stacked, alg.dim)


def nilpotency_class_dense(alg):
    """The lower central series bracketing every basis vector with every
    spanning row: the oracle of the visit of nonzero brackets only."""
    current = [[int(t == i) for t in range(alg.dim)] for i in range(alg.dim)]
    step = 0
    while current:
        rows = [bracket(alg, [int(t == i) for t in range(alg.dim)], v)
                for v in current for i in range(alg.dim)]
        nxt = linalg.rref([list(enumerate(row)) for row in rows],
                          alg.dim)[0]
        if nxt and len(nxt) == len(current):
            raise ValueError("algebra is not nilpotent")
        current, step = nxt, step + 1
    return step


def class_or_refusal(nilpotency, alg):
    try:
        return nilpotency(alg)
    except ValueError as exc:
        return str(exc)


CATALOG_ROWS = [entry.build() for entry in list_entries(constructible=True)]


def test_center_and_class_match_the_dense_oracles():
    classes = []
    for alg in CATALOG_ROWS + SEEDED_TABLES:
        assert center(alg) == center_dense(alg), alg
        got = class_or_refusal(nilpotency_class, alg)
        assert got == class_or_refusal(nilpotency_class_dense, alg), alg
        classes.append(got)
    # every kind of table took part: catalog rows of class 2, filiform
    # tables of class 3 and 4, and stalled series
    assert {2, 3, 4, "algebra is not nilpotent"} <= set(classes)


def test_derived_inside_center_matches_the_derived_rows():
    # the support of the bracket rows against the reduced-echelon rows
    # of [n, n]; the seeded tables declare an empty center
    results = []
    for alg in CATALOG_ROWS + SEEDED_TABLES + [abelian(3)]:
        zset = set(alg.center_indices)
        want = all(row[k] == 0 for row in derived_subalgebra(alg)
                   for k in range(alg.dim) if k not in zset)
        assert derived_inside_center(alg) == want, alg
        results.append(want)
    assert {True, False} <= set(results)


def test_elimination_reads_each_nonzero_structure_constant(monkeypatch):
    # a count of the pairs linalg eliminates, not a timing: C^2 reads
    # every nonzero bracket row once and caches its echelon, [n, n]
    # reads only that echelon's pivot rows, and the center's equations
    # read each constant twice, as [b_i, b_j] and as [b_j, b_i]; a
    # dense row would add its zeros
    seen = []
    original = linalg.echelon

    def recording(rows):
        rows = [list(row) for row in rows]
        seen.extend(c for row in rows for _, c in row)
        return original(rows)

    monkeypatch.setattr(linalg, "echelon", recording)
    for entry in list_entries(constructible=True):
        alg = entry.build()
        del seen[:]
        derived = derived_subalgebra(alg)
        center(alg)
        nilpotency_class(alg)
        nnz = sum(len(row) for row in alg.brackets().values())
        pivots = sum(1 for row in derived for x in row if x)
        assert len(seen) == 3 * nnz + pivots, alg
        assert 0 not in seen, alg


def test_the_bracket_rows_are_eliminated_once_per_algebra(monkeypatch):
    # nilpotency_class reads C^2 from the echelon that derived_subalgebra
    # hands to rref, in either order and however often they are called
    calls = []
    original = linalg.echelon

    def recording(rows):
        rows = [tuple(row) for row in rows]
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(linalg, "echelon", recording)
    for alg in (heisenberg(2, "H"), free_two_step(4, "C"),
                three_step_algebra()):
        for order in ((nilpotency_class, derived_subalgebra),
                      (derived_subalgebra, nilpotency_class)):
            fresh = from_json(to_json(alg))     # no cached invariant
            raw = list(fresh.brackets().values())
            del calls[:]
            for _ in range(3):
                for query in order:
                    query(fresh)
            assert sum(rows == raw for rows in calls) == 1, (alg, order)


def test_integral_coefficients_are_ints_and_rational_ones_fractions():
    # [a, b] = c/2 + (3/3) d, with a component that cancels
    alg = LieAlgebraData(4, ["a", "b", "c", "d"],
                         [(0, 1, 2, Fraction(1, 2)), (0, 1, 3, Fraction(3, 3)),
                          (0, 1, 1, 1), (0, 1, 1, -1)],
                         center_indices=(2, 3), complement_indices=(0, 1))
    assert alg.bracket_row(0, 1) == ((2, Fraction(1, 2)), (3, 1))
    assert [type(c) for _, c in alg.bracket_row(1, 0)] == [Fraction, int]
    assert alg.structure == {(0, 1): (0, 0, Fraction(1, 2), 1)}
    assert derived_subalgebra(alg) == [[0, 0, 1, 2]]


def test_structure_is_read_only():
    alg = heisenberg(1, "C")
    with pytest.raises(TypeError):
        alg.structure[(0, 1)] = (1, 0, 0)
    with pytest.raises(AttributeError):
        alg.structure = {}


def test_structure_key_validation():
    with pytest.raises(ValueError):
        LieAlgebraData(2, ["a", "b"], [(1, 0, 0, 1)],
                       center_indices=(1,), complement_indices=(0,))
    with pytest.raises(ValueError):
        LieAlgebraData(2, ["a", "b"], [],
                       center_indices=(0,), complement_indices=(0, 1))
    with pytest.raises(ValueError):
        LieAlgebraData(2, ["a", "b"], [(0, 1, 2, 1)],
                       center_indices=(1,), complement_indices=(0,))


def test_json_round_trip():
    alg = heisenberg(2, "C")
    doc = json.loads(json.dumps(to_json(alg)))
    back = from_json(doc)
    assert back.dim == alg.dim
    assert back.structure == alg.structure
    assert back.brackets() == alg.brackets()
    assert back.center_indices == alg.center_indices
    assert back.meta == alg.meta
    rng = random.Random(1)
    x, y = rand_vec(rng, alg.dim), rand_vec(rng, alg.dim)
    assert bracket(back, x, y) == bracket(alg, x, y)

# nilharm.pfaffian is the re-exported function pfaffian(), which shadows
# the module of that name, so the modules are fetched by import path
algebra = importlib.import_module("nilharm.algebra")
pfaffian = importlib.import_module("nilharm.pfaffian")


# Algebras for the sparse-kernel property test, built once: octdouble,
# the dim-46 table 2.2 row 23, and three families of other shapes.
ORACLE_ALGEBRAS = [from_name(name) for name in (
    "heisenberg:2:C", "heisenberg:1:O", "free2step:4:R", "octdouble",
    "table:2.2:23")]


def dense_bracket(alg, x, y):
    """[x, y] read straight off the dense structure rows."""
    out = [Fraction(0)] * alg.dim
    for (i, j), vec in alg.structure.items():
        c = x[i] * y[j] - x[j] * y[i]
        for k, v in enumerate(vec):
            out[k] += c * v
    return out


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def algebra_and_vectors(draw):
    alg = draw(st.sampled_from(ORACLE_ALGEBRAS))
    # half the coordinates zero on average, as in typical queries
    coord = st.one_of(st.just(Fraction(0)), rationals)
    vec = st.lists(coord, min_size=alg.dim, max_size=alg.dim)
    return alg, draw(vec), draw(vec)


@settings(max_examples=60, deadline=None)
@given(algebra_and_vectors())
def test_sparse_bracket_matches_dense_oracle(case):
    alg, x, y = case
    assert bracket(alg, x, y) == dense_bracket(alg, x, y)


PRIMES = [p for p in range(2, 250) if all(p % q for q in range(2, p))]


def exact_inputs(rng, dim):
    """{kind: (x, y)}: Fractions, ints, ints and Fractions mixed, and
    Fractions whose denominators are pairwise coprime primes."""
    x, y = rand_vec(rng, dim), rand_vec(rng, dim)
    return {
        "fraction": (x, y),
        "int": ([c.numerator for c in x], [c.numerator for c in y]),
        "mixed": ([c.numerator if k % 2 else c for k, c in enumerate(x)],
                  [c if k % 2 else c.numerator for k, c in enumerate(y)]),
        "coprime": ([Fraction(rng.randint(-6, 6), p) for p in PRIMES[:dim]],
                    [Fraction(rng.randint(-6, 6), p)
                     for p in PRIMES[::-1][:dim]]),
    }


def generic_bracket(alg, x, y):
    """The bracket in its input's own arithmetic, term by term in the
    kernel's order, from an int 0 in every slot: the path every input
    but ints and Fractions takes."""
    out = [0] * alg.dim
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                c = a * b
                for k, v in alg.bracket_row(i, j):
                    out[k] += c * v
    return out


def typed(vec):
    return [(type(c), c) for c in vec]


def test_bracket_keeps_the_arithmetic_of_its_input():
    # ints and Fractions in, in any mix, Fractions out in every slot;
    # floats in, floats out in every slot that a term reaches, and the
    # int 0 in every other; numpy scalars and bools keep the
    # results and types of their own arithmetic
    rng = random.Random(9)
    for alg in ORACLE_ALGEBRAS:
        inputs = exact_inputs(rng, alg.dim)
        for x, y in inputs.values():
            exact = bracket(alg, x, y)
            assert exact == dense_bracket(alg, x, y)
            assert all(type(c) is Fraction for c in exact)
        x, y = inputs["fraction"]
        exact = bracket(alg, x, y)
        reached = {k for i in range(alg.dim) for j in range(alg.dim)
                   if x[i] and y[j] for k, _ in alg.bracket_row(i, j)}
        floats = bracket(alg, [float(c) for c in x], [float(c) for c in y])
        for k, (got, want) in enumerate(zip(floats, exact)):
            if k in reached:
                assert type(got) is float
                assert abs(got - float(want)) <= 1e-12 * (1 + abs(want))
            else:
                assert type(got) is int and got == 0
        for conv in (lambda c: np.int64(c.numerator), np.float64, bool):
            xs, ys = [conv(c) for c in x], [conv(c) for c in y]
            assert typed(bracket(alg, xs, ys)) == typed(
                generic_bracket(alg, xs, ys))


def test_group_multiply_matches_the_dense_oracle():
    # X + Y + [X, Y]/2 with the bracket read off the dense table: a
    # Fraction in every coordinate for exact input of any mix
    rng = random.Random(10)
    for alg in ORACLE_ALGEBRAS:
        for x, y in exact_inputs(rng, alg.dim).values():
            got = group_multiply(alg, x, y).coords
            assert list(got) == [a + b + c / 2 for a, b, c in
                                 zip(x, y, dense_bracket(alg, x, y))]
            assert all(type(c) is Fraction for c in got)


def test_exact_bracket_builds_one_fraction_per_nonzero_coordinate(
        count_fractions):
    alg = from_name("table:2.2:23")
    rng = random.Random(12)
    for x, y in exact_inputs(rng, alg.dim).values():
        out, built = count_fractions(lambda: bracket(alg, x, y))
        assert out == dense_bracket(alg, x, y) and any(out)
        assert built == sum(1 for c in out if c)


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def three_step_algebra():
    """[x1, x2] = z, [x3, x1] = y, [z, x3] = u, [y, x2] = -u: 3-step,
    with the nonzero double bracket [[x1, x2], x3] = u."""
    return LieAlgebraData(
        6, ["x1", "x2", "x3", "z", "y", "u"],
        [(0, 1, 3, 1), (0, 2, 4, -1), (2, 3, 5, -1), (1, 4, 5, 1)],
        center_indices=(5,), complement_indices=range(5))


def test_two_step_invariants_make_no_bracket_calls(monkeypatch):
    # a count, not a timing: on a 2-step algebra no double bracket is
    # nonzero and C^2 brackets nothing, so neither query calls the kernel
    calls = count_calls(monkeypatch, algebra, "_accumulate")
    rows = [entry.build() for entry in list_entries(constructible=True)]
    assert max(alg.dim for alg in rows) == 46     # table:2.2:23
    for alg in rows:
        assert (jacobi_defect(alg), nilpotency_class(alg)) == (0, 2)
    assert calls == []
    three_step = three_step_algebra()
    assert jacobi_defect(three_step) == 0
    assert len(calls) > 0
    del calls[:]
    assert nilpotency_class(three_step) == 3
    assert len(calls) > 0


def test_invariants_are_computed_once_per_algebra(monkeypatch):
    nclass = count_calls(monkeypatch, algebra, "_nilpotency_class")
    cen = count_calls(monkeypatch, algebra, "_center")
    pf = count_calls(monkeypatch, pfaffian, "_pf_polynomial")
    pattern = count_calls(monkeypatch, pfaffian, "_skew_pattern")
    alg = free_two_step(3, "R")
    v1 = list(alg.complement_indices[:-1])
    lam = pfaffian.LinearFunctional(alg, [1, 2, 3])
    for _ in range(3):
        assert nilpotency_class(alg) == 2
        assert len(center(alg)) == 3
        pfaffian.pf_polynomial(alg)
        pfaffian.pf_polynomial(alg, v_indices=v1)
        pfaffian.pf_at(alg, [1, 2, 3])   # its 2-step guard is cached too
        pfaffian.pf_at(alg, [1, 2, 3], v_indices=v1)
        pfaffian.b_matrix(alg, lam)
        pfaffian.b_matrix(alg, lam, v_indices=tuple(v1))
    assert (len(nclass), len(cen)) == (1, 1)
    # one per key: the full complement and the v1 ordering, shared by
    # pf_polynomial, pf_at and b_matrix
    assert len(pf) == 2
    assert len(pattern) == 2
    # a new instance computes its own
    nilpotency_class(free_two_step(3, "R"))
    assert len(nclass) == 2


def test_invariants_are_not_computed_at_construction(monkeypatch):
    nclass = count_calls(monkeypatch, algebra, "_nilpotency_class")
    cen = count_calls(monkeypatch, algebra, "_center")
    heisenberg(2, "C")
    assert nclass == [] and cen == []


def test_mutating_a_returned_center_leaves_the_cache_alone():
    alg = heisenberg(2, "C")
    first = center(alg)
    expected = [list(row) for row in first]
    first[0][0] = Fraction(99)
    first.append([Fraction(1)] * alg.dim)
    assert center(alg) == expected


def test_bracket_row_is_antisymmetric_and_sparse():
    alg = octonion_double()
    for i in range(alg.dim):
        assert alg.bracket_row(i, i) == ()
        for j in range(alg.dim):
            row = alg.bracket_row(i, j)
            assert all(c != 0 for _, c in row)
            assert [(k, -c) for k, c in row] == list(alg.bracket_row(j, i))
            dense = bracket_basis(alg, i, j)
            assert dict(row) == {k: c for k, c in enumerate(dense) if c}
