"""Constructors and metadata for the catalog of 2-step algebras.

Constructible families:

  * heisenberg(n, F):  Im F + F^n, F in {C, H, O} (O only for n = 1)
  * free_two_step(n, F):  Lambda^2 F^n + F^n, F in {R, C}, as a real algebra
  * octonion_double():  Im O + Im O with [(0,u),(0,v)] = (-Im(uv), 0)
  * abelian(n), direct_sum(...):  plumbing for the composite entries

Every other table row ships as queryable metadata only; asking to
construct one raises CatalogError("bracket not specified in source").
"""

from fractions import Fraction
from itertools import combinations

from . import composition
from .algebra import LieAlgebraData
from .config import read_number, shown

# the largest constructible table row has dimension 46; the exact core
# is quadratic to cubic in the dimension, so far larger sizes only hang
MAX_DIM = 64


class CatalogError(ValueError):
    pass


def _check_dim(dim, *name):
    """Refuse a dimension past MAX_DIM; the parts of name join with ':'.

    Past 10^12 only the family is named: a size of thousands of digits
    gives a dimension that str() refuses (over 4300 digits) and a
    message as long as the input.
    """
    if dim > MAX_DIM:
        shown = (f"{':'.join(map(str, name))} has dimension {dim}"
                 if dim < 10 ** 12 else f"{name[0]} has dimension > 10^12")
        raise CatalogError(f"{shown}; constructed algebras are capped at "
                           f"dimension {MAX_DIM}")


def _unit_brackets(units, offset):
    """The entries [e_k, e_l] = -Im(e_k e_l) for k < l in units, read
    from the octonion table: e_k e_l = sign * e_m gives -sign at center
    coordinate m - 1, and e_k at basis index offset + k.  On Im F + F^n
    this is Im(e_k conj(e_l)), as conj(e_l) = -e_l for l >= 1."""
    entries = []
    for k, l in combinations(units, 2):
        sign, m = composition.TABLE[k][l]
        entries.append((offset + k, offset + l, m - 1, -sign))
    return entries


def heisenberg(n, F):
    """Heisenberg algebra Im F + F^n with [(z,u),(w,v)] = (Im<u,v>, 0)."""
    if n <= 0:
        raise CatalogError("n must be positive")
    if F not in ("C", "H", "O"):
        raise CatalogError(
            f"heisenberg is defined over C, H, O, not {shown(F)}")
    if F == "O" and n != 1:
        raise CatalogError("octonionic Heisenberg appears only with n = 1")
    d = composition.DIM[F]
    zdim = d - 1
    dim = zdim + n * d
    _check_dim(dim, "heisenberg", n, F)
    labels = [f"z{k}" for k in range(1, d)]
    for p in range(1, n + 1):
        labels.extend(f"u{p}e{k}" for k in range(d))
    # C and H close under the table's first 2 and 4 units
    entries = [e for p in range(n)
               for e in _unit_brackets(range(d), zdim + p * d)]
    return LieAlgebraData(
        dim=dim,
        basis_labels=labels,
        entries=entries,
        center_indices=range(zdim),
        complement_indices=range(zdim, dim),
        name=f"heisenberg:{n}:{F}",
        meta={"family": "heisenberg", "n": n, "F": F},
    )


def free_two_step(n, F):
    """Free 2-step algebra Lambda^2 F^n + F^n as a real Lie algebra.

    F = R or C, d = DIM[F]: v has the real coordinates u_p e_a, the
    center those of each wedge, (e_m)(u_p ^ u_q) at index d*t + m for
    the t-th pair, and [u_p e_a, u_q e_b] = (e_a e_b)(u_p ^ u_q) with
    e_a e_b read from the octonion table: for C, the complex-bilinear
    bracket of the underlying real algebra.
    """
    if n < 2:
        raise CatalogError("free 2-step needs n >= 2")
    if F not in ("R", "C"):
        raise CatalogError(
            f"free 2-step is defined over R and C, not {shown(F)}")
    d = composition.DIM[F]
    _check_dim((n * (n - 1) // 2 + n) * d, "free2step", n, F)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    zdim = d * len(pairs)
    units = ("", "i")[:d]
    labels = [f"{e}({w})" if e else w for w in
              (f"u{p + 1}∧u{q + 1}" for p, q in pairs) for e in units]
    labels += [f"{e}u{p + 1}" for p in range(n) for e in units]
    entries = []
    for t, (p, q) in enumerate(pairs):
        for a in range(d):
            for b in range(d):
                sign, m = composition.TABLE[a][b]
                entries.append((zdim + d * p + a, zdim + d * q + b,
                                d * t + m, sign))
    dim = zdim + d * n
    return LieAlgebraData(
        dim=dim,
        basis_labels=labels,
        entries=entries,
        center_indices=range(zdim),
        complement_indices=range(zdim, dim),
        name=f"free2step:{n}:{F}",
        meta={"family": "free2step", "n": n, "F": F,
              "wedge_pairs": tuple(pairs)},
    )


def octonion_double():
    """Im O + Im O with bracket [(0,u),(0,v)] = (-Im(uv), 0).

    Basis: z1..z7 = (e_k, 0) then v1..v7 = (0, e_k).
    """
    m = composition.DIM["O"] - 1
    return LieAlgebraData(
        dim=2 * m,
        basis_labels=[f"{x}{k}" for x in "zv" for k in range(1, m + 1)],
        entries=_unit_brackets(range(1, m + 1), m - 1),
        center_indices=range(m),
        complement_indices=range(m, 2 * m),
        name="octdouble",
        meta={"family": "octdouble"},
    )


def abelian(n):
    """R^n with zero bracket; everything is central."""
    if n <= 0:
        raise CatalogError("abelian needs n >= 1")
    _check_dim(n, "abelian", n)
    return LieAlgebraData(
        dim=n,
        basis_labels=[f"a{k + 1}" for k in range(n)],
        entries=[],
        center_indices=range(n),
        complement_indices=[],
        name=f"abelian:{n}",
        meta={"family": "abelian", "n": n},
    )


def direct_sum(*blocks):
    """Lie algebra direct sum with block-diagonal bracket.

    Center/complement designations concatenate.  Labels get a block
    prefix so they stay unique.
    """
    if not blocks:
        raise CatalogError("direct_sum of nothing")
    if len(blocks) == 1:
        return blocks[0]
    dim = sum(b.dim for b in blocks)
    name = "+".join(b.name for b in blocks)
    _check_dim(dim, name)
    labels, center, complement = [], [], []
    entries = []
    offset = 0
    for bnum, blk in enumerate(blocks, start=1):
        labels.extend(f"{bnum}:{lab}" for lab in blk.basis_labels)
        center.extend(offset + i for i in blk.center_indices)
        complement.extend(offset + i for i in blk.complement_indices)
        entries.extend((offset + i, offset + j, offset + k, c)
                       for (i, j), row in blk.brackets().items()
                       for k, c in row)
        offset += blk.dim
    return LieAlgebraData(
        dim=dim,
        basis_labels=labels,
        entries=entries,
        center_indices=center,
        complement_indices=complement,
        name=name,
        meta={"family": "direct_sum", "blocks": [b.name for b in blocks]},
    )


# center coordinates of (e7,0)*, (e6,0)*, (e2,0)*: octdouble's lambda_a,
# a1 on the unit of the complement coordinate its split drops
OCTDOUBLE_LAMBDA_SUPPORT = (6, 5, 1)


def lambda_a(alg, a):
    """The special functionals lambda_a, as coefficients on the center basis.

    free2step: sum a_k (u_{2k-1} ^ u_{2k})*, a_k on the d = DIM[F]
    coordinates of its wedge; over C a complex a_k is a (re, im) pair
    or a complex (a bare number means real), over R it must be real.
    octdouble: a = (a1, a2, a3) on (e7,0)*, (e6,0)*, (e2,0)*, so a1
    is t7, the coordinate whose split (0, e7) gives Pf = -t7*|t|^2.
    """
    family = alg.meta.get("family")
    zdim = len(alg.center_indices)
    coeffs = [Fraction(0)] * zdim
    if family == "free2step":
        n, d = alg.meta["n"], composition.DIM[alg.meta["F"]]
        if 2 * len(a) > n:
            raise CatalogError(f"lambda_a needs 2*{len(a)} <= n = {n}")
        for k, val in enumerate(a):
            t = alg.meta["wedge_pairs"].index((2 * k, 2 * k + 1))
            parts = _split_complex(val)
            if any(parts[d:]):
                raise CatalogError("free2step over R takes real a_k")
            coeffs[d * t:d * t + d] = parts[:d]
        return coeffs
    if family == "octdouble":
        if len(a) != 3:
            raise CatalogError("octdouble lambda_a takes exactly 3 coefficients")
        for val, k in zip(a, OCTDOUBLE_LAMBDA_SUPPORT):
            coeffs[k] = Fraction(val)
        return coeffs
    raise CatalogError(
        f"lambda_a is not defined for family {shown(family)}")


def _split_complex(val):
    if isinstance(val, (tuple, list)):
        re_part, im_part = val
        return Fraction(re_part), Fraction(im_part)
    if isinstance(val, complex):
        return Fraction(val.real), Fraction(val.imag)
    return Fraction(val), Fraction(0)


# ---------------------------------------------------------------------------
# table metadata

class CatalogEntry:
    """One row of table 2.1 or 2.2.

    notes carries the U(1)/maximality column for 2.1 and the printed
    algebra decomposition for 2.2.  Constructible entries expose
    build(**params); params maps free parameters to their defaults.
    """

    __slots__ = ("table_id", "row", "group_K", "v_desc", "z_desc",
                 "constructible", "notes", "params", "_builder")

    def __init__(self, table_id, row, group_K, v_desc, z_desc,
                 notes="", params=None, builder=None):
        self.table_id = table_id
        self.row = row
        self.group_K = group_K
        self.v_desc = v_desc
        self.z_desc = z_desc
        self.notes = notes
        self.params = dict(params) if params else {}
        self._builder = builder
        self.constructible = builder is not None

    def build(self, **overrides):
        if not self.constructible:
            raise CatalogError(
                f"table {self.table_id} row {self.row}: bracket not specified "
                "in source; entry is metadata only")
        params = dict(self.params)
        for key, val in overrides.items():
            if key not in params:
                raise CatalogError(f"unknown parameter {shown(key)} for "
                                   f"table {self.table_id} row {self.row}")
            params[key] = read_number(str(val), int)  # text or an int
        return self._builder(**params)

    def as_dict(self):
        return {
            "table": self.table_id,
            "row": self.row,
            "K": self.group_K,
            "v": self.v_desc,
            "z": self.z_desc,
            "constructible": self.constructible,
            "notes": self.notes,
            "params": self.params,
        }


def _hsum(*blocks):
    # blocks: ("h", n, F) or ("ab", dim); an ("ab", dim <= 0) is left out
    return direct_sum(*[heisenberg(*blk[1:]) if blk[0] == "h"
                        else abelian(blk[1])
                        for blk in blocks if blk[0] == "h" or blk[1] > 0])


_TABLE_21 = [
    # row, K, v, z, notes, params, builder
    (1, "SO(n)", "ℝ^n", "Λ²ℝ^n = 𝔰𝔬(n)", "", {"n": 3},
     lambda n: free_two_step(n, "R")),
    (2, "Spin(7)", "ℝ^8 = 𝕆", "ℝ^7 = Im 𝕆", "", {},
     lambda: heisenberg(1, "O")),
    (3, "G₂", "ℝ^7 = Im 𝕆", "ℝ^7 = Im 𝕆", "", {},
     lambda: octonion_double()),
    (4, "U(1)·SO(n)", "ℂ^n", "Im ℂ", "max: n ≠ 4", None, None),
    (5, "(U(1)·)SU(n)", "ℂ^n", "Λ²ℂ^n ⊕ Im ℂ", "U(1): n odd", None, None),
    (6, "SU(n), n odd", "ℂ^n", "Λ²ℂ^n", "", {"n": 3},
     lambda n: free_two_step(n, "C")),
    (7, "SU(n), n odd", "ℂ^n", "Im ℂ", "", None, None),
    (8, "U(n)", "ℂ^n", "Im ℂ^{n×n} = 𝔲(n)", "", None, None),
    (9, "(U(1)·)Sp(n)", "ℍ^n", "Re ℍ₀^{n×n} ⊕ Im ℍ", "", None, None),
    (10, "U(n)", "S²ℂ^n", "ℝ", "", None, None),
    (11, "(U(1)·)SU(n), n ≥ 3", "Λ²ℂ^n", "ℝ", "U(1): n even", None, None),
    (12, "U(1)·Spin(7)", "ℂ^8", "ℝ^7 ⊕ ℝ", "", None, None),
    (13, "U(1)·Spin(9)", "ℂ^16", "ℝ", "", None, None),
    (14, "(U(1)·)Spin(10)", "ℂ^16", "ℝ", "", None, None),
    (15, "U(1)·G₂", "ℂ^7", "ℝ", "", None, None),
    (16, "U(1)·E₆", "ℂ^27", "ℝ", "", None, None),
    (17, "Sp(1)×Sp(n)", "ℍ^n", "Im ℍ = 𝔰𝔭(1)", "max: n ≥ 2", None, None),
    (18, "Sp(2)×Sp(n)", "ℍ^{2×n}", "Im ℍ^{2×2} = 𝔰𝔭(2)", "", None, None),
    (19, "(U(1)·)SU(m)×SU(n), m,n ≥ 3", "ℂ^m ⊗ ℂ^n", "ℝ", "U(1): m = n",
     None, None),
    (20, "(U(1)·)SU(2)×SU(n)", "ℂ² ⊗ ℂ^n", "Im ℂ^{2×2} = 𝔲(2)", "U(1): n = 2",
     None, None),
    (21, "(U(1)·)Sp(2)×SU(n)", "ℍ² ⊗ ℂ^n", "ℝ", "U(1): n ≤ 4; max: n ≥ 3",
     None, None),
    (22, "U(2)×Sp(n)", "ℂ² ⊗ ℍ^n", "Im ℂ^{2×2} = 𝔲(2)", "", None, None),
    (23, "U(3)×Sp(n)", "ℂ³ ⊗ ℍ^n", "ℝ", "max: n ≥ 2", None, None),
]

_TABLE_22 = [
    # row, K, v, [n,n], algebra string, params, blocks (None = not constructible)
    (1, "U(n)", "ℂ^n ⊕ 𝔰𝔲(n)", "ℝ", "((h_{n;ℂ})) + 𝔰𝔲(n)", {"n": 2},
     lambda n: _hsum(("h", n, "C"), ("ab", n * n - 1))),
    (2, "U(4)", "ℂ⁴ ⊕ ℝ⁶", "Im ℂ ⊕ Λ²ℂ⁴", "((Im ℂ + Λ²ℂ⁴ + ℂ⁴)) + ℝ⁶",
     None, None),
    (3, "U(1)×U(n)", "ℂ^n ⊕ Λ²ℂ^n", "ℝ ⊕ ℝ",
     "((h_{n;ℂ})) + ((h_{n(n-1)/2;ℂ}))", {"n": 2},
     lambda n: _hsum(("h", n, "C"), ("h", n * (n - 1) // 2, "C"))),
    (4, "SU(4)", "ℂ⁴ ⊕ ℝ⁶", "Im ℂ ⊕ Re ℍ^{2×2}",
     "((Im ℂ + Re ℍ^{2×2} + ℂ⁴)) + ℝ⁶", None, None),
    (5, "U(2)×U(4)", "ℂ^{2×4} ⊕ ℝ⁶", "Im ℂ^{2×2}",
     "((Im ℂ^{2×2} + ℂ^{2×4})) + ℝ⁶", None, None),
    (6, "S(U(4)×U(m))", "ℂ^{4×m} ⊕ ℝ⁶", "ℝ", "((h_{4m;ℂ})) + ℝ⁶", {"m": 1},
     lambda m: _hsum(("h", 4 * m, "C"), ("ab", 6))),
    (7, "U(m)×U(n)", "ℂ^{m×n} ⊕ ℂ^m", "ℝ ⊕ ℝ", "((h_{mn;ℂ})) + ((h_{m;ℂ}))",
     {"m": 2, "n": 2},
     lambda m, n: _hsum(("h", m * n, "C"), ("h", m, "C"))),
    (8, "U(1)×Sp(n)×U(1)", "ℂ^{2n} ⊕ ℂ^{2n}", "ℝ ⊕ ℝ",
     "((h_{2n;ℂ})) + ((h_{2n;ℂ}))", {"n": 1},
     lambda n: _hsum(("h", 2 * n, "C"), ("h", 2 * n, "C"))),
    (9, "Sp(1)×Sp(n)×U(1)", "ℍ^n ⊕ ℍ^n", "Im ℍ ⊕ ℝ",
     "((h_{n;ℍ})) + ((h_{2n;ℂ}))", {"n": 1},
     lambda n: _hsum(("h", n, "H"), ("h", 2 * n, "C"))),
    (10, "Sp(1)×Sp(n)×Sp(1)", "ℍ^n ⊕ ℍ^n", "Im ℍ ⊕ Im ℍ",
     "((h_{n;ℍ})) + ((h_{n;ℍ}))", {"n": 1},
     lambda n: _hsum(("h", n, "H"), ("h", n, "H"))),
    (11, "Sp(n)×{Sp(1),U(1),1}×Sp(m)", "ℍ^n ⊕ ℍ^{n×m}", "Im ℍ",
     "((h_{n;ℍ})) + ℍ^{n×m}", {"n": 1, "m": 1},
     lambda n, m: _hsum(("h", n, "H"), ("ab", 4 * n * m))),
    (12, "Sp(n)×{Sp(1),U(1),1}", "ℍ^n ⊕ Re ℍ₀^{n×n}", "Im ℍ",
     "((h_{n;ℍ})) + Re ℍ₀^{n×n}", {"n": 2},
     lambda n: _hsum(("h", n, "H"), ("ab", 2 * n * n - n - 1))),
    (13, "Spin(7)×{SO(2),1}", "(ℝ⁸ = 𝕆) ⊕ ℝ^{7×2}", "ℝ^7 = Im 𝕆",
     "((h_{1;𝕆})) + ℝ^{7×2}", {},
     lambda: _hsum(("h", 1, "O"), ("ab", 14))),
    (14, "U(1)×Spin(7)", "ℂ⁷ ⊕ ℝ⁸", "ℝ", "((h_{7;ℂ})) + ℝ⁸", {},
     lambda: _hsum(("h", 7, "C"), ("ab", 8))),
    (15, "U(1)×Spin(7)", "ℂ⁸ ⊕ ℝ⁷", "ℝ", "((h_{8;ℂ})) + ℝ⁷", {},
     lambda: _hsum(("h", 8, "C"), ("ab", 7))),
    (16, "U(1)×U(1)×Spin(8)", "ℂ⁸₊ ⊕ ℂ⁸₋", "ℝ ⊕ ℝ",
     "((h_{8;ℂ})) + ((h_{8;ℂ}))", {},
     lambda: _hsum(("h", 8, "C"), ("h", 8, "C"))),
    (17, "U(1)×Spin(10)", "ℂ^16 ⊕ ℝ^10", "ℝ", "((h_{16;ℂ})) + ℝ^10", {},
     lambda: _hsum(("h", 16, "C"), ("ab", 10))),
    (18, "{SU(n),U(n),U(1)Sp(n/2)}×SU(2)", "ℂ^{n×2} ⊕ 𝔰𝔲(2)", "ℝ",
     "((h_{2n;ℂ})) + 𝔰𝔲(2)", {"n": 2},
     lambda n: _hsum(("h", 2 * n, "C"), ("ab", 3))),
    (19, "{SU(n),U(n),U(1)Sp(n/2)}×U(2)", "ℂ^{n×2} ⊕ ℂ²", "ℝ ⊕ ℝ",
     "((h_{2n;ℂ})) + ((h_{2;ℂ}))", {"n": 2},
     lambda n: _hsum(("h", 2 * n, "C"), ("h", 2, "C"))),
    (20, "{SU(n),U(n),U(1)Sp(n/2)}×SU(2)×{SU(m),U(m),U(1)Sp(m/2)}",
     "ℂ^{n×2} ⊕ ℂ^{2×m}", "ℝ ⊕ ℝ", "((h_{2n;ℂ})) + ((h_{2m;ℂ}))",
     {"n": 2, "m": 2},
     lambda n, m: _hsum(("h", 2 * n, "C"), ("h", 2 * m, "C"))),
    (21, "{SU(n),U(n),U(1)Sp(n/2)}×SU(2)×U(4)", "ℂ^{n×2} ⊕ ℂ^{2×4} ⊕ ℝ⁶",
     "ℝ ⊕ ℝ", "((h_{2n;ℂ})) + ((h_{8;ℂ})) + ℝ⁶", {"n": 2},
     lambda n: _hsum(("h", 2 * n, "C"), ("h", 8, "C"), ("ab", 6))),
    (22, "U(4)×U(2)", "ℝ⁶ ⊕ ℂ^{4×2} ⊕ 𝔰𝔲(2)", "ℝ",
     "ℝ⁶ + ((h_{8;ℂ})) + 𝔰𝔲(2)", {},
     lambda: _hsum(("ab", 6), ("h", 8, "C"), ("ab", 3))),
    (23, "U(4)×U(2)×U(4)", "ℝ⁶ ⊕ ℂ^{4×2} ⊕ ℂ^{2×4} ⊕ ℝ⁶", "ℝ ⊕ ℝ",
     "ℝ⁶ + ((h_{8;ℂ})) + ((h_{8;ℂ})) + ℝ⁶", {},
     lambda: _hsum(("ab", 6), ("h", 8, "C"), ("h", 8, "C"), ("ab", 6))),
    (24, "U(1)×U(1)×SU(4)", "ℂ⁴ ⊕ ℂ⁴ ⊕ ℝ⁶", "ℝ ⊕ ℝ",
     "((h_{4;ℂ})) + ((h_{4;ℂ})) + ℝ⁶", {},
     lambda: _hsum(("h", 4, "C"), ("h", 4, "C"), ("ab", 6))),
    (25, "(U(1)·)SU(4)(·SO(2))", "ℂ⁴ ⊕ ℝ^{6×2}", "ℝ",
     "((h_{4;ℂ})) + ℝ^{6×2}", {},
     lambda: _hsum(("h", 4, "C"), ("ab", 12))),
]


def _make_entries():
    entries = {}
    for row, K, v, z, notes, params, builder in _TABLE_21:
        entries[("2.1", row)] = CatalogEntry("2.1", row, K, v, z, notes,
                                             params, builder)
    for row, K, v, z, alg_desc, params, builder in _TABLE_22:
        entries[("2.2", row)] = CatalogEntry("2.2", row, K, v, z, alg_desc,
                                             params, builder)
    for table, count in (("2.1", 23), ("2.2", 25)):
        if sum(1 for key in entries if key[0] == table) != count:
            raise RuntimeError(f"table {table} must have {count} rows")
    return entries


_ENTRIES = _make_entries()


def get_entry(table_id, row):
    """The entry of table table_id ('2.1' or '2.2') at the int row."""
    try:
        return _ENTRIES[(str(table_id), row)]
    except KeyError:
        raise CatalogError(f"no row {shown(row)} in table "
                           f"{shown(table_id)}") from None


def list_entries(table_id=None, constructible=None):
    out = []
    for (tid, _row), entry in sorted(_ENTRIES.items()):
        if table_id is not None and tid != str(table_id):
            continue
        if constructible is not None and entry.constructible != constructible:
            continue
        out.append(entry)
    return out


_FAMILIES = "heisenberg:<n>:<C|H|O>, free2step:<n>:<R|C>, octdouble, abelian:<n>, table:<2.1|2.2>:<row>[:k=v...]"


def from_name(name):
    """Build an algebra from its CLI name, e.g. 'heisenberg:2:H'."""
    parts = name.split(":")
    family = parts[0]
    try:
        if family == "heisenberg" and len(parts) == 3:
            return heisenberg(read_number(parts[1], int), parts[2])
        if family == "free2step" and len(parts) == 3:
            return free_two_step(read_number(parts[1], int), parts[2])
        if family == "octdouble" and len(parts) == 1:
            return octonion_double()
        if family == "abelian" and len(parts) == 2:
            return abelian(read_number(parts[1], int))
        if family == "table" and len(parts) >= 3:
            entry = get_entry(parts[1], read_number(parts[2], int))
            overrides = {}
            for piece in parts[3:]:
                key, _, val = piece.partition("=")
                overrides[key] = val
            return entry.build(**overrides)
    except (ValueError, IndexError) as exc:
        if isinstance(exc, CatalogError):
            raise
        raise CatalogError(f"cannot parse algebra name {shown(name)}; "
                           f"known families: {_FAMILIES}") from exc
    raise CatalogError(f"unknown algebra name {shown(name)}; "
                       f"known families: {_FAMILIES}")
