"""Semidirect splits n = l1 (+) l2 certifying stepwise square integrability.

The three families with identically vanishing full Pfaffian each admit a
coordinate split where l1 = (center + v1) is an ideal that contains the
center Z of n and is square integrable modulo Z: Pf of b_lambda on
v1 = l1 ∩ v, for lambda in z*, is not identically zero (Moore & Wolf).
l2 is a small abelian complement.  The split is verified by exact
arithmetic on the parent algebra, never assumed.  decompose,
find_codim_split and orbits.l1_complement_indices read the same search,
so a case's split is stated once: as the first coordinate complement
that verifies.  The search drops one coordinate of an odd v and two of
an even one, since only an even v1 can have a nonzero Pfaffian.
"""

from itertools import combinations

from .catalog import get_entry
from .config import shown
from .pfaffian import is_square_integrable


class StepwiseDecomposition:
    """A coordinate split of the basis into l1 and l2 index sets."""

    __slots__ = ("algebra", "l1_indices", "l2_indices", "verification")

    def __init__(self, algebra, l1_indices, l2_indices):
        l1 = tuple(sorted(l1_indices))
        l2 = tuple(sorted(l2_indices))
        if set(l1) & set(l2):
            raise ValueError("l1 and l2 overlap")
        if set(l1) | set(l2) != set(range(algebra.dim)):
            raise ValueError("l1 and l2 do not partition the basis")
        self.algebra = algebra
        self.l1_indices = l1
        self.l2_indices = l2
        self.verification = None

    def as_dict(self):
        return {
            "algebra": self.algebra.name,
            "l1_indices": list(self.l1_indices),
            "l2_indices": list(self.l2_indices),
            "verification": dict(self.verification)
            if self.verification is not None else None,
        }


def verify(dec):
    """Exact verification flags for a candidate split.

    l1_is_ideal        [n, l1] inside span(l1)
    direct_sum         index sets partition the basis (by construction)
    l2_abelian_subalgebra   [l2, l2] = 0
    l1_square_integrable    l1 is an ideal containing Z, and Pf of
                            b_lambda on v1 = l1 ∩ v, lambda in z*,
                            is not identically zero

    The Pfaffian is read on the parent algebra, from the same cached
    skew-form pattern as every other Pfaffian on v1.
    """
    alg = dec.algebra
    dim = alg.dim
    l1 = dec.l1_indices
    l2 = dec.l2_indices
    l1_set = set(l1)

    # l1 is a coordinate subspace, so span membership is a support check
    ideal = all(k in l1_set for i in range(dim) for j in l1
                for k, _ in alg.bracket_row(i, j))
    abelian = not any(alg.bracket_row(a, b) for a in l2 for b in l2)

    sqint = (ideal and l1_set.issuperset(alg.center_indices)
             and bool(is_square_integrable(alg, v_indices=[
                 i for i in alg.complement_indices if i in l1_set])))

    flags = {
        "l1_is_ideal": ideal,
        "direct_sum": True,   # enforced by the constructor
        "l2_abelian_subalgebra": abelian,
        "l1_square_integrable": sqint,
    }
    dec.verification = flags
    return flags


def case_number(tag):
    """The case a tag names, 1, 6 or 3, or None: case1 and 1 name
    case 1, in any letter case and with any underscores."""
    digit = tag.lower().replace("_", "").removeprefix("case")
    return int(digit) if digit in ("1", "6", "3") else None


def decompose(case_tag, n=None):
    """The split that the search finds for case k, built as Table 2.1
    row k: free2step over R (1) or C (6), n odd and 3 by default, and
    the octonion double (3), which takes no n.  The search drops the
    last generator of case1, both real coordinates of the last one of
    case6, and (0, e7) of case3, where orbits.l1_complement_indices
    alone drops (0, e3).  The odd-n check excludes the square-integrable
    sizes, so find_codim_split's refusal is not re-run."""
    case = case_number(case_tag)
    if case is None:
        raise ValueError(f"unsupported case tag {shown(case_tag)}; "
                         "expected case1, case6, or case3")
    entry = get_entry("2.1", case)
    if n is not None and "n" in entry.params and n % 2 == 0:
        raise ValueError(f"case{case} requires odd n >= 3")
    return _first_split(entry.build(**({} if n is None else {"n": n})))


def find_codim_split(alg):
    """The first verified coordinate split, or None; refuses when no
    split is needed."""
    if is_square_integrable(alg):
        raise ValueError("not applicable: algebra is already square "
                         "integrable without a split")
    return _first_split(alg)


def _first_split(alg):
    """The first verified split that drops complement coordinates: one
    when v is odd, two when it is even, so that v1 is even (an odd v1
    has Pf identically 0 and cannot verify); the trailing coordinates
    are tried first.  None when no candidate passes."""
    comp = alg.complement_indices
    for dropped in reversed(list(combinations(comp, 2 - len(comp) % 2))):
        dec = StepwiseDecomposition(
            alg, [i for i in range(alg.dim) if i not in dropped], dropped)
        if all(verify(dec).values()):
            return dec
    return None
