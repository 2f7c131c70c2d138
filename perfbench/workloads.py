"""Workload definitions: seeded job lists and the check of every job.

A job is one public nilharm call on one generated input, or one CLI
invocation.  A workload's job list (one "round") is generated once from
the seed; the runner repeats the same list until its time budget is
spent.  The seed changes input values and job order, never the count
of each kind of job, so run-to-run figures stay comparable across seeds.

Checks never call nilharm on a timed path.  Exact results are compared
with references recorded by record_reference.py (reference.json); where an
input is seeded, the check evaluates the recorded canonical Pfaffian
with this module's own parser, or uses an oracle built from the
algebra's structure constants.
"""

import hashlib
import importlib
import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

LAYERS = ("composition", "catalog", "algebra", "linalg", "polynomials",
          "pfaffian", "orbits", "stepwise", "gaussians", "quadrature",
          "inversion", "config", "cli")

HERE = Path(__file__).resolve().parent

# The constructible pool up to dimension 16.  Larger algebras
# (free2step:4:C and free2step:5:C, table 2.2 rows 13-17 and 20-25, up to
# dim 46) take 1-10 s per jacobi_defect call, which would leave a single
# pass per run.  Table 2.1 rows 1, 2, 3 and 6 are left out because they
# are constructed as free2step:3:R, heisenberg:1:O, octdouble and
# free2step:3:C, which the pool already holds.
SWEEP_POOL = (
    ["heisenberg:%d:C" % n for n in range(1, 5)]
    + ["heisenberg:%d:H" % n for n in range(1, 4)]
    + ["heisenberg:1:O"]
    + ["free2step:3:R", "free2step:4:R", "free2step:5:R", "free2step:3:C"]
    + ["octdouble"]
    + ["table:2.2:%d" % r for r in (1, 3, 6, 7, 8, 9, 10, 11, 12, 18, 19)]
)

# Prebuilt algebras of repeat-query; free2step:3:R also serves the orbit
# queries.
QUERY_ALGEBRAS = ("free2step:5:C", "heisenberg:2:H", "octdouble",
                  "table:2.2:23")
ORBIT_ALGEBRA = "free2step:3:R"

# Jobs that fail on the reference commit, by job key.  They are run,
# timed and counted as failed; only a failure outside this list makes a
# run incorrect.
KNOWN_DEFECTS = {
    # Division by zero in --at escapes as a traceback with exit 1
    # instead of a usage error with exit 2.
    "cli pfaffian heisenberg:1:C --at 1/0 --json",
}


def load_modules():
    """Import every nilharm layer module; returns {layer: module}."""
    return {name: importlib.import_module("nilharm." + name)
            for name in LAYERS}


def load_reference():
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


class Job:
    """One timed call plus the untimed check of its result.

    call() returns the result; check(result) returns None when the
    result is right, else a reason.
    """

    __slots__ = ("key", "call", "check")

    def __init__(self, key, call, check):
        self.key = key
        self.call = call
        self.check = check


# ---------------------------------------------------------------------------
# independent oracles

def parse_poly(text):
    """Canonical Pfaffian string -> list of (coefficient, {var: exponent}).

    Reads the format Poly.format() prints: terms joined by ' + ' and
    ' - ', each an optional rational coefficient and '*'-joined factors
    tK or tK^e.
    """
    if text == "0":
        return []
    parts = re.split(r" ([+-]) ", text)
    signed = [("-", parts[0][1:]) if parts[0].startswith("-")
              else ("+", parts[0])]
    signed += list(zip(parts[1::2], parts[2::2]))
    terms = []
    for sign, body in signed:
        coeff = Fraction(-1 if sign == "-" else 1)
        powers = {}
        for factor in body.split("*"):
            if factor.startswith("t"):
                var, _, exp = factor[1:].partition("^")
                powers[int(var) - 1] = int(exp) if exp else 1
            else:
                coeff *= Fraction(factor)
        terms.append((coeff, powers))
    return terms


def eval_poly(terms, point):
    total = Fraction(0)
    for coeff, powers in terms:
        term = coeff
        for var, exp in powers.items():
            term *= Fraction(point[var]) ** exp
        total += term
    return total


def oracle_bracket(alg, x, y):
    """[x, y] from the structure-constant table, read as data."""
    out = [Fraction(0)] * alg.dim
    for (i, j), vec in alg.structure.items():
        c = Fraction(x[i]) * Fraction(y[j]) - Fraction(x[j]) * Fraction(y[i])
        if c:
            for k, v in enumerate(vec):
                if v:
                    out[k] += c * v
    return out


def rows_sha(rows):
    text = json.dumps([[str(Fraction(c)) for c in row] for row in rows])
    return hashlib.sha256(text.encode()).hexdigest()


def _rational(rng, lo=-9, hi=9):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 9))


def _nonzero_rational(rng):
    val = Fraction(0)
    while val == 0:
        val = _rational(rng)
    return val


def _expect(cond, reason):
    return None if cond else reason


def split_v1(ref_entry):
    """Complement coordinates kept in the recorded l1 split."""
    l1 = set(ref_entry["split"]["l1"])
    return [i for i in ref_entry["complement"] if i in l1]


class Workload:
    """A round's job list plus the counters its checks accumulate."""

    def __init__(self, jobs, counters=None, cli=None):
        self.jobs = jobs
        self.counters = counters if counters is not None else {}
        self.cli = cli


WORKLOADS = ("exact-sweep", "repeat-query", "inversion", "cli-cold")


def build(name, seed, mods, ref, root):
    """Generate the inputs of one workload from its seed."""
    rng = random.Random("%s:%d" % (name, seed))
    if name == "exact-sweep":
        return exact_sweep(rng, mods, ref)
    if name == "repeat-query":
        return repeat_query(rng, mods, ref)
    if name == "inversion":
        return inversion(rng, mods)
    if name == "cli-cold":
        return cli_cold(rng, ref, root)
    raise ValueError("unknown workload %r" % name)


# ---------------------------------------------------------------------------
# exact-sweep

def exact_sweep(rng, mods, ref):
    """Build each pool algebra once and query it once, in seeded order."""
    order = list(SWEEP_POOL)
    rng.shuffle(order)
    jobs = []
    for name in order:
        jobs.extend(_sweep_jobs(name, ref["algebras"][name], mods))
    return Workload(jobs)


def _sweep_jobs(name, want, mods):
    catalog, algebra = mods["catalog"], mods["algebra"]
    pfaffian, stepwise = mods["pfaffian"], mods["stepwise"]
    state = {}
    pf_terms = parse_poly(want["pfaffian"])

    def build_alg():
        state["alg"] = catalog.from_name(name)
        return state["alg"]

    def check_sq(sq):
        if bool(sq) != want["square_integrable"]:
            return "square integrability differs from the reference"
        if sq:
            return _expect(eval_poly(pf_terms, sq.witness) != 0,
                           "witness is a zero of the Pfaffian")
        return None

    def job(call_name, call, check):
        return Job("%s %s" % (call_name, name), call, check)

    jobs = [
        job("from_name", build_alg,
            lambda alg: _expect(alg.dim == want["dim"]
                                and list(alg.center_indices) == want["center"],
                                "dim or center split differs from the reference")),
        job("jacobi_defect", lambda: algebra.jacobi_defect(state["alg"]),
            lambda d: _expect(d == 0, "Jacobi defect %s" % d)),
        job("nilpotency_class", lambda: algebra.nilpotency_class(state["alg"]),
            lambda c: _expect(c == want["nilpotency_class"], "class %s" % c)),
        job("center", lambda: algebra.center(state["alg"]),
            lambda rows: _expect(rows_sha(rows) == want["center_sha"],
                                 "center basis differs from the reference")),
        job("derived_subalgebra",
            lambda: algebra.derived_subalgebra(state["alg"]),
            lambda rows: _expect(rows_sha(rows) == want["derived_sha"],
                                 "derived basis differs from the reference")),
        job("pf_polynomial", lambda: pfaffian.pf_polynomial(state["alg"]),
            lambda pf: _expect(pf.format() == want["pfaffian"],
                               "Pfaffian %r differs from the reference"
                               % pf.format())),
        job("is_square_integrable",
            lambda: pfaffian.is_square_integrable(state["alg"]), check_sq),
    ]
    split = want["split"]
    if split is not None:
        def find():
            state["dec"] = stepwise.find_codim_split(state["alg"])
            return state["dec"]

        jobs.append(job("find_codim_split", find, lambda dec: _expect(
            dec is not None and list(dec.l1_indices) == split["l1"]
            and list(dec.l2_indices) == split["l2"],
            "split differs from the reference")))
        jobs.append(job("verify", lambda: stepwise.verify(state["dec"]),
                        lambda flags: _expect(flags == split["flags"],
                                              "flags %s differ from the "
                                              "reference" % flags)))
    return jobs


# ---------------------------------------------------------------------------
# repeat-query

# Per round: (call, algebra, count), 100 jobs.  Sorted by latency the
# round is 37 light calls, 34 calls on heisenberg:2:H, 26 on octdouble and
# 3 on the dim-46 and dim-30 algebras, so the median job lies mid-way
# through the heisenberg:2:H calls and the 90th percentile inside the
# octdouble ones, not on a boundary between call kinds.
QUERY_MIX = (
    ("pf_at", "heisenberg:2:H", 18), ("pf_at", "octdouble", 13),
    ("pf_at", "table:2.2:23", 1), ("pf_at", "free2step:5:C", 1),
    ("b_matrix", "heisenberg:2:H", 16), ("b_matrix", "octdouble", 13),
    ("b_matrix", "table:2.2:23", 1),
    ("bracket", "heisenberg:2:H", 3), ("bracket", "octdouble", 3),
    ("bracket", "table:2.2:23", 3), ("bracket", "free2step:5:C", 3),
    ("group_multiply", "heisenberg:2:H", 2), ("group_multiply", "octdouble", 2),
    ("group_multiply", "table:2.2:23", 2),
    ("group_multiply", "free2step:5:C", 2),
    ("orbit_representative", ORBIT_ALGEBRA, 6),
    ("pf_nonsingular", ORBIT_ALGEBRA, 6),
    ("darboux_basis", None, 5),
)


def repeat_query(rng, mods, ref):
    """A seeded stream of queries on algebras built during set-up."""
    algs = {name: mods["catalog"].from_name(name)
            for name in QUERY_ALGEBRAS + (ORBIT_ALGEBRA,)}
    jobs = []
    for kind, name, count in QUERY_MIX:
        make = _QUERY_MAKERS[kind]
        for _ in range(count):
            jobs.append(make(name, algs.get(name),
                             ref["algebras"].get(name), mods, rng))
    rng.shuffle(jobs)
    return Workload(jobs)


def _pf_target(want):
    """(v_indices, parsed Pfaffian) that the queries on an algebra use.

    Algebras whose full Pfaffian vanishes are queried on the v1 part of
    their recorded split, where the Pfaffian is not identically zero.
    """
    if want["square_integrable"]:
        return None, parse_poly(want["pfaffian"])
    return split_v1(want), parse_poly(want["pf_v1"])


def _functional(rng, want):
    return [_rational(rng) for _ in range(want["center_dim"])]


def _q_pf_at(name, alg, want, mods, rng):
    v_idx, terms = _pf_target(want)
    lam = _functional(rng, want)
    expected = eval_poly(terms, lam)
    return Job("pf_at %s" % name,
               lambda: mods["pfaffian"].pf_at(alg, lam, v_indices=v_idx),
               lambda val: _expect(val == expected, "pf_at %s != Pf(lambda) "
                                   "%s" % (val, expected)))


def _q_b_matrix(name, alg, want, mods, rng):
    pfaffian, linalg = mods["pfaffian"], mods["linalg"]
    v_idx, terms = _pf_target(want)
    lam = _functional(rng, want)
    pf = eval_poly(terms, lam)
    size = len(v_idx if v_idx is not None else want["complement"])

    def check(form):
        if form.dim != size:
            return "form has size %d, expected %d" % (form.dim, size)
        return _expect(pf * pf == linalg.det(form.matrix),
                       "Pf(lambda)^2 != det(b_lambda)")

    return Job("b_matrix %s" % name,
               lambda: pfaffian.b_matrix(
                   alg, pfaffian.LinearFunctional(alg, lam), v_indices=v_idx),
               check)


def _vector(rng, dim):
    return [_rational(rng) if rng.random() < 0.5 else Fraction(0)
            for _ in range(dim)]


def _q_bracket(name, alg, want, mods, rng):
    x, y = _vector(rng, alg.dim), _vector(rng, alg.dim)
    expected = oracle_bracket(alg, x, y)
    return Job("bracket %s" % name,
               lambda: mods["algebra"].bracket(alg, x, y),
               lambda out: _expect(list(out) == expected,
                                   "bracket differs from the structure table"))


def _q_group_multiply(name, alg, want, mods, rng):
    x, y = _vector(rng, alg.dim), _vector(rng, alg.dim)
    half = Fraction(1, 2)
    expected = [a + b + half * c
                for a, b, c in zip(x, y, oracle_bracket(alg, x, y))]
    return Job("group_multiply %s" % name,
               lambda: mods["inversion"].group_multiply(alg, x, y),
               lambda pt: _expect(list(pt.coords) == expected,
                                  "BCH product differs from X+Y+[X,Y]/2"))


def _q_orbit(name, alg, want, mods, rng):
    lam = [_nonzero_rational(rng) for _ in range(want["center_dim"])]
    norm = math.sqrt(sum(float(c) ** 2 for c in lam))

    def check(rep):
        if rep.case_tag != "case1" or rep.kernel_dim != 1:
            return "unexpected orbit type %r" % rep
        return _expect(len(rep.invariants) == 1
                       and abs(rep.invariants[0] - norm) <= 1e-9 * norm,
                       "invariant %s != |lambda| %s" % (rep.invariants, norm))

    return Job("orbit_representative %s" % name,
               lambda: mods["orbits"].orbit_representative(alg, lam), check)


def _q_pf_nonsingular(name, alg, want, mods, rng):
    lam = _functional(rng, want)
    if rng.random() < 0.4:
        lam[0] = Fraction(0)   # on the zero set of the l1 Pfaffian
    expected = eval_poly(parse_poly(want["pf_v1"]), lam) != 0
    return Job("pf_nonsingular %s" % name,
               lambda: mods["orbits"].pf_nonsingular(alg, lam),
               lambda out: _expect(out == expected, "pf_nonsingular %s, "
                                   "expected %s" % (out, expected)))


def _q_darboux(name, alg, want, mods, rng):
    n = 6
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mat[i][j] = _rational(rng) if rng.random() < 0.7 else Fraction(0)
            mat[j][i] = -mat[i][j]

    def form(x, y):
        return sum((x[i] * mat[i][j] * y[j]
                    for i in range(n) for j in range(n)), Fraction(0))

    def check(basis):
        vecs, m = basis.vectors, len(basis.block_values)
        if len(vecs) != n or 2 * m + basis.radical_dim != n:
            return "basis has the wrong shape"
        for a in range(n):
            for b in range(n):
                want_ab = Fraction(0)
                if a < 2 * m and a % 2 == 0 and b == a + 1:
                    want_ab = basis.block_values[a // 2]
                elif b < 2 * m and b % 2 == 0 and a == b + 1:
                    want_ab = -basis.block_values[b // 2]
                if form(vecs[a], vecs[b]) != want_ab:
                    return "B^T M B is not in Darboux form"
        return None

    return Job("darboux_basis 6x6",
               lambda: mods["orbits"].darboux_basis(mat), check)


_QUERY_MAKERS = {
    "pf_at": _q_pf_at, "b_matrix": _q_b_matrix, "bracket": _q_bracket,
    "group_multiply": _q_group_multiply, "orbit_representative": _q_orbit,
    "pf_nonsingular": _q_pf_nonsingular, "darboux_basis": _q_darboux,
}


# ---------------------------------------------------------------------------
# inversion

# Pinned tolerances of acceptance criteria 6-9.
FLAT_RTOL = 1e-6
FLAT_H1C_MAX_NODES = 10 ** 5
STEPWISE_CASE1_RTOL = 1e-3
STEPWISE_CASE3_RTOL = 1e-2
GAP_RTOL = 1e-10
ORBIT_SPACE_RTOL = 1e-6

# (algebra, criterion-6 test function?, point scale, count).  Points on
# h(1;H) and h(2;C) stay within 0.25: from about 0.6 out the default
# node budget runs out before the quadrature converges.
FLAT_MIX = (("heisenberg:1:C", True, 0.6, 16),
            ("heisenberg:2:C", False, 0.25, 16),
            ("heisenberg:1:H", False, 0.25, 12))

# The generic case1 point of invert_stepwise.  Its quadrature adapts in
# doubling levels to the point, and this one job is a large share of a
# round, so the point is the same for every seed.
CASE1_GENERIC_POINT = (0.1, -0.2, 0.15, 0.05, -0.1, 0.2)


def inversion(rng, mods):
    """Flat and stepwise inversion checks at seeded points."""
    import numpy as np   # not at module level: run.py imports this module

    catalog, inv = mods["catalog"], mods["inversion"]
    Gaussian = mods["gaussians"].GaussianTestFunction
    counters = {"inversion.inner_nodes": 0, "inversion.outer_nodes": 0,
                "inversion.flat_nodes": 0}

    def test_function(Q, b, amp=1.0):
        """(nilharm test function, the same f evaluated here)."""
        def oracle(x):
            d = np.asarray(x, dtype=float) - b
            return amp * math.exp(-0.5 * float(d @ Q @ d))

        return Gaussian(Q, b, amp=amp), oracle

    def crit6_function():
        return test_function(np.diag([1.0, 0.7, 1.3]),
                             np.array([0.1, -0.2, 0.3]), amp=2.0)

    def standard(dim):
        return test_function(np.eye(dim), np.zeros(dim))

    def check_report(oracle, x, rtol, max_nodes=None):
        """Reconstruction at x against the oracle's f(x), not against
        the f_x and rel_error that the report computes itself."""
        want = oracle(x)

        def check(rep):
            entry = rep.entries[0]
            counters["inversion.inner_nodes"] += entry.get(
                "inner_nodes_total", 0)
            counters["inversion.outer_nodes"] += entry.get("outer_nodes", 0)
            counters["inversion.flat_nodes"] += entry.get("z_nodes", 0)
            if max_nodes is not None and entry["z_nodes"] > max_nodes:
                return "%d nodes exceeds %d" % (entry["z_nodes"], max_nodes)
            got = complex(entry["reconstructed_re"], entry["reconstructed_im"])
            err = abs(got - want) / abs(want)
            return _expect(err < rtol, "rel error %.2e >= %g" % (err, rtol))
        return check

    def point(dim, scale):
        return [round(rng.gauss(0.0, scale), 4) for _ in range(dim)]

    jobs = []
    for name, crit6, scale, count in FLAT_MIX:
        alg = catalog.from_name(name)
        f, oracle = crit6_function() if crit6 else standard(alg.dim)
        max_nodes = FLAT_H1C_MAX_NODES if crit6 else None
        for _ in range(count):
            x = point(alg.dim, scale)
            jobs.append(Job("invert_flat %s" % name,
                            lambda a=alg, f=f, x=x: inv.invert_flat(a, f, x),
                            check_report(oracle, x, FLAT_RTOL, max_nodes)))

    f6, oracle6 = standard(6)
    origin6, generic = [0.0] * 6, list(CASE1_GENERIC_POINT)
    jobs.append(Job("invert_stepwise case1 origin",
                    lambda: inv.invert_stepwise("case1", f6, origin6),
                    check_report(oracle6, origin6, STEPWISE_CASE1_RTOL)))
    jobs.append(Job("invert_stepwise case1 generic",
                    lambda: inv.invert_stepwise("case1", f6, generic),
                    check_report(oracle6, generic, STEPWISE_CASE1_RTOL)))
    f14, oracle14 = standard(14)
    origin14 = [0.0] * 14
    jobs.append(Job("invert_stepwise case3 origin",
                    lambda: inv.invert_stepwise("case3", f14, origin14,
                                                quad_settings={"rtol": 1e-6}),
                    check_report(oracle14, origin14, STEPWISE_CASE3_RTOL)))

    h1h = catalog.from_name("heisenberg:1:H")
    for _ in range(2):
        seed = rng.randrange(10 ** 6)
        jobs.append(Job(
            "orbit_space_quadrature_check heisenberg:1:H",
            lambda s=seed: inv.orbit_space_quadrature_check(h1h, seed=s),
            lambda out: _expect(out["rel_diff"] < ORBIT_SPACE_RTOL,
                                "radial identity rel diff %.2e"
                                % out["rel_diff"])))

    fq = Gaussian(np.diag([0.6, 0.8, 1.0, 1.2, 1.4, 0.9, 1.1]),
                  np.full(7, 0.2))
    for alg, f in ((catalog.from_name("heisenberg:1:C"), crit6_function()[0]),
                   (h1h, fq)):
        for _ in range(5):
            x = point(alg.dim, 0.5)
            jobs.append(Job("flatness_identity_gap %s" % alg.name,
                            lambda a=alg, f=f, x=x:
                            inv.flatness_identity_gap(a, f, x),
                            lambda out: _expect(out[0] < GAP_RTOL,
                                                "gap %.2e" % out[0])))
    rng.shuffle(jobs)
    return Workload(jobs, counters)


# ---------------------------------------------------------------------------
# cli-cold

# Invocations whose --json output is exact: compared byte for byte with
# the output in reference.json.
CLI_EXACT = (
    "catalog --json",
    "catalog --table 2.1 --constructible --json",
    "check heisenberg:2:C --json",
    "check free2step:3:R --json",
    "pfaffian heisenberg:2:H --json",
    "classify free2step:3:R --json",
    "classify octdouble --json",
    "decompose case1 --n 3 --verify --json",
    "decompose case3 --verify --json",
    "octonion table --json",
)

# Usage errors: the documented exit code is 2, with no traceback.
CLI_USAGE_ERRORS = (
    "check nosuch:1 --json",
    "check heisenberg:2:O --json",
    "pfaffian heisenberg:1:C --at 1,2 --json",
    "orbit heisenberg:1:C --coeffs 1 --json",
    "invert heisenberg:1:C --points 1,2 --json",
    "decompose --json",
    "pfaffian heisenberg:1:C --at 1/0 --json",
)

CLI_AT_ALGEBRAS = ("heisenberg:1:C", "heisenberg:2:C", "heisenberg:1:H",
                   "free2step:3:R")


class CliRunner:
    """Runs one CLI invocation in a fresh interpreter.

    Untraced, the command is `python -m nilharm.cli`.  Traced, it is
    cli_shim.py, which runs the same entry point under the tracer and
    writes its spans to spans_path.
    """

    def __init__(self, root):
        self.root = root
        self.spans_path = None
        self.outputs = {}

    def run(self, argv):
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "nilharm.cli"] + argv
        else:
            cmd = [sys.executable, str(HERE / "cli_shim.py"),
                   "--spans", str(self.spans_path), "--"] + argv
        return subprocess.run(cmd, cwd=self.root, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=120)

    def check(self, key, proc, code):
        """Exit code, no traceback, and the same output on every repeat."""
        err = proc.stderr.decode(errors="replace")
        if proc.returncode != code:
            last = err.strip().splitlines()[-1:] or [""]
            return "exit %d, expected %d: %s" % (proc.returncode, code,
                                                  last[0][:200])
        if "Traceback" in err:
            return "traceback on stderr"
        first = self.outputs.setdefault(key, proc.stdout)
        return _expect(first == proc.stdout,
                       "--json output differs between repeats")


def cli_cold(rng, ref, root):
    """A seeded mix of cold `python -m nilharm.cli --json` invocations."""
    runner = CliRunner(root)
    jobs = []

    def add(text, code, payload_check=None):
        argv = text.split()
        key = "cli " + text

        def check(proc):
            reason = runner.check(key, proc, code)
            if reason is None and payload_check is not None:
                reason = payload_check(proc.stdout)
            return reason

        jobs.append(Job(key, lambda: runner.run(argv), check))

    for text in CLI_EXACT:
        want = ref["cli"][text]
        add(text, 0, lambda out, want=want: _expect(
            hashlib.sha256(out).hexdigest() == want,
            "output differs from the reference"))
    for text in CLI_USAGE_ERRORS:
        add(text, 2)

    for k in range(6):
        name = CLI_AT_ALGEBRAS[k % len(CLI_AT_ALGEBRAS)]
        want = ref["algebras"][name]
        lam = _functional(rng, want)
        value = eval_poly(parse_poly(want["pfaffian"]), lam)
        # --opt=value, since argparse reads "--at -1/2,..." as a flag
        add("pfaffian %s --at=%s --json" % (name, ",".join(map(str, lam))), 0,
            lambda out, want=want, value=value: _expect(
                json.loads(out)["pfaffian"] == want["pfaffian"]
                and Fraction(json.loads(out)["value"]) == value,
                "Pf(lambda) differs from the reference"))
    for _ in range(4):
        lam = [_nonzero_rational(rng) for _ in range(3)]
        norm = math.sqrt(sum(float(c) ** 2 for c in lam))
        add("orbit free2step:3:R --coeffs=%s --json" % ",".join(map(str, lam)),
            0, lambda out, norm=norm: _check_orbit_payload(json.loads(out),
                                                            norm))
    for _ in range(4):
        x = ",".join("%.4f" % rng.gauss(0.0, 0.6) for _ in range(3))
        add("invert heisenberg:1:C --points=%s --json" % x, 0,
            lambda out: _expect(json.loads(out)["max_rel_error"] < FLAT_RTOL,
                                "rel error above %g" % FLAT_RTOL))
    table = ref["cli"]["octonion_table"]
    for _ in range(3):
        i, j = rng.randrange(8), rng.randrange(8)
        add("octonion mul e%d e%d --json" % (i, j), 0,
            lambda out, want=table[i][j]: _expect(
                json.loads(out)["product"] == want,
                "product differs from the octonion table"))
    rng.shuffle(jobs)
    return Workload(jobs, cli=runner)


def _check_orbit_payload(payload, norm):
    return _expect(payload["case"] == "case1" and payload["kernel_dim"] == 1
                   and abs(payload["invariants"][0] - norm) <= 1e-9 * norm,
                   "orbit invariants differ from |lambda|")
