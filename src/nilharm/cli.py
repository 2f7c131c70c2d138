"""Command-line interface.

Exit codes: 0 ok, 1 check failed, 2 usage or runtime error.  With
--json the payload prints as canonical JSON (sorted keys, indented),
so identical invocations produce byte-identical output; run echoes the
effective configuration into every payload but an error's.  Each
subparser names its handler, and argparse counts the operands, so a
malformed command line is refused with its usage message before any
handler runs.
"""

import argparse
import json
import numbers
import os
import sys
from fractions import Fraction

from .algebra import derived_inside_center, jacobi_defect, nilpotency_class
from .catalog import from_name, list_entries
from .composition import TABLE, format_element, multiply, parse_unit
from .config import is_node_count, is_positive, load_config, \
    quad_settings, read_number, shown
from .pfaffian import is_square_integrable, pf_at, pf_polynomial
from .stepwise import case_number, decompose, find_codim_split

# numpy and the numeric layers (gaussians, inversion, orbits, selftest)
# are imported inside the handlers that use them, so the exact
# subcommands start without them.


class CommandResult:
    """status: ok | check_failed | error; exit code 0 | 1 | 2."""

    __slots__ = ("status", "payload", "human_text")

    def __init__(self, status, payload, human_text):
        self.status = status
        self.payload = payload
        self.human_text = human_text

    @property
    def exit_code(self):
        return {"ok": 0, "check_failed": 1, "error": 2}[self.status]


def _plain(obj):
    """json's hook for what it cannot encode: a Fraction as "p/q", and
    numpy scalars, which register with numbers, as int or float."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        return float(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _canon_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2, default=_plain)


def _exact_str(value):
    """str(value) for an exact result of any length.

    Python refuses int-to-string conversions past 4300 digits.  The
    inputs are bounded (config.MAX_DECIMAL_EXPONENT, catalog.MAX_DIM),
    and the longest Pfaffian value, heisenberg:15:H at 1e1000, has
    ~30 000 digits, so the limit is lifted for this one conversion.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # no limit before 3.10.7
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_numbers(text):
    return [read_number(tok, Fraction) for tok in text.split(",")
            if tok.strip()]


# random:k draws k points before any of them runs; past this bound
# the list alone would take hours to build and fill memory
MAX_POINTS = 1000


def _parse_points(text, dim, seed):
    if text.startswith("random:"):
        k = read_number(text.split(":", 1)[1], int)
        if k < 1:
            raise ValueError(f"--points {shown(text)}: random:k needs an "
                             "integer k >= 1")
        if k > MAX_POINTS:
            raise ValueError(f"--points {shown(text)}: random:k takes at "
                             f"most {MAX_POINTS} points")
        import numpy as np
        rng = np.random.default_rng(seed)
        return [list(rng.normal(0.0, 0.5, size=dim)) for _ in range(k)]
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vals = [read_number(tok, float) for tok in chunk.split(",")]
        if len(vals) != dim:
            raise ValueError(f"point has {len(vals)} coordinates, "
                             f"algebra has dimension {dim}")
        points.append(vals)
    if not points:
        raise ValueError(f"--points {shown(text)} gives no point")
    return points


def _checked_type(kind, accepts, what):
    """An argparse type: read_number(text, kind), then refuse what
    accepts rejects."""
    def convert(text):
        try:
            value = read_number(text, kind, what)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"{shown(text)} is not {what}")
        return value
    return convert


def _parse_function(spec, dim):
    import numpy as np
    from .gaussians import GaussianTestFunction
    if spec is None or spec == "gaussian":
        return GaussianTestFunction.standard(dim)
    if spec.startswith("gaussian:diag:"):
        diag = [read_number(t, float)
                for t in spec.split(":", 2)[2].split(",")]
        if len(diag) != dim:
            raise ValueError(f"diagonal has {len(diag)} entries, need {dim}")
        return GaussianTestFunction(np.diag(diag), np.zeros(dim))
    raise ValueError(f"unknown function spec {shown(spec)}; "
                     "use gaussian or gaussian:diag:q1,...,qn")


def _cmd_catalog(args, cfg):
    tables = [args.table] if args.table else ["2.1", "2.2"]
    want = True if args.constructible else None
    rows = []
    for tid in tables:
        for entry in list_entries(tid, constructible=want):
            rows.append(entry.as_dict())
    lines = []
    for r in rows:
        mark = "+" if r["constructible"] else " "
        lines.append(f"[{mark}] table {r['table']} row {r['row']:2d}: "
                     f"K = {r['K']}, v = {r['v']}, z = {r['z']}")
    return CommandResult("ok", {"entries": rows}, "\n".join(lines))


def _cmd_check(args, cfg):
    alg = from_name(args.algebra)
    defect = jacobi_defect(alg)
    nclass = nilpotency_class(alg)
    derived_ok = derived_inside_center(alg)
    ok = defect == 0 and nclass == 2 and derived_ok
    payload = {
        "algebra": alg.name, "dim": alg.dim,
        "center_dim": len(alg.center_indices),
        "jacobi_defect": str(defect), "nilpotency_class": nclass,
        "derived_inside_center": derived_ok,
    }
    text = (f"{alg.name}: dim {alg.dim}, center dim "
            f"{len(alg.center_indices)}, jacobi defect {defect}, "
            f"class {nclass}, derived inside center: "
            f"{str(derived_ok).lower()}")
    return CommandResult("ok" if ok else "check_failed", payload, text)


def _cmd_pfaffian(args, cfg):
    alg = from_name(args.algebra)
    pf = pf_polynomial(alg)
    payload = {"algebra": alg.name, "pfaffian": pf.format(),
               "degree": pf.degree()}
    text = f"Pf = {pf.format()}"
    if args.at:
        coeffs = _parse_numbers(args.at)
        val = _exact_str(pf_at(alg, coeffs))
        payload["at"] = [_exact_str(c) for c in coeffs]
        payload["value"] = val
        text += f"\nPf({args.at}) = {val}"
    return CommandResult("ok", payload, text)


def _cmd_classify(args, cfg):
    alg = from_name(args.algebra)
    sq = is_square_integrable(alg)
    payload = {"algebra": alg.name, "square_integrable": bool(sq)}
    if sq:
        text = "square integrable: true"
        payload["witness"] = [str(c) for c in sq.witness]
    else:
        dec = find_codim_split(alg)
        payload["stepwise_split_found"] = dec is not None
        if dec is not None:
            payload["l1_indices"] = list(dec.l1_indices)
            payload["l2_indices"] = list(dec.l2_indices)
            payload["verification"] = dec.verification
        text = ("square integrable: false; stepwise split found: "
                + ("yes" if dec is not None else "no"))
    return CommandResult("ok", payload, text)


def _cmd_orbit(args, cfg):
    alg = from_name(args.algebra)
    coeffs = _parse_numbers(args.coeffs)
    from .orbits import orbit_representative
    rep = orbit_representative(alg, coeffs)
    payload = {"algebra": alg.name, "case": rep.case_tag,
               "invariants": rep.invariants, "kernel_dim": rep.kernel_dim}
    text = (f"{rep.case_tag}: invariants {rep.invariants}, "
            f"kernel dim {rep.kernel_dim}")
    return CommandResult("ok", payload, text)


def _cmd_decompose(args, cfg):
    dec = decompose(args.case, n=args.n)
    payload = dec.as_dict()
    flags = dec.verification
    text = (f"l1 = {list(dec.l1_indices)}\nl2 = {list(dec.l2_indices)}\n"
            + "\n".join(f"{k}: {str(v).lower()}" for k, v in flags.items()))
    return CommandResult("ok", payload, text)


def _cmd_invert(args, cfg):
    target = args.target
    qs = quad_settings(cfg)
    if args.nodes is not None:
        qs["start_nodes"] = args.nodes
    stepwise = case_number(target) is not None
    if stepwise:
        dec = decompose(target)
        alg = dec.algebra
        tol = args.tol if args.tol is not None else cfg["stepwise_rtol"]
    else:
        alg = from_name(target)
        tol = args.tol if args.tol is not None else cfg["flat_rtol"]
    # the points first: a malformed one is refused before numpy loads
    points = _parse_points(args.points, alg.dim, cfg["seed"])
    import numpy as np
    from .inversion import invert_flat, invert_stepwise
    formula = f"{'stepwise' if stepwise else 'flat'}:{target}"
    entries = []
    wall = 0.0
    # tensor_integrate names the inf or nan that an overflow leaves
    with np.errstate(over="ignore", invalid="ignore"):
        f = _parse_function(args.function, alg.dim)
        for pt in points:
            rep = (invert_stepwise(dec, f, pt, quad_settings=qs) if stepwise
                   else invert_flat(alg, f, pt, quad_settings=qs))
            entries.extend(rep.entries)
            wall += rep.wall_time
    worst = max(e["rel_error"] for e in entries)
    # timing is shown in the text only; the JSON payload stays
    # byte-identical across identical invocations
    payload = {"formula": formula, "entries": entries,
               "max_rel_error": worst, "tolerance": tol,
               "settings": qs}
    lines = [f"{formula}: {len(entries)} point(s), max rel error "
             f"{worst:.3e} (tolerance {tol:g}), {wall:.2f}s"]
    for e in entries:
        lines.append(f"  x = {['%.4g' % v for v in e['x']]}: rel error "
                     f"{e['rel_error']:.3e}")
    status = "ok" if worst < tol else "check_failed"
    return CommandResult(status, payload, "\n".join(lines))


def _cmd_octonion_mul(args, cfg):
    text = format_element(multiply(parse_unit(args.A), parse_unit(args.B)))
    return CommandResult("ok", {"product": text}, text)


def _cmd_octonion_table(args, cfg):
    rows = [[format_element(p) for p in row] for row in TABLE]
    return CommandResult("ok", {"table": rows},
                         "\n".join(" ".join(f"{s:>4s}" for s in row)
                                   for row in rows))


def _cmd_selftest(args, cfg):
    from . import selftest
    only = None
    if args.only:
        usage = (f"--only {shown(args.only)}: criteria are numbered "
                 f"{min(selftest.CRITERIA)}-{max(selftest.CRITERIA)}")
        try:
            only = {read_number(t, int) for t in args.only.split(",")}
        except ValueError:
            raise ValueError(usage) from None
        if not only <= set(selftest.CRITERIA):
            raise ValueError(usage)
    results = selftest.run_all(seed=cfg["seed"], only=only)
    all_passed = all(r["passed"] for r in results)
    lines = [f"criterion {r['criterion']}: "
             f"{'PASS' if r['passed'] else 'FAIL'}  {r['detail']}"
             for r in results]
    lines.append("selftest: " + ("all criteria passed" if all_passed
                                 else "FAILURES PRESENT"))
    payload = {"results": results, "all_passed": all_passed}
    return CommandResult("ok" if all_passed else "check_failed",
                         payload, "\n".join(lines))


def build_parser():
    # SUPPRESS keeps a subparser's default from clobbering a value the
    # top-level parser already set (bpo-9351)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key = value settings file")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="print the canonical JSON payload")
    parser = argparse.ArgumentParser(
        prog="nilharm",
        parents=[common],
        description="Pfaffians, square integrability, and Fourier "
                    "inversion on 2-step nilpotent Lie algebras.",
        epilog="Algebra names: heisenberg:n:F (F in C,H,O), "
               "free2step:n:F (F in R,C), octdouble, abelian:n, "
               "table:2.1:row or table:2.2:row with optional k=v params.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, about, subparsers=sub):
        p = subparsers.add_parser(name, parents=[common], help=about)
        p.set_defaults(handler=handler, parser=p)
        return p

    p = add_parser("catalog", _cmd_catalog, "list the classified families")
    p.add_argument("--table", choices=["2.1", "2.2"])
    p.add_argument("--constructible", action="store_true",
                   help="only rows with explicit structure constants")

    p = add_parser("check", _cmd_check, "structural checks for one algebra")
    p.add_argument("algebra")

    p = add_parser("pfaffian", _cmd_pfaffian, "symbolic Pfaffian over z*")
    p.add_argument("algebra")
    p.add_argument("--at", help="comma-separated rational lambda")

    p = add_parser("classify", _cmd_classify,
                   "square integrability and splits")
    p.add_argument("algebra")

    p = add_parser("orbit", _cmd_orbit, "coadjoint orbit representative")
    p.add_argument("algebra")
    p.add_argument("--coeffs", required=True,
                   help="comma-separated center coefficients")

    p = add_parser("decompose", _cmd_decompose, "stepwise split for a case")
    p.add_argument("case", help="case1, case6, or case3")
    p.add_argument("--n", type=_checked_type(int, lambda n: True,
                                             "an integer"),
                   help="generator count for case1/case6")
    p.add_argument("--verify", action="store_true",
                   help="accepted; decompose always verifies its split")

    p = add_parser("invert", _cmd_invert, "run an inversion formula check")
    p.add_argument("target", help="algebra name or case tag")
    p.add_argument("--function", default="gaussian",
                   help="gaussian or gaussian:diag:q1,...,qn")
    p.add_argument("--points", default="random:3",
                   help="p1;p2;... (comma coords) or random:k")
    p.add_argument("--tol", type=_checked_type(float, is_positive,
                                               "a positive finite number"),
                   help="acceptance tolerance on relative error")
    p.add_argument("--nodes", type=_checked_type(int, is_node_count,
                                                 "a positive integer"),
                   help="starting per-axis quadrature node count")

    ops = add_parser("octonion", None, "exact octonion arithmetic"
                     ).add_subparsers(dest="operation", required=True)
    p = add_parser("mul", _cmd_octonion_mul, "product of units", ops)
    p.add_argument("A", help="a signed unit: e0..e7 or -e0..-e7")
    p.add_argument("B")
    add_parser("table", _cmd_octonion_table, "the product table", ops)

    p = add_parser("selftest", _cmd_selftest, "run the acceptance criteria")
    p.add_argument("--only", help="comma-separated criterion numbers")

    return parser


def run(argv):
    parser = build_parser()
    # leftover tokens are refused under the parsed subcommand's usage
    args, extra = parser.parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        cfg = load_config(getattr(args, "config", None))
    except (OSError, ValueError) as exc:
        return CommandResult("error", {"error": str(exc)},
                             f"config error: {exc}")
    try:
        result = args.handler(args, cfg)
    except (ValueError, RuntimeError, IndexError, OverflowError) as exc:
        return CommandResult("error", {"error": str(exc)}, f"error: {exc}")
    result.payload["config"] = cfg
    if getattr(args, "json", False):
        result = CommandResult(result.status, result.payload,
                               _canon_json(result.payload))
    return result


def main(argv=None):
    result = run(sys.argv[1:] if argv is None else argv)
    stream = sys.stderr if result.status == "error" else sys.stdout
    try:
        print(result.human_text, file=stream, flush=True)
    except BrokenPipeError:
        # the reader went away, so the output is lost: exit 1, with the
        # stream on devnull so that the flush at exit does not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
