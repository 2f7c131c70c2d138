"""Fuzzed command lines and config files, run in-process through cli.run.

Every input ends in exit 0, 1 or 2; the only exception that escapes is
argparse's SystemExit(2); and --json output is byte-identical when the
same command runs again.  Sizes stay far below catalog.MAX_DIM, and the
inversion targets are the cheap ones, so each example runs in well
under a second.
"""

import os
import tempfile

from hypothesis import example, given, settings, strategies as st

from nilharm.cli import run

NUMBER = st.sampled_from(["0", "1", "-2", "1/2", "-3/7", "0.25", "2e-3",
                          "1e400", "-1e400", "1e-400", "1/0", "nan", "x", ""])
NUMBERS = st.lists(NUMBER, max_size=4).map(",".join)
SIZE = st.integers(-1, 4)
FIELD = st.sampled_from(["C", "H", "O", "R", "X"])

ALGEBRA = st.one_of(
    st.builds("heisenberg:{}:{}".format, SIZE, FIELD),
    st.builds("free2step:{}:{}".format, SIZE, FIELD),
    st.builds("abelian:{}".format, SIZE),
    st.builds("table:{}:{}".format, st.sampled_from(["2.1", "2.2", "9"]),
              st.integers(0, 26)),
    st.builds("table:2.2:{}:{}={}".format, st.integers(1, 25),
              st.sampled_from(["n", "m", "q"]), SIZE),
    st.sampled_from(["octdouble", "", "heisenberg", "heisenberg:x:C",
                     "nosuch:1"]),
)


def _opt(flag, strategy):
    """[] or ["flag=value"], so a leading '-' stays a value."""
    return st.one_of(st.just([]), strategy.map(lambda v: [f"{flag}={v}"]))


POINTS = st.one_of(st.builds("random:{}".format, st.integers(-1, 2)),
                   st.lists(NUMBERS, min_size=1, max_size=2).map(";".join))
FUNCTION = st.one_of(st.sampled_from(["gaussian", "nope"]),
                     NUMBERS.map("gaussian:diag:{}".format))


def _cat(*parts):
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


NAME = ALGEBRA.map(lambda a: [a])
COMMAND = st.one_of(
    _cat(st.just(["catalog"]),
         _opt("--table", st.sampled_from(["2.1", "2.2"])),
         st.sampled_from([[], ["--constructible"]])),
    _cat(st.sampled_from([["check"], ["classify"]]), NAME),
    _cat(st.just(["pfaffian"]), NAME, _opt("--at", NUMBERS)),
    _cat(st.just(["orbit"]), NAME, NUMBERS.map(lambda c: [f"--coeffs={c}"])),
    _cat(st.just(["decompose"]),
         st.sampled_from([["case1"], ["case3"], ["case6"], ["case2"]]),
         _opt("--n", st.integers(-1, 5)),
         st.sampled_from([[], ["--verify"]])),
    _cat(st.just(["invert"]),
         st.sampled_from([["heisenberg:1:C"], ["heisenberg:2:C"], ["case1"],
                          ["case3"], ["case2"], ["abelian:x"]]),
         _opt("--points", POINTS), _opt("--function", FUNCTION),
         _opt("--tol", NUMBER), _opt("--nodes", st.integers(-2, 6))),
    # --json may also come between the operation and its operands
    _cat(st.just(["octonion"]),
         st.sampled_from([["mul"], ["table"], ["div"]]),
         st.sampled_from([[], ["--json"]]),
         st.lists(st.sampled_from(["e0", "e3", "-e7", "e8", "x"]),
                  max_size=3)),
    # with no --only, selftest runs every criterion: seconds per example
    st.sampled_from(["1", "8", "1,8", "0", "10", "99", "1,99", "x"]).map(
        lambda only: ["selftest", f"--only={only}"]),
)

CONFIG_LINE = st.one_of(
    st.builds("{} = {}".format,
              st.sampled_from(["quad_rtol", "max_evals", "truncation_sigmas",
                               "start_nodes", "flat_rtol", "stepwise_rtol",
                               "seed", "bogus"]),
              st.sampled_from(["1", "2", "4", "4096", "1e-6", "1e-300", "-1",
                               "0", "2.5", "1e400", "nan", "x", "true", ""])),
    st.sampled_from(["# comment", "", "no equals sign", "= 1"]),
)
CONFIG = st.one_of(st.none(), st.lists(CONFIG_LINE, max_size=3))


def _run(argv):
    try:
        result = run(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return None
    assert result.exit_code in (0, 1, 2), argv
    return result


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(COMMAND, st.booleans(), CONFIG)
@example(["invert", "heisenberg:1:C", "--points=1e400,0,0"], True, None)
@example(["invert", "heisenberg:1:C", "--function=gaussian:diag:1e400,1,1"],
         True, None)
@example(["orbit", "free2step:3:R", "--coeffs=1e400,0,0"], True, None)
@example(["pfaffian", "heisenberg:1:C", "--at=1e10000000"], True, None)
@example(["pfaffian", "heisenberg:1:C", "--at=-5E-10000000"], False, None)
@example(["invert", "heisenberg:1:C", "--points=1e10000000,0,0"], True, None)
@example(["pfaffian", "heisenberg:4:H", "--at=1e1000,1e1000,1e1000"], True,
         None)
@example(["pfaffian", "heisenberg:1:C", "--at=" + "7" * 5000 + ",1,1"], True,
         None)
@example(["invert", "heisenberg:1:C", "--points=0.1,0.2," + "7" * 5000],
         False, None)
@example(["invert", "heisenberg:1:C", "--points=random:" + "7" * 5000], True,
         None)
@example(["orbit", "free2step:3:R", "--coeffs=1/" + "7" * 5000 + ",0,0"],
         True, None)
@example(["decompose", "case1", "--n=" + "7" * 3001], True, None)
@example(["decompose", "case6", "--n=" + "7" * 5000], False, None)
@example(["invert", "heisenberg:1:C", "--nodes=" + "8" * 5000], True, None)
@example(["invert", "heisenberg:1:C", "--tol=" + "7" * 5000], False, None)
def test_cli_inputs_end_in_a_documented_exit(argv, as_json, config_lines):
    with tempfile.TemporaryDirectory() as tmp:
        if config_lines is not None:
            path = os.path.join(tmp, "fuzz.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(config_lines) + "\n")
            argv = ["--config", path] + argv
        if as_json:
            argv = argv + ["--json"]
        first = _run(argv)
        if first is not None and as_json:
            assert _run(argv).human_text == first.human_text, argv
