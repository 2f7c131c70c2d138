"""CLI surface: exit codes, pinned text lines, canonical JSON."""

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nilharm
from nilharm import selftest
from nilharm.cli import _canon_json, build_parser, run
from nilharm.composition import TABLE
from nilharm.config import DEFAULTS, MAX_DECIMAL_EXPONENT, shown


def invoke(argv):
    return run(argv)


def bench_module(name):
    """perfbench/<name>.py, loaded from its file and left unedited."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_RUN, BENCH_WORKLOADS = bench_module("run"), bench_module("workloads")


def test_classify_square_integrable_line():
    res = invoke(["classify", "heisenberg:3:C"])
    assert res.human_text == "square integrable: true"
    assert res.exit_code == 0


def test_classify_stepwise_line():
    res = invoke(["classify", "free2step:5:R"])
    assert res.human_text == ("square integrable: false; "
                              "stepwise split found: yes")
    assert res.exit_code == 0


def signed_unit(sign, k):
    return f"e{k}" if sign > 0 else f"-e{k}"


def test_octonion_mul_line():
    res = invoke(["octonion", "mul", "e6", "e7"])
    assert res.human_text == "e1"
    res = invoke(["octonion", "mul", "e7", "e6"])
    assert res.human_text == "-e1"
    # leading dash needs the usual -- separator
    res = invoke(["octonion", "mul", "--", "-e3", "e3"])
    assert res.human_text == "e0"
    # every signed pair, against the table
    for sa in (1, -1):
        for sb in (1, -1):
            for i in range(8):
                for j in range(8):
                    sign, k = TABLE[i][j]
                    res = invoke(["--json", "octonion", "mul", "--",
                                  signed_unit(sa, i), signed_unit(sb, j)])
                    assert res.exit_code == 0
                    assert json.loads(res.human_text)["product"] == \
                        signed_unit(sa * sb * sign, k)


@pytest.mark.parametrize("argv, sa, i, j", [
    (["octonion", "mul", "--json", "e1", "e2"], 1, 1, 2),
    (["octonion", "mul", "--json", "--", "-e3", "e3"], -1, 3, 3),
    (["octonion", "--json", "mul", "e6", "e7"], 1, 6, 7),
])
def test_octonion_json_flag_may_precede_the_operands(argv, sa, i, j):
    # argparse counts the two operands, so --json may come before them
    out = run_cli(argv)
    assert out.returncode == 0, out.stderr
    sign, k = TABLE[i][j]
    assert json.loads(out.stdout)["product"] == signed_unit(sa * sign, k)


def leaf_parsers(parser, path=()):
    """(subcommand words, parser) for every parser without subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_parsers(sub, path + (name,))
            return
    yield " ".join(path), parser


def test_every_subcommand_resolves_to_a_handler():
    leaves = dict(leaf_parsers(build_parser()))
    assert set(leaves) == {"catalog", "check", "pfaffian", "classify",
                           "orbit", "decompose", "invert", "octonion mul",
                           "octonion table", "selftest"}
    for name, parser in leaves.items():
        assert callable(parser.get_default("handler")), name


def test_octonion_table_rows_are_the_table():
    rows = [[signed_unit(*p) for p in row] for row in TABLE]
    res = invoke(["octonion", "table", "--json"])
    assert json.loads(res.human_text)["table"] == rows
    res = invoke(["octonion", "table"])
    assert [line.split() for line in res.human_text.splitlines()] == rows
    assert res.human_text.splitlines()[1] == (
        "  e1  -e0   e3  -e2   e5  -e4   e7  -e6")


@pytest.mark.parametrize("tag", ["1", "3", "CASE_3"])
def test_invert_reads_case_tags_as_decompose_does(tag):
    res = invoke(["invert", tag, "--points", "random:1", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.human_text)["formula"] == f"stepwise:{tag}"


def test_unknown_algebra_is_exit_2():
    res = invoke(["classify", "wrong:1:X"])
    assert res.status == "error"
    assert res.exit_code == 2
    assert "known families" in res.human_text


def test_unknown_subcommand_is_systemexit_2():
    with pytest.raises(SystemExit) as exc:
        invoke(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        invoke(["classify", "heisenberg:1:C", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, prog", [
    (["octonion", "mul", "e1", "e2", "e3"], "nilharm octonion mul"),
    (["catalog", "extra"], "nilharm catalog"),
])
def test_extra_operands_are_refused_under_the_subcommand_usage(capsys,
                                                               argv, prog):
    with pytest.raises(SystemExit) as exc:
        invoke(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.endswith(f"{prog}: error: unrecognized arguments: "
                        f"{argv[-1]}\n")


def test_check_subcommand_ok():
    res = invoke(["check", "heisenberg:2:H"])
    assert res.exit_code == 0
    assert "jacobi defect 0" in res.human_text


def test_pfaffian_symbolic_and_at():
    res = invoke(["pfaffian", "heisenberg:2:H", "--at", "1,0,-2"])
    assert "Pf(1,0,-2) = 25" in res.human_text


def test_pfaffian_json_payload():
    res = invoke(["pfaffian", "heisenberg:1:C", "--json"])
    doc = json.loads(res.human_text)
    assert doc["pfaffian"] == "-t1"
    assert doc["degree"] == 1
    assert doc["config"]["seed"] == 0


def test_json_output_is_byte_identical():
    a = invoke(["catalog", "--table", "2.1", "--json"]).human_text
    b = invoke(["catalog", "--table", "2.1", "--json"]).human_text
    assert a == b
    doc = json.loads(a)
    assert len(doc["entries"]) == 23


@pytest.mark.parametrize("text", BENCH_WORKLOADS.CLI_EXACT)
def test_exact_cli_output_matches_the_benchmark_reference(text):
    # the benchmark's byte-identical commands, in a fresh interpreter
    # with its environment (no NILHARM_*, PYTHONHASHSEED=0), hashed
    # against its reference; both lists are read from perfbench/
    want = BENCH_WORKLOADS.load_reference()["cli"][text]
    out = subprocess.run([sys.executable, "-m", "nilharm.cli",
                          *text.split()], cwd=BENCH_RUN.ROOT,
                         env=BENCH_RUN.isolated_env(), capture_output=True,
                         timeout=120)
    assert out.returncode == 0 and out.stderr == b""
    assert hashlib.sha256(out.stdout).hexdigest() == want


def test_json_flag_position_is_flexible():
    a = invoke(["--json", "classify", "heisenberg:1:C"]).human_text
    b = invoke(["classify", "heisenberg:1:C", "--json"]).human_text
    assert a == b


def test_config_file_echoed(tmp_path):
    cfg = tmp_path / "nilharm.cfg"
    cfg.write_text("quad_rtol = 1e-10\nseed = 3\n# comment\n")
    res = invoke(["check", "abelian:2", "--config", str(cfg), "--json"])
    doc = json.loads(res.human_text)
    assert doc["config"]["quad_rtol"] == 1e-10
    assert doc["config"]["seed"] == 3


def test_config_unknown_key_is_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    res = invoke(["check", "abelian:2", "--config", str(cfg)])
    assert res.exit_code == 2
    assert "unknown key" in res.human_text


def run_cli(argv, env=None):
    # bounded: before load-time checks, a negative quad_rtol never
    # converged and grew the quadrature until memory ran out
    return subprocess.run([sys.executable, "-m", "nilharm.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("line", [
    "max_evals = abc", "max_evals = 0", "max_evals = 2.5",
    "start_nodes = 0", "start_nodes = -2", "start_nodes = 2.5",
    "start_nodes = true", "seed = 1.5", "seed = true",
    "quad_rtol = -1e-8", "flat_rtol = 0", "stepwise_rtol = nan",
    "truncation_sigmas = inf", "truncation_sigmas = many",
    "seed = " + "7" * 5000, "quad_rtol = 1e10000000", "x" * 5000 + " = 1",
])
def test_bad_config_value_is_usage_error(tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300")
    out = run_cli(["--config", str(cfg), "invert", "heisenberg:1:C",
                   "--points", "0.1,0,0"], env=env)
    assert out.returncode == 2
    key = line.split("=")[0].strip()
    want = f"{key} must be" if key in DEFAULTS else "unknown key '"
    assert out.stderr.startswith(f"config error: {shown(cfg)}:1: {want}")
    assert "Traceback" not in out.stderr
    assert "Exceeds the limit" not in out.stderr
    assert len(out.stderr) < 250  # the echoed token is cut short


@pytest.mark.parametrize("name, line, want", [
    ("bad.cfg", "seed = 1.5", ":1: seed must be an integer"),
    ("missing.cfg", None, ": No such file or directory"),
    ("x" * 5000, None, ": File name too long"),
], ids=["bad-line", "missing", "name-too-long"])
def test_long_config_path_is_quoted_short(tmp_path, name, line, want):
    # a 3000-character path to the file: "/." repeated names tmp_path
    cfg = str(tmp_path) + "/." * 1500 + "/" + name
    if line:
        (tmp_path / name).write_text(line + "\n")
    out = run_cli(["--config", cfg, "check", "abelian:2"])
    assert out.returncode == 2
    assert out.stderr.startswith(f"config error: {shown(cfg)}{want}")
    assert "Traceback" not in out.stderr
    assert len(out.stderr) < 250


def test_good_config_values_load(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("max_evals = 4096\nstart_nodes = 4\nseed = -3\n"
                   "truncation_sigmas = 6\nflat_rtol = 1e-7\n")
    doc = json.loads(invoke(["check", "abelian:2", "--config", str(cfg),
                             "--json"]).human_text)["config"]
    assert (doc["max_evals"], doc["start_nodes"], doc["seed"]) == (4096, 4, -3)
    assert (doc["truncation_sigmas"], doc["flat_rtol"]) == (6, 1e-7)


def test_odd_start_nodes_config_loads(tmp_path):
    cfg = tmp_path / "odd.cfg"
    cfg.write_text("start_nodes = 3\n")
    doc = json.loads(invoke(["check", "abelian:2", "--config", str(cfg),
                             "--json"]).human_text)["config"]
    assert doc["start_nodes"] == 3


def test_bad_seed_env_variable_is_usage_error():
    env = dict(os.environ, NILHARM_SEED="abc")
    out = run_cli(["check", "abelian:2"], env=env)
    assert out.returncode == 2
    assert "config error: NILHARM_SEED: seed must be an integer" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("nodes", ["0", "-2", "2.5", "true", "abc"])
def test_nodes_must_be_positive_integers(nodes):
    # refuses non-positive and non-integer counts only; odd ones are
    # accepted (test_odd_nodes_are_accepted)
    out = run_cli(["invert", "heisenberg:1:C", "--points", "0.1,0,0",
                   f"--nodes={nodes}"])
    assert out.returncode == 2
    assert "is not a positive integer" in out.stderr
    assert "Traceback" not in out.stderr


# no inversion integrand holds a Pfaffian, so an odd rule's node at the
# envelope centre is harmless
@pytest.mark.parametrize("nodes", ["1", "3", "7"])
def test_odd_nodes_are_accepted(nodes):
    res = invoke(["invert", "heisenberg:1:C", "--points", "0.1,0,0",
                  "--nodes", nodes, "--json"])
    assert res.exit_code == 0
    assert json.loads(res.human_text)["settings"]["start_nodes"] == int(nodes)


def test_even_nodes_are_accepted():
    res = invoke(["invert", "heisenberg:1:C", "--points", "0.1,0,0",
                  "--nodes", "4", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.human_text)["settings"]["start_nodes"] == 4


def test_seed_env_variable(monkeypatch):
    monkeypatch.setenv("NILHARM_SEED", "11")
    res = invoke(["check", "abelian:2", "--json"])
    assert json.loads(res.human_text)["config"]["seed"] == 11


def test_orbit_subcommand():
    res = invoke(["orbit", "free2step:5:R", "--coeffs",
                  "2,0,0,0,0,0,0,0,0,0"])
    assert res.exit_code == 0
    assert "case1" in res.human_text


@pytest.mark.parametrize("coeffs, sigma", [("1e200,1,1,1,1,1", 1e200),
                                           ("1e300,1e300,1,1,1,1",
                                            2 ** 0.5 * 1e300)])
def test_case6_orbit_of_a_huge_functional(coeffs, sigma):
    # past ~1e154 a squared entry overflows: sigma must come from a
    # route that squares none
    out = run_cli(["orbit", "free2step:3:C", "--coeffs", coeffs, "--json"])
    assert out.returncode == 0
    assert out.stderr == ""
    doc = json.loads(out.stdout)
    assert doc["kernel_dim"] == 1
    assert doc["invariants"][0] == pytest.approx(sigma, rel=1e-12)


@pytest.mark.parametrize("algebra, coeffs", [
    ("free2step:3:R", "1e-400,0,0"),
    ("free2step:3:C", "1e-400,1e-400,0,0,0,0"),
    ("octdouble", "0,1e-400,1e-400,0,0,0,0"),
    ("free2step:3:R", "1e400,0,0")])
def test_orbit_refuses_a_coefficient_outside_the_float_range(algebra, coeffs):
    # 1e-400 would become 0.0 and answer the zero orbit (all three
    # cases); 1e400 would overflow in float()
    out = run_cli(["orbit", algebra, "--coeffs=" + coeffs])
    assert out.returncode == 2
    assert out.stderr == ("error: a coefficient is too small or too large "
                          "for a float, whose range is 5e-324 to 1.8e308\n")


@pytest.mark.parametrize("algebra, coeffs", [
    ("free2step:3:R", "1.7e308,1.7e308,1.7e308"),
    ("free2step:3:C", "1.7e308,1.7e308,0,0,0,0"),
    ("octdouble", ",".join(["1e308"] * 7))])
def test_orbit_refuses_an_invariant_outside_the_float_range(algebra, coeffs):
    # every coefficient is a float but the sigma is not: it printed as
    # Infinity, which is not JSON (cases 1, 6 and 3)
    out = run_cli(["orbit", algebra, "--coeffs=" + coeffs, "--json"])
    assert out.returncode == 2
    assert out.stderr == ("error: an orbit invariant is too large for a "
                          "float, whose range is 5e-324 to 1.8e308\n")


def test_orbit_kernel_is_the_exact_radical_under_a_small_sigma():
    # sigma 1e-11 lies under a float rank floor relative to the largest
    # entry, 1, but b_lambda has rank 4 exactly
    res = invoke(["orbit", "free2step:5:R", "--coeffs",
                  "1,0,0,0,0,0,0,0,0,1e-11", "--json"])
    assert res.exit_code == 0
    doc = json.loads(res.human_text)
    assert doc["kernel_dim"] == 1
    assert doc["invariants"] == [pytest.approx(1e-11, rel=1e-6), 1.0]


@pytest.mark.parametrize("small", ["1e-20", "1e-16"])
def test_orbit_refuses_a_sigma_under_the_float_resolution(small):
    # lambda = (u1^u2)* + (u2^u3)* + small (u1^u4)*: rank 4 exactly, but
    # its sigma small / sqrt(2) is below the float spectrum's error, so
    # the eigenvalue read for it is rounding noise (3.4e-17 at 1e-20)
    out = run_cli(["orbit", "free2step:5:R", "--coeffs",
                   f"1,0,{small},0,1,0,0,0,0,0", "--json"])
    assert out.returncode == 2
    assert out.stderr == ("error: an orbit invariant is below the "
                          "resolution of the float skew spectrum, 5 * "
                          "2.2e-16 times the largest\n")


@pytest.mark.parametrize("algebra, coeffs, zdim", [
    ("free2step:3:R", "1,2,3,4", 3), ("free2step:3:C", "1,2,3,4,5,6,7,8", 6),
    ("free2step:3:R", "1,2", 3), ("octdouble", "0,1,1", 7)])
def test_orbit_refuses_a_functional_of_the_wrong_length(algebra, coeffs,
                                                        zdim):
    res = invoke(["orbit", algebra, "--coeffs", coeffs])
    assert res.exit_code == 2
    assert res.human_text == (f"error: need {zdim} coefficients, "
                              f"got {coeffs.count(',') + 1}")


def test_decompose_subcommand():
    res = invoke(["decompose", "case3"])
    assert res.exit_code == 0
    assert "l1_square_integrable: true" in res.human_text


def test_invert_flat_subcommand():
    res = invoke(["invert", "heisenberg:1:C", "--points", "0,0,0",
                  "--tol", "1e-6"])
    assert res.exit_code == 0
    assert res.payload["max_rel_error"] < 1e-10


def test_invert_tolerance_failure_is_exit_1():
    # a point whose reconstruction error is rounding noise but not 0:
    # at the origin the slice route reconstructs f exactly
    res = invoke(["invert", "heisenberg:1:C", "--points", "0.1,0.2,3.0",
                  "--tol", "1e-30"])
    assert res.status == "check_failed"
    assert res.exit_code == 1


def test_invert_function_spec():
    res = invoke(["invert", "heisenberg:1:C",
                  "--function", "gaussian:diag:1,0.7,1.3",
                  "--points", "0.1,0.2,0.3"])
    assert res.exit_code == 0
    res = invoke(["invert", "heisenberg:1:C", "--function", "nope",
                  "--points", "0,0,0"])
    assert res.exit_code == 2


def test_selftest_subset_exit_codes():
    res = invoke(["selftest", "--only", "1"])
    assert res.exit_code == 0
    assert "criterion 1: PASS" in res.human_text


@pytest.mark.parametrize("only", ["0", "10", "99", "1,99"])
def test_selftest_unknown_criterion_is_usage_error(only):
    res = invoke(["selftest", "--only", only])
    assert res.exit_code == 2
    assert "criteria are numbered 1-9" in res.human_text


def test_selftest_criterion_3_is_red(monkeypatch):
    # a failing criterion must give exit 1 and a FAIL line
    monkeypatch.setitem(selftest.CRITERIA, 3, lambda seed=0: {
        "criterion": 3, "passed": False, "detail": "forced failure"})
    res = invoke(["selftest", "--only", "3"])
    assert res.exit_code == 1
    assert "criterion 3: FAIL" in res.human_text


def test_entry_point_process():
    out = subprocess.run([sys.executable, "-m", "nilharm.cli",
                          "octonion", "mul", "e6", "e7"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "e1"


@pytest.mark.parametrize("argv", [
    ["catalog", "--json"],
    ["invert", "heisenberg:1:C", "--points", "0,0,0"],
    ["pfaffian", "heisenberg:1:H"],
])
def test_closed_stdout_exits_1_without_traceback(argv):
    # the reader has gone before the first write, as in `... | true`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "nilharm.cli"] + argv,
                             stdout=write_end, stderr=subprocess.PIPE,
                             text=True, timeout=60)
    finally:
        os.close(write_end)
    assert out.returncode == 1
    assert out.stderr == ""


@pytest.mark.parametrize("argv", [
    ["--points", "1e300,0,0"],
    ["--function", "gaussian:diag:1e308,1e308,1e308"],
])
def test_an_overflowing_inversion_is_one_error_line(argv):
    # refused at the first quadrature level, with no numpy warning
    out = run_cli(["invert", "heisenberg:1:C"] + argv)
    assert out.returncode == 2
    assert out.stderr == "error: integrand is not finite (8 nodes/axis)\n"


@pytest.mark.parametrize("argv", [
    ["pfaffian", "heisenberg:1:C", "--at", "1/0"],
    ["invert", "heisenberg:1:C", "--points", "1/0,0,0"],
    ["invert", "heisenberg:1:C", "--function", "gaussian:diag:1,1/0,1",
     "--points", "0,0,0"],
])
def test_zero_denominator_is_usage_error(argv):
    out = subprocess.run([sys.executable, "-m", "nilharm.cli"] + argv,
                         capture_output=True, text=True)
    assert out.returncode == 2
    assert "zero denominator" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("argv", [
    ["pfaffian", "heisenberg:1:C", "--at", "1e10000000"],
    ["pfaffian", "heisenberg:1:C", "--at=-5E-10000000"],
    ["invert", "heisenberg:1:C", "--points=1e10000000,0,0"],
])
def test_huge_decimal_exponent_is_refused_before_expansion(argv):
    # Fraction would build the ten-million-digit integer: ~14 s
    out = subprocess.run([sys.executable, "-m", "nilharm.cli"] + argv,
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 2
    assert f"exceeds {MAX_DECIMAL_EXPONENT} in magnitude" in out.stderr
    assert "Traceback" not in out.stderr


def test_exponent_within_the_bound_parses_exactly():
    res = invoke(["pfaffian", "heisenberg:1:C", "--at", "1e400"])
    assert res.exit_code == 0
    assert res.human_text.endswith(" = -1" + "0" * 400)


AT_1E1000 = ["pfaffian", "heisenberg:4:H", "--at", "1e1000,1e1000,1e1000"]


def test_exact_value_past_the_int_string_limit():
    # Pf = (t1^2 + t2^2 + t3^2)^4 on h(4;H), so 81 * 10^8000 here: past
    # the interpreter's 4300-digit default for int-to-string conversion
    want = "81" + "0" * 8000
    out = run_cli(AT_1E1000)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == \
        "Pf(1e1000,1e1000,1e1000) = " + want
    out = run_cli(AT_1E1000 + ["--json"])
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["value"] == want
    assert doc["at"] == ["1" + "0" * 1000] * 3


def test_exact_value_conversion_restores_the_digit_limit():
    # the limit, and its getter, exist from Python 3.10.7 on
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    assert invoke(AT_1E1000).exit_code == 0
    assert limit() == before


# past the interpreter's default int-string limit of 4300 digits
LONG = "7" * 5000
XLONG = "x" * 5000
SHORT_LONG = "'7777777777777777...7777777777777777'"


@pytest.mark.parametrize("argv, message", [
    (["pfaffian", "heisenberg:1:C", "--at", f"{LONG},1,1"],
     f"{SHORT_LONG} has a part of 5000 digits"),
    (["pfaffian", "heisenberg:1:C", "--at", f"1.{LONG}"],
     "has a part of 5000 digits"),
    (["invert", "heisenberg:1:C", "--points", f"0.1,0.2,{LONG}"],
     f"{SHORT_LONG} has a part of 5000 digits"),
    (["orbit", "free2step:3:R", "--coeffs", f"1/{LONG},0,0"],
     "has a part of 5000 digits"),
    (["invert", "heisenberg:1:C", f"--points=random:{LONG}"],
     f"{SHORT_LONG} has a part of 5000 digits"),
    (["selftest", "--only", LONG],
     f"--only {SHORT_LONG}: criteria are numbered 1-9"),
], ids=["at", "at-fraction-digits", "points", "coeffs-denominator",
        "random-k", "selftest-only"])
def test_long_mantissa_is_a_usage_error(argv, message):
    # the check reads the interpreter's limit, pinned here to its default
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300")
    out = run_cli(argv, env=env)
    assert out.returncode == 2
    assert message in out.stderr
    assert "Exceeds the limit" not in out.stderr
    assert "Traceback" not in out.stderr
    assert len(out.stderr) < 200  # the echoed token is cut short


@pytest.mark.parametrize("argv, message", [
    # past the digit limit a token is too long, not malformed
    (["decompose", "case1", "--n", LONG],
     f"argument --n: {SHORT_LONG} has a part of 5000 digits"),
    (["invert", "heisenberg:1:C", "--nodes", LONG],
     f"argument --nodes: {SHORT_LONG} has a part of 5000 digits"),
    (["invert", "heisenberg:1:C", "--tol", LONG],
     f"argument --tol: {SHORT_LONG} has a part of 5000 digits"),
    # parses (3001 < 4300 digits), but the dimension has ~6000 digits
    (["decompose", "case1", "--n", "7" * 3001],
     "free2step has dimension > 10^12; constructed algebras are capped "
     "at dimension 64"),
    (["decompose", "case6", "--n", "7" * 3001],
     "free2step has dimension > 10^12"),
    (["classify", "heisenberg:" + "7" * 3001 + ":C"],
     "heisenberg has dimension > 10^12"),
    # every other token a message names is cut short as well
    (["check", f"table:2.2:1:{XLONG}=3"], "unknown parameter 'xxx"),
    (["check", f"table:{XLONG}:1"], "no row '1' in table 'xxx"),
    (["decompose", XLONG], "unsupported case tag 'xxx"),
    (["invert", "heisenberg:1:C", "--points=0,0,0", f"--function={XLONG}"],
     "unknown function spec 'xxx"),
    (["invert", "heisenberg:1:C", "--points", ";" * 5000],
     "--points ';;;;;;;;;;;;;;;;...;;;;;;;;;;;;;;;;' gives no point"),
    (["octonion", "mul", f"e{LONG}", "e1"],
     f"{SHORT_LONG} has a part of 5000 digits"),
], ids=["n", "nodes", "tol", "n-dimension", "n-dimension-case6",
        "heisenberg-dimension", "table-parameter", "table-id", "case-tag",
        "function-spec", "points-separators", "octonion-unit"])
def test_long_option_tokens_are_cut_short(argv, message):
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300")
    out = run_cli(argv, env=env)
    assert out.returncode == 2
    assert message in out.stderr
    assert "Exceeds the limit" not in out.stderr
    assert "Traceback" not in out.stderr
    assert "7" * 40 not in out.stderr  # no token echoed in full
    # argparse prints its usage lines first; the message is the last line
    assert len(out.stderr.splitlines()[-1]) < 250


@pytest.mark.parametrize("name", ["heisenberg:" + "7" * 5000 + ":C",
                                  "heisenberg:" + "x" * 5000 + ":C",
                                  "mystery" * 1000],
                         ids=["digits", "letters", "family"])
def test_a_long_algebra_name_is_cut_short(name):
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="4300")
    out = run_cli(["check", name, "--json"], env=env)
    assert out.returncode == 2
    assert "algebra name '" in out.stderr
    assert "Traceback" not in out.stderr
    assert len(out.stderr) < 250


def test_checked_types_keep_their_messages_on_short_tokens():
    out = run_cli(["decompose", "case1", "--n", "x"])
    assert out.returncode == 2
    assert "argument --n: 'x' is not an integer" in out.stderr
    res = invoke(["decompose", "case1", "--n", "11"])
    assert res.exit_code == 2
    assert res.human_text == ("error: free2step:11:R has dimension 66; "
                              "constructed algebras are capped at "
                              "dimension 64")
    assert invoke(["decompose", "case1", "--n", "5"]).exit_code == 0


@pytest.mark.parametrize("argv, message", [
    (["decompose", "case3", "--n", "3"],
     "error: unknown parameter 'n' for table 2.1 row 3"),
    (["decompose", "case3", "--n", "4"],
     "error: unknown parameter 'n' for table 2.1 row 3"),
    (["decompose", "case1", "--n", "1"], "error: free 2-step needs n >= 2"),
    (["decompose", "case6", "--n", "-1"], "error: free 2-step needs n >= 2"),
    (["decompose", "case1", "--n", "4"], "error: case1 requires odd n >= 3"),
])
def test_decompose_sizes_are_refused_as_table_2_1_builds_them(argv, message):
    res = invoke(argv)
    assert res.exit_code == 2
    assert res.human_text == message


def test_parts_within_the_digit_limit_still_parse():
    # Fraction reads the integer and fractional parts with one int()
    # each, so two 3000-digit parts are within the limit
    head = "1" + "0" * 2999
    res = invoke(["pfaffian", "heisenberg:1:C", "--at",
                  f"{head}.{'0' * 3000}"])
    assert res.exit_code == 0, res.human_text
    assert res.human_text.endswith(" = -1" + "0" * 2999)


def _limit_memory():
    # a size check that fails would allocate without bound
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))


@pytest.mark.parametrize("name", ["heisenberg:100000:C", "free2step:100000:R",
                                  "abelian:100000", "table:2.2:1:n=100"])
def test_oversized_algebra_is_refused_at_once(name):
    out = subprocess.run([sys.executable, "-m", "nilharm.cli", "classify",
                          name], capture_output=True, text=True, timeout=20,
                         preexec_fn=_limit_memory)
    assert out.returncode == 2
    assert "capped at dimension 64" in out.stderr
    assert "Traceback" not in out.stderr


def test_help_mentions_naming_scheme():
    parser = build_parser()
    assert "heisenberg:n:F" in parser.format_help() or \
        "heisenberg" in parser.format_help()


MALFORMED_OPERANDS = [
    (["invert", "heisenberg:1:C", "--points=random:0"],
     "--points 'random:0': random:k needs an integer k >= 1"),
    (["invert", "heisenberg:1:C", "--points=random:-2"],
     "--points 'random:-2': random:k needs an integer k >= 1"),
    (["invert", "heisenberg:1:C", "--points=random:1001"],
     "--points 'random:1001': random:k takes at most 1000 points"),
    (["invert", "heisenberg:1:C", "--points=;"],
     "--points ';' gives no point"),
    (["invert", "heisenberg:1:C", "--points=0,0,0", "--tol=nan"],
     "argument --tol: 'nan' is not a positive finite number"),
    (["invert", "heisenberg:1:C", "--points=0,0,0", "--tol=0"],
     "argument --tol: '0' is not a positive finite number"),
    (["invert", "heisenberg:1:C", "--points=0,0,0", "--tol=-1e-6"],
     "argument --tol: '-1e-6' is not a positive finite number"),
    (["invert", "heisenberg:1:C", "--points=0,0,0", "--tol=inf"],
     "argument --tol: 'inf' is not a positive finite number"),
    (["octonion", "mul", "e1"],
     "octonion mul: error: the following arguments are required: B"),
    (["octonion", "mul", "e1", "e2", "e3"],
     "error: unrecognized arguments: e3"),
    (["octonion", "table", "e1"], "error: unrecognized arguments: e1"),
    (["invert", "heisenberg:1:C", "--points", "1e400,0,0"],
     "'1e400' is too large for a float"),
    (["invert", "heisenberg:1:C", "--function", "gaussian:diag:1e400,1,1"],
     "'1e400' is too large for a float"),
    (["orbit", "free2step:3:R", "--coeffs", "1e400,0,0"],
     "too large for a float"),
]


@pytest.mark.parametrize("argv, message", MALFORMED_OPERANDS,
                         ids=[" ".join(a) for a, _ in MALFORMED_OPERANDS])
def test_malformed_operands_are_usage_errors(argv, message):
    out = run_cli(argv)
    assert out.returncode == 2
    assert message in out.stderr
    assert "Traceback" not in out.stderr


def assert_both_inversions_exhaust_the_budget(cfg, line):
    # one flat and one stepwise inversion: both run the configured
    # quadrature
    cfg.write_text(line + "\n")
    for argv in (["heisenberg:1:C", "--points", "0.1,0,0"],
                 ["case1", "--points", "0.1,-0.2,0.15,0.3,-0.1,0.2"]):
        out = run_cli(["--config", str(cfg), "invert"] + argv)
        assert out.returncode == 2, argv
        assert "quadrature budget exhausted" in out.stderr
        assert "Traceback" not in out.stderr


def test_nonconverging_quadrature_stops_at_the_node_cap(tmp_path):
    # a tolerance below float noise never converges; the per-axis node
    # cap turns that into the budget error instead of an eigen-solve
    # that grows without bound
    assert_both_inversions_exhaust_the_budget(tmp_path / "tiny.cfg",
                                              "quad_rtol = 1e-300")


def test_configured_max_evals_bounds_both_inversions(tmp_path):
    # 8 starting nodes are over a budget of 4 on either formula
    assert_both_inversions_exhaust_the_budget(tmp_path / "small.cfg",
                                              "max_evals = 4")


NUMERIC_MODULES = ("numpy", "nilharm.inversion", "nilharm.gaussians",
                   "nilharm.orbits", "nilharm.selftest")

# runs cli.main on each argv of a JSON list in one fresh interpreter and
# prints, per argv, the exit code and the numeric modules loaded so far
_MODULES_AFTER = """
import contextlib, io, json, sys
from nilharm import cli
report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report.append([code, [m for m in json.loads(sys.argv[2])
                          if m in sys.modules]])
print(json.dumps(report))
"""


def test_exact_subcommands_do_not_load_numpy():
    runs = [
        (["catalog", "--json"], 0),
        (["check", "heisenberg:2:H"], 0),
        (["pfaffian", "heisenberg:2:H", "--at", "1,0,-2", "--json"], 0),
        (["classify", "heisenberg:3:C", "--json"], 0),
        (["classify", "free2step:5:R"], 0),
        (["classify", "wrong:1:X"], 2),
        (["decompose", "case3", "--verify", "--json"], 0),
        (["octonion", "mul", "e6", "e7", "--json"], 0),
        (["octonion", "table"], 0),
        (["octonion", "mul", "e1"], 2),
        (["octonion", "mul", "e1", "e2", "e3"], 2),
        (["octonion", "table", "e1"], 2),
        (["decompose"], 2),
        (["frobnicate"], 2),
    ]
    out = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER,
         json.dumps([argv for argv, _ in runs]),
         json.dumps(NUMERIC_MODULES)],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report == [[code, []] for _, code in runs]


def test_malformed_points_are_refused_before_numpy_loads():
    runs = [["invert", "heisenberg:1:C", "--points", "1,2", "--json"],
            ["invert", "case1", "--points", "1,2;", "--json"],
            ["invert", "heisenberg:1:H", "--points", "1/0,0,0,0,0,0,0"],
            ["invert", "heisenberg:1:C", "--points", "random:0"]]
    out = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER, json.dumps(runs),
         json.dumps(NUMERIC_MODULES)],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[2, []]] * len(runs)


def test_exact_orbit_routes_do_not_load_numpy():
    # an algebra with no orbit normal form is refused before numpy
    # loads; every case that answers reads skew_spectrum
    runs = [["orbit", "heisenberg:1:C", "--coeffs", "1", "--json"],
            ["orbit", "heisenberg:1:C", "--coeffs", "1"]]
    out = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER, json.dumps(runs),
         json.dumps(["numpy"])],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[2, []], [2, []]]


def test_case3_orbit_is_one_answer_on_the_unit_sphere():
    # G2 is transitive on S^6, so e1*, e3* and e6* are one orbit: one
    # payload, byte for byte
    outs = [run_cli(["orbit", "octdouble", "--coeffs", coeffs, "--json"])
            for coeffs in ("1,0,0,0,0,0,0", "0,0,1,0,0,0,0",
                           "0,0,0,0,0,1,0")]
    assert [out.returncode for out in outs] == [0, 0, 0]
    assert outs[0].stdout == outs[1].stdout == outs[2].stdout
    doc = json.loads(outs[0].stdout)
    del doc["config"]
    assert doc == {"algebra": "octdouble", "case": "case3",
                   "invariants": [1.0], "kernel_dim": 1}


def test_numeric_subcommands_keep_their_payloads():
    out = run_cli(["orbit", "free2step:5:R", "--coeffs",
                   "2,0,0,0,0,0,0,0,0,0", "--json"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    del doc["config"]
    assert doc == {"algebra": "free2step:5:R", "case": "case1",
                   "invariants": [2.0], "kernel_dim": 3}

    out = run_cli(["invert", "heisenberg:1:C", "--points", "0.1,0,0",
                   "--json"])
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["formula"] == "flat:heisenberg:1:C"
    assert doc["tolerance"] == 1e-6
    assert doc["settings"] == {"max_evals": 2 ** 20, "rtol": 1e-8,
                               "start_nodes": 8}
    (entry,) = doc["entries"]
    assert (entry["x"], entry["z_nodes"]) == ([0.1, 0.0, 0.0], 16)
    assert abs(entry["f_x"] - np.exp(-0.005)) < 1e-15
    assert doc["max_rel_error"] < 1e-12

    # random:k draws from the config seed (0)
    out = run_cli(["invert", "heisenberg:1:C", "--points", "random:2",
                   "--json"])
    assert out.returncode == 0
    drawn = np.random.default_rng(0).normal(0.0, 0.5, size=(2, 3))
    assert [e["x"] for e in json.loads(out.stdout)["entries"]] == [
        [float(v) for v in row] for row in drawn]


def test_star_import_binds_every_public_name():
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, nilharm\nns = {}\n"
         "exec('from nilharm import *', ns)\n"
         "print(json.dumps(sorted(set(nilharm.__all__) - set(ns))))"],
        capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []
    assert nilharm.invert_flat.__module__ == "nilharm.inversion"
    assert nilharm.pfaffian.__module__ == "nilharm.pfaffian"
    with pytest.raises(AttributeError):
        nilharm.no_such_name


def test_canon_json_converts_numpy_scalars_without_numpy():
    doc = {"f64": np.float64(0.1), "f32": np.float32(0.1),
           "i64": np.int64(-7), "flags": [True, False],
           "q": Fraction(-2, 3), "third": 1 / 3, "big": np.float64(1e300),
           "pair": (np.int64(3), np.float32(2.5)), "n": None, "s": "x"}
    assert _canon_json(doc) == (
        '{\n  "big": 1e+300,\n  "f32": 0.10000000149011612,\n'
        '  "f64": 0.1,\n  "flags": [\n    true,\n    false\n  ],\n'
        '  "i64": -7,\n  "n": null,\n  "pair": [\n    3,\n    2.5\n  ],\n'
        '  "q": "-2/3",\n  "s": "x",\n  "third": 0.3333333333333333\n}')
