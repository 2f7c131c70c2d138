"""Tolerance and quadrature defaults, with key=value file overrides,
and the one reader of numbers given as text.

Every report echoes the effective configuration so runs are
reproducible from their own output.  Every number read from argv, an
algebra name, a config file or NILHARM_SEED goes through read_number,
which bounds the token before it parses it.
"""

import math
import os
import re
import sys
from fractions import Fraction

DEFAULTS = {
    "quad_rtol": 1e-8,
    "max_evals": 2 ** 20,
    "truncation_sigmas": 8.0,
    "start_nodes": 8,
    "flat_rtol": 1e-6,
    "stepwise_rtol": 1e-3,
    "seed": 0,
}


# Fraction expands a decimal exponent in full: "1e10000000" builds a
# ten-million-digit integer, about 14 s.  Past this bound a number is
# refused; 1e400 (past the float range) still parses exactly.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def shown(tok):
    """tok quoted for a message, its middle cut out when it is long."""
    tok = str(tok).strip()
    return repr(tok if len(tok) <= 40 else f"{tok[:16]}...{tok[-16:]}")


def read_number(tok, kind, what=None):
    """The text tok read as kind: int, Fraction or float.

    Before any parse, a decimal exponent past MAX_DECIMAL_EXPONENT and
    a part longer than int() reads are refused: Fraction reads the
    integer part, the fractional part, the denominator and the exponent
    with one int() each, and int() refuses more digits than
    sys.get_int_max_str_digits() (4300 by default; 0 means no limit).
    A float is float(Fraction(tok)), the double float(tok) gives for
    decimal text.  Every refusal is a ValueError that names tok through
    shown; what names the expected value when tok is not a number.
    """
    exp = _EXPONENT.search(tok)
    if exp:
        digits = exp.group(1).replace("_", "").lstrip("0") or "0"
        # the length test first, so int() never reads a long string
        if (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                or int(digits) > MAX_DECIMAL_EXPONENT):
            raise ValueError(f"the exponent of {shown(tok)} exceeds "
                             f"{MAX_DECIMAL_EXPONENT} in magnitude")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and len(tok) > limit:
        run = max(sum(ch.isdecimal() for ch in part)
                  for part in re.split(r"[./eE]", tok))
        if run > limit:
            raise ValueError(f"{shown(tok)} has a part of {run} digits; a "
                             f"number is read up to {limit} digits per part")
    try:
        value = int(tok) if kind is int else Fraction(tok)
        return float(value) if kind is float else value
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {shown(tok)}") from None
    except OverflowError:
        raise ValueError(f"{shown(tok)} is too large for a float") from None
    except ValueError:
        what = what or ("an integer" if kind is int else "a number")
        raise ValueError(f"{shown(tok)} is not {what}") from None


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def is_positive(value):
    return ((_is_int(value) or isinstance(value, float))
            and math.isfinite(value) and value > 0)


def is_node_count(value):
    return _is_int(value) and value > 0


_POSITIVE = (is_positive, "a positive finite number")
_RULES = {"quad_rtol": _POSITIVE, "flat_rtol": _POSITIVE,
          "stepwise_rtol": _POSITIVE, "truncation_sigmas": _POSITIVE,
          "max_evals": (is_node_count, "an integer >= 1"),
          "start_nodes": (is_node_count, "a positive integer"),
          "seed": (_is_int, "an integer")}


def _parse_value(text):
    # a number where the text is one; anything else fails _checked
    for kind in (int, float):
        try:
            return read_number(text, kind)
        except ValueError:
            pass
    return text


def _checked(key, text, where):
    accepts, what = _RULES[key]
    value = _parse_value(text)
    if not accepts(value):
        raise ValueError(f"{where}: {key} must be {what}, got {shown(text)}")
    return value


def load_config(path=None):
    """Defaults, then NILHARM_SEED, then file entries.

    Every value is checked against its key's type and range here, so a
    bad setting is a ValueError at load time, not a failure mid-run.
    """
    cfg = dict(DEFAULTS)
    env_seed = os.environ.get("NILHARM_SEED")
    if env_seed is not None:
        cfg["seed"] = _checked("seed", env_seed, "NILHARM_SEED")
    if path:
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"{shown(path)}: {exc.strerror}") from None
        with fh:
            for lineno, raw in enumerate(fh, 1):
                where = f"{shown(path)}:{lineno}"
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{where}: expected key = value")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in DEFAULTS:
                    raise ValueError(f"{where}: unknown key {shown(key)}")
                cfg[key] = _checked(key, val, where)
    return cfg


def quad_settings(cfg):
    return {
        "rtol": cfg["quad_rtol"],
        "max_evals": cfg["max_evals"],
        "start_nodes": cfg["start_nodes"],
    }
