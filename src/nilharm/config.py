"""Tolerance and quadrature defaults, with key=value file overrides.

Every report echoes the effective configuration so runs are
reproducible from their own output.
"""

import math
import os

DEFAULTS = {
    "quad_rtol": 1e-8,
    "max_evals": 2 ** 20,
    "truncation_sigmas": 8.0,
    "start_nodes": 8,
    "flat_rtol": 1e-6,
    "stepwise_rtol": 1e-3,
    "seed": 0,
}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def is_positive(value):
    return ((_is_int(value) or isinstance(value, float))
            and math.isfinite(value) and value > 0)


def is_node_count(value):
    """Positive and even: any odd symmetric rule (Gauss-Hermite or
    Gauss-Legendre) puts a node on the envelope centre, where
    Pf(lambda) can vanish."""
    return _is_int(value) and value > 0 and value % 2 == 0


_POSITIVE = (is_positive, "a positive finite number")
_RULES = {"quad_rtol": _POSITIVE, "flat_rtol": _POSITIVE,
          "stepwise_rtol": _POSITIVE, "truncation_sigmas": _POSITIVE,
          "max_evals": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
          "start_nodes": (is_node_count, "a positive even integer"),
          "seed": (_is_int, "an integer")}


def _checked(key, value, where):
    accepts, what = _RULES[key]
    if not accepts(value):
        raise ValueError(f"{where}: {key} must be {what}, got {value!r}")
    return value


def _parse_value(text):
    # a number where the text is one; anything else fails _checked
    text = text.strip()
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def load_config(path=None):
    """Defaults, then NILHARM_SEED, then file entries.

    Every value is checked against its key's type and range here, so a
    bad setting is a ValueError at load time, not a failure mid-run.
    """
    cfg = dict(DEFAULTS)
    env_seed = os.environ.get("NILHARM_SEED")
    if env_seed is not None:
        cfg["seed"] = _checked("seed", _parse_value(env_seed), "NILHARM_SEED")
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(
                        f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in DEFAULTS:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                cfg[key] = _checked(key, _parse_value(val),
                                    f"{path}:{lineno}")
    return cfg


def quad_settings(cfg):
    return {
        "rtol": cfg["quad_rtol"],
        "max_evals": cfg["max_evals"],
        "start_nodes": cfg["start_nodes"],
    }
