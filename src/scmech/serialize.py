"""Deterministic JSON/CSV emission and compact spec parsing.

Floats are written with 17 significant digits so every artifact round-trips
bit-exactly and identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import SpecParseError


def _format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not serializable")
    if math.isinf(x):
        return "null"
    if x == int(x) and abs(x) < 1e17:  # below 1e17, "%.17g" drops the ".0"
        return f"{x:.1f}"
    return f"{x:.17g}"


def dumps(obj: Any) -> str:
    """JSON text with fixed float formatting and insertion-ordered keys."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, dict):
        items = (f'{json.dumps(str(k))}: {dumps(v)}' for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    try:  # numpy scalars
        return _format_float(float(obj))
    except (TypeError, ValueError):
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_file(obj: Any, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load_file(path: str) -> Any:
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON syntax or text encoding
            raise SpecParseError(f"{path} is not valid JSON: {exc}") from None


def write_csv(rows: list[dict], path: str, columns: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for col in columns:
                v = row.get(col)
                if v is None:
                    cells.append("")
                elif isinstance(v, float):
                    cells.append(_format_float(v))
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")


# -- compact command-line specs ---------------------------------------------


def parse_domain_spec(text: str):
    """Domain from ``family``, ``family:lo,hi``, or a JSON file path."""
    from .domain import PreferenceDomain, make_domain

    if text.endswith(".json"):
        return PreferenceDomain.from_spec(load_file(text))
    name, _, bounds = text.partition(":")
    if not bounds:
        return make_domain(name)
    try:
        lo, hi = (float(x) for x in bounds.split(","))
    except ValueError:
        raise SpecParseError(
            f"bad domain spec {text!r}; expected family or family:lo,hi"
        )
    return make_domain(name, lo, hi)


def parse_dist_spec(text: str):
    """Distribution from ``uniform:a,b``, ``texp:rate,a,b``, ``beta:a,b``,
    or a JSON file path."""
    from . import measure

    if text.endswith(".json"):
        return measure.TypeDistribution.from_spec(load_file(text))
    name, _, argtext = text.partition(":")
    try:
        args = [float(x) for x in argtext.split(",")] if argtext else []
        if name == "uniform":
            return measure.uniform(*args)
        if name in ("texp", "truncated_exponential"):
            return measure.truncated_exponential(*args)
        if name == "beta":
            return measure.beta(*args)
    except (TypeError, ValueError) as exc:
        raise SpecParseError(f"bad distribution spec {text!r}: {exc}")
    raise SpecParseError(f"unknown distribution {name!r}")
