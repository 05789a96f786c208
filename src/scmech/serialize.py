"""Deterministic JSON/CSV emission and compact spec parsing.

Floats are written with 17 significant digits so every artifact round-trips
bit-exactly and identical inputs produce byte-identical files.  A compact
spec (``quasilinear:0,1``, ``uniform:0,1``) is shorthand for a JSON spec,
built by the same ``from_spec``, so both fail with the same error types.
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


def parse_domain_spec(text: str, bounds=None):
    """Domain from ``family`` (``{"family": family}``), ``family:lo,hi``
    (with ``"params": {"lo": lo, "hi": hi}``) or a JSON file path; a bound
    the spec leaves out is ``bounds``'s, ``(lo, hi)``, else the family's."""
    from .domain import PreferenceDomain

    if text.endswith(".json"):
        return PreferenceDomain.from_spec(load_file(text), bounds)
    name, _, values = text.partition(":")
    spec = {"family": name}
    if values:
        try:
            lo, hi = (float(x) for x in values.split(","))
        except ValueError:
            raise SpecParseError(
                f"bad domain spec {text!r}; expected family or family:lo,hi")
        spec["params"] = {"lo": lo, "hi": hi}
    return PreferenceDomain.from_spec(spec, bounds)


def parse_dist_spec(text: str):
    """Distribution from a JSON file path or ``name:v1,v2,...``, which is
    ``{"name": name, "params": {...}}`` with the values in the order
    ``measure.DISTRIBUTIONS`` names the parameters (``texp:rate,lo,hi``)."""
    from .measure import DISTRIBUTIONS, TypeDistribution

    if text.endswith(".json"):
        return TypeDistribution.from_spec(load_file(text))
    name, _, argtext = text.partition(":")
    try:
        args = [float(x) for x in argtext.split(",")] if argtext else []
    except ValueError as exc:
        raise SpecParseError(f"bad distribution spec {text!r}: {exc}")
    names = DISTRIBUTIONS[name][1] if name in DISTRIBUTIONS else ()
    # a wrong count of values reaches from_spec as a list, which it rejects
    params = dict(zip(names, args)) if len(args) == len(names) else args
    return TypeDistribution.from_spec({"name": name, "params": params})
