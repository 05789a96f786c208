"""Config-driven command line front end.

Subcommands read compact specs (``--domain quasilinear --dist uniform:0,1``)
or JSON spec files, a compact spec being shorthand for its JSON spec (see
:mod:`scmech.serialize`); ``optimize`` gives a domain spec without bounds
the distribution's support.  They write JSON/CSV artifacts with
deterministic byte layout and signal outcomes through the exit code:

* 0 - success
* 1 - bad input (a machine-readable error record goes to stderr)
* 2 - verification found violations (the report is still written)

A JSON config passed with ``--config`` is more flags, read after the typed
ones: a key is a flag's long name without the dashes, ``_`` or ``-`` alike,
and its value what would follow the flag.  No flag is abbreviated.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import measure, multibuyer, serialize
from .domain import Bundle, PreferenceDomain, validate_single_crossing
from .errors import ScmechError, SpecParseError
from .mechanism import (AnchorLine, FiniteMechanism, ParamSequence,
                        constant_sequence, countable_geometric,
                        epsilon_truncate, harmonic_sequence)
from .optimize import OptimizeOptions, solve_finite
from .verify import CSV_COLUMNS, verify_mechanism


def _mode(text: str) -> str:
    """Accept the hyphenated spelling of the expected-payment mode."""
    return text.replace("-", "_")


def _floats(text: str, count: int | None = None) -> list[float]:
    """One or more comma-separated numbers; ``count`` fixes how many."""
    try:
        vals = [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        vals = []
    if not vals or count not in (None, len(vals)):
        raise SpecParseError(
            f"expected {count or 'some'} comma-separated numbers, got {text!r}")
    return vals


def _config_flags(path: str) -> list[str]:
    """The ``--config`` JSON object as the flags it stands for, a number
    written as JSON writes it."""
    cfg = serialize.load_file(path)
    if not isinstance(cfg, dict):
        raise SpecParseError("config file must hold a JSON object")
    flags = []
    for key, value in cfg.items():
        option = key.replace("_", "-")
        if option in ("help", "config") or "=" in option:
            raise SpecParseError(f"config key {key!r} matches no option")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise SpecParseError(f"config key {key!r} must be a string or a number")
        text = value if isinstance(value, str) else json.dumps(value)
        flags.append(f"--{option}={text}")
    return flags


def _parse_seq(text: str) -> ParamSequence:
    name, _, args = text.partition(":")
    vals = _floats(args)
    if name == "harmonic" and len(vals) == 3:
        if not (vals[2].is_integer() and vals[2] >= 1):
            raise SpecParseError(
                f"sequence start must be a positive integer, got {text!r}")
        return harmonic_sequence(vals[0], vals[1], int(vals[2]))
    if name == "constant" and len(vals) == 1:
        return constant_sequence(vals[0])
    raise SpecParseError(
        f"bad sequence spec {text!r}; expected harmonic:limit,coeff,start "
        f"or constant:value"
    )


def _emit(obj, path=None):
    if path:
        serialize.dump_file(obj, path)
    else:
        sys.stdout.write(serialize.dumps(obj) + "\n")


def _load_mechanism(path: str):
    """Returns (domain, mechanism): a ``FiniteMechanism``, or a callable for
    an affine rule.  Malformed files raise ``SpecParseError``."""
    data = serialize.load_file(path)
    if not isinstance(data, dict):
        raise SpecParseError(f"{path} must hold a JSON object")
    try:
        if "bundles" in data:
            mech = FiniteMechanism.from_dict(data)
            return mech.domain, mech
        if "affine" in data:
            domain = PreferenceDomain.from_spec(data["domain"])
            t0, t1 = (float(x) for x in data["affine"]["t"])
            q0, q1 = (float(x) for x in data["affine"]["q"])

            def fn(r):
                return Bundle(t0 + t1 * r, q0 + q1 * r)

            return domain, fn
    except ScmechError:
        raise
    except KeyError as exc:
        raise SpecParseError(f"{path} lacks the entry {exc}") from None
    except (TypeError, ValueError) as exc:
        raise SpecParseError(f"{path} is malformed: {exc}") from None
    raise SpecParseError(
        f"{path} holds neither a step mechanism ('bundles') nor an affine "
        f"rule ('affine')"
    )


def _linspace(lo: float, hi: float, n: int, least: int = 1):
    """``n`` evenly spaced points; a count below ``least`` is bad input."""
    if n < least:
        raise SpecParseError(f"a grid needs at least {least} points, got {n}")
    return np.linspace(lo, hi, n)


def _grid(domain: PreferenceDomain, n: int):
    if not (math.isfinite(domain.lo) and math.isfinite(domain.hi)):
        raise SpecParseError(
            "domain interval is unbounded; give explicit bounds, e.g. "
            "quasilinear:0,1"
        )
    return _linspace(domain.lo, domain.hi, n)


# -- subcommand handlers ------------------------------------------------------


def _cmd_optimize(ns) -> int:
    dist = serialize.parse_dist_spec(ns.dist)
    # a domain spec that gives no bounds takes the support's
    domain = serialize.parse_domain_spec(ns.domain, (dist.lo, dist.hi))
    opts = OptimizeOptions(max_bundles=ns.max_bundles, seed=ns.seed)
    sol = solve_finite(domain, dist, opts, mode=ns.revenue_mode)
    if ns.out:
        serialize.dump_file(sol.mechanism.to_dict(), ns.out)
    _emit(sol.summary(), ns.summary)
    return 0


def _cmd_verify(ns) -> int:
    domain, mech = _load_mechanism(ns.mech)
    report = verify_mechanism(domain, mech, _grid(domain, ns.grid))
    if ns.out:
        serialize.dump_file(report.to_dict(), ns.out)
    if ns.csv:
        serialize.write_csv(report.to_csv_rows(), ns.csv, CSV_COLUMNS)
    _emit(report.to_dict() if not ns.out else {"ok": report.ok,
                                               "violations": len(report.violations)})
    return 0 if report.ok else 2


def _cmd_revenue(ns) -> int:
    domain, mech = _load_mechanism(ns.mech)
    dist = serialize.parse_dist_spec(ns.dist)
    value = measure.expected_revenue(domain, mech, dist, ns.revenue_mode)
    _emit({"revenue": value}, ns.out)
    return 0


def _cmd_truncate(ns) -> int:
    if not math.isfinite(ns.eps):
        raise SpecParseError(f"--eps must be finite, got {ns.eps}")
    domain = serialize.parse_domain_spec(ns.domain)
    dist = serialize.parse_dist_spec(ns.dist)
    slope, t_lo, t_hi = _floats(ns.line, 3)
    cmech = countable_geometric(domain, AnchorLine(slope, t_lo, t_hi),
                                _parse_seq(ns.seq))
    finite = epsilon_truncate(cmech, ns.eps, dist)
    if ns.out:
        serialize.dump_file(finite.to_dict(), ns.out)
    rev_c = measure.expected_revenue(domain, cmech, dist, ns.revenue_mode)
    rev_f = measure.expected_revenue(domain, finite, dist, ns.revenue_mode)
    _emit({
        "revenue_countable": rev_c,
        "revenue_truncated": rev_f,
        "gap": rev_c - rev_f,
        "eps": ns.eps,
        "bundles": len(finite.bundles),
    }, ns.summary)
    return 0


def _cmd_multibuyer(ns) -> int:
    dist = serialize.parse_dist_spec(ns.dist)
    if ns.reserve == "auto":
        mech = multibuyer.from_distribution(ns.n, dist)
    else:
        mech = multibuyer.MultiBuyerMechanism(ns.n, _floats(ns.reserve, 1)[0],
                                              dist)
    estimate, stderr = multibuyer.simulate_revenue(mech, ns.samples, ns.seed)
    _emit({
        "n": mech.n,
        "reserve": mech.reserve,
        "estimate": estimate,
        "stderr": stderr,
        "samples": ns.samples,
        "seed": ns.seed,
    }, ns.out)
    return 0


def _cmd_validate_domain(ns) -> int:
    domain = serialize.parse_domain_spec(ns.domain)
    params = (_floats(ns.params) if ns.params
              else list(_grid(domain, ns.param_count)))
    anchors = [Bundle(t, q)
               for t in _floats(ns.anchor_t) for q in _floats(ns.anchor_q)]
    if not 0.0 <= ns.q_lo < 1.0:
        raise SpecParseError(f"--q-lo must lie in [0, 1), got {ns.q_lo}")
    q_grid = _linspace(ns.q_lo, 1.0, ns.q_count, least=2)
    report = validate_single_crossing(domain, anchors, params, q_grid=q_grid)
    _emit(report.to_dict(), ns.out)
    return 0 if report.ok else 2


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a ``SpecParseError``, so it exits 1 with
    an error record like any other bad input, and takes no abbreviated flag,
    so a flag or config key names one option; subparsers inherit both."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise SpecParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scmech",
        description="Construct, verify, and optimize strategy-proof selling "
                    "mechanisms on single-crossing preference domains.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="JSON config overriding the flags")

    p = sub.add_parser("optimize", help="solve for a revenue-maximal mechanism")
    p.add_argument("--domain", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--max-bundles", type=int, default=2)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and unused: the solver draws no random start")
    p.add_argument("--revenue-mode", type=_mode, choices=("payment", "expected_payment"),
                   default="payment")
    p.add_argument("--out", help="mechanism JSON path")
    p.add_argument("--summary", help="summary JSON path (default: stdout)")
    common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("verify", help="certify a mechanism file on a grid, "
                       "a step mechanism on the grid's whole span")
    p.add_argument("--mech", required=True)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--csv", help="report CSV path")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("revenue", help="expected revenue of a mechanism file")
    p.add_argument("--mech", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--revenue-mode", type=_mode, choices=("payment", "expected_payment"),
                   default="payment")
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=_cmd_revenue)

    p = sub.add_parser("truncate",
                       help="finite truncation of a countable-range mechanism")
    p.add_argument("--domain", required=True)
    p.add_argument("--dist", required=True)
    p.add_argument("--line", required=True, metavar="SLOPE,T_LO,T_HI")
    p.add_argument("--seq", required=True, metavar="harmonic:LIMIT,COEFF,START")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--revenue-mode", type=_mode, choices=("payment", "expected_payment"),
                   default="payment")
    p.add_argument("--out", help="mechanism JSON path")
    p.add_argument("--summary", help="summary JSON path (default: stdout)")
    common(p)
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("multibuyer", help="simulate the n-buyer auction")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--dist", required=True)
    p.add_argument("--reserve", default="auto")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=_cmd_multibuyer)

    p = sub.add_parser("validate-domain",
                       help="grid search for single-crossing failures")
    p.add_argument("--domain", required=True)
    p.add_argument("--params", help="explicit comma-separated parameter grid")
    p.add_argument("--param-count", type=int, default=9)
    p.add_argument("--anchor-t", default="0.25,0.75,1.5")
    p.add_argument("--anchor-q", default="0.2,0.5,0.8")
    p.add_argument("--q-lo", type=float, default=1e-4)
    p.add_argument("--q-count", type=int, default=201)
    p.add_argument("--out")
    common(p)
    p.set_defaults(func=_cmd_validate_domain)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = parser.parse_args(argv)
        if not getattr(ns, "func", None):
            parser.print_help()
            return 1
        if ns.config:
            ns = parser.parse_args([*argv, *_config_flags(ns.config)])
        return ns.func(ns)
    except (ScmechError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
