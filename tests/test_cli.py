import hashlib
import json

import pytest

from scmech.cli import main
from scmech.domain import make_domain
from scmech.measure import uniform
from scmech.optimize import OptimizeOptions, solve_finite


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_optimize_writes_mechanism_and_summary(tmp_path, capsys):
    mech = tmp_path / "mech.json"
    rc, out, _ = run(capsys, "optimize", "--domain", "quasilinear",
                     "--dist", "uniform:0,1", "--max-bundles", "4",
                     "--out", str(mech))
    assert rc == 0
    summary = json.loads(out)
    assert summary["revenue"] == pytest.approx(0.25, abs=1e-3)
    assert summary["active_bundles"] == 2
    data = json.loads(mech.read_text())
    assert data["domain"]["family"] == "quasilinear"
    assert len(data["bundles"]) == len(data["breakpoints"]) + 1


def test_optimize_verify_round_trip_exits_clean(tmp_path, capsys):
    mech = tmp_path / "mech.json"
    run(capsys, "optimize", "--domain", "quasilinear", "--dist", "uniform:0,1",
        "--max-bundles", "3", "--out", str(mech))
    rc, out, _ = run(capsys, "verify", "--mech", str(mech), "--grid", "500")
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_optimize_is_byte_deterministic(tmp_path, capsys):
    paths = []
    for name in ("a.json", "b.json"):
        p = tmp_path / name
        run(capsys, "optimize", "--domain", "quasilinear", "--dist",
            "uniform:0,1", "--max-bundles", "3", "--seed", "4",
            "--out", str(p))
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def optimize_at_seeds(tmp_path, capsys, *argv):
    """Mechanism and summary bytes of one optimize call at seeds 1 and 2."""
    outputs = []
    for seed in ("1", "2"):
        mech, summary = tmp_path / f"mech{seed}.json", tmp_path / f"sum{seed}.json"
        rc, _, _ = run(capsys, "optimize", *argv, "--seed", seed,
                       "--out", str(mech), "--summary", str(summary))
        assert rc == 0
        outputs.append((mech.read_bytes(), summary.read_bytes()))
    return outputs


def test_exact_path_output_ignores_the_seed(tmp_path, capsys):
    # income_effect in payments takes the exact path, which draws no
    # random start, so the seed cannot change a byte of the output
    outputs = optimize_at_seeds(tmp_path, capsys, "--domain", "income_effect",
                                "--dist", "uniform:0.1,1", "--max-bundles", "3")
    assert outputs[0] == outputs[1]
    assert abs(json.loads(outputs[0][1])["revenue"] - 4 / 9) <= 1e-12


def test_sweep_path_output_ignores_the_seed(tmp_path, capsys):
    # income_effect in expected payments takes the profile sweep, which
    # starts from the chain DP's range and draws no random start either
    argv = ("--domain", "income_effect", "--dist", "uniform:0.1,1",
            "--max-bundles", "3", "--revenue-mode", "expected_payment")
    outputs = optimize_at_seeds(tmp_path, capsys, *argv)
    assert outputs[0] == outputs[1]
    sol = solve_finite(make_domain("income_effect", 0.1, 1.0),
                       uniform(0.1, 1.0), OptimizeOptions(max_bundles=3),
                       mode="expected_payment")
    assert sol.diagnostics["method"] == "sweep"
    assert json.loads(outputs[0][1])["revenue"] == sol.revenue


def test_power_q_on_its_whole_interval_solves(tmp_path, capsys):
    # the best range posts one price to every type: its breakpoint sits on
    # the bottom of the domain interval, where round-off in the pinned
    # payment once left the bisection no bracket (RichnessError)
    mech = tmp_path / "mech.json"
    rc, out, _ = run(capsys, "optimize", "--domain", "power_q",
                     "--dist", "uniform:0.25,0.3333333333333333",
                     "--max-bundles", "3", "--seed", "11", "--out", str(mech))
    assert rc == 0
    # the payment that makes (t, 1) indifferent to (0, 0) at 0.25
    assert abs(json.loads(out)["revenue"] - 0.5129898720969177) <= 1e-11
    rc, out, _ = run(capsys, "verify", "--mech", str(mech))
    assert rc == 0
    assert json.loads(out)["ok"] is True


def test_verify_flags_linear_continuum_rule(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "domain": {"family": "quasilinear", "params": {"lo": 1, "hi": 2}},
        "affine": {"t": [-1 / 3, 1 / 3], "q": [-1, 1]},
    }))
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    rc, _, _ = run(capsys, "verify", "--mech", str(bad), "--grid", "101",
                   "--out", str(report_path), "--csv", str(csv_path))
    assert rc == 2
    report = json.loads(report_path.read_text())
    assert report["ok"] is False
    assert any(v["kind"] == "IC" and v["gain"] > 0.5 for v in report["violations"])
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "kind,truthful_r,deviant_r,gain"
    assert len(lines) == len(report["violations"]) + 1


def test_verify_certifies_a_step_mechanism_between_grid_points(tmp_path,
                                                               capsys):
    # indifferent at both breakpoints, but the range falls from (0.5, 0.5)
    # to (0.2, 0.25): the grid 0.5, 1.25, 2.0 holds no type that gains, and
    # the certificate of [0.5, 2] finds the types that do
    path = tmp_path / "mech.json"
    path.write_text(json.dumps({
        "domain": {"family": "quasilinear", "params": {"lo": 0.5, "hi": 2.0}},
        "bundles": [[0.0, 0.0], [0.5, 0.5], [0.2, 0.25]],
        "breakpoints": [1.0, 1.2]}))
    csv_path = tmp_path / "report.csv"
    rc, out, _ = run(capsys, "verify", "--mech", str(path), "--grid", "3",
                     "--csv", str(csv_path))
    assert rc == 2
    report = json.loads(out)
    assert report["grid_size"] == 3
    assert [(v["kind"], v["truthful_r"], v["deviant_r"])
            for v in report["violations"]] == [
        ("IC", 1.0, 1.2), ("MONO", 1.2, None), ("IC", 2.0, 1.0)]
    assert [v["gain"] for v in report["violations"]] == pytest.approx(
        [0.05, 0.3, 0.2])
    assert len(csv_path.read_text().splitlines()) == 4


# SHA-256 of report.json and report.csv as the point-by-point grid checks
# wrote them, before the checks became array code
README_MECH = {"domain": {"family": "quasilinear",
                          "params": {"lo": 0.0, "hi": 1.0},
                          "kind": "classical"},
               "bundles": [[0.0, 0.0], [0.5, 1.0]], "breakpoints": [0.5]}
AFFINE_RULE = {"domain": {"family": "quasilinear", "params": {"lo": 1, "hi": 2}},
               "affine": {"t": [-1 / 3, 1 / 3], "q": [-1, 1]}}


@pytest.mark.parametrize("mech, grid, rc, digests", [
    (README_MECH, "500", 0,
     ("6d3e7aff55f41d0e27fb1afa6ef0c7d7627eb2990a807a0acbc315cd637e11f4",
      "f7f0ed4e65f1b35061f4bf965cdf00f532bcf1a8014d7cf610da6198ff346c84")),
    # 60 * 59 / 2 = 1770 incentive violations, one per upward pair
    (AFFINE_RULE, "60", 2,
     ("a5d8d9f169bf62037e43b591adcf5c16ff17bcee6e40745425873eae1b4e02f2",
      "68aa63e055eae14c611ff3538a38514aedd86b73413d88ba8f3f2dab61340a46")),
])
def test_verify_reports_are_byte_identical(tmp_path, capsys, mech, grid, rc,
                                           digests):
    path = tmp_path / "mech.json"
    path.write_text(json.dumps(mech))
    report, csv = tmp_path / "report.json", tmp_path / "report.csv"
    assert run(capsys, "verify", "--mech", str(path), "--grid", grid,
               "--out", str(report), "--csv", str(csv))[0] == rc
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (report, csv)) == digests


def test_revenue_subcommand(tmp_path, capsys):
    mech = tmp_path / "mech.json"
    run(capsys, "optimize", "--domain", "quasilinear", "--dist", "uniform:0,1",
        "--out", str(mech))
    rc, out, _ = run(capsys, "revenue", "--mech", str(mech),
                     "--dist", "uniform:0,1")
    assert rc == 0
    assert json.loads(out)["revenue"] == pytest.approx(0.25, abs=1e-3)


def test_truncate_subcommand(tmp_path, capsys):
    mech = tmp_path / "trunc.json"
    rc, out, _ = run(capsys, "truncate",
                     "--domain", "sqrt_quasilinear:0.2,1",
                     "--dist", "uniform:0.2,1",
                     "--line", "3,0.0833333333333333,0.3333333333333333",
                     "--seq", "harmonic:0.6666666666666666,1,3",
                     "--eps", "0.05", "--out", str(mech))
    assert rc == 0
    summary = json.loads(out)
    assert abs(summary["gap"]) <= 0.05
    assert summary["bundles"] == 17
    rc, out, _ = run(capsys, "verify", "--mech", str(mech), "--grid", "200")
    assert rc == 0


def test_truncate_a_constant_sequence(capsys):
    # every type takes the one best bundle on the line, so nothing is cut
    rc, out, _ = run(capsys, *TRUNCATE, "--line", LINE, "--seq", "constant:0.5")
    assert rc == 0
    summary = json.loads(out)
    assert summary["bundles"] == 1 and summary["gap"] == 0.0


def test_multibuyer_subcommand(capsys):
    rc, out, _ = run(capsys, "multibuyer", "--dist", "uniform:0,1",
                     "--samples", "100000", "--seed", "3")
    assert rc == 0
    rec = json.loads(out)
    assert rec["reserve"] == pytest.approx(0.5, abs=1e-6)
    assert abs(rec["estimate"] - 5 / 12) <= 4 * rec["stderr"]
    assert rec["samples"] == 100000


def test_validate_domain_exit_codes(capsys):
    rc, _, _ = run(capsys, "validate-domain", "--domain", "quasilinear:0.5,4")
    assert rc == 0
    rc, out, _ = run(capsys, "validate-domain", "--domain", "power_q_raw:0.05,0.95",
                     "--params", "0.3333333333333333,0.6666666666666666",
                     "--anchor-t", "1.0", "--anchor-q", "0.125,0.5")
    assert rc == 2
    assert json.loads(out)["tangency_witnesses"]


@pytest.mark.parametrize("params", ["3,4", "0.3333333333333333,nan"],
                         ids=["outside", "nan"])
def test_validate_domain_parameter_outside_the_domain_is_domain_error(
        capsys, params):
    rc, out, err = run(capsys, "validate-domain", "--domain",
                       "power_q_raw:0.05,0.95", "--params", params,
                       "--anchor-t", "1.0", "--anchor-q", "0.125,0.5")
    assert rc == 1
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == "DomainError"


def test_hyphenated_revenue_mode_accepted(tmp_path, capsys):
    mech = tmp_path / "mech.json"
    run(capsys, "optimize", "--domain", "myerson", "--dist", "uniform:0,1",
        "--revenue-mode", "expected-payment", "--out", str(mech))
    rc, out, _ = run(capsys, "revenue", "--mech", str(mech),
                     "--dist", "uniform:0,1", "--revenue-mode",
                     "expected-payment")
    assert rc == 0
    assert json.loads(out)["revenue"] == pytest.approx(0.25, abs=1e-3)


def test_bad_input_emits_error_record(capsys):
    rc, _, err = run(capsys, "verify", "--mech", "/does/not/exist.json")
    assert rc == 1
    record = json.loads(err)
    assert record["error"] == "FileNotFoundError"


QL_SPEC = {"family": "quasilinear", "params": {"lo": 0, "hi": 1}}


@pytest.mark.parametrize("text, error", [
    ("[1, 2]", "SpecParseError"),
    (json.dumps({"domain": QL_SPEC, "bundles": [[0, 0], [0.5]],
                 "breakpoints": [0.5]}), "SpecParseError"),
    (json.dumps({"bundles": [[0, 0], [0.5, 1]], "breakpoints": [0.5]}),
     "SpecParseError"),
    (json.dumps({"domain": QL_SPEC, "bundles": [[0, 0], [0.5, 1]]}),
     "SpecParseError"),
    (json.dumps({"domain": QL_SPEC, "affine": {"t": [0, 1]}}), "SpecParseError"),
    (json.dumps({"domain": {"family": "quasilinear", "params": [0, 1]},
                 "bundles": [[0, 0], [0.5, 1]], "breakpoints": [0.5]}),
     "SpecParseError"),
    ('{"domain": ', "SpecParseError"),
    (json.dumps({"domain": QL_SPEC, "bundles": [[0, 0], [0.5, 1]],
                 "breakpoints": [float("nan")]}), "DomainError"),
    # no grid spans [0, inf)
    (json.dumps({"domain": {"family": "quasilinear", "params": {"lo": 0}},
                 "bundles": [[0, 0], [0.5, 1]], "breakpoints": [0.5]}),
     "SpecParseError"),
], ids=["list", "short-bundle", "no-domain", "no-breakpoints",
        "affine-no-q", "params-list", "truncated", "nan-breakpoint",
        "unbounded-domain"])
def test_malformed_mechanism_file_is_spec_error(tmp_path, capsys, text, error):
    path = tmp_path / "mech.json"
    path.write_text(text)
    rc, out, err = run(capsys, "verify", "--mech", str(path))
    assert rc == 1
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == error


def test_unknown_family_is_input_error(capsys):
    rc, _, err = run(capsys, "optimize", "--domain", "hyperbolic",
                     "--dist", "uniform:0,1")
    assert rc == 1
    assert "family" in json.loads(err)["message"]


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_bundles": 3, "seed": 8}))
    mech_a = tmp_path / "a.json"
    rc, _, _ = run(capsys, "optimize", "--domain", "quasilinear",
                   "--dist", "uniform:0,1", "--max-bundles", "2",
                   "--seed", "0", "--config", str(cfg), "--out", str(mech_a))
    assert rc == 0
    mech_b = tmp_path / "b.json"
    run(capsys, "optimize", "--domain", "quasilinear", "--dist", "uniform:0,1",
        "--max-bundles", "3", "--seed", "8", "--out", str(mech_b))
    assert mech_a.read_bytes() == mech_b.read_bytes()


OPTIMIZE = ["optimize", "--domain", "quasilinear", "--dist", "uniform:0,1"]
TRUNCATE = ["truncate", "--domain", "sqrt_quasilinear:0.2,1",
            "--dist", "uniform:0.2,1", "--eps", "0.05"]
LINE = "3,0.0833333333333333,0.3333333333333333"
SEQ = "harmonic:0.6666666666666666,1,3"
MECH = {"domain": QL_SPEC, "bundles": [[0, 0], [0.5, 1]], "breakpoints": [0.5]}


@pytest.mark.parametrize("files, argv", [
    ({"cfg.json": {"max_bundles": "three"}}, [*OPTIMIZE, "--config", "cfg.json"]),
    ({"cfg.json": {"max_bundles": 2.5}}, [*OPTIMIZE, "--config", "cfg.json"]),
    ({"cfg.json": {"closed_form": "yes"}}, [*OPTIMIZE, "--config", "cfg.json"]),
    ({"cfg.json": {"revenue_mode": "bid"}}, [*OPTIMIZE, "--config", "cfg.json"]),
    ({"d.json": {"name": "uniform", "params": {"lo": "a", "hi": 1}}},
     ["optimize", "--domain", "quasilinear", "--dist", "d.json"]),
    ({"d.json": {"table": [[0, 0], ["a", 1]]}},
     ["optimize", "--domain", "quasilinear", "--dist", "d.json"]),
    ({"dom.json": {"family": "quasilinear", "params": {"lo": "a", "hi": 1}}},
     ["validate-domain", "--domain", "dom.json"]),
    ({"dom.json": {"family": ["quasilinear"]}},
     ["validate-domain", "--domain", "dom.json"]),
    ({}, ["validate-domain", "--domain", "quasilinear:0,1", "--params", "a"]),
    ({}, [*TRUNCATE, "--line", "3,x", "--seq", SEQ]),
    ({}, [*TRUNCATE, "--line", "3,0.1", "--seq", SEQ]),
    ({}, [*TRUNCATE, "--line", LINE, "--seq", "harmonic:0.66,x,3"]),
    ({}, ["multibuyer", "--dist", "uniform:0,1", "--reserve", "abc"]),
    ({}, [*TRUNCATE, "--line", LINE, "--seq", "harmonic:0.667,1,0"]),
    ({}, [*TRUNCATE, "--line", LINE, "--seq", "harmonic:0.667,1,-2"]),
    ({}, [*TRUNCATE, "--line", LINE, "--seq", "harmonic:0.667,1,nan"]),
    ({}, [*TRUNCATE, "--line", LINE, "--seq", "harmonic:0.667,1,3.5"]),
    ({"m.json": MECH}, ["verify", "--mech", "m.json", "--grid", "-3"]),
    ({"m.json": MECH}, ["verify", "--mech", "m.json", "--grid", "0"]),
    ({}, ["validate-domain", "--domain", "quasilinear:0,1", "--param-count", "-1"]),
    ({}, ["validate-domain", "--domain", "quasilinear:0,1", "--q-count", "-1"]),
    ({}, ["validate-domain", "--domain", "quasilinear:0,1", "--q-count", "0"]),
    ({}, ["validate-domain", "--domain", "quasilinear:0,1", "--q-lo", "2"]),
    ({}, ["validate-domain", "--domain", "quasilinear:0,1", "--q-lo", "nan"]),
    ({"m.json": MECH}, ["revenue", "--mech", "m.json", "--dist", "beta:nan,2"]),
    ({"m.json": MECH}, ["revenue", "--mech", "m.json", "--dist", "beta:inf,2"]),
    ({"m.json": MECH}, ["revenue", "--mech", "m.json", "--dist", "texp:inf,0,1"]),
    ({}, ["optimize", "--domain", "quasilinear", "--dist", "texp:1e-17,0,1"]),
    ({"m.json": MECH}, ["revenue", "--mech", "m.json", "--dist", "uniform:0,inf"]),
    ({}, [*TRUNCATE, "--line", LINE, "--seq", SEQ, "--eps", "inf"]),
    ({}, [*TRUNCATE, "--line", LINE, "--seq", SEQ, "--eps", "nan"]),
    ({}, ["validate-domain", "--domain", "quasilinear:0,1", "--params", ","]),
    ({}, ["validate-domain", "--domain", "quasilinear:0,1", "--anchor-t", ","]),
    ({}, ["validate-domain", "--domain", "quasilinear:0,1", "--anchor-q", ","]),
    ({"m.json": MECH}, ["revenue", "--mech", "m.json", "--dist", "uniform:1,0"]),
    ({"cfg.json": {"max_bundles": [3]}}, [*OPTIMIZE, "--config", "cfg.json"]),
    ({"cfg.json": [3]}, [*OPTIMIZE, "--config", "cfg.json"]),
    ({"cfg.json": {"colour": 3}}, [*OPTIMIZE, "--config", "cfg.json"]),
    ({}, [*OPTIMIZE, "--max-bundles", "abc"]),
    ({}, ["optimize", "--dist", "uniform:0,1"]),
    ({}, ["bogus"]),
], ids=["config-str", "config-float", "config-switch", "config-choice",
        "dist-lo", "dist-table", "domain-lo", "domain-family", "params", "line-value",
        "line-count", "seq-value", "reserve", "seq-start-zero", "seq-start-negative",
        "seq-start-nan", "seq-start-fraction", "grid-negative", "grid-zero",
        "param-count-negative", "q-count-negative", "q-count-zero",
        "q-lo-above-one", "q-lo-nan", "dist-beta-nan", "dist-beta-inf",
        "dist-texp-inf", "dist-texp-tiny-rate", "dist-uniform-inf", "eps-inf", "eps-nan",
        "params-empty", "anchor-t-empty", "anchor-q-empty",
        "dist-uniform-reversed", "config-list", "config-not-object",
        "config-unknown-key", "argv-not-an-int", "argv-missing-option",
        "argv-unknown-command"])
def test_bad_numeric_input_is_spec_error(tmp_path, capsys, files, argv):
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == "SpecParseError"


def test_help_exits_clean(capsys):
    with pytest.raises(SystemExit) as info:
        main(["optimize", "--help"])
    assert info.value.code == 0
    assert "--max-bundles" in capsys.readouterr().out


def test_config_values_parse_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max-bundles": "3", "seed": 8}))
    rc, by_config, _ = run(capsys, *OPTIMIZE, "--config", str(cfg))
    assert rc == 0
    rc, by_flags, _ = run(capsys, *OPTIMIZE, "--max-bundles", "3", "--seed", "8")
    assert by_config == by_flags


@pytest.mark.parametrize("family, revenue", [
    ("quasilinear", 0.25), ("sqrt_quasilinear", 0.25), ("myerson", 0.25)])
def test_closed_form_takes_the_posted_price(capsys, family, revenue):
    # myerson is solved in expected payments whatever --revenue-mode says
    rc, out, _ = run(capsys, "optimize", "--domain", family,
                     "--dist", "uniform:0,1", "--closed-form")
    assert rc == 0
    assert json.loads(out) == {"revenue": revenue, "active_bundles": 2}


def test_closed_form_from_a_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"closed_form": True}))
    argv = ["optimize", "--domain", "myerson", "--dist", "uniform:0,1"]
    rc, by_config, _ = run(capsys, *argv, "--config", str(cfg))
    assert rc == 0
    assert by_config == run(capsys, *argv, "--closed-form")[1]
    assert json.loads(by_config) == {"revenue": 0.25, "active_bundles": 2}


@pytest.mark.parametrize("family, mode", [
    ("quasilinear", "expected-payment"), ("myerson", "payment")])
def test_closed_form_keeps_a_posted_price_mode(capsys, family, mode):
    # quasilinear posts its price in either mode; myerson only in expected
    # payments, whatever --revenue-mode says
    rc, out, _ = run(capsys, "optimize", "--domain", family,
                     "--dist", "uniform:0,1", "--revenue-mode", mode,
                     "--closed-form")
    assert rc == 0
    assert json.loads(out) == {"revenue": 0.25, "active_bundles": 2}


def test_closed_form_on_non_separable_family_is_domain_error(tmp_path, capsys):
    out_path = tmp_path / "mech.json"
    rc, out, err = run(capsys, "optimize", "--domain", "income_effect",
                       "--dist", "uniform:0,1", "--closed-form",
                       "--out", str(out_path))
    assert rc == 1
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == "DomainError"
    assert not out_path.exists()


@pytest.mark.parametrize("files, argv", [
    ({}, ["truncate", "--domain", "sqrt_quasilinear:0.2,1", "--dist", "uniform:0,2",
          "--line", LINE, "--seq", SEQ, "--eps", "0.05", "--out", "out.json"]),
    ({"m.json": MECH}, ["revenue", "--mech", "m.json", "--dist", "uniform:0,2",
                        "--out", "out.json"]),
], ids=["truncate", "revenue"])
def test_support_outside_domain_is_domain_error(tmp_path, capsys, files, argv):
    # types outside the domain have no allocation, so no revenue is reported
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    argv = [str(tmp_path / a) if a in files or a == "out.json" else a
            for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert json.loads(err)["error"] == "DomainError"
    assert not (tmp_path / "out.json").exists()
