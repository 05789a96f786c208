import json

import pytest

from scmech.cli import main


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


def test_exact_path_output_ignores_the_seed(tmp_path, capsys):
    # income_effect in payments takes the exact path, which draws no
    # random start, so the seed cannot change a byte of the output
    outputs = []
    for seed in ("1", "2"):
        mech, summary = tmp_path / f"mech{seed}.json", tmp_path / f"sum{seed}.json"
        rc, _, _ = run(capsys, "optimize", "--domain", "income_effect",
                       "--dist", "uniform:0.1,1", "--max-bundles", "3",
                       "--seed", seed, "--out", str(mech),
                       "--summary", str(summary))
        assert rc == 0
        outputs.append((mech.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]
    assert abs(json.loads(outputs[0][1])["revenue"] - 4 / 9) <= 1e-12


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
], ids=["list", "short-bundle", "no-domain", "no-breakpoints",
        "affine-no-q", "params-list", "truncated", "nan-breakpoint"])
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
    ({"m.json": MECH}, ["revenue", "--mech", "m.json", "--dist", "uniform:0,inf"]),
    ({}, [*TRUNCATE, "--line", LINE, "--seq", SEQ, "--eps", "inf"]),
    ({}, [*TRUNCATE, "--line", LINE, "--seq", SEQ, "--eps", "nan"]),
    ({}, ["validate-domain", "--domain", "quasilinear:0,1", "--params", ","]),
    ({}, ["validate-domain", "--domain", "quasilinear:0,1", "--anchor-t", ","]),
    ({}, ["validate-domain", "--domain", "quasilinear:0,1", "--anchor-q", ","]),
    ({"m.json": MECH}, ["revenue", "--mech", "m.json", "--dist", "uniform:1,0"]),
], ids=["config-str", "config-float", "config-switch", "config-choice",
        "dist-lo", "dist-table", "domain-lo", "domain-family", "params", "line-value",
        "line-count", "seq-value", "reserve", "seq-start-zero", "seq-start-negative",
        "seq-start-nan", "seq-start-fraction", "grid-negative", "grid-zero",
        "param-count-negative", "q-count-negative", "q-count-zero",
        "q-lo-above-one", "q-lo-nan", "dist-beta-nan", "dist-beta-inf",
        "dist-texp-inf", "dist-uniform-inf", "eps-inf", "eps-nan",
        "params-empty", "anchor-t-empty", "anchor-q-empty",
        "dist-uniform-reversed"])
def test_bad_numeric_input_is_spec_error(tmp_path, capsys, files, argv):
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == "SpecParseError"


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
    assert json.loads(out) == {"revenue": revenue, "active_bundles": 2,
                               "restarts_used": 0}


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


@pytest.mark.parametrize("restarts", ["0", "-2"])
def test_restarts_below_one_is_domain_error(capsys, restarts):
    rc, out, err = run(capsys, *OPTIMIZE, "--restarts", restarts)
    assert rc == 1
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == "DomainError"


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
