import json
import subprocess
import sys
from importlib import resources

import pytest

from dissipent.cli import build_parser, main
from dissipent.sweep import (
    _ORACLE_READS,
    MAP_READS,
    MODEL_PARAMS,
    regime_map_from_doc,
    regime_map_to_csv,
)


def run_cli(args):
    return main(list(args))


def test_sweep_to_file(tmp_path):
    out = tmp_path / "osc.csv"
    rc = run_cli(
        [
            "sweep", "--model", "oscillator", "--alpha-min", "0.01",
            "--alpha-max", "0.3", "--alpha-points", "30",
            "--omega0", "1.0", "--omega-c", "100.0", "--output", str(out),
        ]
    )
    assert rc == 0
    text = out.read_text()
    assert text.startswith("# dissipent sweep\n")
    assert "\r" not in text  # LF endings
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0].split(",")[0] == "alpha"
    assert len(body) == 31


def test_sweep_json_format(tmp_path):
    out = tmp_path / "osc.json"
    rc = run_cli(
        [
            "sweep", "--model", "oscillator", "--alpha-min", "0.01",
            "--alpha-max", "0.3", "--alpha-points", "30",
            "--format", "json", "--output", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["model"] == "oscillator"
    assert len(doc["rows"]) == 30


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": "spin-boson",
                "alpha_min": 0.01,
                "alpha_max": 0.4,
                "n_points": 40,
                "fixed": {"delta0": 1.0, "lambda0": 100.0},
            }
        )
    )
    out = tmp_path / "sb.csv"
    rc = run_cli(
        ["sweep", "--config", str(cfg), "--lambda0", "50.0", "--output", str(out)]
    )
    assert rc == 0
    assert "# lambda0 = 50" in out.read_text()


def test_exit_code_config_error(capsys):
    rc = run_cli(["sweep", "--model", "oscillator", "--alpha-min", "1.0", "--alpha-max", "0.1"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_regime_error(capsys):
    rc = run_cli(["regime-map", "--s", "1.5"])
    assert rc == 4
    assert "regime error" in capsys.readouterr().err


def test_exit_code_regime_map_ratio_past_the_cutoff(capsys):
    assert run_cli(["regime-map", "--s", "0.5", "--ratio-max", "1.5"]) == 2
    assert "delta0 must be below the cutoff" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, word",
    [
        (["regime-map", "--s", "0.5", "--ratio-points", "0"], "one ratio and one alpha"),
        (["regime-map", "--s", "0.5", "--alpha-points", "0"], "one ratio and one alpha"),
        (["preset", "subohmic-map", "--format", "json"], "CSV only"),  # printed CSV
        # past alpha = 1 delta_ren has no root: NaN cells
        (["kink", "--model", "spin-boson", "--alpha-min", "0.0005", "--alpha-max", "1.1995",
          "--alpha-points", "60", "--column", "delta_ren"], "non-finite entries"),
    ],
    ids=["no-ratios", "no-alphas", "map-preset-json", "kink-nan-column"],
)
def test_output_that_would_be_wrong_is_config_error(capsys, argv, word):
    assert run_cli(argv) == 2
    assert word in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, word",
    [
        (["sweep", "--model", "spin-boson", "--alpha-max", "inf", "--alpha-points", "3"],
         "alpha_max must be finite"),
        (["sweep", "--model", "free-particle", "--alpha-max", "inf", "--alpha-points", "3"],
         "alpha_max must be finite"),
        (["sweep", "--model", "oscillator", "--alpha-min", "nan"], "alpha_min must be finite"),
        (["sweep", "--model", "spin-boson", "--s", "inf"], "s must be finite"),
        (["sweep", "--model", "free-particle", "--omega-c", "inf"], "omega_c must be finite"),
        (["sweep", "--model", "free-particle", "--length", "inf"], "length must be finite"),
        (["sweep", "--model", "oscillator", "--omega-c", "inf"], "omega_c must be finite"),
        (["oracle", "--model", "free-particle", "--eta", "inf"], "eta must be finite"),
        (["regime-map", "--s", "0.5", "--alpha-max", "inf"], "alpha must be finite"),
        (["regime-map", "--s", "nan"], "s must be finite"),
    ],
    ids=["sb-alpha-max", "fp-alpha-max", "osc-alpha-min-nan", "sb-s", "fp-omega-c", "fp-length",
         "osc-omega-c", "oracle-eta", "map-alpha-max", "map-s-nan"],
)
def test_non_finite_parameter_is_config_error(capsys, argv, word):
    # these printed inf or NaN rows, or ended in a traceback or a regime
    # error; the message names the value at fault (a sweep's grid bound by
    # its key, not by the model parameter it becomes)
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and word in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # h^2 underflows to 0
        ["--model", "spin-boson", "--alpha-min", "0", "--alpha-max", "1e-300"],
        # 1 + h rounds to 1: a repeated grid point, h = 0
        ["--model", "free-particle", "--alpha-min", "1", "--alpha-max", "1.0000000000000002"],
        # distinct points that print alike at 12 digits, with a zero stencil
        ["--model", "free-particle", "--alpha-min", "1", "--alpha-max", "1.000000000000001"],
    ],
    ids=["h2-underflows", "repeated-point", "below-printed-digits"],
)
def test_grid_too_fine_for_doubles_is_config_error(capsys, argv):
    # the stencils divided by zero here and ended in a traceback, or printed
    # repeated alpha cells
    assert run_cli(["sweep", *argv, "--alpha-points", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(key in captured.err for key in ("alpha_min", "alpha_max", "n_points"))


def test_kink_subcommand(tmp_path):
    out = tmp_path / "kink.json"
    rc = run_cli(
        [
            "kink", "--model", "spin-boson", "--alpha-min", "0.0005",
            "--alpha-max", "1.1995", "--alpha-points", "1200",
            "--delta0", "1.0", "--lambda0", "100.0",
            "--column", "sigma_x", "--output", str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert abs(float(doc["location"]) - 0.5) <= 2e-3


def test_kink_none_is_null(tmp_path):
    out = tmp_path / "kink.json"
    rc = run_cli(
        [
            "kink", "--model", "free-particle", "--alpha-min", "0.1",
            "--alpha-max", "2.0", "--alpha-points", "100",
            "--output", str(out),
        ]
    )
    assert rc == 0
    assert out.read_text().strip() == "null"


def test_kink_on_a_label_column_is_config_error(capsys):
    rc = run_cli(
        [
            "kink", "--model", "spin-boson", "--s", "0.5", "--alpha-min", "0.01",
            "--alpha-max", "0.9", "--alpha-points", "60", "--column", "regime",
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error") and "regime" in err


def test_include_branch_points_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--model", "oscillator", "--include-branch-points"])
    assert exc.value.code == 2
    assert "--include-branch-points" in capsys.readouterr().err


def test_threshold_flag_is_gone(capsys):
    # every kink run used 5, now the one threshold of detect_kink
    with pytest.raises(SystemExit) as exc:
        run_cli(["kink", "--model", "free-particle", "--alpha-points", "60", "--threshold", "5"])
    assert exc.value.code == 2
    assert "--threshold" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "kink"])
def test_temperature_flag_is_gone(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--model", "spin-boson", "--temperature", "0.5"])
    assert exc.value.code == 2
    assert "--temperature" in capsys.readouterr().err


def test_oracle_subcommand(tmp_path):
    out = tmp_path / "oracle.csv"
    rc = run_cli(
        ["oracle", "--model", "free-particle", "--eta", "1.0", "--output", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("observable,")
    assert lines[1].split(",")[0] == "S"


@pytest.mark.parametrize(
    "argv, word",
    [
        (["--model", "spin-boson"], "spin-boson"),
        (["--model", "oscillator", "--sigma-x", "0.5"], "--sigma-x"),
    ],
    ids=["model", "sigma-x"],
)
def test_spin_boson_oracle_is_gone(capsys, argv, word):
    # it compared spin_entropy with the same eigenvalue sum, so it checked nothing
    with pytest.raises(SystemExit) as exc:
        run_cli(["oracle", "--eta", "1.0", *argv])
    assert exc.value.code == 2
    assert word in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["sweep", "--model", "oscillator", "--alpha-min", "-0.5"], 2,
         "config error: eta must be finite and >= 0, got -3.141592653589793\n"),
        (["sweep", "--model", "free-particle", "--alpha-min", "-0.5"], 2,
         "config error: eta must be finite and > 0, got -0.5\n"),
        (["sweep", "--model", "oscillator", "--alpha-max", "1e306"], 4,
         "regime error: <p^2> = -inf <= 0: the large-cutoff formula is invalid at "
         "kappa=3.173325912716963e+304, omega_c/omega0=100.0\n"),
        (["sweep", "--model", "oscillator", "--alpha-min", "0.1", "--alpha-max", "1",
          "--alpha-points", "10", "--omega-c", "1.5"], 4,
         "regime error: nu = 0.41865836962527236 < 1/2: the large-cutoff formula is invalid "
         "at kappa=0.3141592653589793, omega_c/omega0=1.5\n"),
        (["oracle", "--model", "oscillator", "--eta", "1", "--omega-c", "1.5"], 4,
         "regime error: nu = 0.3517821180215217 < 1/2: the large-cutoff formula is invalid "
         "at kappa=0.5, omega_c/omega0=1.5\n"),
    ],
    ids=["osc-negative-alpha", "fp-negative-eta", "osc-p2-negative", "osc-below-heisenberg",
         "oracle-below-heisenberg"],
)
def test_gaussian_errors_keep_their_exit_codes_and_messages(capsys, argv, code, err):
    # a sweep checks its fixed parameters once and the friction per point;
    # either way the error is the record's or the moment formula's own
    assert run_cli(argv) == code
    assert tuple(capsys.readouterr()) == ("", err)


def test_oracle_past_the_moment_formulas_is_a_regime_error(capsys):
    # kappa = 1e8: oscillator_f is finite, and <p^2> of the large-cutoff
    # formula is negative
    rc = run_cli(["oracle", "--model", "oscillator", "--eta", "2e8"])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("regime error: <p^2>") and "large-cutoff" in err


def test_preset_list(capsys):
    rc = run_cli(["preset", "--list"])
    assert rc == 0
    names = capsys.readouterr().out.split()
    assert "fig1-oscillator" in names and "subohmic-map" in names


def test_preset_regime_map(tmp_path):
    out = tmp_path / "map.csv"
    rc = run_cli(["preset", "subohmic-map", "--output", str(out)])
    assert rc == 0
    assert "Localized" in out.read_text()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dissipent.cli", "preset", "--list"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "fig1-spinboson" in proc.stdout


def test_preset_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run_cli(["preset", "fig1-oscillator", "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------- bad sweep documents


def write_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


OSC = {"model": "oscillator", "alpha_min": 0.01, "alpha_max": 0.3, "n_points": 30}


@pytest.mark.parametrize(
    "doc, word",
    [
        ({"model": "oscillator", "n_point": 40}, "n_point"),  # typo'd key
        ({**OSC, "outputs": ["S"]}, "outputs"),  # a removed key: sweeps print every column
        ({**OSC, "fmt": "json"}, "fmt"),  # "format" is the only spelling
        ({**OSC, "include_branch_points": False}, "include_branch_points"),  # a removed key
        ('{"model": "oscillator",', "JSON"),  # invalid JSON
        ("[1, 2]", "object"),  # not an object
        # a removed parameter: the spin-boson sweep is at T = 0
        ({**OSC, "model": "spin-boson", "fixed": {"temperature": 0.0}}, "temperature"),
        # an integer whose square passes the largest double: OverflowError (exit 1)
        ({"model": "free-particle", "fixed": {"length": 10**200}}, "a L**2"),
        # integers that convert to no double
        ({"model": "free-particle", "fixed": {"length": 10**400}}, "length must be finite"),
        ({**OSC, "alpha_max": 10**400}, "alpha_max must be finite"),
    ],
    ids=[
        "unknown-key", "unknown-output", "fmt-key", "branch-key", "invalid-json",
        "top-level-list", "temperature-param", "integer-length", "integer-length-past-double",
        "integer-bound-past-double",
    ],
)
def test_bad_config_document_is_config_error(tmp_path, capsys, doc, word):
    rc = run_cli(["sweep", "--config", write_config(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error") and word in err


def test_an_integer_prints_as_the_same_float(tmp_path, capsys):
    # 10**20 headed its table with all 21 digits, and 1e20 with 1e+20
    heads = []
    for length in (10**20, 1e20):
        doc = {"model": "free-particle", "n_points": 3, "fixed": {"length": length}}
        assert run_cli(["sweep", "--config", write_config(tmp_path, doc)]) == 0
        heads += [line for line in capsys.readouterr().out.splitlines() if "length" in line]
    assert heads == ["# length = 1e+20"] * 2


@pytest.mark.parametrize(
    "argv, word",
    [
        (["preset"], "preset name required"),
        (["sweep", "--config", str(resources.files("dissipent") / "presets/subohmic-map.json")],
         "not a sweep document"),
        # numpy's "Maximum allowed size exceeded" traceback (exit 1) before
        (["oracle", "--model", "oscillator", "--eta", "1", "--n-modes", str(10**30)],
         "need 8 to 1000000 modes"),
        # these filled memory before
        (["sweep", "--model", "oscillator", "--alpha-points", str(10**10)],
         "n_points must be <= 1000000"),
        (["kink", "--model", "oscillator", "--alpha-points", str(10**30)],
         "n_points must be <= 1000000"),
        (["regime-map", "--s", "0.5", "--ratio-points", str(10**9)], "at most 1000000 cells"),
        (["regime-map", "--s", "0.5", "--alpha-points", str(10**30)], "at most 1000000 cells"),
    ],
    ids=["preset-without-name", "map-preset-as-sweep-config", "n-modes-1e30", "sweep-1e10-points",
         "kink-1e30-points", "map-1e9-ratios", "map-1e30-alphas"],
)
def test_refused_command_is_config_error(capsys, argv, word):
    rc = run_cli(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error") and word in err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    rc = run_cli(["sweep", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "absent.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["preset", "--list"], ["sweep", "--model", "oscillator", "--alpha-points", "3"]],
    ids=["preset-list", "sweep"],
)
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_output_that_cannot_be_written_is_config_error(tmp_path, capsys, argv, target):
    # an IsADirectoryError or FileNotFoundError ended in a traceback
    out = tmp_path if target == "directory" else tmp_path / "absent" / "x.csv"
    strerror = "Is a directory" if target == "directory" else "No such file or directory"
    assert run_cli([*argv, "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: cannot write {out}: {strerror}\n"
    assert captured.out == ""


@pytest.mark.parametrize("model, need", [("oscillator", "eta"), ("free-particle", "eta")])
def test_oracle_without_its_input_is_config_error(capsys, model, need):
    rc = run_cli(["oracle", "--model", model])
    assert rc == 2
    assert need in capsys.readouterr().err


def test_every_model_parameter_is_a_sweep_flag():
    parser = build_parser()
    for params in MODEL_PARAMS.values():
        for key, default in params.items():
            args = parser.parse_args(["sweep", f"--{key.replace('_', '-')}", str(default)])
            assert getattr(args, key) == default
            assert type(getattr(args, key)) is type(default)


def test_main_reuses_one_parser_that_carries_nothing_between_calls(capsys):
    from dissipent import cli

    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()
    small = ["sweep", "--model", "oscillator", "--alpha-points", "5"]
    assert run_cli([*small, "--omega0", "2", "--format", "json"]) == 0
    assert run_cli(["kink", "--column", "sigma_x"]) == 2  # no model
    capsys.readouterr()
    assert vars(cli._parser().parse_args(small)) == vars(build_parser().parse_args(small))


# ---------------------------------------------------- one sweep-document path


def cli_stdout(capsys, argv):
    assert run_cli(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ["fig1-oscillator", "fig1-spinboson"])
def test_preset_file_is_a_config_file(capsys, name, fmt):
    path = resources.files("dissipent").joinpath(f"presets/{name}.json")
    want = cli_stdout(capsys, ["preset", name, "--format", fmt])
    assert cli_stdout(capsys, ["sweep", "--config", str(path), "--format", fmt]) == want


@pytest.mark.parametrize("name", ["fig1-oscillator", "subohmic-map"])
def test_preset_parses_its_json_once(monkeypatch, capsys, name):
    calls = []
    loads = json.loads

    def spy(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    cli_stdout(capsys, ["preset", name])
    assert len(calls) == 1


def test_regime_map_defaults_are_the_subohmic_map_preset(capsys):
    want = cli_stdout(capsys, ["preset", "subohmic-map"])
    assert cli_stdout(capsys, ["regime-map", "--s", "0.5"]) == want
    # the command and a document of s alone take the defaults of one table
    assert regime_map_to_csv(regime_map_from_doc({"s": 0.5})) == want


def test_regime_map_and_oracle_flags_are_their_tables(capsys):
    parser = build_parser()
    own = {"command", "func", "output", "model"}
    got = vars(parser.parse_args(["regime-map", "--s", "0.5"]))
    assert {k: v for k, v in got.items() if k not in own} == {**MAP_READS, "s": 0.5}
    with pytest.raises(SystemExit):  # s has no default: its flag is required
        parser.parse_args(["regime-map"])
    assert "--s" in capsys.readouterr().err
    got = vars(parser.parse_args(["oracle", "--model", "oscillator"]))
    inputs = {k: None for reads in _ORACLE_READS.values() for k in reads}
    assert {k: v for k, v in got.items() if k not in own} == inputs
    # each flag is typed as its table entry: a type, or the type of a default
    for argv, table in [(["regime-map", "--s", "0.5"], MAP_READS),
                        *((["oracle", "--model", m], reads) for m, reads in _ORACLE_READS.items())]:
        for key, entry in table.items():
            args = parser.parse_args([*argv, f"--{key.replace('_', '-')}", "3"])
            assert type(getattr(args, key)) is (entry if isinstance(entry, type) else type(entry))


@pytest.mark.parametrize(
    "doc, word",
    [
        ({**OSC, "fixed": [1]}, "fixed"),
        ({**OSC, "alpha_min": "x"}, "alpha_min"),
        ({**OSC, "outputs": "S"}, "outputs"),  # was read as ["S"]; now a removed key
        ({**OSC, "n_points": "30"}, "n_points"),
        ({**OSC, "fixed": {"omega0": "1"}}, "omega0"),
        ({**OSC, "fixed": {"omega0": True}}, "omega0"),  # a bool is no number
    ],
    ids=["fixed-list", "alpha-str", "outputs-str", "n-points-str", "param-str", "param-bool"],
)
def test_mistyped_config_value_is_config_error(tmp_path, capsys, doc, word):
    rc = run_cli(["sweep", "--config", write_config(tmp_path, doc)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error") and word in err


def test_flag_over_a_mistyped_fixed_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, {**OSC, "fixed": [1]})
    rc = run_cli(["sweep", "--config", path, "--omega0", "2.0"])
    assert rc == 2
    assert "fixed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, word",
    [
        (["--model", "oscillator", "--eta", "1.0", "--length", "10.0"], "length"),
        (["--model", "free-particle", "--eta", "1.0", "--omega0", "2.0"], "omega0"),
    ],
    ids=["oscillator-length", "free-particle-omega0"],
)
def test_oracle_input_it_does_not_read_is_config_error(capsys, argv, word):
    rc = run_cli(["oracle", *argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error") and word in err


@pytest.mark.parametrize(
    "argv, word",
    [
        (["--model", "free-particle", "--eta", "1.0", "--n-modes", "5"], "n_modes"),
        (["--model", "free-particle", "--eta", "1.0", "--scheme", "linear"], "scheme"),
    ],
    ids=["free-particle-n-modes", "free-particle-scheme"],
)
def test_oracle_knob_it_does_not_read_is_config_error(capsys, argv, word):
    rc = run_cli(["oracle", *argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error") and word in err


def test_oscillator_oracle_knobs_default_to_400_logarithmic_modes(capsys):
    base = ["oracle", "--model", "oscillator", "--eta", "1.0"]
    outs = []
    for extra in ([], ["--n-modes", "400", "--scheme", "logarithmic"], ["--n-modes", "100"]):
        assert run_cli(base + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != outs[2]
