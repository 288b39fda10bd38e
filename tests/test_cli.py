import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import qwalk.cli as cli
from qwalk.cli import main
from qwalk.config import RunConfig
from qwalk.experiments import ExperimentSpec, run_experiment
from qwalk.io import read_distribution, render_distribution
from qwalk.walk import WalkConfig

TWO_FOLD_YAML = """\
experiment:
  kind: two-fold
  walk:
    n_steps: 2
  mu_alpha: 0.1
  mu_xi: 0.026
  overlap: 0.7
"""

HOM_YAML = """\
experiment:
  kind: hom
  walk:
    n_steps: 1
  mu_alpha: 0.1
  hom:
    overlap_values: [0.0, 0.5, 1.0]
"""


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_writes_deterministic_csv(tmp_path):
    config = write_config(tmp_path, TWO_FOLD_YAML)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["simulate", "--config", config, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", config, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_stdout_roundtrip(tmp_path, capsys):
    config = write_config(tmp_path, TWO_FOLD_YAML)
    assert main(["simulate", "--config", config]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# qwalk-distribution-v1")
    path = tmp_path / "copy.csv"
    path.write_text(text)
    dist, echo = read_distribution(str(path))
    assert dist.kind == "two-fold"
    assert dist.labels == ((1, 2), (1, 3), (2, 3))
    assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)
    assert echo["experiment"]["overlap"] == 0.7


def test_csv_floats_round_trip_exactly(tmp_path):
    config = write_config(tmp_path, TWO_FOLD_YAML)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    dist, _ = read_distribution(str(out))
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(2),
        kind="two-fold",
        mu_alpha=0.1,
        mu_xi=0.026,
        overlap=0.7,
    )
    direct = run_experiment(spec)
    assert dist.raw == direct.raw
    assert dist.probs == direct.probs


def test_json_format(tmp_path):
    config = write_config(tmp_path, TWO_FOLD_YAML)
    out = tmp_path / "run.json"
    code = main(
        ["simulate", "--config", config, "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "qwalk-distribution-v1"
    assert payload["kind"] == "two-fold"
    assert payload["columns"] == [
        "m1",
        "m2",
        "probability",
        "raw_pattern_probability",
    ]
    dist, _ = read_distribution(str(out))
    assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)


def test_herald_override_changes_values(tmp_path):
    config = write_config(tmp_path, TWO_FOLD_YAML)
    her = tmp_path / "her.csv"
    unh = tmp_path / "unh.csv"
    main(["simulate", "--config", config, "--heralded", "--out", str(her)])
    main(["simulate", "--config", config, "--unheralded", "--out", str(unh)])
    d_her, echo_her = read_distribution(str(her))
    d_unh, echo_unh = read_distribution(str(unh))
    assert echo_her["experiment"]["heralded"] is True
    assert echo_unh["experiment"]["heralded"] is False
    assert d_her.raw != d_unh.raw


def test_classical_source_flag(tmp_path):
    config = write_config(tmp_path, TWO_FOLD_YAML)
    out = tmp_path / "sq.csv"
    main(["simulate", "--config", config, "--classical-source", "--out", str(out)])
    dist, echo = read_distribution(str(out))
    assert echo["experiment"]["pair_source"] == "squashed"


def test_oracle_flag_pass_and_mismatch_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, TWO_FOLD_YAML)
    assert main(["simulate", "--config", config, "--oracle"]) == 0
    capsys.readouterr()

    strict = write_config(
        tmp_path,
        TWO_FOLD_YAML + "oracle_check:\n  tolerance: 1.0e-18\n",
        name="strict.yaml",
    )
    assert main(["simulate", "--config", strict, "--oracle"]) == 3
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "OracleMismatch"

    # --no-oracle overrides a config that would have failed the check
    armed = write_config(
        tmp_path,
        TWO_FOLD_YAML + "oracle_check:\n  enabled: true\n  tolerance: 1.0e-18\n",
        name="armed.yaml",
    )
    assert main(["simulate", "--config", armed]) == 3
    capsys.readouterr()
    assert main(["simulate", "--config", armed, "--no-oracle"]) == 0
    assert "oracle check" not in capsys.readouterr().err


def test_oracle_settings_reach_the_oracle(tmp_path, capsys, monkeypatch):
    import qwalk.fock as fock

    asked = []
    choose = fock._choose_k_max

    def recording(sources, settings):
        asked.append(settings)
        return choose(sources, settings)

    monkeypatch.setattr(fock, "_choose_k_max", recording)
    config = write_config(
        tmp_path,
        TWO_FOLD_YAML
        + "  eta_sys: 0.9\n  eta_idler: 0.8\n"
        + "oracle_check:\n  enabled: true\n  tolerance: 1.0e-12\n"
        + "  leak_target: 1.0e-14\n  max_total_photons: 20\n",
    )
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out.csv")]) == 0
    assert "oracle check" in capsys.readouterr().err
    assert asked and set(asked) == {fock.OracleSettings(leak_target=1e-14, max_total_photons=20)}


def test_config_errors_exit_two(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "IoError"

    bad = write_config(tmp_path, "experiment:\n  walk:\n    n_steps: 2\n  oops: 1\n")
    assert main(["simulate", "--config", bad]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigInvalid"
    assert "oops" in payload["message"]


@pytest.mark.parametrize(
    "walk",
    [
        "n_steps: -1",
        "n_steps: 1\n    omega: .nan",
        "n_steps: 3\n    bin_capacity: 2",
        "n_steps: 1\n    crystal_transmission: [abc]",
        "n_steps: 1\n    crystal_transmission: 0",
    ],
    ids=["negative-steps", "nan-coin", "small-capacity", "text-transmission", "zero-transmission"],
)
def test_invalid_walk_values_exit_two(tmp_path, capsys, walk):
    config = write_config(tmp_path, f"experiment:\n  walk:\n    {walk}\n")
    assert main(["simulate", "--config", config]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigInvalid"
    assert "experiment.walk" in payload["message"]


@pytest.mark.parametrize(
    "entry",
    [
        "experiment:\n  kind: two-fold\n  walk:\n    n_steps: 2\n  mu_xi: .inf\n",
        "experiment:\n  kind: two-fold\n  walk:\n    n_steps: 2\n  mu_alpha: .nan\n",
        TWO_FOLD_YAML + "oracle_check:\n  enabled: true\n  tolerance: .nan\n",
        TWO_FOLD_YAML + "oracle_check:\n  enabled: true\n  leak_target: .nan\n",
    ],
    ids=["inf-mu-xi", "nan-mu-alpha", "nan-tolerance", "nan-leak-target"],
)
def test_non_finite_numbers_exit_two(tmp_path, capsys, entry):
    config = write_config(tmp_path, entry)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out.csv")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigInvalid"
    assert "must be finite" in payload["message"]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("entry", ["leak_target: 2.0", "max_total_photons: -1"])
def test_oracle_settings_no_truncation_can_meet_exit_two(tmp_path, capsys, entry):
    # each once failed the run (exit 1) with CutoffTooSmall
    config = write_config(tmp_path, TWO_FOLD_YAML + f"oracle_check:\n  enabled: true\n  {entry}\n")
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out.csv")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigInvalid"
    assert entry.split(":")[0] in payload["message"]
    assert not (tmp_path / "out.csv").exists()


def test_hom_with_ideal_herald_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, HOM_YAML + "  ideal_herald: true\n")
    for command in ("simulate", "fit-overlap"):
        assert main([command, "--config", config]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigInvalid"
        assert "HOM preset" in payload["message"]
        assert "ideal_herald" in payload["message"]


def test_unheralded_hom_exits_two(tmp_path, capsys):
    # the HOM coincidence clicks the herald, so an unheralded run would
    # write heralded values under an echo that says otherwise
    config = write_config(tmp_path, HOM_YAML + "  heralded: false\n")
    plain = write_config(tmp_path, HOM_YAML, "plain.yaml")
    for argv in (
        ["simulate", "--config", config],
        ["fit-overlap", "--config", config],
        ["simulate", "--config", plain, "--unheralded"],
    ):
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigInvalid"
        assert "HOM preset" in payload["message"]
        assert "heralded: false" in payload["message"]


def test_step_evolution_without_steps_exits_two(tmp_path, capsys):
    config = write_config(tmp_path, "experiment:\n  kind: step-evolution\n  walk:\n    n_steps: 0\n")
    assert main(["simulate", "--config", config]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigInvalid"
    assert "step evolution needs at least one walk step" in payload["message"]


def test_two_fold_without_steps_exits_two_with_the_oracle_on(tmp_path, capsys):
    # once an empty scan that the oracle check took the max of: a ValueError traceback
    config = write_config(tmp_path, "experiment:\n  kind: two-fold\n  walk:\n    n_steps: 0\n")
    assert main(["simulate", "--config", config, "--oracle"]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigInvalid"
    assert "two-fold readout needs two distinct gate bins" in payload["message"]


def test_compute_errors_exit_one(tmp_path, capsys):
    config = write_config(
        tmp_path,
        "experiment:\n"
        "  kind: one-fold\n"
        "  walk:\n"
        "    n_steps: 1\n"
        "  mu_xi: 0.0\n"
        "  heralded: true\n",
    )
    assert main(["simulate", "--config", config]) == 1
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ZeroHeraldRate"


def test_compare_identical_files(tmp_path, capsys):
    config = write_config(tmp_path, TWO_FOLD_YAML)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.json"
    main(["simulate", "--config", config, "--out", str(a)])
    main(["simulate", "--config", config, "--format", "json", "--out", str(b)])
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.strip() == "1.000000"


def test_compare_rejects_mismatched_scans(tmp_path, capsys):
    config = write_config(tmp_path, TWO_FOLD_YAML)
    other = write_config(
        tmp_path, TWO_FOLD_YAML.replace("n_steps: 2", "n_steps: 3"), "o.yaml"
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["simulate", "--config", config, "--out", str(a)])
    main(["simulate", "--config", other, "--out", str(b)])
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "LabelMismatch"


def simulated(tmp_path, text, fmt):
    out = tmp_path / f"good.{fmt}"
    config = write_config(tmp_path, text)
    assert main(["simulate", "--config", config, "--format", fmt, "--out", str(out)]) == 0
    return out


def test_compare_refuses_non_finite_probabilities(tmp_path, capsys):
    good = simulated(tmp_path, TWO_FOLD_YAML, "json")
    payload = json.loads(good.read_text())
    payload["rows"] = [row[:2] + [float("nan"), float("nan")] for row in payload["rows"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err.strip())["error"] == "NotNormalized"
    assert captured.out == ""


def _text_bin(good, bad):
    payload = json.loads(good.read_text())
    payload["rows"][0] = ["a", 0.5, 0.1]
    bad.write_text(json.dumps(payload))


def _scalar_row(good, bad):
    payload = json.loads(good.read_text())
    payload["rows"][0] = 5
    bad.write_text(json.dumps(payload))


def _fractional_bin(good, bad):
    lines = good.read_text().splitlines(keepends=True)
    first = lines.index("bin,probability,raw_pattern_probability\n") + 1
    assert lines[first].startswith("1,")
    lines[first] = "1.7" + lines[first][1:]
    bad.write_text("".join(lines))


@pytest.mark.parametrize(
    "field, value",
    [
        ("columns", 5),
        ("columns", [1, 2, 3]),
        ("kind", 5),
        ("kind", ["one-fold"]),
        ("undefined", "false"),
        ("undefined", 0),
    ],
    ids=["int-columns", "int-column-names", "int-kind", "list-kind", "string-undefined", "int-undefined"],
)
def test_compare_refuses_malformed_json_headers(tmp_path, capsys, field, value):
    # each once raised TypeError (exit 1) or, for "undefined", loaded by truthiness
    good = simulated(tmp_path, TWO_FOLD_YAML.replace("two-fold", "one-fold"), "json")
    payload = json.loads(good.read_text())
    payload[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 2
    captured = json.loads(capsys.readouterr().err.strip())
    assert captured["error"] == "IoError"
    assert field in captured["message"]


def test_compare_refuses_a_csv_undefined_flag_other_than_true_or_false(tmp_path, capsys):
    good = simulated(tmp_path, TWO_FOLD_YAML.replace("two-fold", "one-fold"), "csv")
    text = good.read_text()
    assert "# undefined: false\n" in text
    bad = tmp_path / "bad.csv"
    bad.write_text(text.replace("# undefined: false\n", "# undefined: no\n"))
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "IoError"


@pytest.mark.parametrize(
    "fmt, corrupt",
    [("json", _text_bin), ("json", _scalar_row), ("csv", _fractional_bin)],
    ids=["text-bin", "scalar-row", "fractional-bin"],
)
def test_compare_refuses_malformed_rows(tmp_path, capsys, fmt, corrupt):
    good = simulated(tmp_path, TWO_FOLD_YAML.replace("two-fold", "one-fold"), fmt)
    bad = tmp_path / f"bad.{fmt}"
    corrupt(good, bad)
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "IoError"


def test_hom_simulation_and_fit(tmp_path, capsys):
    config = write_config(tmp_path, HOM_YAML)
    out = tmp_path / "hom.csv"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    dist, _ = read_distribution(str(out))
    assert dist.kind == "hom"
    assert dist.labels == (0.0, 0.5, 1.0)

    capsys.readouterr()
    assert main(["fit-overlap", "--config", config]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "qwalk-overlap-fit-v1"
    assert abs(payload["visibility"] - 0.70) <= 1e-4
    assert 0.0 < payload["overlap"] < 1.0


def test_step_evolution_artifact(tmp_path):
    config = write_config(
        tmp_path,
        "experiment:\n"
        "  kind: step-evolution\n"
        "  walk:\n"
        "    n_steps: 3\n"
        "  step:\n"
        "    n_max: 3\n",
    )
    out = tmp_path / "steps.csv"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 0
    header = out.read_text().splitlines()
    assert "# kind: step-evolution" in header
    assert any(line.startswith("step,bin,") for line in header)
    with pytest.raises(Exception):
        read_distribution(str(out))


def test_step_evolution_oracle_checks_the_prefixes_it_writes(tmp_path, capsys):
    # the check once covered the full N = 3 walk (6 patterns) while the
    # artifact held only step 1
    config = write_config(
        tmp_path,
        "experiment:\n"
        "  kind: step-evolution\n"
        "  walk:\n"
        "    n_steps: 3\n"
        "  step:\n"
        "    inner_kind: two-fold\n"
        "    n_max: 1\n",
    )
    out = tmp_path / "steps.json"
    assert main(["simulate", "--config", config, "--oracle", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row[:3] for row in rows] == [[1, 1, 2]]
    assert f"over {len(rows)} patterns" in capsys.readouterr().err


def test_step_evolution_at_the_papers_24_bins_passes_the_oracle_check(tmp_path, capsys):
    # the shipped N = 23 config: heralded three-fold after every prefix 1..23
    config = Path(__file__).resolve().parents[1] / "configs" / "step_evolution_n23.yaml"
    out = tmp_path / "steps.json"
    argv = ["simulate", "--config", str(config), "--oracle", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    rows = json.loads(out.read_text())["rows"]
    assert sorted({row[0] for row in rows}) == list(range(1, 24))
    assert len(rows) == sum(n * (n + 1) // 2 for n in range(1, 24))
    assert f"over {len(rows)} patterns" in capsys.readouterr().err


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: at a ~1e-5 herald rate the truncation leak divided by the "
    "rate exceeds the default 1e-6 tolerance (1.07e-5 TMSV, 9.6e-6 squashed)",
)
@pytest.mark.parametrize("pair_source", ["tmsv", "squashed"])
def test_a_weak_herald_passes_the_default_oracle_check(tmp_path, pair_source):
    config = write_config(
        tmp_path,
        "experiment:\n"
        "  kind: two-fold\n"
        "  walk:\n"
        "    n_steps: 6\n"
        "  mu_alpha: 0.24\n"
        "  mu_xi: 1.0e-4\n"
        "  overlap: 0.897461\n"
        "  eta_sys: 0.9\n"
        "  eta_idler: 0.1\n"
        "  heralded: true\n"
        f"  pair_source: {pair_source}\n"
        "oracle_check:\n"
        "  enabled: true\n",
    )
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out.csv")]) == 0


def test_hom_oracle_checks_every_overlap_it_writes(tmp_path, capsys):
    # the check once covered only the overlaps 0 and `overlap`: 2 of the 11 rows
    out = tmp_path / "hom.json"
    config = Path(__file__).resolve().parents[1] / "configs" / "hom_scan.yaml"
    argv = ["simulate", "--config", str(config), "--out", str(out)]
    assert main(argv + ["--oracle"]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 11
    assert "over 11 patterns" in capsys.readouterr().err


def test_oracle_check_reuses_the_rendered_scan(tmp_path, monkeypatch):
    # the check compares the distribution the artifact holds, not a second run of it
    import qwalk.experiments as experiments

    calls = []
    for module in (cli, experiments):
        scan = module.run_experiment
        monkeypatch.setattr(module, "run_experiment", lambda spec, scan=scan: calls.append(spec) or scan(spec))
    config = write_config(tmp_path, TWO_FOLD_YAML)
    out = tmp_path / "checked.csv"
    assert main(["simulate", "--config", config, "--oracle", "--out", str(out)]) == 0
    cfg = RunConfig.from_file(config, {"output": {"path": str(out)}, "oracle_check": {"enabled": True}})
    assert calls == [cfg.spec]
    # the artifact is that one scan's rendering, as without the check
    assert out.read_text() == render_distribution(run_experiment(cfg.spec), cfg.resolved, "csv")


@pytest.mark.parametrize(
    "loader",
    [
        yaml.SafeLoader,
        pytest.param(
            getattr(yaml, "CSafeLoader", None),
            marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml"),
        ),
    ],
)
def test_malformed_yaml_exits_two(tmp_path, capsys, monkeypatch, loader):
    monkeypatch.setattr("qwalk.config._LOADER", loader)
    bad = write_config(tmp_path, "experiment: [unclosed\n")
    assert main(["simulate", "--config", bad]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "ConfigInvalid"
    assert "is not valid YAML" in payload["message"]


@pytest.mark.parametrize(
    "loader",
    [
        yaml.SafeLoader,
        pytest.param(
            getattr(yaml, "CSafeLoader", None),
            marks=pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml"),
        ),
    ],
)
def test_a_non_utf8_config_exits_two(tmp_path, capsys, monkeypatch, loader):
    # once a UnicodeDecodeError that ended the run with a traceback and exit 1
    monkeypatch.setattr("qwalk.config._LOADER", loader)
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(TWO_FOLD_YAML.encode().replace(b"two-fold", b"two-fold\xff"))
    assert main(["simulate", "--config", str(bad)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "IoError"
    assert "cannot read config" in payload["message"]


def test_compare_refuses_a_non_utf8_artifact(tmp_path, capsys):
    good = simulated(tmp_path, TWO_FOLD_YAML, "csv")
    bad = tmp_path / "bad.csv"
    bad.write_bytes(good.read_bytes().replace(b"two-fold", b"two-fold\xff"))
    capsys.readouterr()
    assert main(["compare", str(good), str(bad)]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "IoError"
    assert "cannot read" in payload["message"]


@pytest.mark.parametrize(
    "first", [["--oracle"], ["--unheralded"], ["--format", "json"]], ids=["oracle", "unheralded", "json"]
)
def test_a_second_call_behaves_as_in_a_fresh_process(tmp_path, capsys, first):
    # the parser is built once per process; each call still starts clean
    assert cli._build_parser() is cli._build_parser()
    config = write_config(tmp_path, TWO_FOLD_YAML)
    assert main(["simulate", "--config", config, *first, "--out", str(tmp_path / "first.out")]) == 0
    capsys.readouterr()
    second = tmp_path / "second.csv"
    assert main(["simulate", "--config", config, "--out", str(second)]) == 0
    printed = capsys.readouterr()
    fresh = tmp_path / "fresh.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qwalk.cli", "simulate", "--config", config, "--out", str(fresh)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (printed.out, printed.err) == (proc.stdout.replace(str(fresh), str(second)), proc.stderr)
    assert second.read_bytes() == fresh.read_bytes()


def test_console_entry_point(tmp_path):
    config = write_config(tmp_path, TWO_FOLD_YAML)
    proc = subprocess.run(
        [sys.executable, "-m", "qwalk.cli", "simulate", "--config", config],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# qwalk-distribution-v1")


def test_render_rejects_unknown_format():
    spec = ExperimentSpec(
        walk=WalkConfig.uniform(1), kind="two-fold", mu_alpha=0.1, mu_xi=0.026
    )
    dist = run_experiment(spec)
    with pytest.raises(Exception):
        render_distribution(dist, {}, "xml")
