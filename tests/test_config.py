import json

import pytest

from qwalk.config import RunConfig
from qwalk.errors import ConfigInvalid, IoError

MINIMAL = {"experiment": {"walk": {"n_steps": 2}}}


def deep(d):
    return json.loads(json.dumps(d))


def test_minimal_config_resolves_defaults():
    cfg = RunConfig.from_dict(MINIMAL)
    assert cfg.kind == "one-fold"
    assert cfg.spec.mu_alpha == 0.1
    assert cfg.spec.mu_xi == 0.026
    assert cfg.spec.heralded is True
    assert cfg.spec.pair_source == "tmsv"
    assert cfg.out_format == "csv"
    assert cfg.oracle_enabled is False
    assert cfg.spec.walk.bin_capacity == 3


def test_resolved_echo_reproduces_the_run():
    cfg = RunConfig.from_dict(
        {
            "experiment": {
                "kind": "two-fold",
                "walk": {"n_steps": 3, "omega": 1.2},
                "mu_alpha": 0.3,
                "overlap": 0.8,
            }
        }
    )
    again = RunConfig.from_dict(json.loads(cfg.echo()))
    assert again.spec == cfg.spec
    assert again.echo() == cfg.echo()


def test_unknown_keys_are_rejected_everywhere():
    for mutate in (
        lambda d: d.update(extra=1),
        lambda d: d["experiment"].update(extra=1),
        lambda d: d["experiment"]["walk"].update(extra=1),
        lambda d: d["experiment"].update(step={"extra": 1}),
        lambda d: d["experiment"].update(hom={"extra": 1}),
        lambda d: d.update(output={"extra": 1}),
        lambda d: d.update(oracle_check={"extra": 1}),
    ):
        data = deep(MINIMAL)
        mutate(data)
        with pytest.raises(ConfigInvalid):
            RunConfig.from_dict(data)


def test_type_errors_are_reported():
    bad = deep(MINIMAL)
    bad["experiment"]["mu_alpha"] = "0.1"
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(bad)
    bad = deep(MINIMAL)
    bad["experiment"]["heralded"] = "yes"
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(bad)
    bad = deep(MINIMAL)
    bad["experiment"]["walk"]["n_steps"] = 2.5
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(bad)


FINITE = "{section}.{key} must be finite"
LEAK_RANGE = r"leak_target must lie in \(0, 1\)"


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("oracle_check", "tolerance", float("nan"), FINITE),
        ("oracle_check", "leak_target", float("nan"), FINITE),
        ("oracle_check", "leak_target", float("inf"), FINITE),
        ("experiment", "mu_xi", float("inf"), FINITE),
        ("experiment", "mu_alpha", float("nan"), FINITE),
        ("experiment", "mu_xi", 10**400, FINITE),
        ("oracle_check", "leak_target", 0.0, LEAK_RANGE),
        ("oracle_check", "leak_target", -1.0, LEAK_RANGE),
        ("oracle_check", "leak_target", 2.0, LEAK_RANGE),
        ("oracle_check", "max_total_photons", -1, "max_total_photons must be >= 0"),
    ],
    ids=[
        "nan-tolerance",
        "nan-leak",
        "inf-leak",
        "inf-mu-xi",
        "nan-mu-alpha",
        "huge-int",
        "zero-leak",
        "negative-leak",
        "leak-above-one",
        "negative-photon-cap",
    ],
)
def test_numbers_must_be_finite(section, key, value, message):
    # a NaN tolerance passed every oracle check, a NaN leak target was
    # refused only late, as a truncation failure, and an integer beyond the
    # float range crashed the conversion; so were leak targets outside
    # (0, 1) and a negative photon cap, with the exit code of a failed run
    bad = deep(MINIMAL)
    bad.setdefault(section, {})[key] = value
    with pytest.raises(ConfigInvalid, match=message.format(section=section, key=key)):
        RunConfig.from_dict(bad)


def test_walk_section_requires_n_steps():
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict({"experiment": {"walk": {}}})
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict({"experiment": {}})


def test_per_layer_transmissions():
    cfg = RunConfig.from_dict(
        {
            "experiment": {
                "walk": {"n_steps": 2, "crystal_transmission": [0.9, 0.8]}
            }
        }
    )
    assert [l.transmission for l in cfg.spec.walk.layers] == [0.9, 0.8]
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(
            {
                "experiment": {
                    "walk": {"n_steps": 2, "crystal_transmission": [0.9]}
                }
            }
        )


def test_physics_validation_becomes_config_invalid():
    bad = deep(MINIMAL)
    bad["experiment"]["overlap"] = 1.5
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(bad)


def test_output_format_restricted():
    bad = deep(MINIMAL)
    bad["output"] = {"format": "xml"}
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(bad)


def test_with_overrides():
    cfg = RunConfig.from_dict(MINIMAL)
    out = cfg.with_overrides(
        heralded=False, pair_source="squashed", out_format="json", oracle=True
    )
    assert out.spec.heralded is False
    assert out.spec.pair_source == "squashed"
    assert out.out_format == "json"
    assert out.oracle_enabled is True
    # the original is untouched
    assert cfg.spec.heralded is True


def test_echo_hides_the_artifact_path():
    cfg = RunConfig.from_dict(
        {
            "experiment": {"walk": {"n_steps": 1}},
            "output": {"path": "somewhere.csv"},
        }
    )
    assert cfg.out_path == "somewhere.csv"
    assert json.loads(cfg.echo())["output"]["path"] is None
    # and overrides still see the configured path
    assert cfg.with_overrides().out_path == "somewhere.csv"


def test_load_config_from_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "experiment:\n"
        "  kind: hom\n"
        "  walk:\n"
        "    n_steps: 1\n"
        "  hom:\n"
        "    overlap_values: [0.0, 0.5, 1.0]\n"
        "    fit_target: 0.7\n"
    )
    cfg = RunConfig.from_file(str(path))
    assert cfg.kind == "hom"
    assert cfg.hom_overlaps == (0.0, 0.5, 1.0)
    assert cfg.fit_target == 0.7


def test_load_config_errors(tmp_path):
    with pytest.raises(IoError):
        RunConfig.from_file(str(tmp_path / "missing.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("experiment: [unclosed\n")
    with pytest.raises(ConfigInvalid):
        RunConfig.from_file(str(bad))


def test_yaml_bare_scientific_notation_is_caught(tmp_path):
    # plain YAML reads 1e-6 as a string; the loader must say so clearly
    path = tmp_path / "run.yaml"
    path.write_text(
        "experiment:\n"
        "  walk:\n"
        "    n_steps: 1\n"
        "  mu_alpha: 1e-6\n"
    )
    with pytest.raises(ConfigInvalid, match="1.0e-6"):
        RunConfig.from_file(str(path))


def test_step_limit_applies_to_step_kind_only():
    data = {
        "experiment": {
            "kind": "step-evolution",
            "walk": {"n_steps": 12},
            "step": {"n_max": 12},
        }
    }
    with pytest.raises(ConfigInvalid):
        RunConfig.from_dict(data)
    data["experiment"]["kind"] = "one-fold"
    data["experiment"]["step"]["n_max"] = 12
    RunConfig.from_dict(data)
