import ast
import json
from pathlib import Path

import pytest
import yaml

from qwalk.config import RunConfig
from qwalk.errors import ConfigInvalid, IoError

ROOT = Path(__file__).resolve().parents[1]
LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
LOADERS = [yaml.SafeLoader, pytest.param(getattr(yaml, "CSafeLoader", None), marks=LIBYAML)]

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


def written(tmp_path, data) -> str:
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_with_overrides(tmp_path):
    path = written(tmp_path, MINIMAL)
    cfg = RunConfig.from_file(path)
    out = RunConfig.from_file(
        path,
        {
            "experiment": {"heralded": False, "pair_source": "squashed"},
            "output": {"format": "json"},
            "oracle_check": {"enabled": True},
        },
    )
    assert out.spec.heralded is False
    assert out.spec.pair_source == "squashed"
    assert out.out_format == "json"
    assert out.oracle_enabled is True
    # the original is untouched
    assert cfg.spec.heralded is True


def test_echo_hides_the_artifact_path(tmp_path):
    data = {"experiment": {"walk": {"n_steps": 1}}, "output": {"path": "somewhere.csv"}}
    cfg = RunConfig.from_dict(data)
    assert cfg.out_path == "somewhere.csv"
    assert json.loads(cfg.echo())["output"]["path"] is None
    # and a flag left unset still sees the configured path
    unset = RunConfig.from_file(written(tmp_path, data), {"output": {"path": None}})
    assert unset.out_path == "somewhere.csv"


def test_flags_are_set_in_the_mapping_before_its_one_parse(tmp_path):
    # valid only with the flag: heralded: false alone refuses ideal_herald
    experiment = {"walk": {"n_steps": 1}, "heralded": False, "ideal_herald": True}
    path = written(tmp_path, {"experiment": experiment})
    with pytest.raises(ConfigInvalid, match="ideal_herald"):
        RunConfig.from_file(path)
    cfg = RunConfig.from_file(path, {"experiment": {"heralded": True}})
    assert cfg.spec.heralded is True and cfg.spec.ideal_herald is True
    # a flag fills a missing or empty section; one that is not a mapping is still refused
    flags = {"output": {"path": "x.csv"}}
    for data in (MINIMAL, {**MINIMAL, "output": None}, {**MINIMAL, "output": {}}):
        assert RunConfig.from_file(written(tmp_path, data), flags).out_path == "x.csv"
    for output in ("", []):
        with pytest.raises(ConfigInvalid, match="output must be a mapping"):
            RunConfig.from_file(written(tmp_path, {**MINIMAL, "output": output}), flags)


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


@pytest.mark.parametrize("loader", LOADERS)
def test_yaml_bare_scientific_notation_is_a_string_under_either_loader(tmp_path, monkeypatch, loader):
    assert yaml.load("mu_alpha: 1e-6\n", Loader=loader) == {"mu_alpha": "1e-6"}
    monkeypatch.setattr("qwalk.config._LOADER", loader)
    path = tmp_path / "run.yaml"
    path.write_text("experiment:\n  walk:\n    n_steps: 1\n  mu_alpha: 1e-6\n")
    with pytest.raises(ConfigInvalid, match="1.0e-6"):
        RunConfig.from_file(str(path))


def read_both(text) -> tuple:
    """The mapping each loader reads from `text`, as reprs: NaN compares
    unequal to itself, its repr does not."""
    return tuple(repr(yaml.load(text, Loader=loader)) for loader in (yaml.CSafeLoader, yaml.SafeLoader))


def inline_yaml(path: Path) -> list:
    """Every YAML mapping a test file spells out: its string constants, and
    sums and `.replace` calls of them and of names bound to them."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {}

    def text(node):
        if isinstance(node, ast.Constant):
            return node.value if isinstance(node.value, str) else None
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left, right = text(node.left), text(node.right)
            return None if left is None or right is None else left + right
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "replace":
            parts = [text(n) for n in (node.func.value, *node.args)]
            return None if None in parts else parts[0].replace(*parts[1:])
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            value = text(node.value)
            if value is not None:
                names[node.targets[0].id] = value
    mappings = []
    for candidate in {text(node) for node in ast.walk(tree)} - {None}:
        try:
            if isinstance(yaml.load(candidate, Loader=yaml.SafeLoader), dict):
                mappings.append(candidate)
        except yaml.YAMLError:
            pass
    return sorted(mappings)


@LIBYAML
def test_both_loaders_read_every_known_config_alike(monkeypatch):
    # the shipped configs, the tests' inline configs, and the benchmark's
    # 600 stored sweep-small configs, dumped as the benchmark writes them
    shipped = sorted((ROOT / "configs").glob("*.yaml"))
    assert len(shipped) == 6
    for path in shipped:
        c_read, py_read = read_both(path.read_text(encoding="utf-8"))
        assert c_read == py_read, path.name

    inline = {name: inline_yaml(ROOT / "tests" / name) for name in ("test_cli.py", "test_acceptance.py")}
    whole = {name: sum(t.startswith("experiment:") for t in texts) for name, texts in inline.items()}
    assert whole["test_cli.py"] >= 15 and whole["test_acceptance.py"] >= 2
    for texts in inline.values():
        for text in texts:
            c_read, py_read = read_both(text)
            assert c_read == py_read, text

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    variants = [v for slot in workloads.load_refs()["sweep-small"] for v in slot]
    assert len(variants) == 600
    for variant in variants:
        c_read, py_read = read_both(yaml.safe_dump(variant["config"], sort_keys=True))
        assert c_read == py_read == repr(variant["config"])
