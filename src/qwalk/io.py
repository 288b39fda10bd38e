"""Serialization of scan results.

Both formats carry the same content: schema name, scan kind,
normalization tag, undefined flag, the resolved run config, and one row
per outcome (label fields, then `probability`, then
`raw_pattern_probability`).  CSV prints floats with 17 significant
digits; JSON relies on the shortest round-trip representation.  Output
bytes are a pure function of the inputs, so identical runs produce
identical artifacts.
"""

from __future__ import annotations

import csv
import io as _io
import json

from .errors import IoError
from .experiments import Distribution

__all__ = [
    "SCHEMA_NAME",
    "render_distribution",
    "write_text",
    "read_distribution",
]

SCHEMA_NAME = "qwalk-distribution-v1"

_LABEL_COLUMNS = {
    "one-fold": ("bin",),
    "two-fold": ("m1", "m2"),
    "three-fold": ("m1", "m2"),
    "hom": ("overlap",),
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _rows(dist: Distribution, with_step: bool):
    for label, prob, raw in zip(dist.labels, dist.probs, dist.raw):
        fields = list(label) if isinstance(label, tuple) else [label]
        if with_step:
            fields = [dist.step] + fields
        yield fields + [prob, raw]


def _as_list(dists):
    if isinstance(dists, Distribution):
        return [dists], False
    dists = list(dists)
    if not dists:
        raise IoError("nothing to serialize: empty distribution list")
    return dists, True


def render_distribution(dists, config: dict, fmt: str) -> str:
    """Render one Distribution (or a step-evolution sequence) to text."""
    dists, stepped = _as_list(dists)
    inner = dists[0]
    columns = _LABEL_COLUMNS[inner.kind] + ("probability", "raw_pattern_probability")
    kind = "step-evolution" if stepped else inner.kind
    if stepped:
        columns = ("step",) + columns
    undefined = any(d.undefined for d in dists)

    if fmt == "json":
        payload = {
            "schema": SCHEMA_NAME,
            "kind": kind,
            "normalization": inner.normalization,
            "undefined": undefined,
            "config": config,
            "columns": list(columns),
            "rows": [
                [int(f) if isinstance(f, int) else float(f) for f in row]
                for d in dists
                for row in _rows(d, stepped)
            ],
        }
        if stepped:
            payload["inner_kind"] = inner.kind
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    if fmt != "csv":
        raise IoError(f"unknown output format {fmt!r}")
    buffer = _io.StringIO()
    buffer.write(f"# {SCHEMA_NAME}\n")
    buffer.write(f"# kind: {kind}\n")
    if stepped:
        buffer.write(f"# inner_kind: {inner.kind}\n")
    buffer.write(f"# normalization: {inner.normalization}\n")
    buffer.write(f"# undefined: {'true' if undefined else 'false'}\n")
    buffer.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for d in dists:
        for row in _rows(d, stepped):
            writer.writerow(
                [f if isinstance(f, int) else _fmt(f) for f in row]
            )
    return buffer.getvalue()


def write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _parse_csv(text: str, path: str):
    headers = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            entry = line[2:]
            if ":" in entry:
                key, value = entry.split(":", 1)
                headers[key.strip()] = value.strip()
            else:
                headers.setdefault("schema", entry.strip())
        elif line.strip():
            body.append(line)
    if not body:
        raise IoError(f"{path}: no table found")
    rows = list(csv.reader(body))
    columns = rows[0]
    kind = headers.get("kind")
    config = json.loads(headers["config"]) if "config" in headers else {}
    return kind, headers, config, columns, rows[1:]


def _bin(field) -> int:
    """A time-bin label; int() alone would read 1.7 as bin 1."""
    value = int(field)
    if value != float(field):
        raise ValueError(f"bin label {field!r} is not a whole number")
    return value


def read_distribution(path: str):
    """Load one artifact back as (Distribution, config mapping)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc

    stripped = text.lstrip()
    try:
        if stripped.startswith("{"):
            payload = json.loads(text)
            if payload.get("schema") != SCHEMA_NAME:
                raise IoError(f"{path}: unknown schema {payload.get('schema')!r}")
            kind = payload["kind"]
            columns = payload["columns"]
            rows = payload["rows"]
            undefined = payload["undefined"]
            if not isinstance(kind, str):
                raise IoError(f"{path}: kind {kind!r} is not a string")
            if not (isinstance(columns, list) and all(isinstance(c, str) for c in columns)):
                raise IoError(f"{path}: columns {columns!r} are not a list of strings")
            if not isinstance(undefined, bool):
                raise IoError(f"{path}: undefined {undefined!r} is not true or false")
            headers = {
                "normalization": payload["normalization"],
                "undefined": "true" if undefined else "false",
            }
            config = payload.get("config", {})
        else:
            kind, headers, config, columns, raw_rows = _parse_csv(text, path)
            rows = [[float(f) for f in row] for row in raw_rows]
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise IoError(f"{path}: malformed artifact ({exc})") from exc

    undefined = headers.get("undefined", "false")
    if undefined not in ("true", "false"):
        raise IoError(f"{path}: undefined {undefined!r} is not true or false")
    if kind == "step-evolution":
        raise IoError(
            f"{path} holds a step-evolution sequence, not a single distribution"
        )
    if kind not in _LABEL_COLUMNS:
        raise IoError(f"{path}: unknown distribution kind {kind!r}")
    n_label = len(_LABEL_COLUMNS[kind])
    if list(columns) != list(_LABEL_COLUMNS[kind]) + [
        "probability",
        "raw_pattern_probability",
    ]:
        raise IoError(f"{path}: unexpected columns {columns!r}")

    labels, probs, raws = [], [], []
    try:
        for row in rows:
            if len(row) != n_label + 2:
                raise IoError(f"{path}: ragged row {row!r}")
            fields = row[:n_label]
            if kind == "hom":
                label = float(fields[0])
            elif n_label == 1:
                label = _bin(fields[0])
            else:
                label = tuple(_bin(f) for f in fields)
            labels.append(label)
            probs.append(float(row[n_label]))
            raws.append(float(row[n_label + 1]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise IoError(f"{path}: malformed row ({exc})") from exc

    dist = Distribution(
        kind=kind,
        labels=tuple(labels),
        probs=tuple(probs),
        raw=tuple(raws),
        normalization=headers.get("normalization", ""),
        undefined=undefined == "true",
    )
    return dist, config
