"""Digests of simulated outputs, and the pinned digests they are checked
against.

A digest covers only what the simulation decides, never host time:

* Fela runs: ``total_time``, the iteration records and ``RunResult.stats``
  without ``fast_forward`` (a count of events the kernel skipped, which a
  kernel change may alter without changing any simulated outcome);
* cluster jobs: the job's result row without ``*_wall`` columns;
* figures: the artifact's rendered text.

Floats are hashed through ``repr`` (via ``json``), so a digest changes on
any bit of difference.  ``pins.json`` holds one entry per task: a list of
digests (one per op of the task) or ``{"raises": "<exception type>"}`` for a
task that is known to fail.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pathlib
import typing as _t

PINS_PATH = pathlib.Path(__file__).with_name("pins.json")
PINS_SCHEMA = 1

#: ``RunResult.stats`` keys that count host-side kernel work, not outcomes.
HOST_STATS = frozenset({"fast_forward"})


def _plain(value: _t.Any) -> _t.Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"cannot digest {type(value).__name__}: {value!r}")


def digest(value: _t.Any) -> str:
    """Short content hash of a JSON-able value (or of a text)."""
    if isinstance(value, str):
        data = value
    else:
        data = json.dumps(value, sort_keys=True, default=_plain)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


def run_digest(result: _t.Any) -> str:
    """Digest of one Fela ``RunResult``."""
    return digest(
        {
            "total_time": result.total_time,
            "records": [dataclasses.asdict(r) for r in result.records],
            "stats": {
                key: value
                for key, value in result.stats.items()
                if key not in HOST_STATS
            },
        }
    )


def job_digest(row: _t.Mapping[str, _t.Any]) -> str:
    """Digest of one cluster job row."""
    return digest(
        {key: value for key, value in row.items()
         if not key.endswith("_wall")}
    )


def load_pins(path: pathlib.Path = PINS_PATH) -> dict[str, dict[str, _t.Any]]:
    """The pinned outcome of every task, per workload."""
    document = json.loads(path.read_text(encoding="utf-8"))
    if document.get("schema") != PINS_SCHEMA:
        raise ValueError(
            f"{path}: pin schema {document.get('schema')!r}, "
            f"expected {PINS_SCHEMA}"
        )
    return document["workloads"]


def write_pins(
    pins: dict[str, dict[str, _t.Any]], path: pathlib.Path = PINS_PATH
) -> None:
    document = {"schema": PINS_SCHEMA, "workloads": pins}
    path.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
