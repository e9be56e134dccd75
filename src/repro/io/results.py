"""Persistence of experiment results.

Experiment drivers return dataclasses holding numpy arrays; this module
turns them into JSON-serialisable dictionaries (and back to plain
dictionaries on load) so campaign outcomes can be archived alongside the
traces and diffed between runs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Dict, Mapping, Sequence, Union

PathLike = Union[str, Path]


def to_jsonable(value: Any) -> Any:
    """Convert dataclasses, numpy types and bytes into JSON-friendly values.

    NumPy values are looked for only once NumPy is loaded (none can
    exist before), so the store and the campaign records can key and
    save JSON without importing it.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: to_jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            return float(value)
        if isinstance(value, (np.bool_,)):
            return bool(value)
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Fall back to the object's dict or its string representation.
    if hasattr(value, "__dict__"):
        return {key: to_jsonable(item) for key, item in vars(value).items()
                if not key.startswith("_")}
    return str(value)


def save_result(path: PathLike, result: Any) -> Path:
    """Serialise ``result`` (any dataclass/dict tree) to a JSON file."""
    path = Path(path)
    if path.suffix != ".json":
        path = path.with_suffix(".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = to_jsonable(result)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def save_summary_csv(path: PathLike,
                     rows: Sequence[Mapping[str, Any]]) -> Path:
    """Write flat summary rows (e.g. one per campaign grid cell) as CSV.

    The column set is the union of the row keys, in first-seen order, so
    heterogeneous rows degrade gracefully instead of raising.
    """
    if not rows:
        raise ValueError("cannot save an empty summary")
    path = Path(path)
    if path.suffix != ".csv":
        path = path.with_suffix(".csv")
    path.parent.mkdir(parents=True, exist_ok=True)
    fieldnames: list = []
    for row in rows:
        for key in row:
            if key not in fieldnames:
                fieldnames.append(key)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: to_jsonable(value)
                             for key, value in row.items()})
    return path


def load_result(path: PathLike) -> Dict[str, Any]:
    """Load a JSON result previously written by :func:`save_result`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"result file {path} does not exist")
    return json.loads(path.read_text())
