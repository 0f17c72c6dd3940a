"""File formats: signal JSON/CSV, coefficient JSON, report JSON.

Signal JSON:   {"group": [N1, ...], "values": [[re, im], ...]}  (canonical order)
Signal CSV:    header i0,...,i{d-1},re,im; one row per element.  CSV carries no
               moduli, so readers must be told the group.
Coefficients:  {"group": [...], "lattice": {"a": [...], "b": [...]},
                "coeffs": [[re, im], ...]}  (time-major flat order)
Sequences:     {"group": [...], "members": [values, ...], "limit": values}
Reports:       serialized with sorted keys and no timestamps, so fixed-seed
               reruns are byte-identical.

Malformed input raises SchemaError, which names the field, row or element:
non-finite values, and in CSV a coordinate out of range or an element given
twice or not at all.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .gabor import CoefficientArray, STFTGrid, TFLattice
from .groups import GroupSpec
from .signals import Signal

__all__ = [
    "load_signal",
    "save_signal",
    "load_coefficients",
    "save_coefficients",
    "load_sequence",
    "save_stft_grid",
    "write_json",
    "write_csv",
]


def _complex_pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in values]


def _parse_pairs(data, what: str) -> np.ndarray:
    try:
        arr = np.array([[float(re), float(im)] for re, im in data])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what} must be a list of [re, im] pairs") from exc
    if arr.size == 0:
        raise SchemaError(f"{what} must be non-empty")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise SchemaError(f"{what}: entry {bad[0]} is not finite")
    return arr[:, 0] + 1j * arr[:, 1]


def _load_csv_signal(path: Path, group: GroupSpec) -> Signal:
    """Strict CSV read: coordinates in range, finite values, every element exactly once."""
    values = np.empty(group.order, dtype=np.complex128)
    seen = np.zeros(group.order, dtype=bool)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                coords = tuple(int(row[f"i{j}"]) for j in range(group.ndim))
                re, im = float(row["re"]), float(row["im"])
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(f"{path}: bad CSV row {row}") from exc
            where = f"{path}: line {reader.line_num}"
            for j, (c, n) in enumerate(zip(coords, group.moduli)):
                if not 0 <= c < n:
                    raise SchemaError(f"{where}: i{j}={c} is outside [0, {n})")
            for name, v in (("re", re), ("im", im)):
                if not math.isfinite(v):
                    raise SchemaError(f"{where}: '{name}' is not finite")
            i = group.index(coords)
            if seen[i]:
                raise SchemaError(f"{where}: element {coords} is given twice")
            seen[i] = True
            values[i] = complex(re, im)
    missing = np.flatnonzero(~seen)
    if missing.size:
        raise SchemaError(
            f"{path}: element {tuple(group._coords[missing[0]].tolist())} has no row "
            f"({missing.size} of {group.order} elements missing)"
        )
    return Signal(group, values)


def _load_json(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return data


def _group_from(data: dict, path) -> GroupSpec:
    if "group" not in data:
        raise SchemaError(f"{path}: missing 'group'")
    try:
        return GroupSpec.from_json(data["group"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: bad 'group' ({exc})") from exc


def load_signal(path, group: GroupSpec | None = None) -> Signal:
    """Read a signal from .json (self-describing) or .csv (needs the group)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        if group is None:
            raise SchemaError(f"{path}: CSV signals need an explicit group")
        return _load_csv_signal(path, group)
    data = _load_json(path)
    file_group = _group_from(data, path)
    if group is not None and group != file_group:
        from .errors import GroupMismatchError

        raise GroupMismatchError(
            f"{path}: file group {file_group.moduli} does not match requested {group.moduli}"
        )
    if "values" not in data:
        raise SchemaError(f"{path}: missing 'values'")
    values = _parse_pairs(data["values"], f"{path}: 'values'")
    if values.size != file_group.order:
        raise SchemaError(
            f"{path}: {values.size} values for a group of order {file_group.order}"
        )
    return Signal(file_group, values)


def save_signal(path, signal: Signal) -> None:
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"i{j}" for j in range(signal.group.ndim)] + ["re", "im"])
            for e, v in zip(signal.group.elements(), signal.values):
                writer.writerow(list(e.coords) + [repr(float(v.real)), repr(float(v.imag))])
        return
    write_json(path, {"group": signal.group.to_json(), "values": _complex_pairs(signal.values)})


def load_coefficients(path) -> CoefficientArray:
    data = _load_json(path)
    group = _group_from(data, path)
    lat = data.get("lattice")
    if not isinstance(lat, dict) or "a" not in lat or "b" not in lat:
        raise SchemaError(f"{path}: missing 'lattice' with 'a' and 'b'")
    try:
        lattice = TFLattice(group, tuple(int(x) for x in np.atleast_1d(lat["a"])),
                            tuple(int(x) for x in np.atleast_1d(lat["b"])))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: bad lattice steps ({exc})") from exc
    coeffs = _parse_pairs(data.get("coeffs", []), f"{path}: 'coeffs'")
    if coeffs.size != lattice.size:
        raise SchemaError(
            f"{path}: {coeffs.size} coefficients for a lattice of size {lattice.size}"
        )
    return CoefficientArray(lattice, coeffs)


def save_coefficients(path, coeffs: CoefficientArray) -> None:
    lat = coeffs.lattice
    write_json(
        path,
        {
            "group": lat.group.to_json(),
            "lattice": {"a": list(lat.time_steps), "b": list(lat.freq_steps)},
            "coeffs": _complex_pairs(coeffs.ravel()),
        },
    )


def load_sequence(path) -> tuple[list[Signal], Signal | None]:
    """Read a sequence of signals and an optional designated limit."""
    data = _load_json(path)
    group = _group_from(data, path)
    members_raw = data.get("members")
    if not isinstance(members_raw, list) or not members_raw:
        raise SchemaError(f"{path}: 'members' must be a non-empty list")
    members = []
    for i, vals in enumerate(members_raw):
        values = _parse_pairs(vals, f"{path}: member {i}")
        if values.size != group.order:
            raise SchemaError(f"{path}: member {i} has {values.size} values")
        members.append(Signal(group, values))
    limit = None
    if "limit" in data:
        values = _parse_pairs(data["limit"], f"{path}: 'limit'")
        if values.size != group.order:
            raise SchemaError(f"{path}: limit has {values.size} values")
        limit = Signal(group, values)
    return members, limit


def save_stft_grid(path, grid: STFTGrid) -> None:
    """CSV rows t-coords, s-coords, re, im; t-major order."""
    group = grid.group
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"t{j}" for j in range(group.ndim)]
            + [f"s{j}" for j in range(group.ndim)]
            + ["re", "im"]
        )
        for ti, t in enumerate(group.elements()):
            row_vals = grid.values[ti]
            for si, s in enumerate(group.elements()):
                v = row_vals[si]
                writer.writerow(
                    list(t.coords) + list(s.coords)
                    + [repr(float(v.real)), repr(float(v.imag))]
                )


def write_json(path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, fixed indentation, newline at EOF."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
