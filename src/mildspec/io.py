"""File formats: signal JSON/CSV, coefficient JSON, report JSON.

Signal JSON:   {"group": [N1, ...], "values": [[re, im], ...]}  (canonical order)
Signal CSV:    header i0,...,i{d-1},re,im; one row per element.  CSV carries no
               moduli, so readers must be told the group.
Coefficients:  {"group": [...], "lattice": {"a": [...], "b": [...]},
                "coeffs": [[re, im], ...]}  (time-major flat order); the
               reader and writer take a gabor.CoefficientArray.
Sequences:     {"group": [...], "members": [values, ...], "limit": values}
STFT CSV:      header t0,...,s0,...,re,im; t-major rows over the points of a
               CoefficientArray's lattice, the full grid for gabor.stft().
Reports:       serialized with sorted keys and no timestamps, so fixed-seed
               reruns are byte-identical.

Writers stream from arrays: complex values are written as [re, im] pairs
in chunks straight to the file handle, and CSV rows are formatted in blocks
from precomputed coordinate strings, never through GroupElement objects or
per-pair Python lists.  The bytes are exactly those of
json.dump(sort_keys=True, indent=2) and csv.writer (float.__repr__ numbers,
"\r\n" row terminators); the tests hold the writers to those encoders.

Malformed input raises SchemaError, which names the field, row or element:
non-finite values, strings or booleans where a JSON number belongs, moduli
or lattice steps that are not lists of integers (one rule,
groups._int_list), and in CSV a coordinate out of range or an element given
twice or not at all.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .errors import GroupMismatchError, SchemaError
from .gabor import CoefficientArray, TFLattice
from .groups import GroupSpec, _int_list
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


# pairs or rows formatted per write; bounds the text held in memory at once
_CHUNK = 4096
# the types json gives numbers; bool, a subclass of int, is left out on purpose
_NUMBER_TYPES = {int, float}


def _pair_chunks(values: np.ndarray):
    """Text of a top-level JSON field's list of [re, im] pairs.

    Matches json.dump(indent=2) on [[float(v.real), float(v.imag)], ...]:
    numbers by float.__repr__ (as %r), one number per line.
    """
    if values.size == 0:
        yield "[]"
        return
    flat = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    pair = "    [\n      %r,\n      %r\n    ]"
    yield "[\n"
    for start in range(0, values.size, _CHUNK):
        n = min(_CHUNK, values.size - start)
        if start:
            yield ",\n"
        yield ",\n".join([pair] * n) % tuple(flat[2 * start:2 * (start + n)].tolist())
    yield "\n  ]"


def _parse_pairs(data, what: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{what} must be a list of [re, im] pairs") from exc
    if arr.size == 0:
        raise SchemaError(f"{what} must be non-empty")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise SchemaError(f"{what} must be a list of [re, im] pairs")
    # np.asarray reads "1.5" and true as numbers; JSON numbers parse to int or float
    if not {type(v) for pair in data for v in pair} <= _NUMBER_TYPES:
        i = next(i for i, pair in enumerate(data) if not {type(v) for v in pair} <= _NUMBER_TYPES)
        raise SchemaError(f"{what}: entry {i} is {json.dumps(data[i])}, not a pair of numbers")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise SchemaError(f"{what}: entry {bad[0]} is not finite")
    # a bit-exact view: re + 1j * im would turn a -0.0 real part into 0.0
    return np.ascontiguousarray(arr).view(np.complex128).reshape(-1)


def _coord_strings(coords: np.ndarray) -> list[str]:
    """Comma-joined coordinates, one string per row of an integer coordinate array."""
    return [",".join(map(str, row)) for row in coords.tolist()]


def _write_rows(fh, prefix: str, coords: list[str], flat: np.ndarray) -> None:
    """One CSV block: prefix, coordinates, re, im per row, as csv.writer writes it.

    flat holds the interleaved re, im of one value per coordinate string.
    """
    template = "".join([f"{prefix}{c},%r,%r\r\n" for c in coords])
    fh.write(template % tuple(flat.tolist()))


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
    if path.suffix.lower() != ".csv":
        write_json(path, {"group": signal.group.to_json(), "values": signal.values})
        return
    coords = _coord_strings(signal.group._coords)
    flat = signal.values.view(np.float64)
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"i{j}" for j in range(signal.group.ndim)] + ["re", "im"]) + "\r\n")
        for start in range(0, len(coords), _CHUNK):
            stop = start + _CHUNK
            _write_rows(fh, "", coords[start:stop], flat[2 * start:2 * stop])


def load_coefficients(path) -> CoefficientArray:
    data = _load_json(path)
    group = _group_from(data, path)
    lat = data.get("lattice")
    if not isinstance(lat, dict) or "a" not in lat or "b" not in lat:
        raise SchemaError(f"{path}: missing 'lattice' with 'a' and 'b'")
    rule = "lattice steps are a list of integers"
    try:
        lattice = TFLattice(group, _int_list(lat["a"], rule), _int_list(lat["b"], rule))
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
            "coeffs": coeffs.ravel(),
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


def save_stft_grid(path, grid: CoefficientArray) -> None:
    """CSV rows t-coords, s-coords, re, im over the lattice points; t-major, one write per t.

    stft() gives the full lattice a = b = 1, whose rows cover every (t, s).
    """
    lat = grid.lattice
    ndim = lat.group.ndim
    times = _coord_strings(lat.time_lattice.coords_array)
    freqs = _coord_strings(lat.freq_lattice.coords_array)
    with open(path, "w", newline="") as fh:
        fh.write(
            ",".join([f"t{j}" for j in range(ndim)]
                     + [f"s{j}" for j in range(ndim)] + ["re", "im"])
            + "\r\n"
        )
        for t, row in zip(times, grid.values):
            _write_rows(fh, t + ",", freqs, row.view(np.float64))


def write_json(path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, fixed indentation, newline at EOF.

    Top-level complex NumPy arrays are written as [re, im] pairs, streamed
    in chunks; every other value goes through json, so any other array
    raises TypeError there.  Non-finite numbers raise ValueError, as
    allow_nan=False.
    """
    pairs = {k for k, v in payload.items() if isinstance(v, np.ndarray) and np.iscomplexobj(v)}
    for key in pairs:
        if not np.isfinite(payload[key]).all():
            raise ValueError(f"Out of range float values are not JSON compliant in {key!r}")
    with open(path, "w") as fh:
        sep = "{\n  "
        for key in sorted(payload):
            fh.write(sep + json.dumps(key) + ": ")
            sep = ",\n  "
            if key in pairs:
                fh.writelines(_pair_chunks(payload[key]))
            else:
                text = json.dumps(payload[key], sort_keys=True, indent=2, allow_nan=False)
                fh.write(text.replace("\n", "\n  "))
        fh.write("\n}\n" if payload else "{}\n")


def write_csv(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
