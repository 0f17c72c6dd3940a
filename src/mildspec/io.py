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

Only load_coefficients, the one reader that builds a CoefficientArray,
imports gabor, and it does so when called: the writers read the lattice off
the array they are given.  So a command that moves signals alone (dft,
restrict, weil, extend) does not load the Gabor layer.

Writers stream from arrays: complex values are written as [re, im] pairs
in chunks straight to the file handle, and CSV rows are formatted in blocks
from coordinate strings precomputed off the group's coordinate array, never
element by element or through per-pair Python lists.  The bytes are exactly those of
json.dump(sort_keys=True, indent=2) and csv.writer (float.__repr__ numbers,
"\r\n" row terminators); the tests hold the writers to those encoders.

Readers take files as UTF-8 text (RFC 8259).  A JSON reader does not build
the whole document as Python objects: it walks the top-level object with
json's own scanner and decodes the array of [re, im] pairs of a signal
("values") or coefficient file ("coeffs") in slices of at most _SLICE
characters, cut after a pair, straight into one float64 array.  The slices
joined by their commas are the array's text, so the numbers are json's to
the bit.  A document the walk does not take whole goes to json.loads and
the list path, which give every error message.  The CSV signal reader
finds its columns by header name once and checks rows in blocks of _CHUNK
on index arrays; only a block with a bad row is checked again row by row, to
name the first bad row.

Malformed input raises SchemaError, which names the file and the field, row
or element: text that is not UTF-8, JSON nested deeper than json decodes,
non-finite values, strings or booleans where a JSON number belongs, moduli
or lattice steps that are not lists of integers (one rule,
groups._int_list), and in CSV a line the csv module cannot parse (such as a
field over its length limit), a coordinate out of range or an element given
twice or not at all.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import re
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import GroupMismatchError, SchemaError
from .groups import GroupSpec, _int_list
from .signals import Signal

if TYPE_CHECKING:
    from .gabor import CoefficientArray

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
# characters of a pair array decoded at once; bounds the Python objects alive
_SLICE = 1 << 16
_PAIR_FIELDS = ("values", "coeffs")
_WS = json.decoder.WHITESPACE.match
_SCAN = json.JSONDecoder().scan_once
# the "]" of the last pair, then the array's own: in an array of flat pairs
# no earlier "]" has another "]" next to it
_PAIRS_END = re.compile(r"\][ \t\n\r]*\]")


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


def _numbers_only(pairs) -> bool:
    return {type(v) for pair in pairs for v in pair} <= _NUMBER_TYPES


def _parse_pairs(data, what: str) -> np.ndarray:
    """Complex values of [re, im] pairs: a list as json decodes it, or the
    (n, 2) float64 array _pairs_at decoded and type-checked."""
    try:
        arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{what} must be a list of [re, im] pairs") from exc
    if arr.size == 0:
        raise SchemaError(f"{what} must be non-empty")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise SchemaError(f"{what} must be a list of [re, im] pairs")
    # np.asarray reads "1.5" and true as numbers; JSON numbers parse to int or float
    if arr is not data and not _numbers_only(data):
        i = next(i for i, pair in enumerate(data) if not {type(v) for v in pair} <= _NUMBER_TYPES)
        raise SchemaError(f"{what}: entry {i} is {json.dumps(data[i])}, not a pair of numbers")
    bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
    if bad.size:
        raise SchemaError(f"{what}: entry {bad[0]} is not finite")
    # a bit-exact view: re + 1j * im would turn a -0.0 real part into 0.0
    return np.ascontiguousarray(arr).view(np.complex128).reshape(-1)


def _pairs_at(text: str, start: int) -> tuple[np.ndarray, int]:
    """The array of [re, im] pairs whose "[" is text[start], and the index past it.

    Slices of at most _SLICE characters, each cut at a "]" that a comma
    follows, decode by json.loads into one preallocated (n, 2) array.
    Raises ValueError (or what json or NumPy raise) on any other text.
    """
    i = _WS(text, start + 1).end()
    if text[i] == "]":
        return np.empty((0, 2)), i + 1
    end = _PAIRS_END.search(text, i)
    if end is None:
        raise ValueError("no end of a pair array")
    last = end.start()
    out = np.empty((text.count("]", i, last + 1), 2))
    filled = 0
    while True:
        cut = last if last + 1 - i <= _SLICE else text.rfind("],", i, i + _SLICE)
        if cut < 0:
            raise ValueError("no pair boundary in a slice")
        pairs = json.loads("[" + text[i:cut + 1] + "]")
        rows = np.asarray(pairs, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != 2 or not _numbers_only(pairs):
            raise ValueError("not a slice of [re, im] pairs")
        out[filled:filled + len(rows)] = rows
        filled += len(rows)
        if cut == last:
            return out, end.end()
        i = cut + 2


def _walk(text: str) -> dict:
    """The top-level object of text, its pair arrays decoded by _pairs_at.

    Raises ValueError (or what json or NumPy raise) on any document it does
    not take whole; duplicate keys keep the last value, as in json.
    """
    data = {}
    i = _WS(text, 0).end()
    if text[i] != "{":
        raise ValueError("not an object")
    i = _WS(text, i + 1).end()
    while text[i] != "}":
        if text[i] != '"':
            raise ValueError("expected a key")
        key, i = json.decoder.scanstring(text, i + 1)
        i = _WS(text, i).end()
        if text[i] != ":":
            raise ValueError("expected ':'")
        i = _WS(text, i + 1).end()
        if key in _PAIR_FIELDS and text[i] == "[":
            data[key], i = _pairs_at(text, i)
        else:
            data[key], i = _SCAN(text, i)
        i = _WS(text, i).end()
        if text[i] == ",":
            i = _WS(text, i + 1).end()
            if text[i] == "}":
                raise ValueError("trailing comma")
        elif text[i] != "}":
            raise ValueError("expected ',' or '}'")
    if _WS(text, i + 1).end() != len(text):
        raise ValueError("extra data")
    return data


def _coord_strings(coords: np.ndarray) -> list[str]:
    """Comma-joined coordinates, one string per row of an integer coordinate array."""
    return [",".join(map(str, row)) for row in coords.tolist()]


def _write_rows(fh, prefix: str, coords: list[str], flat: np.ndarray) -> None:
    """One CSV block: prefix, coordinates, re, im per row, as csv.writer writes it.

    flat holds the interleaved re, im of one value per coordinate string.
    """
    template = "".join([f"{prefix}{c},%r,%r\r\n" for c in coords])
    fh.write(template % tuple(flat.tolist()))


def _first_bad_row(block, columns: dict, group: GroupSpec, seen: np.ndarray) -> str | None:
    """Where and how the first bad row of a block of (line number, row) pairs fails.

    The checks of one row, in their order: each field parses (i0, ..., re,
    im), each coordinate is in range, each value is finite, and the element
    has no earlier row.
    """
    taken = set()
    for line, row in block:
        try:
            # name is the column being parsed; its text is never echoed
            coords = tuple(int(row[columns[name := f"i{j}"]]) for j in range(group.ndim))
            real, imag = float(row[columns[name := "re"]]), float(row[columns[name := "im"]])
        except (KeyError, IndexError, ValueError):
            return f"line {line}: '{name}' is missing or malformed"
        for j, (c, n) in enumerate(zip(coords, group.moduli)):
            if not 0 <= c < n:
                return f"line {line}: i{j}={c} is outside [0, {n})"
        for name, v in (("re", real), ("im", imag)):
            if not math.isfinite(v):
                return f"line {line}: '{name}' is not finite"
        i = group.index(coords)
        if seen[i] or i in taken:
            return f"line {line}: element {coords} is given twice"
        taken.add(i)
    return None


def _csv_block(block, columns: dict, group: GroupSpec, seen: np.ndarray, path: Path):
    """Element indices and (re, im) rows of a block of (line number, row) pairs.

    The fields parse by int and float, and range, finiteness and repeats are
    checked on index arrays; seen marks the elements of earlier blocks and
    takes this block's.  A block with a bad row goes to _first_bad_row.
    """
    if not block:
        return np.empty(0, dtype=np.intp), np.empty((0, 2))
    names = [f"i{j}" for j in range(group.ndim)] + ["re", "im"]
    try:
        get = operator.itemgetter(*[columns[name] for name in names])
        fields = list(zip(*[get(row) for _, row in block]))
        coords = np.stack(
            [np.fromiter(map(int, f), np.int64, len(block)) for f in fields[:-2]], axis=1)
        pairs = np.stack(
            [np.fromiter(map(float, f), np.float64, len(block)) for f in fields[-2:]], axis=1)
    except (KeyError, IndexError, ValueError, OverflowError):
        pass
    else:
        if np.all((coords >= 0) & (coords < group.moduli)) and np.isfinite(pairs).all():
            index = group._index_rows(coords)
            if not seen[index].any() and np.unique(index).size == index.size:
                seen[index] = True
                return index, pairs
    raise SchemaError(f"{path}: {_first_bad_row(block, columns, group, seen)}")


def _load_csv_signal(path: Path, group: GroupSpec) -> Signal:
    """Strict CSV read: coordinates in range, finite values, every element exactly once.

    As csv.DictReader reads a file: the first row names the columns, a name
    given twice means its last column, and a blank line is no row.  Rows are
    checked in blocks of _CHUNK, so the first bad row in file order is the
    one reported, also before a line the csv module cannot parse or text
    that is not UTF-8.
    """
    values = np.empty((group.order, 2))
    seen = np.zeros(group.order, dtype=bool)
    columns, block, stop = {}, [], None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            columns = {name: p for p, name in enumerate(next(reader, []))}
            for row in reader:
                if row:
                    block.append((reader.line_num, row))
                    if len(block) == _CHUNK:
                        index, pairs = _csv_block(block, columns, group, seen, path)
                        values[index] = pairs
                        block = []
        except csv.Error as exc:
            stop = SchemaError(f"{path}: line {reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            stop = exc
    index, pairs = _csv_block(block, columns, group, seen, path)
    values[index] = pairs
    if stop is not None:
        raise stop
    missing = np.flatnonzero(~seen)
    if missing.size:
        raise SchemaError(
            f"{path}: element {tuple(group._coords[missing[0]].tolist())} has no row "
            f"({missing.size} of {group.order} elements missing)"
        )
    return Signal(group, values.view(np.complex128).reshape(-1))


def _load_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        data = _walk(text)
    except (ValueError, TypeError, OverflowError, IndexError, StopIteration, RecursionError):
        # json decides what the walk does not take, with json's messages
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:
            raise SchemaError(f"{path}: not valid JSON (nested too deeply)") from exc
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
        try:
            return _load_csv_signal(path, group)
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
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
    from .gabor import CoefficientArray, TFLattice

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
    if "coeffs" not in data:
        raise SchemaError(f"{path}: missing 'coeffs'")
    coeffs = _parse_pairs(data["coeffs"], f"{path}: 'coeffs'")
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
