"""The file writers against the stdlib encoders, and the readers against json and the list path."""

import csv
import io as stdio
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mildspec import (
    CoefficientArray,
    GaborSystem,
    GroupMismatchError,
    GroupSpec,
    SchemaError,
    Signal,
    TFLattice,
    finite_gaussian,
    io,
    random_signal,
    stft,
)
from mildspec.io import _CHUNK, _parse_pairs

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
           1.7976931348623157e308, 1.0, -3.0, 1e16, 123456789.0, 0.1, 1e-5]


def json_oracle(payload) -> str:
    """What the writers must produce: json.dump over [re, im] lists."""
    plain = {
        k: [[float(v.real), float(v.imag)] for v in val] if isinstance(val, np.ndarray) else val
        for k, val in payload.items()
    }
    buf = stdio.StringIO()
    json.dump(plain, buf, sort_keys=True, indent=2, allow_nan=False)
    return buf.getvalue() + "\n"


def csv_oracle(header, rows) -> bytes:
    buf = stdio.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


finite = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(float),
)
sizes = st.one_of(
    st.sampled_from([1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]),
    st.integers(1, 40),
)


@st.composite
def complex_arrays(draw):
    n = draw(sizes)
    head = draw(st.lists(finite, min_size=2, max_size=2 * min(n, 20)))
    flat = np.resize(np.array(head, dtype=np.float64), 2 * n)
    return flat.view(np.complex128)


class TestJSONWriter:
    @settings(max_examples=40)
    @given(complex_arrays())
    def test_bytes_match_json_dump(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("w") / "x.json"
        payload = {"values": values, "group": [values.size], "lattice": {"b": [1], "a": [2]}}
        io.write_json(path, payload)
        assert path.read_bytes() == json_oracle(payload).encode()

    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1])
    def test_chunk_boundaries(self, tmp_path, n):
        values = np.resize(np.array(SPECIAL), 2 * n).view(np.complex128)
        io.write_json(tmp_path / "x.json", {"values": values})
        assert (tmp_path / "x.json").read_text() == json_oracle({"values": values})

    @pytest.mark.parametrize("moduli", [(6,), (4, 6), (2, 3, 4)])
    def test_signal_and_coefficient_files(self, tmp_path, rng, moduli):
        G = GroupSpec(moduli)
        f = random_signal(G, rng)
        io.save_signal(tmp_path / "f.json", f)
        assert (tmp_path / "f.json").read_text() == json_oracle(
            {"group": G.to_json(), "values": f.values})
        steps = tuple(2 if n % 2 == 0 else 1 for n in moduli)
        coeffs = GaborSystem(finite_gaussian(G), TFLattice(G, steps, steps)).analyze(f)
        io.save_coefficients(tmp_path / "c.json", coeffs)
        assert (tmp_path / "c.json").read_text() == json_oracle({
            "group": G.to_json(),
            "lattice": {"a": list(steps), "b": list(steps)},
            "coeffs": coeffs.ravel(),
        })

    def test_payload_without_arrays_is_plain_json(self, tmp_path):
        payload = {"z": [1.5, {"b": None, "a": True}], "a": "text", "m": []}
        io.write_json(tmp_path / "r.json", payload)
        assert (tmp_path / "r.json").read_text() == json_oracle(payload)

    def test_empty_payload(self, tmp_path):
        io.write_json(tmp_path / "e.json", {})
        assert (tmp_path / "e.json").read_text() == json_oracle({})

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_non_complex_array_is_rejected(self, tmp_path, dtype):
        # only complex arrays are pair lists; others must not pass as [x, 0.0]
        with pytest.raises(TypeError):
            io.write_json(tmp_path / "x.json", {"moduli": np.array([4, 6], dtype=dtype)})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_raises(self, tmp_path, bad):
        values = np.array([1.0, bad, 2.0], dtype=np.complex128)
        with pytest.raises(ValueError):
            io.write_json(tmp_path / "x.json", {"values": values})


@pytest.mark.parametrize("moduli", [(6,), (4, 6), (2, 3, 4)])
class TestCSVWriters:
    def test_signal_csv_matches_csv_writer(self, tmp_path, rng, moduli):
        G = GroupSpec(moduli)
        f = random_signal(G, rng)
        io.save_signal(tmp_path / "f.csv", f)
        rows = [list(e) + [repr(float(v.real)), repr(float(v.imag))]
                for e, v in zip(G.elements(), f.values)]
        header = [f"i{j}" for j in range(G.ndim)] + ["re", "im"]
        assert (tmp_path / "f.csv").read_bytes() == csv_oracle(header, rows)

    def test_stft_csv_matches_csv_writer(self, tmp_path, rng, moduli):
        G = GroupSpec(moduli)
        grid = stft(random_signal(G, rng), finite_gaussian(G))
        io.save_stft_grid(tmp_path / "g.csv", grid)
        rows = [list(t) + list(s) + [repr(float(v.real)), repr(float(v.imag))]
                for t, row in zip(G.elements(), grid.values)
                for s, v in zip(G.elements(), row)]
        header = ([f"t{j}" for j in range(G.ndim)] + [f"s{j}" for j in range(G.ndim)]
                  + ["re", "im"])
        assert (tmp_path / "g.csv").read_bytes() == csv_oracle(header, rows)


class TestSignalRoundTrip:
    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_values_survive_exactly(self, tmp_path, suffix):
        G = GroupSpec((7,))
        vals = np.array(SPECIAL, dtype=np.float64).view(np.complex128)
        f = Signal(G, vals)
        io.save_signal(tmp_path / f"f{suffix}", f)
        back = io.load_signal(tmp_path / f"f{suffix}", group=G)
        assert back.values.tobytes() == f.values.tobytes()


class TestPairReader:
    def test_reads_pairs(self):
        out = _parse_pairs([[1, 2.5], [-0.0, 3]], "'values'")
        assert out.tolist() == [complex(1, 2.5), complex(-0.0, 3)]

    @pytest.mark.parametrize("data, message", [
        ([[1.0, 2.0], [3.0]], "list of \\[re, im\\] pairs"),
        ([[1.0, 2.0, 3.0]], "list of \\[re, im\\] pairs"),
        ([1.0, 2.0], "list of \\[re, im\\] pairs"),
        ([["a", 1.0]], "list of \\[re, im\\] pairs"),
        ([[{"re": 1}, 1.0]], "list of \\[re, im\\] pairs"),
        ([[10**400, 0]], "list of \\[re, im\\] pairs"),
        ([], "must be non-empty"),
        ([[1.0, 2.0], [float("nan"), 0.0]], "entry 1 is not finite"),
        ([[float("inf"), 0.0]], "entry 0 is not finite"),
    ], ids=["ragged", "arity", "flat", "non-numeric", "object", "overflow", "empty",
            "nan", "inf"])
    def test_malformed_is_schema_error_naming_field(self, data, message):
        with pytest.raises(SchemaError, match=f"'values'.*{message}"):
            _parse_pairs(data, "'values'")


class TestCoefficientReader:
    @pytest.mark.parametrize("field, steps", [
        ("a", [2.7]), ("a", ["2"]), ("b", [True]), ("b", [2.0]), ("a", 2),
    ], ids=["float", "string", "bool", "integral-float", "scalar"])
    def test_lattice_steps_must_be_integer_lists(self, tmp_path, field, steps):
        # each file would load as the a = b = 2 lattice on Z8 if the steps were coerced
        lattice = {"a": [2], "b": [2]}
        lattice[field] = steps
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {"group": [8], "lattice": lattice, "coeffs": [[1.0, 0.0]] * 16}))
        with pytest.raises(SchemaError, match="bad lattice steps"):
            io.load_coefficients(path)

    def test_coefficient_file_without_coeffs(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"group": [4], "lattice": {"a": [2], "b": [2]}}))
        with pytest.raises(SchemaError, match="missing 'coeffs'"):
            io.load_coefficients(path)
        path.write_text(json.dumps({"group": [4], "lattice": {"a": [2], "b": [2]}, "coeffs": []}))
        with pytest.raises(SchemaError, match="'coeffs' must be non-empty"):
            io.load_coefficients(path)


# -- the readers: pair arrays decoded slice by slice ---------------------------

READERS = {"signal": io.load_signal, "coefficients": io.load_coefficients,
           "sequence": io.load_sequence}
numbers = st.one_of(finite, st.integers(-2**80, 2**80))
INDENTS = [None, 0, 2, "\t"]
# values for extra or duplicate keys: text that looks like a pair boundary or
# an array end, nested pairs, and values that are no array at all
EXTRAS = [None, 7, -0.5, "],[1, 2]]", "]]", "é ", {"a": [[1, 2]], "b": "],"},
          [[0.5, -1], [2, 3]], [], [[[1, 2]]]]


def dumps_object(items, indent) -> str:
    """json.dumps(dict(items), indent=indent), keeping duplicate keys and their order."""
    if not items:
        return "{}"
    if indent is None:
        return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in items) + "}"
    pad = " " * indent if isinstance(indent, int) else indent
    return "{\n" + pad + (",\n" + pad).join(
        f"{json.dumps(k)}: " + json.dumps(v, indent=indent).replace("\n", "\n" + pad)
        for k, v in items
    ) + "\n}"


@st.composite
def documents(draw) -> str:
    """A signal, coefficient or sequence file in the whitespace of json.dumps,
    in any key order, with extra and duplicate keys."""
    n = draw(st.integers(1, 24))

    def pairs(count):
        return draw(st.lists(st.lists(numbers, min_size=2, max_size=2),
                             min_size=count, max_size=count))

    kind = draw(st.sampled_from(sorted(READERS)))
    items = [("group", [n])]
    if kind == "signal":
        items.append(("values", pairs(n)))
    elif kind == "coefficients":
        a, b = (draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
                for _ in "ab")
        items += [("lattice", {"a": [a], "b": [b]}), ("coeffs", pairs((n // a) * (n // b)))]
    else:
        items.append(("members", [pairs(n) for _ in range(draw(st.integers(1, 3)))]))
        if draw(st.booleans()):
            items.append(("limit", pairs(n)))
    keys = ["note", "values", "coeffs", "limit", "members", "group", "lattice"]
    items += draw(st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(EXTRAS)),
                           max_size=2))
    return dumps_object(draw(st.permutations(items)), draw(st.sampled_from(INDENTS)))


NUMBER = re.compile(r"-?\d+(\.\d+)?([eE][+-]?\d+)?")
DEEP = "[" * 5000 + "]" * 5000


@st.composite
def mutated(draw) -> bytes:
    """A document as it is, or broken the ways an input file can be broken."""
    text = draw(documents())
    kind = draw(st.sampled_from(["none", "number", "bracket", "truncate", "junk", "bom",
                                 "byte", "deep"]))
    at = draw(st.integers(0, len(text)))
    if kind == "number":
        spots = list(NUMBER.finditer(text))
        spot = spots[draw(st.integers(0, len(spots) - 1))]
        swap = draw(st.sampled_from(["NaN", '"1"', "true", "null", "[1]", "1" + "0" * 400, DEEP]))
        text = text[:spot.start()] + swap + text[spot.end():]
    elif kind == "bracket":
        spots = [i for i, c in enumerate(text) if c in "[]"]
        drop = spots[draw(st.integers(0, len(spots) - 1))]
        text = text[:drop] + text[drop + 1:]
    elif kind == "truncate":
        text = text[:at]
    elif kind == "junk":
        text += draw(st.sampled_from(["x", "]", ", 1", "{}", "\n\n"]))
    elif kind == "deep":
        text = text[:at] + DEEP + text[at:]
    data = text.encode()
    if kind == "bom":
        data = b"\xef\xbb\xbf" + data
    elif kind == "byte":
        data = data[:at] + b"\xff" + data[at:]
    return data


def outcome(read, path):
    """What a reader gives: the loaded values as bytes, or the error and its message."""
    try:
        loaded = read(path)
    except (SchemaError, GroupMismatchError) as exc:
        return type(exc), str(exc)
    if isinstance(loaded, tuple):
        members, limit = loaded
        return [m.values.tobytes() for m in members], limit is not None and limit.values.tobytes()
    if isinstance(loaded, CoefficientArray):
        return loaded.lattice.time_steps, loaded.lattice.freq_steps, loaded.values.tobytes()
    return loaded.group.moduli, loaded.values.tobytes()


class TestReaders:
    @settings(max_examples=200)
    @given(mutated())
    # the size check must come before a lattice of the group is built
    @example(b'{"group": [1' + b"0" * 400 + b'], "lattice": {"a": [1], "b": [1]}, '
             b'"coeffs": [[0.0, 0.0]]}')
    def test_outcome_is_a_load_or_a_schema_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("r") / "doc.json"
        path.write_bytes(data)
        for read in READERS.values():
            outcome(read, path)
        outcome(lambda p: io.load_signal(p, group=GroupSpec((2,))), path)

    @settings(max_examples=200)
    @given(mutated())
    def test_slices_decode_as_json_does(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("r") / "doc.json"
        path.write_bytes(data)
        with mock.patch.object(io, "_SLICE", 96):
            got = {name: outcome(read, path) for name, read in READERS.items()}
        # json.loads and the list path alone
        with mock.patch.object(io, "_walk", side_effect=ValueError):
            want = {name: outcome(read, path) for name, read in READERS.items()}
        assert got == want

    @pytest.mark.parametrize("indent", INDENTS)
    @pytest.mark.parametrize("key", ["values", "coeffs"])
    def test_pair_arrays_are_decoded_in_slices(self, indent, key):
        pairs = [[1.5, -0.0], [3, 5e-324], [-2, 1e308]] * 5
        text = dumps_object([("group", [15]), ("note", "],"), (key, pairs)], indent)
        with mock.patch.object(io, "_SLICE", 48):
            data = io._walk(text)
        got = data[key]
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == np.array(pairs, dtype=np.float64).tobytes()
        assert data["note"] == "],"

    def test_signal_read_holds_no_object_per_number(self, tmp_path):
        rng = np.random.default_rng(7)
        pairs = rng.standard_normal((65536, 2))
        path = tmp_path / "x.json"
        with open(path, "w") as fh:
            json.dump({"group": [65536], "values": pairs.tolist()}, fh)
        tracemalloc.start()
        try:
            f = io.load_signal(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.values.view(np.float64).tobytes() == pairs.tobytes()
        # the text is about 2.7 MB, held once as bytes and once as str while it
        # is read; json.load builds 9 MiB of lists and floats on top of that
        assert peak < 8 * 2**20


# -- the CSV reader: a load or a SchemaError -----------------------------------

CSV_GROUPS = [(6,), (2, 3), (2, 2, 2)]
# what a field can be swapped for: not a number, not finite, empty, a NUL, too long
CSV_SWAPS = ["nan", "1e400", '""', "true", "\x00", "1" * 140000]


@st.composite
def mutated_csv(draw) -> bytes:
    """A valid CSV signal file on one of CSV_GROUPS, as it is or broken."""
    G = GroupSpec(draw(st.sampled_from(CSV_GROUPS)))
    values = draw(st.lists(finite, min_size=2 * G.order, max_size=2 * G.order))
    header = [f"i{j}" for j in range(G.ndim)] + ["re", "im"]
    rows = [[*map(str, x), repr(real), repr(imag)]
            for x, real, imag in zip(G.elements(), values[::2], values[1::2])]
    kind = draw(st.sampled_from(["none", "field", "drop", "duplicate", "quote", "truncate",
                                 "bom", "byte"]))
    if kind == "field":
        row = draw(st.sampled_from([header, *rows]))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(CSV_SWAPS))
    elif kind == "drop":
        rows.pop(draw(st.integers(0, len(rows) - 1)))
    elif kind == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    data = csv_oracle(header, rows)
    at = draw(st.integers(0, len(data)))
    if kind == "quote":
        data = data[:at] + b'"' + data[at:]
    elif kind == "truncate":
        data = data[:at]
    elif kind == "bom":
        data = b"\xef\xbb\xbf" + data
    elif kind == "byte":
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestCSVReader:
    @settings(max_examples=300)
    @given(mutated_csv())
    def test_outcome_is_a_load_or_a_schema_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("r") / "doc.csv"
        path.write_bytes(data)
        for moduli in CSV_GROUPS:
            outcome(lambda p: io.load_signal(p, group=GroupSpec(moduli)), path)


def csv_reference(path, group: GroupSpec) -> Signal:
    """The CSV signal reader as a row-by-row loop over csv.DictReader: the messages and bytes
    io.load_signal must give."""
    values = np.empty(group.order, dtype=np.complex128)
    seen = np.zeros(group.order, dtype=bool)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = iter(reader)
            while True:
                try:
                    row = next(rows)
                except StopIteration:
                    break
                except csv.Error as exc:
                    raise SchemaError(f"{path}: line {reader.reader.line_num}: {exc}") from exc
                where = f"{path}: line {reader.line_num}"
                try:
                    coords = tuple(int(row[name := f"i{j}"]) for j in range(group.ndim))
                    real, imag = float(row[name := "re"]), float(row[name := "im"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise SchemaError(f"{where}: '{name}' is missing or malformed") from exc
                for j, (c, n) in enumerate(zip(coords, group.moduli)):
                    if not 0 <= c < n:
                        raise SchemaError(f"{where}: i{j}={c} is outside [0, {n})")
                for name, v in (("re", real), ("im", imag)):
                    if not np.isfinite(v):
                        raise SchemaError(f"{where}: '{name}' is not finite")
                i = group.index(coords)
                if seen[i]:
                    raise SchemaError(f"{where}: element {coords} is given twice")
                seen[i] = True
                values[i] = complex(real, imag)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    missing = np.flatnonzero(~seen)
    if missing.size:
        raise SchemaError(
            f"{path}: element {tuple(group._coords[missing[0]].tolist())} has no row "
            f"({missing.size} of {group.order} elements missing)")
    return Signal(group, values)


# what a coordinate can be swapped for: out of range, past int64, spaced, signed, underscored
COORD_SWAPS = ["-1", "6", "99999999999999999999", " 1", "+1", "1_0", "0x1", "1.0"]


@st.composite
def edited_csv(draw) -> bytes:
    """A CSV signal file on one of CSV_GROUPS with its rows or columns edited."""
    G = GroupSpec(draw(st.sampled_from(CSV_GROUPS)))
    header = [f"i{j}" for j in range(G.ndim)] + ["re", "im"]
    rows = [[*map(str, x), repr(float(k)), "-0.0"] for k, x in enumerate(G.elements())]
    rows = draw(st.permutations(rows))
    # edits that change a row's length come after those that need every field
    kinds = ["coordinate", "twice", "repeat", "long", "short", "blank"]
    for kind in sorted(draw(st.lists(st.sampled_from(kinds), max_size=3)), key=kinds.index):
        at = draw(st.integers(0, len(rows) - 1))
        if kind == "coordinate":
            rows[at][draw(st.integers(0, G.ndim - 1))] = draw(st.sampled_from(COORD_SWAPS))
        elif kind == "twice":
            # a column named twice: DictReader keeps the last one
            col = draw(st.integers(0, len(header) - 1))
            header = header + [header[col]]
            rows = [row + [row[col] if draw(st.booleans()) else "1"] for row in rows]
        elif kind == "short":
            rows[at] = rows[at][:draw(st.integers(0, max(len(rows[at]) - 1, 0)))]
        elif kind == "long":
            rows[at] = rows[at] + ["7"]
        elif kind == "blank":
            rows.insert(at, [])
        else:
            rows.insert(draw(st.integers(0, len(rows))), list(rows[at]))
    return csv_oracle(header, rows)


class TestCSVReaderAgainstRowLoop:
    """The block reader against csv_reference: the same bytes or the same SchemaError text."""

    @settings(max_examples=300)
    @given(st.one_of(mutated_csv(), edited_csv()))
    @example(data=b"i0,re,im\r\n\r\n9,0,0\r\n")
    @example(data=b"i0,re,im\r\n\r\n\r\n0,0,0\r\n")
    @example(data=b"i0,re,im\r\n0,0,0\r\n\r\n\r\n0,1,0\r\n")
    def test_same_outcome(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("r") / "doc.csv"
        path.write_bytes(data)
        for moduli in CSV_GROUPS:
            G = GroupSpec(moduli)
            assert outcome(lambda p: io.load_signal(p, group=G), path) == outcome(
                lambda p: csv_reference(p, G), path)

    @pytest.mark.parametrize("moduli, data, message", [
        ((6,), b"i0,re,im\r\n\r\n9,0,0\r\n", "line 3: i0=9 is outside [0, 6)"),
        ((2, 3), b"i0,re,im\r\n\r\n\r\n0,0,0\r\n", "line 4: 'i1' is missing or malformed"),
        ((6,), b"i0,re,im\r\n0,0,0\r\n\r\n\r\n0,1,0\r\n", "line 5: element (0,) is given twice"),
    ])
    def test_a_row_after_blank_lines_is_named_by_its_own_line(self, tmp_path, moduli, data,
                                                              message):
        # DictReader's fieldnames getter sets line_num again after the blank lines are
        # skipped, so the row's own line is named, not the first blank one
        path = tmp_path / "blank.csv"
        path.write_bytes(data)
        G = GroupSpec(moduli)
        got = outcome(lambda p: io.load_signal(p, group=G), path)
        assert got == (SchemaError, f"{path}: {message}")
        assert got == outcome(lambda p: csv_reference(p, G), path)

    @pytest.mark.parametrize("edit", [
        "none", "repeat-across-blocks", "repeat-in-last-block", "bad-coordinate-late",
        "range-then-unparsable", "bad-row-then-bad-bytes", "missing-last",
    ])
    def test_same_outcome_across_blocks(self, tmp_path, edit):
        G = GroupSpec((2 * _CHUNK + 5,))
        lines = ["i0,re,im"] + [f"{i},{i / 7!r},-{i}" for i in range(G.order)]
        if edit == "repeat-across-blocks":
            lines[_CHUNK + 9] = "3,1,0"
        elif edit == "repeat-in-last-block":
            lines[2 * _CHUNK + 4] = f"{2 * _CHUNK + 1},1,0"
        elif edit == "bad-coordinate-late":
            lines[2 * _CHUNK + 2] = "x,1,0"
        elif edit == "range-then-unparsable":
            lines[_CHUNK + 1] = f"{G.order},1,0"
            lines[_CHUNK + 2] = "1,y,0"
        elif edit == "bad-row-then-bad-bytes":
            lines[_CHUNK + 1] = "-1,1,0"
        elif edit == "missing-last":
            lines.pop()
        data = "\r\n".join(lines).encode() + b"\r\n"
        if edit == "bad-row-then-bad-bytes":
            data += b"\xff" * 3 + b'"'
        path = tmp_path / "big.csv"
        path.write_bytes(data)
        got = outcome(lambda p: io.load_signal(p, group=G), path)
        assert got == outcome(lambda p: csv_reference(p, G), path)
        assert (got[0] is SchemaError) == (edit != "none")
