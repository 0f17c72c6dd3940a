"""The file writers against the stdlib encoders, and the strict pair and coefficient readers."""

import csv
import io as stdio
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mildspec import (
    GaborSystem,
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
    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
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
        rows = [list(e.coords) + [repr(float(v.real)), repr(float(v.imag))]
                for e, v in zip(G.elements(), f.values)]
        header = [f"i{j}" for j in range(G.ndim)] + ["re", "im"]
        assert (tmp_path / "f.csv").read_bytes() == csv_oracle(header, rows)

    def test_stft_csv_matches_csv_writer(self, tmp_path, rng, moduli):
        G = GroupSpec(moduli)
        grid = stft(random_signal(G, rng), finite_gaussian(G))
        io.save_stft_grid(tmp_path / "g.csv", grid)
        rows = [list(t.coords) + list(s.coords) + [repr(float(v.real)), repr(float(v.imag))]
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
