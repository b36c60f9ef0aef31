import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprec import ktar


class TestRoundTrip:
    def test_c128_identity_bytes(self, tmp_path):
        path = tmp_path / "eye.ktar"
        data = np.array([[1 + 0j, 0], [0, 1 + 0j]])
        ktar.write_array(path, data)
        first = path.read_bytes()
        header, back = ktar.read_array(path)
        assert header.dtype == "c128"
        assert header.shape == (2, 2)
        assert np.array_equal(back, data)
        ktar.write_array(path, back)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("dtype,np_dtype", [
        ("c64", "<c8"), ("c128", "<c16"), ("f32", "<f4"), ("f64", "<f8"),
    ])
    def test_all_dtypes_byte_identical(self, tmp_path, dtype, np_dtype):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((3, 4, 2))
        if dtype.startswith("c"):
            data = data + 1j * rng.standard_normal(data.shape)
        data = data.astype(np_dtype)
        path = tmp_path / f"{dtype}.ktar"
        ktar.write_array(path, data)
        blob1 = path.read_bytes()
        header, back = ktar.read_array(path)
        assert back.dtype == np.dtype(np_dtype)
        assert np.array_equal(back, data)
        ktar.write_array(path, back)
        assert path.read_bytes() == blob1

    def test_meta_round_trip(self, tmp_path):
        path = tmp_path / "meta.ktar"
        ktar.write_array(path, np.zeros((2, 2)), meta={"config_hash": "abc123"})
        header, _ = ktar.read_array(path)
        assert header.meta == {"config_hash": "abc123"}

    @settings(max_examples=20, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_shape_property(self, shape, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype("<c16")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "prop.ktar"
            ktar.write_array(path, data)
            header, back = ktar.read_array(path)
        assert header.shape == tuple(shape)
        assert np.array_equal(back, data)


    def test_read_holds_at_most_two_payloads(self, tmp_path):
        # the file's bytes and the returned array; no slice of the payload besides
        path = tmp_path / "big.ktar"
        data = np.zeros((4, 64, 64, 12), dtype=np.complex128)
        ktar.write_array(path, data)
        tracemalloc.start()
        try:
            _, back = ktar.read_array(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.shape == data.shape and back.flags.writeable
        assert peak <= 2.1 * data.nbytes, peak / data.nbytes


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ktar"
        path.write_bytes(b"XXXXXX" + b"\x00" * 32)
        with pytest.raises(ktar.KtarBadMagic, match="bad magic"):
            ktar.read_array(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.ktar"
        ktar.write_array(path, np.ones((4, 4), dtype="<f8"))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])  # drop one f64
        with pytest.raises(ktar.KtarTruncated, match="payload size mismatch"):
            ktar.read_array(path)

    def test_payload_size_mismatch(self, tmp_path):
        # header claims [4, 4] f64 but payload holds 15 values
        path = tmp_path / "mismatch.ktar"
        ktar.write_array(path, np.ones((4, 4), dtype="<f8"))
        blob = path.read_bytes()
        path.write_bytes(blob + np.float64(7.0).tobytes())
        with pytest.raises(ktar.KtarSizeMismatch, match="payload size mismatch"):
            ktar.read_array(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "th.ktar"
        ktar.write_array(path, np.ones((2, 2), dtype="<f4"))
        path.write_bytes(path.read_bytes()[:8])
        with pytest.raises(ktar.KtarTruncated):
            ktar.read_array(path)

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ktar.KtarError):
            ktar.ArrayHeader("i32", (2, 2))

    def test_element_guard(self):
        with pytest.raises(ktar.KtarError, match="exceeds"):
            ktar.ArrayHeader("f32", (2**21, 2**20))


def _write_raw(path, doc, payload=b""):
    text = json.dumps(doc).encode("utf-8")
    path.write_bytes(ktar.MAGIC + len(text).to_bytes(4, "little") + text + payload)


@pytest.mark.parametrize("changes", [
    {"shape": 5},
    {"shape": ["a"]},
    {"shape": [2.7]},
    {"shape": [True]},
    {"shape": [-1]},
    {"dtype": ["f64"]},
    {"order": 1},
], ids=["shape_int", "shape_str", "shape_float", "shape_bool", "shape_negative",
        "dtype_list", "order_int"])
def test_malformed_header_is_ktar_error(tmp_path, changes):
    # every malformed field is a format error, never a TypeError or a silent cast
    path = tmp_path / "bad.ktar"
    doc = {"dtype": "f64", "shape": [2], "order": "row-major", **changes}
    _write_raw(path, doc, np.zeros(2, dtype="<f8").tobytes())
    with pytest.raises(ktar.KtarError, match=r"header (shape|dtype|order) must be"):
        ktar.read_array(path)
