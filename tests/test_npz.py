"""The one-read .npz loader behind bucket files and checkpoints: failure modes,
round trips, and agreement with np.load on the files the pipeline writes."""

import io
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from wafersense.atomic import read_npz
from wafersense.nn import ArchConfig, CheckpointError, ModelParams, load_checkpoint, \
    param_count, save_checkpoint
from wafersense.preprocess import BUCKET_ARRAY_KEYS, Bucket, PreprocessError, load_bucket, \
    save_bucket

from conftest import examples

TINY = ArchConfig(sensor_dim=6, meas_dim=3, d=4, mlp_hidden=5)
S, M, N_STEPS = 3, 2, 2


def bucket(n: int, labels=None, lcl=None) -> Bucket:
    rng = np.random.default_rng(n)
    labels = [f"L{i}" for i in range(n)] if labels is None else labels
    strings = np.array(labels, dtype=str).reshape(n)
    lcl = rng.normal(size=n) if lcl is None else lcl
    return Bucket(n_steps=N_STEPS, target=rng.normal(size=n), lcl=lcl, ucl=lcl + 1.0,
                  features=rng.normal(size=(n, N_STEPS * S + M)).astype(np.float32),
                  **{key: strings for key in BUCKET_ARRAY_KEYS
                     if key not in ("features", "target", "lcl", "ucl")})


def write_bucket(path):
    save_bucket(path, bucket(5))
    return load_bucket, PreprocessError


def write_checkpoint(path):
    params = ModelParams(TINY, np.arange(param_count(TINY), dtype=np.float32))
    save_checkpoint(path, params, {"loss": "re"})
    return load_checkpoint, CheckpointError


def arrays_of(path) -> dict:
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def rewrite(path, save, change=lambda arrays: None):
    contents = arrays_of(path)
    change(contents)
    with open(path, "wb") as fh:
        save(fh, **contents)


def flip_last_data_byte(path):
    raw = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        largest = max(archive.infolist(), key=lambda info: info.file_size)
    name_len, extra_len = struct.unpack("<HH", raw[largest.header_offset + 26:][:4])
    raw[largest.header_offset + 30 + name_len + extra_len + largest.file_size - 1] ^= 0x01
    path.write_bytes(bytes(raw))


def first_member_to_objects(contents):
    name = next(iter(contents))
    contents[name] = np.array([{"a": 1}] * max(1, contents[name].size), dtype=object)


def npy_header(text: str) -> bytes:
    """A .npy v1.0 magic and header holding ``text``, padded as numpy pads it."""
    text += " " * (-(len(text) + 11) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text.encode("latin1")


def rewrite_header(path, header):
    """Give the ``features`` array of a bucket file or the ``flat`` array of a checkpoint
    at ``path`` the header ``header(shape, fortran_order, descr)`` in place of its own."""
    with zipfile.ZipFile(path) as archive:
        members = {info.filename: archive.read(info) for info in archive.infolist()}
    name = next(name for name in ("features.npy", "flat.npy") if name in members)
    fh = io.BytesIO(members[name])
    np.lib.format.read_magic(fh)
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    members[name] = header(shape, fortran_order, np.lib.format.dtype_to_descr(dtype)) + fh.read()
    with zipfile.ZipFile(path, "w") as archive:
        for member, data in members.items():
            archive.writestr(member, data)


def reorder_header_keys(path):
    rewrite_header(path, lambda shape, fortran_order, descr: npy_header(
        f"{{'shape': {shape!r}, 'fortran_order': {fortran_order!r}, 'descr': {descr!r}}}"))
    arrays_of(path)  # numpy reads it


def overrun_header_shape(path):
    def header(shape, fortran_order, descr):
        out = io.BytesIO()
        np.lib.format.write_array_header_1_0(out, {
            "descr": descr, "fortran_order": fortran_order, "shape": (shape[0] + 1, *shape[1:])})
        return out.getvalue()
    rewrite_header(path, header)


def append_zip_comment(path):
    with zipfile.ZipFile(path, "a") as archive:
        archive.comment = b"written after the end record"
    arrays_of(path)  # numpy reads it


@pytest.mark.parametrize("damage, message", [
    (lambda path: path.write_bytes(path.read_bytes()[:-40]), "is unreadable"),
    (flip_last_data_byte, "fails its CRC-32 check"),
    (lambda path: rewrite(path, np.savez, first_member_to_objects), "holds objects"),
    (lambda path: rewrite(path, np.savez_compressed), "is stored compressed"),
    (lambda path: path.write_text("kqi,type\nK,T\n" * 20), "is not an .npz file"),
    (reorder_header_keys, "has no canonical .npy v1.0 header"),
    (overrun_header_shape, "does not fit its header"),
    (append_zip_comment, "does not end with its zip directory's end record"),
], ids=["truncated", "flipped_byte", "object_member", "compressed", "not_npz",
        "noncanonical_header", "header_overruns", "zip_comment"])
@pytest.mark.parametrize("write", [write_bucket, write_checkpoint], ids=["bucket", "checkpoint"])
def test_damaged_file_raises_the_typed_error_naming_it(tmp_path, write, damage, message):
    path = tmp_path / "file.npz"
    load, error = write(path)
    load(path)
    damage(path)
    with pytest.raises(error, match=message) as excinfo:
        load(path)
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("write", [write_bucket, write_checkpoint], ids=["bucket", "checkpoint"])
def test_missing_file_raises_file_not_found(tmp_path, write):
    load, _ = write(tmp_path / "file.npz")
    with pytest.raises(FileNotFoundError):
        load(tmp_path / "other.npz")


def assert_bit_identical(got: np.ndarray, want: np.ndarray):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    assert got.flags.aligned and got.flags.writeable


@settings(max_examples=examples(40), deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.lists(st.text(max_size=6), min_size=n, max_size=n),
    st.lists(st.sampled_from([np.nan, -1.5, 0.0, 2.25]), min_size=n, max_size=n))))
def test_bucket_round_trip_is_bit_identical(tmp_path_factory, case):
    labels, lcl = case
    path = tmp_path_factory.mktemp("bucket") / "reg_test_n2.npz"
    saved = bucket(len(labels), labels, np.array(lcl, dtype=np.float64))
    save_bucket(path, saved)
    loaded = load_bucket(path)
    assert loaded.n_steps == saved.n_steps
    for key in BUCKET_ARRAY_KEYS:
        assert_bit_identical(getattr(loaded, key), getattr(saved, key))


@settings(max_examples=examples(40), deadline=None)
@given(st.sampled_from([np.float32, np.float64]).flatmap(
    lambda dtype: arrays(dtype, param_count(TINY))))
def test_checkpoint_round_trip_is_bit_identical(tmp_path_factory, flat):
    path = tmp_path_factory.mktemp("checkpoint") / "model.npz"
    meta = {"loss": "nl1", "manifest_hash": "ü" * 3}
    save_checkpoint(path, ModelParams(TINY, flat), meta)
    loaded, loaded_meta = load_checkpoint(path)
    assert loaded_meta == meta and loaded.cfg == TINY
    assert_bit_identical(loaded.flat, flat)


def test_agrees_with_np_load_on_every_pipeline_file(tiny_run):
    paths = sorted(tiny_run["features"].glob("*.npz")) + [tiny_run["checkpoint"]]
    assert len(paths) > 2
    for path in paths:
        want = arrays_of(path)
        got = read_npz(path, ValueError, "file", tuple(want))
        assert list(got) == list(want)
        for name in want:
            assert_bit_identical(got[name], want[name])


def members():
    """Arrays of every kind the pipeline writes: float32, float64 and bool grids, 0-d
    int64 (``n_steps``) and <U1-<U9 strings, with zero-row and Fortran-ordered cases."""
    dtypes = st.one_of(st.sampled_from([np.dtype("<f4"), np.dtype("<f8"), np.dtype("|b1")]),
                       st.integers(1, 9).map(lambda k: np.dtype(f"<U{k}")))
    grids = dtypes.flatmap(lambda dtype: arrays(dtype, array_shapes(
        min_dims=1, max_dims=2, min_side=0, max_side=5)))
    return st.one_of(
        st.tuples(grids, st.booleans()).map(lambda g: np.asfortranarray(g[0]) if g[1] else g[0]),
        st.integers(-2 ** 63, 2 ** 63 - 1).map(lambda n: np.array(n, dtype=np.int64)))


@settings(max_examples=examples(60), deadline=None)
@given(st.dictionaries(st.from_regex(r"m[a-z_]{0,6}", fullmatch=True), members(),
                       min_size=1, max_size=4))
def test_header_reader_agrees_with_numpys_parser(tmp_path_factory, contents):
    path = tmp_path_factory.mktemp("npz") / "members.npz"
    np.savez(path, **contents)
    got = read_npz(path, ValueError, "file", tuple(contents))
    want = arrays_of(path)
    with zipfile.ZipFile(path) as archive:
        for name, array in got.items():
            with archive.open(f"{name}.npy") as fh:
                assert np.lib.format.read_magic(fh) == (1, 0)
                header = np.lib.format.read_array_header_1_0(fh)
            fortran_order = array.flags.f_contiguous and not array.flags.c_contiguous
            assert (array.shape, fortran_order, array.dtype) == header
            assert_bit_identical(array, want[name])
