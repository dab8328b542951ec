"""The one-read .npz loader behind bucket files and checkpoints: failure modes,
round trips, and agreement with np.load on the files the pipeline writes."""

import struct
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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


@pytest.mark.parametrize("damage, message", [
    (lambda path: path.write_bytes(path.read_bytes()[:-40]), "is unreadable"),
    (flip_last_data_byte, "fails its CRC-32 check"),
    (lambda path: rewrite(path, np.savez, first_member_to_objects), "holds objects"),
    (lambda path: rewrite(path, np.savez_compressed), "is stored compressed"),
    (lambda path: path.write_text("kqi,type\nK,T\n" * 20), "is not an .npz file"),
], ids=["truncated", "flipped_byte", "object_member", "compressed", "not_npz"])
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
