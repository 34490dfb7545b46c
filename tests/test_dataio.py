import os

import numpy as np
import pytest

from qll.core import AmbiguousDataset, GenMeta, RngStream
from qll.dataio import atomic_write_bytes, load_dataset, save_dataset, sidecar_path
from qll.datagen import BaseSpec, MixSpec, generate_ambiguous_dataset, synth_base


@pytest.fixture
def mixed_dataset():
    base = synth_base(BaseSpec(c=3, d=5, n_per_class=20), RngStream(1, 1))
    return generate_ambiguous_dataset(base, MixSpec("mixup", 2, 4), 60, RngStream(1, 2))


def test_roundtrip_is_exact(tmp_path, mixed_dataset):
    path = save_dataset(mixed_dataset, tmp_path / "ds.qll")
    back = load_dataset(path)
    assert back.class_count == mixed_dataset.class_count
    assert back.feature_dim == mixed_dataset.feature_dim
    assert np.array_equal(back.features, mixed_dataset.features)
    assert np.array_equal(back.labels, mixed_dataset.labels)
    assert np.array_equal(back.diagnostics, mixed_dataset.diagnostics)
    assert back.gen_meta.kind == "mixup"
    assert (back.gen_meta.m, back.gen_meta.r) == (2, 4)
    assert back.gen_meta.seed == 1


def test_resave_is_byte_identical(tmp_path, mixed_dataset):
    a = save_dataset(mixed_dataset, tmp_path / "a.qll")
    b = save_dataset(mixed_dataset, tmp_path / "b.qll")
    assert a.read_bytes() == b.read_bytes()


def test_no_diagnostics_roundtrip(tmp_path):
    ds = AmbiguousDataset(
        3, 2, np.zeros((4, 2), dtype=np.float32), np.array([0, 1, 2, 0]), gen_meta=GenMeta()
    )
    back = load_dataset(save_dataset(ds, tmp_path / "plain.qll"))
    assert back.diagnostics is None
    assert back.gen_meta.kind == "none"


def test_sidecar_written_and_readable(tmp_path, mixed_dataset):
    path = save_dataset(mixed_dataset, tmp_path / "ds.qll")
    side = sidecar_path(path)
    assert side.exists()
    text = side.read_text()
    assert "kind = mixup" in text
    assert "m = 2" in text
    assert f"n_examples = {mixed_dataset.n_examples}" in text


def test_header_magic_and_rejects(tmp_path, mixed_dataset):
    path = save_dataset(mixed_dataset, tmp_path / "ds.qll")
    raw = path.read_bytes()
    assert raw[:4] == b"QLL1"
    bad = tmp_path / "bad.qll"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="not a QLL1"):
        load_dataset(bad)
    trunc = tmp_path / "trunc.qll"
    trunc.write_bytes(raw[:-7])
    with pytest.raises(ValueError, match="size mismatch"):
        load_dataset(trunc)


def test_no_temp_files_left_behind(tmp_path, mixed_dataset):
    save_dataset(mixed_dataset, tmp_path / "ds.qll")
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_failed_replace_keeps_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "out.bin"
    atomic_write_bytes(path, b"old bytes")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        atomic_write_bytes(path, b"new bytes")
    assert path.read_bytes() == b"old bytes"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]  # no .out.bin.*.tmp


def test_label_width_guard(tmp_path):
    ds = AmbiguousDataset(3, 2, np.zeros((2, 2), dtype=np.float32), np.array([0, 1]))
    ds.class_count = 70_000  # simulate an oversized class space
    with pytest.raises(ValueError, match="u16"):
        save_dataset(ds, tmp_path / "wide.qll")


def test_sidecar_extras_load_back_unless_stale(tmp_path, mixed_dataset):
    path = save_dataset(mixed_dataset, tmp_path / "ds.qll")
    assert load_dataset(path).gen_meta.extra == mixed_dataset.gen_meta.extra
    # A sidecar left from another dataset describes a different header.
    other = AmbiguousDataset(3, 5, np.zeros((2, 5), dtype=np.float32), np.array([0, 1]))
    save_dataset(other, path, sidecar=False)
    assert load_dataset(path).gen_meta.extra == {}
    sidecar_path(path).write_text("kind = none\nnot a key-value line\n")
    with pytest.raises(ValueError, match="key = value"):
        load_dataset(path)
