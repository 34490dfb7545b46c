"""Binary dataset files and their human-readable sidecars.

Layout (little-endian throughout):

    magic  "QLL1"
    header u32 class_count, u32 feature_dim, u64 n_examples,
           u8 has_diagnostics, u8 mix_kind (0=none, 1=mixup, 2=patchmix),
           u32 m, u32 r, u64 seed
    body   n_examples records of (feature_dim float32, u16 label)
    diag   n_examples records of (class_count float32), when present

A text sidecar with the same stem (extension ``.meta``) carries the full
generation record for humans, one ``key = value`` line each. The loader
reads the binary file and restores the record's extra keys from a sidecar
that matches it, so re-saving a loaded dataset rewrites both files byte for
byte.

All writes go through a write-temp-then-rename helper, so a crashed run
never leaves a partial file readable as complete.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .core import AmbiguousDataset, GenMeta

__all__ = ["save_dataset", "load_dataset", "sidecar_path", "atomic_write_bytes", "atomic_write_text"]

MAGIC = b"QLL1"
_HEADER = struct.Struct("<IIQBBIIQ")
_KIND_TO_CODE = {"none": 0, "mixup": 1, "patchmix": 2}
_CODE_TO_KIND = {v: k for k, v in _KIND_TO_CODE.items()}


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write bytes to path via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def sidecar_path(path: str | os.PathLike) -> Path:
    return Path(path).with_suffix(".meta")


def _record_dtype(d: int) -> np.dtype:
    return np.dtype([("features", "<f4", (d,)), ("label", "<u2")])


def _sidecar_header(ds: AmbiguousDataset) -> dict:
    """The sidecar lines that restate the binary header, before the extras."""
    meta = ds.gen_meta
    return {"kind": meta.kind, "m": meta.m, "r": meta.r, "seed": meta.seed,
            "class_count": ds.class_count, "feature_dim": ds.feature_dim,
            "n_examples": ds.n_examples, "has_diagnostics": ds.diagnostics is not None}


def _sidecar_text(ds: AmbiguousDataset) -> str:
    extra = ds.gen_meta.extra
    lines = [f"{k} = {v}" for k, v in _sidecar_header(ds).items()]
    lines += [f"{k} = {extra[k]}" for k in sorted(extra)]
    return "\n".join(lines) + "\n"


def save_dataset(ds: AmbiguousDataset, path: str | os.PathLike, sidecar: bool = True) -> Path:
    """Serialize a dataset (and its sidecar) to disk; returns the data path."""
    path = Path(path)
    if ds.class_count > 0xFFFF:
        raise ValueError("class count exceeds the u16 label range of the file format")
    kind_code = _KIND_TO_CODE.get(ds.gen_meta.kind)
    if kind_code is None:
        raise ValueError(f"unknown mix kind {ds.gen_meta.kind!r}")

    header = MAGIC + _HEADER.pack(
        ds.class_count,
        ds.feature_dim,
        ds.n_examples,
        1 if ds.diagnostics is not None else 0,
        kind_code,
        ds.gen_meta.m,
        ds.gen_meta.r,
        ds.gen_meta.seed,
    )
    body = np.empty(ds.n_examples, dtype=_record_dtype(ds.feature_dim))
    body["features"] = ds.features
    body["label"] = ds.labels.astype(np.uint16)
    blob = header + body.tobytes()
    if ds.diagnostics is not None:
        blob += np.ascontiguousarray(ds.diagnostics, dtype="<f4").tobytes()

    atomic_write_bytes(path, blob)
    if sidecar:
        atomic_write_text(sidecar_path(path), _sidecar_text(ds))
    return path


def _sidecar_extra(path: str | os.PathLike, header: dict) -> dict:
    """GenMeta.extra from a dataset's sidecar, values as text: {} without a
    sidecar, or with a stale one whose header lines differ from ``header``."""
    side = sidecar_path(path)
    lines = side.read_text(encoding="utf-8").splitlines() if side.is_file() else []
    pairs = [line.partition(" = ") for line in lines]
    if not all(sep for _, sep, _ in pairs):
        raise ValueError(f"{side}: every line must read 'key = value'")
    record = {key: value for key, _, value in pairs}
    if any(record.get(k) != str(v) for k, v in header.items()):
        return {}
    return {k: v for k, v in record.items() if k not in header}


def load_dataset(path: str | os.PathLike) -> AmbiguousDataset:
    """Read a dataset written by ``save_dataset``."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a QLL1 dataset file")
    if len(raw) < 4 + _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    c, d, n, has_diag, kind_code, m, r, seed = _HEADER.unpack_from(raw, 4)
    if kind_code not in _CODE_TO_KIND:
        raise ValueError(f"{path}: unknown mix kind code {kind_code}")

    rec = _record_dtype(d)
    off = 4 + _HEADER.size
    body_bytes = n * rec.itemsize
    diag_bytes = n * c * 4 if has_diag else 0
    if len(raw) != off + body_bytes + diag_bytes:
        raise ValueError(f"{path}: size mismatch (expected {off + body_bytes + diag_bytes} bytes)")

    body = np.frombuffer(raw, dtype=rec, count=n, offset=off)
    diagnostics = None
    if has_diag:
        diagnostics = np.frombuffer(raw, dtype="<f4", count=n * c, offset=off + body_bytes)
        diagnostics = diagnostics.reshape(n, c).copy()
    meta = GenMeta(kind=_CODE_TO_KIND[kind_code], m=m, r=r, seed=seed)
    ds = AmbiguousDataset(
        c,
        d,
        body["features"].copy(),
        body["label"].astype(np.int64),
        diagnostics=diagnostics,
        gen_meta=meta,
    )
    meta.extra.update(_sidecar_extra(path, _sidecar_header(ds)))
    return ds
