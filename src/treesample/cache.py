"""Binary persistence for pairwise distance matrices.

Layout (all integers little-endian):

    magic   4 bytes   b"TMDC"
    version u32       1
    n       u64       number of graphs
    depth   u32
    metric  u32 length + UTF-8 bytes
    preset  u32 length + UTF-8 bytes
    values  n*(n-1)/2 float64, strict upper triangle, row-major

A JSON sidecar (``<path>.meta.json``) carries the remaining cache-key
components: the feature norm and a content hash of the dataset.  A cache
whose header or sidecar disagrees with the requested parameters is an error,
never a silent recompute.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

from .config import TmdConfig
from .errors import CacheMismatchError
from .graphs import Dataset, dataset_fingerprint
from .tmd import DistanceMatrix

MAGIC = b"TMDC"
VERSION = 1


def sidecar_path(path: str) -> str:
    return f"{path}.meta.json"


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def write_matrix(path: str, dm: DistanceMatrix, *, norm: str = "",
                 dataset_hash: str = "") -> None:
    """Write the matrix and its sidecar atomically (temp file + rename)."""
    payload = (MAGIC
               + struct.pack("<IQI", VERSION, dm.n, dm.depth)
               + _pack_str(dm.metric)
               + _pack_str(dm.weight_preset)
               + np.ascontiguousarray(dm.values, dtype="<f8").tobytes())
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmdc-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    meta = {"norm": norm, "dataset_sha256": dataset_hash,
            "metric": dm.metric, "depth": dm.depth, "preset": dm.weight_preset}
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmdc-meta-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True)
        os.replace(tmp, sidecar_path(path))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_matrix(path: str) -> DistanceMatrix:
    """Read a matrix written by :func:`write_matrix` (values bit-exact)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CacheMismatchError(f"{path}: bad magic {blob[:4]!r}")
    try:
        return _parse(blob, path)
    # a short header, a short value block, or a corrupt size field
    except (struct.error, ValueError, OverflowError) as exc:
        raise CacheMismatchError(f"{path}: truncated or corrupt cache ({exc})") from exc


def _parse(blob: bytes, path: str) -> DistanceMatrix:
    off = 4
    version, n, depth = struct.unpack_from("<IQI", blob, off)
    off += struct.calcsize("<IQI")
    if version != VERSION:
        raise CacheMismatchError(f"{path}: unsupported cache version {version}")

    def unpack_str(offset):
        (length,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        return blob[offset:offset + length].decode("utf-8"), offset + length

    metric, off = unpack_str(off)
    preset, off = unpack_str(off)
    values = np.frombuffer(blob, dtype="<f8", count=n * (n - 1) // 2, offset=off)
    return DistanceMatrix(int(n), metric, int(depth), preset, values.copy())


def read_sidecar(path: str) -> dict:
    side = sidecar_path(path)
    if not os.path.exists(side):
        raise CacheMismatchError(f"{path}: sidecar {side} is missing")
    with open(side, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise CacheMismatchError(f"{path}: corrupt sidecar {side} ({exc})") from exc


def load_or_compute(path: str | None, ds: Dataset, metric: str, cfg: TmdConfig,
                    compute) -> tuple[DistanceMatrix, bool]:
    """Return ``(matrix, recomputed)``, consulting the cache when ``path`` is set.

    ``compute`` is a zero-argument callable producing the DistanceMatrix.  On
    a cache hit nothing is recomputed.  A cache keyed differently from the
    request raises :class:`CacheMismatchError`.
    """
    preset = cfg.weights.spec_string()
    ds_hash = dataset_fingerprint(ds)
    if path and os.path.exists(path):
        dm = read_matrix(path)
        meta = read_sidecar(path)
        mismatches = []
        if dm.metric != metric:
            mismatches.append(f"metric {dm.metric!r} != {metric!r}")
        if dm.depth != cfg.depth:
            mismatches.append(f"depth {dm.depth} != {cfg.depth}")
        if dm.weight_preset != preset:
            mismatches.append(f"preset {dm.weight_preset!r} != {preset!r}")
        if dm.n != len(ds):
            mismatches.append(f"n {dm.n} != {len(ds)}")
        if meta.get("norm") != cfg.feature_norm:
            mismatches.append(f"norm {meta.get('norm')!r} != {cfg.feature_norm!r}")
        if meta.get("dataset_sha256") != ds_hash:
            mismatches.append("dataset content hash differs")
        if mismatches:
            raise CacheMismatchError(f"{path}: stale cache: " + "; ".join(mismatches))
        return dm, False
    dm = compute()
    if path:
        write_matrix(path, dm, norm=cfg.feature_norm, dataset_hash=ds_hash)
    return dm, True
