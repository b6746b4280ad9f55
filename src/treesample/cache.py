"""Binary persistence for pairwise distance matrices.

One self-describing file holds the matrix and its whole cache key.
Layout (all integers little-endian; each string is a u32 byte length
followed by that many UTF-8 bytes):

    magic    4 bytes   b"TMDC"
    version  u32       2
    n        u64       number of graphs
    depth    u32
    metric   string
    preset   string    weight schedule spec
    norm     string    feature norm
    dataset  string    SHA-256 of the dataset content (hex)
    checksum string    SHA-256 of the value bytes (hex)
    values   n*(n-1)/2 float64, strict upper triangle, row-major

The file is written to a temp file and renamed into place once; it gets
the mode a plain ``open(path, "w")`` gives, 0o666 less the umask.  A file of
another version, of the wrong length, or whose values fail the checksum is
rejected, and so is a cache whose key disagrees with the request: each is a
:class:`CacheMismatchError`, never a silent recompute.
"""

from __future__ import annotations

import hashlib
import os
import secrets
import struct

import numpy as np

from .config import TmdConfig
from .errors import CacheMismatchError
from .graphs import Dataset, dataset_fingerprint
from .tmd import DistanceMatrix

MAGIC = b"TMDC"
VERSION = 2
_HEAD = struct.Struct("<IQI")  # version, n, depth
# the fields of a cache key, in the order load_or_compute compares them
_KEY_NAMES = ("metric", "depth", "preset", "n", "norm", "dataset hash")


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def write_matrix(path: str, dm: DistanceMatrix, *, norm: str,
                 dataset_hash: str) -> None:
    """Write the matrix and its key atomically (temp file + rename).  The
    values are hashed and written from the array's buffer, not a copy.  An
    ``OSError`` names ``path``, and no temp file is left behind."""
    values = np.ascontiguousarray(dm.values, dtype="<f8")
    fields = (dm.metric, dm.weight_preset, norm, dataset_hash,
              hashlib.sha256(values).hexdigest())
    header = (MAGIC + _HEAD.pack(VERSION, dm.n, dm.depth)
              + b"".join(map(_pack_str, fields)))
    directory = os.path.dirname(os.path.abspath(path)) or "."
    # mode 0o666 less the umask, as open(path, "w") gives, where mkstemp's 0o600
    # would lock out other accounts that share the cache directory
    tmp = os.path.join(directory, f".tmdc-{secrets.token_hex(8)}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                fh.write(values)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:  # name the cache the caller gave, not the temp file
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, path) from exc


def read_matrix(path: str) -> tuple[DistanceMatrix, str, str]:
    """Read a file written by :func:`write_matrix` (values bit-exact).

    Returns ``(matrix, norm, dataset_hash)``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CacheMismatchError(f"{path}: bad magic {blob[:4]!r}")
    try:
        return _parse(blob, path)
    # a short header, a short string, or a string that is not UTF-8
    except (struct.error, ValueError) as exc:
        raise _corrupt(path, str(exc)) from exc


def _corrupt(path: str, detail: str) -> CacheMismatchError:
    return CacheMismatchError(
        f"{path}: truncated or corrupt version-{VERSION} cache ({detail}); "
        "delete the file to recompute it")


def _parse(blob: bytes, path: str) -> tuple[DistanceMatrix, str, str]:
    version, n, depth = _HEAD.unpack_from(blob, 4)
    if version != VERSION:
        raise CacheMismatchError(
            f"{path}: cache version {version} is not supported (this build "
            f"reads version {VERSION}); delete the file to recompute it")
    off = 4 + _HEAD.size
    fields = []
    for _ in range(5):
        (length,) = struct.unpack_from("<I", blob, off)
        off += 4
        fields.append(blob[off:off + length].decode("utf-8"))
        off += length
    metric, preset, norm, dataset_hash, checksum = fields
    m = n * (n - 1) // 2
    if len(blob) != off + 8 * m:
        raise _corrupt(path, f"{len(blob)} bytes, expected {off + 8 * m} for n={n}")
    if hashlib.sha256(memoryview(blob)[off:]).hexdigest() != checksum:  # no copy
        raise _corrupt(path, "value checksum mismatch")
    values = np.frombuffer(blob, dtype="<f8", count=m, offset=off)  # DistanceMatrix copies it
    return DistanceMatrix(int(n), metric, int(depth), preset, values), norm, dataset_hash


def load_or_compute(path: str | None, ds: Dataset, metric: str, cfg: TmdConfig,
                    compute) -> tuple[DistanceMatrix, bool]:
    """Return ``(matrix, recomputed)``, consulting the cache when ``path`` is set.

    ``compute`` is a zero-argument callable producing the DistanceMatrix.  On
    a cache hit nothing is recomputed.  A computed matrix is stamped with the
    request key before it is returned or written, so every metric's cache
    hits on the same request.  A cache keyed differently from the request
    raises :class:`CacheMismatchError`.
    """
    preset = cfg.weights.spec_string()
    ds_hash = dataset_fingerprint(ds) if path else None  # only a cache needs the hash
    if path and os.path.exists(path):
        key = (metric, cfg.depth, preset, len(ds), cfg.feature_norm, ds_hash)
        dm, norm, stored_hash = read_matrix(path)
        stored = (dm.metric, dm.depth, dm.weight_preset, dm.n, norm, stored_hash)
        if stored != key:
            raise CacheMismatchError(f"{path}: stale cache: " + "; ".join(
                f"{name} {s!r} != {k!r}" for name, s, k in zip(_KEY_NAMES, stored, key)
                if s != k))
        return dm, False
    dm = DistanceMatrix(len(ds), metric, cfg.depth, preset, compute().values)
    if path:
        write_matrix(path, dm, norm=cfg.feature_norm, dataset_hash=ds_hash)
    return dm, True
