"""The framing of every workdir artifact, written and checked in one place.

Writers replace a file whole or not at all. Readers raise the caller's error
type, naming the file, and never return a partial object (see "Common
framing" in docs/FORMATS.md).
"""

import json
import os
import struct
from contextlib import contextmanager

import numpy as np


@contextmanager
def replacing(path, mode, **kwargs):
    """Yield a file in ``path``'s directory that replaces ``path`` once the block ends.

    If the block raises, the temporary file is removed and ``path`` is left
    as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@contextmanager
def write_binary(path, magic, fmt, *fields):
    """Yield ``path`` open for its body after the magic and header (version first)."""
    with replacing(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack(fmt, *fields))
        yield f


def read_binary(path, magic, fmt, version, error, rerun, parse):
    """``parse(data, body offset, *header fields after the version)`` of a binary artifact.

    A bad magic, a short header, another version (the message says to rerun
    ``rerun``) and a ``ValueError`` from ``parse`` (a body that disagrees with
    its header, or values of the wrong shape) raise ``error``; an ``error``
    that ``parse`` raises passes through.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != magic:
        raise error(f"{path}: bad magic {data[:4]!r}; expected {magic!r}")
    offset = 4 + struct.calcsize(fmt)
    if len(data) < offset:
        raise error(f"{path}: truncated header ({len(data)} of {offset} bytes)")
    found, *fields = struct.unpack_from(fmt, data, 4)
    if found != version:
        raise error(f"{path}: format version {found} unsupported; expected {version} (rerun {rerun})")
    try:
        return parse(data, offset, *fields)
    except error:
        raise
    except ValueError as exc:
        raise error(f"{path}: {exc}") from None


def read_f64(data, pos, count):
    """The ``count`` little-endian f64 values that end ``data`` at ``pos``, as a new array.

    A short or long body and a NaN or infinite value raise ``ValueError``.
    """
    end = pos + 8 * count
    if len(data) < end:
        raise ValueError(f"truncated f64 values ({len(data) - pos} of {end - pos} bytes)")
    if len(data) > end:
        raise ValueError(f"{len(data) - end} trailing bytes after the f64 values")
    values = np.frombuffer(data, dtype="<f8", count=count, offset=pos).astype(np.float64)
    if not np.isfinite(values).all():
        raise ValueError("non-finite f64 value (NaN or infinity)")
    return values


# ---------------------------------------------------------------------------
# Keyed-matrix body, shared by ``*.vec`` and ``*.idx``
# ---------------------------------------------------------------------------

def write_keyed_matrix(f, keys, matrix):
    """Write the id table (``u32`` length + UTF-8 per key), then the f64 LE rows."""
    for key in keys:
        kb = str(key).encode("utf-8")
        f.write(struct.pack("<I", len(kb)))
        f.write(kb)
    f.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def row_norms(matrix):
    """The L2 norm of each row of ``matrix``; a norm that overflows is inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(matrix, axis=1)


def read_keyed_matrix(data, pos, dim, count):
    """(keys, matrix) of a body that ends ``data``, in the ``*.vec`` header's argument order.

    A short id table, a key that is not UTF-8 or not greater than the key
    before it, a short matrix, a non-finite value, a row whose norm overflows
    or trailing bytes raise ``ValueError``.
    """
    keys = []
    for _ in range(count):
        klen = int.from_bytes(data[pos : pos + 4], "little")
        pos += 4 + klen
        if len(data) < pos:
            raise ValueError("truncated id table")
        try:
            key = data[pos - klen : pos].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"id table key is not UTF-8: {exc}") from None
        if keys and key <= keys[-1]:
            raise ValueError(f"id table is not strictly ascending: {key!r} after {keys[-1]!r}")
        keys.append(key)
    matrix = read_f64(data, pos, count * dim).reshape(count, dim)
    overflows = np.flatnonzero(~np.isfinite(row_norms(matrix)))
    if len(overflows):
        raise ValueError(f"non-finite norm of row {keys[overflows[0]]!r}: a component's square "
                         "overflows f64")
    return keys, matrix


# ---------------------------------------------------------------------------
# JSON artifacts
# ---------------------------------------------------------------------------

def save_json(path, obj):
    """Write ``obj`` as UTF-8 JSON, keys sorted, indent 1."""
    with replacing(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=1)


def load_json(path, from_dict, error):
    """``parse_json`` of the file at ``path``."""
    with open(path, "rb") as f:
        return parse_json(f.read(), path, from_dict, error)


def parse_json(blob, path, from_dict, error):
    """``from_dict`` of the UTF-8 JSON bytes ``blob`` read from ``path``.

    Bytes that are not UTF-8 or JSON and a document ``from_dict`` cannot read
    (a missing key, a wrong type, a value of the wrong shape) raise ``error``,
    and so does an ``error`` that ``from_dict`` raises itself, such as an
    unsupported version; every message names ``path``.
    """
    try:
        return from_dict(json.loads(blob.decode("utf-8")))
    except error as exc:
        raise error(f"{path}: {exc}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise error(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from None
