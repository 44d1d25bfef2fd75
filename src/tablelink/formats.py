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
    ``rerun``) and any ``ValueError`` from ``parse``, ``error`` included (a body
    that disagrees with its header, values of the wrong shape), raise ``error``
    prefixed with the file; other exceptions pass through and name it themselves.
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
    except ValueError as exc:
        raise error(f"{path}: {exc}") from None


def read_floats(data, pos, count, dtype):
    """The ``count`` little-endian ``dtype`` values that end ``data`` at ``pos``, as a new array.

    A short or long body and a NaN or infinite value raise ``ValueError``.
    """
    wire = np.dtype(dtype).newbyteorder("<")
    name = f"f{8 * wire.itemsize}"
    end = pos + wire.itemsize * count
    if len(data) < end:
        raise ValueError(f"truncated {name} values ({len(data) - pos} of {end - pos} bytes)")
    if len(data) > end:
        raise ValueError(f"{len(data) - end} trailing bytes after the {name} values")
    values = np.frombuffer(data, dtype=wire, count=count, offset=pos).astype(dtype)
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite {name} value (NaN or infinity)")
    return values


# ---------------------------------------------------------------------------
# Keyed-matrix body, shared by ``*.vec`` and ``*.idx``
# ---------------------------------------------------------------------------

def write_keyed_matrix(f, keys, matrix):
    """Write the id table (``u32`` length + UTF-8 per key), then the f32 LE rows."""
    for key in keys:
        kb = key.encode("utf-8")
        f.write(struct.pack("<I", len(kb)))
        f.write(kb)
    f.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def read_keyed_matrix(data, pos, dim, count):
    """(keys, matrix) of a body that ends ``data``, in the ``*.vec`` header's argument order.

    A short id table, a key that is not UTF-8, a short matrix, a non-finite
    value or trailing bytes raise ``ValueError``; ``KeyedVectors`` checks the
    id order.
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
        keys.append(key)
    return keys, read_floats(data, pos, count * dim, np.float32).reshape(count, dim)


# ---------------------------------------------------------------------------
# JSON artifacts
# ---------------------------------------------------------------------------

def encode_json(obj):
    """``obj`` as UTF-8 JSON, keys sorted, no spaces: every JSON artifact's and header's encoding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_json(path, obj):
    """Write ``encode_json(obj)`` to ``path``; returns those bytes."""
    blob = encode_json(obj)
    with replacing(path, "wb") as f:
        f.write(blob)
    return blob


def load_json(path, from_dict, error):
    """``parse_json`` of the file at ``path``."""
    with open(path, "rb") as f:
        return parse_json(f.read(), path, from_dict, error)


def unique_keys(pairs):
    """The JSON object of the (key, value) ``pairs``; a repeated key raises ``ValueError``."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def parse_json(blob, path, from_dict, error):
    """``from_dict`` of the UTF-8 JSON bytes ``blob`` read from ``path``.

    Bytes that are not UTF-8 or JSON, an object with a repeated key and a
    document ``from_dict`` cannot read (a missing key, a wrong type, a value
    of the wrong shape) raise ``error``, and so does an ``error`` that
    ``from_dict`` raises itself, such as an unsupported version; every
    message names ``path``.
    """
    try:
        return from_dict(json.loads(blob.decode("utf-8"), object_pairs_hook=unique_keys))
    except error as exc:
        raise error(f"{path}: {exc}") from None
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise error(f"{path}: malformed artifact ({type(exc).__name__}: {exc})") from None
