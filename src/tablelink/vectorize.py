"""Raw vector representations of tuple records and text mentions.

Tuples are vectorized attribute by attribute (text encoder output, normalized
numerics, one-hot categoricals) plus, per foreign key, the summed base vectors
of its targets (their attribute sections and presence bits) and per-field
presence bits, concatenated in schema order. Mentions concatenate the
encodings of the mention surface form and of its covering sentence. A side is
built in one call (``tuple_vectors``, ``mention_vectors``), each part once.
"""

import functools
import hashlib
import struct
import sys
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import formats
from .config import check
from .corpus import RelationSchema, is_null, numeric_value, words


class VectorizeError(ValueError):
    """Raised for schema/model mismatches and malformed vector files."""


# Most (slot, sign) entries one encoder remembers; past it, new features are
# hashed on every use. A full memo of short features holds about 50 MB.
MEMO_LIMIT = 2**18


class HashingEncoder:
    """Signed feature hashing over character 3-grams and word unigrams.

    Deterministic across processes: features are hashed with keyed BLAKE2b
    (the interpreter's built-in ``hash`` is salted per process). The output
    is L2-normalized when any feature was extracted, otherwise all-zero.

    Each instance remembers the (slot, sign) of up to ``MEMO_LIMIT`` distinct
    features, so a feature seen again costs a dict lookup, not a BLAKE2b. A
    remembered pair is the one the hash gives, and each slot sums ±1 terms,
    which f64 holds exactly, so the output bits do not depend on what the
    memo holds. The memo lives and dies with the instance: a command that
    loads a vectorizer starts with an empty one.
    """

    def __init__(self, dim=256, seed=0):
        self.dim = int(check("encoder.dim", dim, VectorizeError))
        self.seed = int(check("encoder.seed", seed, VectorizeError))
        self._key = struct.pack("<q", self.seed)
        self._memo = {}  # (namespace, feature) -> (slot, sign)

    def _hash(self, namespace: bytes, feature: str) -> int:
        digest = hashlib.blake2b(
            namespace + b"\x1f" + feature.encode("utf-8"), digest_size=8, key=self._key
        ).digest()
        return int.from_bytes(digest, "little")

    def _slot(self, feature):
        """(slot, sign) of one (namespace, feature) pair, remembered while the memo has room."""
        hit = self._memo.get(feature)
        if hit is None:
            h = self._hash(*feature)
            hit = ((h >> 1) % self.dim, 1.0 if h & 1 == 0 else -1.0)
            if len(self._memo) < MEMO_LIMIT:
                self._memo[feature] = hit
        return hit

    def features(self, text: str):
        """All (namespace, feature) pairs of a text, with repetition."""
        feats = []
        for i in range(len(text) - 2):
            feats.append((b"c3", text[i : i + 3]))
        for word in words(text):
            feats.append((b"w", word))
        return feats

    def encode(self, text: str) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.float64)
        for feature in self.features(text):
            slot, sign = self._slot(feature)
            out[slot] += sign
        norm = float(np.linalg.norm(out))
        if norm > 0.0:
            out /= norm
        return out

    def config(self) -> dict:
        return {"type": "hashing", "dim": self.dim, "seed": self.seed}


@dataclass
class VectorizerModel:
    """Fitted per-schema vectorization state.

    ``numeric_stats`` maps attribute name to (mean, population std) over the
    non-NULL fit values; ``vocabularies`` map categorical attributes to their
    value->slot dictionaries with a trailing UNK slot.
    """

    schema: RelationSchema
    encoder: HashingEncoder
    numeric_stats: dict  # attr -> (mean, std)
    vocabularies: dict  # attr -> {value: index}, UNK last

    UNK = "\x00UNK"

    # -- layout ------------------------------------------------------------

    @functools.cached_property
    def _widths(self):
        """Each attribute section's width, in schema order, and a base vector's width; built once."""
        attrs = {a: (self.encoder.dim if kind == "text" else 1 if kind == "numeric"
                     else len(self.vocabularies[a])) for a, kind in self.schema.attributes}
        return attrs, sum(attrs.values()) + self.presence_dim()

    def presence_dim(self) -> int:
        return len(self.schema.attributes) + len(self.schema.foreign_keys)

    def fk_section_dim(self) -> int:
        """Dim of a base vector (attribute sections + presence), which each fk section sums."""
        return self._widths[1]

    def dim(self) -> int:
        return (1 + len(self.schema.foreign_keys)) * self.fk_section_dim()

    def layout(self):
        """Ordered (section, name, offset, dim) entries of the tuple vector."""
        entries, offset = [], 0
        for attr, d in self._widths[0].items():
            entries.append(("attr", attr, offset, d))
            offset += d
        fk_dim = self.fk_section_dim()
        for fk_name, _ in self.schema.foreign_keys:
            entries.append(("fk", fk_name, offset, fk_dim))
            offset += fk_dim
        entries.append(("presence", "", offset, self.presence_dim()))
        return entries

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        return {
            "format_version": 1,
            "schema": {"name": self.schema.name, **self.schema.to_dict()},
            "encoder": self.encoder.config(),
            "numeric_stats": {a: list(s) for a, s in sorted(self.numeric_stats.items())},
            "vocabularies": {
                a: sorted(v, key=v.get) for a, v in sorted(self.vocabularies.items())
            },
            # informative; recomputed from the schema and encoder on load
            "layout": [list(entry) for entry in self.layout()],
        }

    @classmethod
    def from_dict(cls, d):
        # a stored foreign-key depth (always 1 where present) is ignored: the depth is one
        if d.get("format_version") != 1:
            raise VectorizeError(
                f"unsupported vectorizer format version {d.get('format_version')!r}; expected 1"
            )
        if d["encoder"].get("type") != "hashing":
            raise VectorizeError(f"unknown encoder type {d['encoder'].get('type')!r}")
        for key in ("dim", "seed"):
            if type(d["encoder"][key]) is not int:  # a bool is not an encoder int either
                raise VectorizeError(f"encoder {key} {d['encoder'][key]!r} is not an integer")
        schema = RelationSchema.from_dict(d["schema"]["name"], d["schema"])
        for key, kind in (("numeric_stats", "numeric"), ("vocabularies", "categorical")):
            wanted = sorted(a for a, k in schema.attributes if k == kind)
            if sorted(d[key]) != wanted:
                raise VectorizeError(f"{key} names {sorted(d[key])}, not the {kind} attributes {wanted}")
        for attr, pair in d["numeric_stats"].items():
            # abs(v) <= max compares an int exactly, so NaN, infinities and huge ints fail
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in pair)
                    and pair[1] > 0):
                raise VectorizeError(f"numeric_stats[{attr!r}] is {pair!r}, not a finite "
                                     "[mean, std] with std > 0")
        for attr, values in d["vocabularies"].items():
            if not (isinstance(values, list) and all(isinstance(v, str) for v in values)
                    and len(set(values)) == len(values) and values[-1:] == [cls.UNK]):
                raise VectorizeError(f"vocabularies[{attr!r}] is not a list of distinct "
                                     "strings ending with the UNK slot")
        return cls(
            schema=schema,
            encoder=HashingEncoder(dim=d["encoder"]["dim"], seed=d["encoder"]["seed"]),
            numeric_stats={a: tuple(pair) for a, pair in d["numeric_stats"].items()},
            vocabularies={a: {v: i for i, v in enumerate(vals)} for a, vals in d["vocabularies"].items()},
        )

    def save(self, path):
        formats.save_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        return formats.load_json(path, cls.from_dict, VectorizeError)


def _check_relation(schema: RelationSchema, rec):
    if rec.relation != schema.name:
        raise VectorizeError(
            f"tuple {rec.key!r} belongs to relation {rec.relation!r}, not {schema.name!r}"
        )


def fit_vectorizer(tuples, schema: RelationSchema, encoder: HashingEncoder):
    """Fit numeric stats and categorical vocabularies over a tuple set.

    Numeric attributes get mean and population standard deviation over
    their non-NULL values (mean 0, std 1 when there are none or variance
    is zero). Categorical vocabularies are the sorted distinct values plus
    one reserved UNK slot for unseen values at apply time.
    """
    records = list(tuples)
    if not records:
        raise VectorizeError("cannot fit a vectorizer on an empty tuple set")
    for rec in records:
        _check_relation(schema, rec)

    numeric_stats, vocabularies = {}, {}
    for attr, kind in schema.attributes:
        if kind == "numeric":
            vals = [numeric_value(rec.values[attr]) for rec in records
                    if not is_null(rec.values.get(attr))]
            if vals:
                arr = np.asarray(vals, dtype=np.float64)
                # an overflow gives a non-finite stat, which the check below rejects
                with np.errstate(over="ignore", invalid="ignore"):
                    mean = float(arr.mean())
                    std = float(arr.std())  # population std
                if std == 0.0:
                    mean, std = (mean, 1.0)
            else:
                mean, std = 0.0, 1.0
            if not (np.isfinite(mean) and np.isfinite(std)):
                raise VectorizeError(f"non-finite stats for numeric attribute {attr!r}")
            numeric_stats[attr] = (mean, std)
        elif kind == "categorical":
            seen = sorted(
                {str(rec.values[attr]) for rec in records if not is_null(rec.values.get(attr))}
            )
            vocab = {v: i for i, v in enumerate(seen)}
            vocab[VectorizerModel.UNK] = len(vocab)
            vocabularies[attr] = vocab
    return VectorizerModel(schema, encoder, numeric_stats, vocabularies)


def vectorize_attribute(model: VectorizerModel, attribute: str, value) -> np.ndarray:
    """One attribute section. NULL values map to the all-zero section."""
    kind = model.schema.kind_of(attribute)
    if kind == "text":
        if is_null(value):
            return np.zeros(model.encoder.dim, dtype=np.float64)
        return model.encoder.encode(str(value))
    if kind == "numeric":
        if is_null(value):
            return np.zeros(1, dtype=np.float64)
        mean, std = model.numeric_stats[attribute]
        return np.array([(numeric_value(value) - mean) / std], dtype=np.float64)
    vocab = model.vocabularies[attribute]
    out = np.zeros(len(vocab), dtype=np.float64)
    if not is_null(value):
        out[vocab.get(str(value), vocab[VectorizerModel.UNK])] = 1.0
    return out


def base_vector(model: VectorizerModel, rec) -> np.ndarray:
    """A tuple's base vector: its attribute sections, then its presence bits, no fk sections."""
    _check_relation(model.schema, rec)
    names = model.schema.attribute_names
    attrs = [vectorize_attribute(model, attr, rec.values.get(attr)) for attr in names]
    presence = [0.0 if is_null(rec.values.get(attr)) else 1.0 for attr in names]
    presence += [1.0 if rec.fk_targets(fk_name) else 0.0 for fk_name, _ in model.schema.foreign_keys]
    return np.concatenate([*attrs, presence])


def embed_foreign_key(model: VectorizerModel, fk_values, bases) -> np.ndarray:
    """Component-wise sum of the referenced tuples' base vectors.

    ``bases`` maps tuple keys to their ``base_vector``. Dangling target keys
    contribute nothing (``Corpus.dangling_fks`` lists them at load); an
    empty target list yields the zero vector.
    """
    return sum((bases[key] for key in fk_values if key in bases),
               np.zeros(model.fk_section_dim(), dtype=np.float64))


def vectorize_tuple(model: VectorizerModel, rec, bases) -> np.ndarray:
    """Full tuple vector: attribute sections, fk sums, presence bits.

    ``bases`` holds the base vector of ``rec`` and of its targets. The fk
    sections sum base vectors, which hold no fk sections, so a referenced
    tuple contributes one level deep and cycles terminate.
    """
    base, cut = bases[rec.key], model.fk_section_dim() - model.presence_dim()
    fk_sections = [
        embed_foreign_key(model, rec.fk_targets(fk_name), bases)
        for fk_name, _ in model.schema.foreign_keys
    ]
    out = np.concatenate([base[:cut], *fk_sections, base[cut:]])
    if not np.all(np.isfinite(out)):
        raise VectorizeError(f"non-finite components in vector of tuple {rec.key!r}")
    return out


def tuple_vectors(model: VectorizerModel, records):
    """``KeyedVectors`` of one relation's tuples (a list), each base vector built once.

    Foreign keys name tuples of their own relation (``Corpus`` checks it)."""
    bases = {rec.key: base_vector(model, rec) for rec in records}
    return KeyedVectors.of({rec.key: vectorize_tuple(model, rec, bases) for rec in records})


def vectorize_mention(encode, mention) -> np.ndarray:
    """Mention vector: encode(mention text) concatenated with encode(sentence)."""
    return np.concatenate([encode(mention.mention_text), encode(mention.sentence_text)])


def mention_vectors(encoder: HashingEncoder, mentions):
    """``KeyedVectors`` of ``mentions``; each distinct text is encoded once."""
    encode = functools.cache(encoder.encode)
    rows = {m.id: vectorize_mention(encode, m) for m in mentions}
    encode.cache_clear()  # before the stack, so the cached encodings and the matrix never coexist
    return KeyedVectors.of(rows)


# ---------------------------------------------------------------------------
# Keyed vector sets: ascending keys over one float32 matrix in memory, and a
# keyed-matrix body (``formats``) on disk, in ``*.vec`` and ``*.idx`` alike
# ---------------------------------------------------------------------------

def to_float32(values):
    """``values`` rounded once to float32, the precision of the trained networks.

    A value past the float32 range becomes infinite, without a warning, which
    ``KeyedVectors`` and the forest query reject.
    """
    with np.errstate(over="ignore"):
        return np.asarray(values, dtype=np.float32)


class KeyedVectors(Mapping):
    """A read-only key -> vector mapping: row i of the float32 ``matrix`` belongs to ``ids[i]``.

    The constructor is the one owner of a valid set: it rounds the rows once
    to float32 and raises ``VectorizeError`` unless every value is finite and
    the ids are ``str`` and strictly ascend (``KeyedVectors.of`` sorts them).
    Training reads rows as float32 too, so rounding f64 rows here moves no trained bit.
    """

    def __init__(self, ids, matrix):
        self.ids = list(ids)
        self.matrix = to_float32(matrix)
        if not np.isfinite(self.matrix).all():
            raise VectorizeError("non-finite vector component (NaN, infinity or past float32)")
        for key in self.ids:
            if not isinstance(key, str):
                raise VectorizeError(f"id {key!r} is a {type(key).__name__}, not a str")
        for prev, key in zip(self.ids, self.ids[1:]):
            if not prev < key:
                raise VectorizeError(f"id table is not strictly ascending: {key!r} after {prev!r}")

    @classmethod
    def of(cls, items):
        """``items`` itself if it is keyed vectors, else its ascending keys over its stacked rows."""
        if isinstance(items, KeyedVectors):
            return items
        keys = list(items)
        if all(isinstance(key, str) for key in keys):  # else the constructor names a key that is not
            keys.sort()
        rows = [np.asarray(items[k]) for k in keys]
        shapes = {row.shape for row in rows}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise VectorizeError(f"keyed vectors must be 1-D of one dimension, not {sorted(shapes)}")
        return cls(keys, rows if rows else np.empty((0, 0)))

    @property
    def dim(self):
        return self.matrix.shape[1]

    @functools.cached_property
    def norms(self):
        """The f64 L2 norm of each row; no square of a float32 value overflows f64."""
        return np.linalg.norm(self.matrix.astype(np.float64), axis=1)

    @functools.cached_property
    def _row(self):
        return {key: i for i, key in enumerate(self.ids)}

    def __getitem__(self, key):
        return self.matrix[self._row[key]]

    def __iter__(self):
        return iter(self.ids)

    def __len__(self):
        return len(self.ids)


VEC_MAGIC = b"TLVC"
VEC_VERSION = 3
VEC_HEADER = "<IIQ"  # version, dim, count


def write_vector_file(path, items):
    """Write keyed vectors: header (magic, version, dim, count), then the keyed-matrix body.

    Vectors that ``KeyedVectors`` rejects (a NaN or infinite component, or one
    past the float32 range) raise ``VectorizeError`` and are not written.
    """
    items = KeyedVectors.of(items)
    with formats.write_binary(path, VEC_MAGIC, VEC_HEADER, VEC_VERSION, items.dim, len(items)) as f:
        formats.write_keyed_matrix(f, items.ids, items.matrix)


def read_vector_file(path) -> KeyedVectors:
    """Read a keyed vector file back into the ``KeyedVectors`` it holds."""
    return formats.read_binary(
        path, VEC_MAGIC, VEC_HEADER, VEC_VERSION, VectorizeError,
        "`tablelink embed-tuples` / `embed-mentions`",
        lambda *body: KeyedVectors(*formats.read_keyed_matrix(*body)),
    )
