"""Relational/text corpus loading, gold links, and entity-level splits.

The corpus holds two sides of the linking problem: tuples in relational
tables (one schema per entity category) and entity mentions in text
(mention surface form plus its containing sentence). Gold links join the
two sides and drive both training and evaluation.
"""

import hashlib
import logging
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import formats
from .config import SplitConfig, check

logger = logging.getLogger(__name__)

ATTRIBUTE_KINDS = ("text", "numeric", "categorical")

# Inference thresholds for XML data, which carries no declared types.
CATEGORICAL_MAX_DISTINCT = 32
CATEGORICAL_MAX_LEN = 24


class CorpusError(ValueError):
    """Raised for malformed corpus inputs (XML, artifacts, split fractions)."""


_WORD = re.compile(r"\w+")


def words(text):
    """The case-folded word tokens of ``text``: the encoder's word features and the bootstrap's."""
    return _WORD.findall(text.lower())


def slug(category):
    """The name a category's artifacts carry (``model_<slug>.ckpt``), safe in a file name."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", category)


def is_null(value):
    """Whether an attribute value is NULL: None or the empty string."""
    return value in (None, "")


@dataclass(frozen=True)
class RelationSchema:
    """A relation with ordered, typed attributes and foreign keys.

    Attribute order is fixed: the tuple vector layout concatenates
    per-attribute sections in exactly this order. A foreign key targets the
    relation itself, since the vectorizer sums its targets' base vectors in
    this relation's layout.
    """

    name: str
    attributes: tuple  # of (name, kind) pairs
    foreign_keys: tuple = ()  # of (name, target_relation) pairs

    def __post_init__(self):
        object.__setattr__(self, "kinds", dict(self.attributes))  # attribute name -> kind
        if len(self.kinds) != len(self.attributes):
            raise CorpusError(f"duplicate attribute names in schema {self.name!r}")
        for kind in self.kinds.values():
            if kind not in ATTRIBUTE_KINDS:
                raise CorpusError(f"unknown attribute kind {kind!r} in schema {self.name!r}")
        for fk_name, target in self.foreign_keys:
            if target != self.name:
                raise CorpusError(f"schema {self.name!r}: foreign key {fk_name!r} targets "
                                  f"{target!r}, not its own relation")

    @property
    def attribute_names(self):
        return [a for a, _ in self.attributes]

    def kind_of(self, attribute: str) -> str:
        if attribute not in self.kinds:
            raise CorpusError(f"attribute {attribute!r} not declared in schema {self.name!r}")
        return self.kinds[attribute]

    def text_attributes(self):
        return [a for a, kind in self.attributes if kind == "text"]

    def to_dict(self):
        """The JSON form that ``corpus.json``, ``manifest.json`` and every vectorizer file hold."""
        return {
            "attributes": [list(a) for a in self.attributes],
            "foreign_keys": [list(f) for f in self.foreign_keys],
        }

    @classmethod
    def from_dict(cls, name, d):
        return cls(
            name=name,
            attributes=tuple((a, k) for a, k in d["attributes"]),
            foreign_keys=tuple((f, t) for f, t in d["foreign_keys"]),
        )


@dataclass(frozen=True)
class TupleRecord:
    """One row of a relation. Missing attribute values are NULL.

    ``key`` is the record's primary key; ``entity`` names the real-world
    entity the record describes (several records may describe the same
    entity with different attribute subsets).
    """

    relation: str
    key: str
    entity: str
    values: dict  # attribute name -> scalar (absent = NULL)
    fk_values: dict = field(default_factory=dict)  # fk name -> list of target keys

    def __post_init__(self):
        for name in ("relation", "key", "entity"):
            if not isinstance(getattr(self, name), str):
                raise CorpusError(f"tuple {self.key!r}: {name} must be a string")
        if not isinstance(self.values, dict):
            raise CorpusError(f"tuple {self.key!r}: values must be a dict of attribute values")
        if not isinstance(self.fk_values, dict) or not all(
            isinstance(targets, list) and all(isinstance(t, str) for t in targets)
            for targets in self.fk_values.values()
        ):
            raise CorpusError(
                f"tuple {self.key!r}: fk_values must map foreign keys to lists of keys")

    def fk_targets(self, fk_name: str):
        return self.fk_values.get(fk_name, [])


@dataclass(frozen=True)
class TextMention:
    """An entity occurrence in text: span, surface form, covering sentence."""

    id: str
    span: tuple  # (start, end) character offsets, document-relative
    mention_text: str
    sentence_text: str
    entity_category: str | None = None

    def __post_init__(self):
        start, end = self.span
        object.__setattr__(self, "span", (start, end))  # corpus.json holds a list
        if not (type(start) is type(end) is int and 0 <= start < end):
            raise CorpusError(f"mention {self.id!r}: invalid span {self.span}; expected integers "
                              "0 <= start < end")
        for name in ("id", "mention_text", "sentence_text"):
            if not isinstance(getattr(self, name), str):
                raise CorpusError(f"mention {self.id!r}: {name} must be a string")
        if not self.mention_text:
            raise CorpusError(f"mention {self.id!r}: empty mention text")


_FIELDS = {cls: frozenset(f.name for f in fields(cls)) for cls in (TupleRecord, TextMention)}


def _records_of(cls, entries, key):
    """``cls`` records of ``corpus.json`` entries, keyed by field ``key``.

    Each entry holds exactly the fields of ``cls``: ``cls`` rejects an
    unknown field, and a missing one or a repeated key is rejected here.
    """
    names, records = _FIELDS[cls], {}
    for entry in entries:
        if len(entry) != len(names):
            raise CorpusError(
                f"{cls.__name__} entry has fields {sorted(entry)}; expected {sorted(names)}"
            )
        record = cls(**entry)
        if entry[key] in records:
            raise CorpusError(f"duplicate {cls.__name__} {key} {entry[key]!r}")
        records[entry[key]] = record
    return records


@dataclass(frozen=True)
class Splits:
    """Disjoint train/test/unseen entity sets covering the input."""

    train: frozenset
    test: frozenset
    unseen: frozenset
    seed: int

    def to_dict(self):
        return {
            "seed": self.seed,
            "splits": {
                "train": sorted(self.train),
                "test": sorted(self.test),
                "unseen": sorted(self.unseen),
            },
        }

    @classmethod
    def from_dict(cls, d):
        """Each split must list distinct entity names, no entity in two splits; ``seed`` is an int."""
        if type(d["seed"]) is not int:
            raise CorpusError(f"seed {d['seed']!r} is not an integer")
        sets = {}
        for name in ("train", "test", "unseen"):
            members = d["splits"][name]
            if not (isinstance(members, list) and all(isinstance(e, str) for e in members)
                    and len(set(members)) == len(members)):
                raise CorpusError(f"split {name!r} is not a list of distinct entity names")
            sets[name] = frozenset(members)
        for a, b in (("train", "test"), ("train", "unseen"), ("test", "unseen")):
            if shared := sets[a] & sets[b]:
                raise CorpusError(f"splits {a!r} and {b!r} share the entity {min(shared)!r}")
        return cls(**sets, seed=d["seed"])

    def save(self, path):
        formats.save_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        return formats.load_json(path, cls.from_dict, CorpusError)


@dataclass(frozen=True)
class CategoryStats:
    instances: int
    tuples: int
    sentences: int
    sentences_per_instance: float
    columns: int
    avg_tuple_density: float


class Corpus:
    """An immutable, loaded corpus: schemas, tuples, mentions, links, checked and grouped by category.

    A gold link is a (tuple key, mention id) pair.
    """

    def __init__(self, schemas, tuples, mentions, links):
        self.schemas = dict(schemas)
        self.tuples = dict(tuples)
        self.mentions = dict(mentions)
        self.links = list(links)
        slugs = {}
        for category in sorted(self.schemas):
            other = slugs.setdefault(slug(category), category)
            if other != category:
                raise CorpusError(f"categories {other!r} and {category!r} would share the "
                                  f"artifact names *_{slug(category)}.*")
        seen = set()
        for link in self.links:
            tk, mid = link
            if tk not in self.tuples:
                raise CorpusError(f"gold link references unknown tuple {tk!r}")
            if mid not in self.mentions:
                raise CorpusError(f"gold link references unknown mention {mid!r}")
            if link in seen:
                raise CorpusError(f"gold link ({tk!r}, {mid!r}) is repeated")
            seen.add(link)
        self._tuples_by = {category: [] for category in self.schemas}
        self._mentions_by = {category: [] for category in self.schemas}
        self._links_by = {category: [] for category in self.schemas}
        self.entity_category = {}
        self.dangling_fks = []
        declared = {name: (s.kinds, dict(s.foreign_keys))
                    for name, s in self.schemas.items()}
        for rec in self.tuples.values():
            if rec.relation not in self.schemas:
                raise CorpusError(f"tuple {rec.key!r} references unknown relation {rec.relation!r}")
            kinds, fks = declared[rec.relation]
            undeclared = (rec.values.keys() - kinds.keys()) | (rec.fk_values.keys() - fks.keys())
            if undeclared:
                raise CorpusError(f"tuple {rec.key!r}: {min(undeclared)!r} is not an attribute or "
                                  f"foreign key of schema {rec.relation!r}")
            for attr, value in rec.values.items():
                try:  # a value is NULL, a string or, if numeric, a finite number
                    if kinds[attr] == "numeric" and not is_null(value):
                        numeric_value(value)
                    elif value is not None and not isinstance(value, str):
                        raise ValueError(f"{value!r} is not a string or null")
                except ValueError as exc:
                    raise CorpusError(
                        f"tuple {rec.key!r}, {kinds[attr]} attribute {attr!r}: {exc}") from None
            self._tuples_by[rec.relation].append(rec)
            self.entity_category.setdefault(rec.entity, rec.relation)
            for fk, targets in rec.fk_values.items():
                for target in targets:
                    if target not in self.tuples:
                        self.dangling_fks.append((rec.key, fk, target))
                    elif self.tuples[target].relation != rec.relation:
                        raise CorpusError(f"tuple {rec.key!r}: foreign key {fk!r} names {target!r}, "
                                          f"a tuple of {self.tuples[target].relation!r}")
        for mention in self.mentions.values():
            if mention.entity_category not in self.schemas:
                raise CorpusError(f"mention {mention.id!r} names unknown category "
                                  f"{mention.entity_category!r}")
            self._mentions_by[mention.entity_category].append(mention)
        self.links_by_tuple = {}
        self.links_by_mention = {}
        for link in self.links:
            tk, mid = link
            relation = self.tuples[tk].relation
            if self.mentions[mid].entity_category != relation:
                raise CorpusError(f"gold link joins tuple {tk!r} of {relation!r} to "
                                  f"mention {mid!r} of another category")
            self._links_by[relation].append(link)
            self.links_by_tuple.setdefault(tk, []).append(mid)
            self.links_by_mention.setdefault(mid, []).append(tk)
        if self.dangling_fks:
            logger.warning("corpus has %d dangling foreign-key targets", len(self.dangling_fks))

    def tuples_of_category(self, category):
        return self._tuples_by.get(category, [])

    def mentions_of_category(self, category):
        return self._mentions_by.get(category, [])

    def links_of_category(self, category):
        return self._links_by.get(category, [])

    def stats(self):
        """Per-category statistics: instances, tuples, sentences, density.

        Density is the fraction of non-NULL attribute cells per tuple,
        averaged over the category's tuples (foreign keys excluded).
        """
        out = {}
        for category, schema in sorted(self.schemas.items()):
            records, mentions = self._tuples_by[category], self._mentions_by[category]
            linked = {self.tuples[tk].entity for tk, _ in self._links_by[category]}
            instances = len(linked) if linked else len({r.entity for r in records})
            n_attrs = len(schema.attributes)
            density = float(np.mean([
                sum(not is_null(r.values.get(a)) for a in schema.attribute_names) / n_attrs
                for r in records
            ])) if n_attrs and records else 0.0
            out[category] = CategoryStats(
                instances=instances,
                tuples=len(records),
                sentences=len(mentions),
                sentences_per_instance=(len(mentions) / instances) if instances else 0.0,
                columns=n_attrs + len(schema.foreign_keys),
                avg_tuple_density=density,
            )
        return out

    def to_dict(self):
        return {
            "format_version": 1,
            "schemas": {name: s.to_dict() for name, s in sorted(self.schemas.items())},
            # a record's __dict__ holds its dataclass fields and nothing else
            "tuples": [r.__dict__.copy() for r in self.tuples.values()],
            "mentions": [m.__dict__.copy() for m in self.mentions.values()],
            "links": self.links,  # each pair encodes as a JSON list
        }

    @classmethod
    def from_dict(cls, d):
        if d.get("format_version") != 1:
            raise CorpusError(
                f"unsupported corpus format version {d.get('format_version')!r}; expected 1"
            )
        schemas = {name: RelationSchema.from_dict(name, s) for name, s in d["schemas"].items()}
        tuples = _records_of(TupleRecord, d["tuples"], "key")
        mentions = _records_of(TextMention, d["mentions"], "id")
        links = [(tk, mid) for tk, mid in d["links"]]
        return cls(schemas, tuples, mentions, links)

    def save(self, path):
        """Write ``corpus.json``; returns the bytes written."""
        return formats.save_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        return formats.load_json(path, cls.from_dict, CorpusError)


_SHA256 = re.compile(r"[0-9a-f]{64}")


@dataclass(frozen=True)
class Manifest:
    """What a command that reads no records needs of ``corpus.json``, without parsing it.

    ``corpus_sha256`` is the hex SHA-256 of the exact ``corpus.json`` bytes
    the rest describes: each category's schema and its mention count.
    """

    corpus_sha256: str
    schemas: dict  # category -> RelationSchema
    mention_counts: dict  # category -> int

    @classmethod
    def of(cls, corpus: Corpus, blob: bytes):
        """The manifest of ``corpus``, whose ``corpus.json`` bytes are ``blob``."""
        return cls(hashlib.sha256(blob).hexdigest(), corpus.schemas,
                   {c: len(corpus.mentions_of_category(c)) for c in corpus.schemas})

    def describes(self, blob: bytes) -> bool:
        return hashlib.sha256(blob).hexdigest() == self.corpus_sha256

    def categories(self):
        return sorted(self.schemas)

    def to_dict(self):
        return {
            "format_version": 1,
            "corpus_sha256": self.corpus_sha256,
            "categories": {name: {"schema": s.to_dict(), "mention_count": self.mention_counts[name]}
                           for name, s in sorted(self.schemas.items())},
        }

    @classmethod
    def from_dict(cls, d):
        if d.get("format_version") != 1:
            raise CorpusError(
                f"unsupported manifest format version {d.get('format_version')!r}; expected 1")
        digest = d["corpus_sha256"]
        if not (isinstance(digest, str) and _SHA256.fullmatch(digest)):
            raise CorpusError(f"corpus_sha256 {digest!r} is not 64 lowercase hex digits")
        schemas, counts = {}, {}
        for name, entry in d["categories"].items():
            schemas[name] = RelationSchema.from_dict(name, entry["schema"])
            counts[name] = entry["mention_count"]
            if not (type(counts[name]) is int and counts[name] >= 0):
                raise CorpusError(f"category {name!r}: mention_count {counts[name]!r} is not "
                                  "a non-negative integer")
        return cls(digest, schemas, counts)

    def save(self, path):
        formats.save_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        return formats.load_json(path, cls.from_dict, CorpusError)


# ---------------------------------------------------------------------------
# WebNLG-like XML ingestion
# ---------------------------------------------------------------------------

_WS = re.compile(r"\s+")


def _clean_text(s):
    return _WS.sub(" ", s).strip()


def _surface(name):
    """Entity identifier to surface form: underscores become spaces."""
    return _clean_text(name.replace("_", " "))


def _clean_value(obj):
    obj = _clean_text(obj)
    if len(obj) >= 2 and obj[0] == '"' and obj[-1] == '"':
        obj = obj[1:-1].strip()
    return obj.replace("_", " ")


def _parse_xml(text):
    """The root element of the XML string ``text``; malformed XML raises at its byte offset."""
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        lines = text.splitlines(keepends=True)
        prefix = "".join(lines[: line - 1]) + "".join(lines[line - 1 : line])[:column]
        offset = len(prefix.encode("utf-8"))
        raise CorpusError(f"malformed XML at byte offset {offset}: {exc}") from exc


def _parse_entry_element(elem, eid):
    """(tuple records, one per subject with the root first; mentions; gold links) of entry ``eid``."""
    category = elem.get("category") or "Uncategorized"

    tripleset = elem.find("modifiedtripleset")
    if tripleset is None:
        tripleset = elem.find("originaltripleset")
    triples = []
    if tripleset is not None:
        for mt in tripleset:
            text = _clean_text(mt.text or "")
            if not text:
                continue
            parts = [p.strip() for p in text.split("|", 2)]
            if len(parts) != 3 or not all(parts):
                raise CorpusError(f"entry {eid!r}: malformed triple {text!r}")
            triples.append(tuple(parts))
    if not triples:
        raise CorpusError(f"entry {eid!r} rejected: empty triple set")

    lexes = [
        _clean_text(lex.text or "")
        for lex in elem.findall("lex")
        if _clean_text(lex.text or "")
    ]
    if not lexes:
        raise CorpusError(f"entry {eid!r} rejected: no lexicalization")

    by_subject = {}
    for subj, pred, obj in triples:
        by_subject.setdefault(subj, []).append((pred, obj))
    subjects = list(by_subject)
    objects = {obj for _, _, obj in triples}
    roots = [s for s in subjects if s not in objects]
    root = roots[0] if roots else subjects[0]

    records = []
    ordered = [root] + [s for s in subjects if s != root]
    for subj in ordered:
        values, fk_values = {}, {}
        for pred, obj in by_subject[subj]:
            cleaned = _clean_value(obj)
            if pred in values:
                values[pred] = f"{values[pred]}; {cleaned}"
            else:
                values[pred] = cleaned
            if obj in by_subject and obj != subj:
                fk_values.setdefault(pred, [])
                if obj not in fk_values[pred]:
                    fk_values[pred].append(obj)
        records.append(
            TupleRecord(relation=category, key=subj, entity=subj, values=values, fk_values=fk_values)
        )

    mention_text = _surface(root)
    mentions, links = [], []
    for i, sentence in enumerate(lexes, start=1):
        mid = f"{eid}.{i}"
        lowered, needle = sentence.lower(), mention_text.lower()
        pos = lowered.find(needle)
        span = (pos, pos + len(mention_text)) if pos >= 0 else (0, len(mention_text))
        mentions.append(
            TextMention(
                id=mid,
                span=span,
                mention_text=mention_text,
                sentence_text=sentence,
                entity_category=category,
            )
        )
        links.append((root, mid))

    return records, mentions, links


class CorpusBuilder:
    """Accumulates parsed entries and finalizes schemas and indices.

    Records of one relation with the same entity and identical content are
    merged; the same entity with other content, or in another relation, gets
    a fresh ``entity#n`` key. Each record is built once, when its content is
    first seen, with its foreign keys naming the record keys of its own
    entry's subjects; a later entry never rewrites it.
    """

    def __init__(self):
        self._records = {}  # key -> TupleRecord
        self._content = {}  # (relation, entity, content signature) -> key
        self._entity_counts = {}
        self._mentions = {}
        self._links = []

    def add_entry(self, records, mentions, links):
        key_of_subject, new = {}, []
        for rec in records:
            sig = (
                rec.relation,
                rec.entity,
                tuple(sorted(rec.values.items())),
                tuple(sorted((k, tuple(v)) for k, v in rec.fk_values.items())),
            )
            if sig not in self._content:
                n = self._entity_counts.get(rec.entity, 0) + 1
                self._entity_counts[rec.entity] = n
                self._content[sig] = rec.entity if n == 1 else f"{rec.entity}#{n}"
                new.append(rec)
            key_of_subject[rec.entity] = self._content[sig]

        for rec in new:
            key = key_of_subject[rec.entity]
            self._records[key] = replace(rec, key=key, fk_values={
                fk: [key_of_subject.get(t, t) for t in targets]
                for fk, targets in rec.fk_values.items()
            })

        for mention in mentions:
            if mention.id in self._mentions:
                raise CorpusError(f"duplicate mention id {mention.id!r}")
            self._mentions[mention.id] = mention
        self._links += [(key_of_subject[tk], mid) for tk, mid in links]

    def finalize(self):
        """The corpus, each schema's columns in first-seen order over the stored records."""
        values, fks = {}, {}  # category -> {attribute: values}, category -> {fk name: None}
        for rec in self._records.values():
            by_attribute = values.setdefault(rec.relation, {})
            for attr, value in rec.values.items():
                by_attribute.setdefault(attr, []).append(value)
            fks.setdefault(rec.relation, {}).update(dict.fromkeys(rec.fk_values))
        schemas = {
            category: RelationSchema(
                name=category,
                attributes=tuple((attr, _infer_kind(v)) for attr, v in by_attribute.items()),
                foreign_keys=tuple((fk, category) for fk in fks[category]),
            )
            for category, by_attribute in sorted(values.items())
        }
        return Corpus(schemas, self._records, self._mentions, self._links)


def _infer_kind(values):
    non_null = [v for v in values if not is_null(v)]
    if non_null and all(_parses_numeric(v) for v in non_null):
        return "numeric"
    distinct = set(non_null)
    if distinct and len(distinct) <= CATEGORICAL_MAX_DISTINCT and all(
        len(str(v)) <= CATEGORICAL_MAX_LEN and " " not in str(v) for v in distinct
    ):
        return "categorical"
    return "text"


def numeric_value(value):
    """The finite float a numeric attribute value stands for, commas between thousands dropped.

    A value that does not parse, or parses to NaN or an infinity, raises ``ValueError``.
    """
    number = float(str(value).replace(",", ""))
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _parses_numeric(v):
    try:
        numeric_value(v)
        return True
    except ValueError:
        return False


def load_corpus_xml(source):
    """Load a corpus from WebNLG-like XML (a path or an XML string); errors name the path."""
    if "\n" in str(source) or str(source).lstrip().startswith("<"):
        return _corpus_of_xml(source)
    try:
        with open(source, encoding="utf-8") as f:
            return _corpus_of_xml(f.read())
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{source}: not UTF-8 ({exc})") from None
    except CorpusError as exc:
        raise CorpusError(f"{source}: {exc}") from None


def _corpus_of_xml(text):
    """The corpus of the XML string ``text``."""
    root = _parse_xml(text)
    entries = [root] if root.tag == "entry" else root.findall(".//entry")
    if not entries:
        raise CorpusError("no <entry> elements found")
    builder = CorpusBuilder()
    for i, elem in enumerate(entries, start=1):
        builder.add_entry(*_parse_entry_element(elem, elem.get("eid") or f"e{i}"))
    return builder.finalize()


# ---------------------------------------------------------------------------
# Entity splits
# ---------------------------------------------------------------------------

def make_splits(entity_keys, spec: SplitConfig):
    """Partition entities into train/test/unseen, deterministically per seed.

    ``unseen_fraction`` of the entities is held out entirely; the remainder
    is split into train and test by ``test_fraction_of_seen``.
    """
    for name in ("unseen_fraction", "test_fraction_of_seen"):
        check(f"split.{name}", getattr(spec, name), CorpusError)
    keys = sorted(entity_keys)
    n = len(keys)
    if n < 5:
        raise CorpusError(f"need at least 5 entities to split, got {n}")
    rng = np.random.default_rng(spec.seed)
    order = [keys[i] for i in rng.permutation(n)]
    n_unseen = int(round(spec.unseen_fraction * n))
    seen = order[n_unseen:]
    n_test = int(round(spec.test_fraction_of_seen * len(seen)))
    unseen = order[:n_unseen]
    test = seen[:n_test]
    train = seen[n_test:]
    if not (train and test and unseen):
        raise CorpusError(
            f"too few entities ({n}) to populate train/test/unseen with "
            f"fractions {spec.unseen_fraction}/{spec.test_fraction_of_seen}"
        )
    return Splits(
        train=frozenset(train), test=frozenset(test), unseen=frozenset(unseen), seed=spec.seed
    )


def make_stratified_splits(corpus: Corpus, spec: SplitConfig):
    """Split gold-linked entities per category so every category appears
    in all three sets; category i splits with seed ``spec.seed + i``."""
    by_category = {}
    for entity in {corpus.tuples[tk].entity for tk, _ in corpus.links}:
        by_category.setdefault(corpus.entity_category[entity], []).append(entity)
    train, test, unseen = set(), set(), set()
    for i, category in enumerate(sorted(by_category)):
        sub = make_splits(by_category[category], replace(spec, seed=spec.seed + i))
        train |= sub.train
        test |= sub.test
        unseen |= sub.unseen
    return Splits(
        train=frozenset(train), test=frozenset(test), unseen=frozenset(unseen), seed=spec.seed
    )
