"""How tuples and mentions become raw feature vectors.

Run from the repository root:  python demos/02_vectorize_features.py
"""

import numpy as np

from tablelink.corpus import RelationSchema, TextMention, TupleRecord
from tablelink.vectorize import (
    HashingEncoder,
    fit_vectorizer,
    mention_vectors,
    tuple_vectors,
    vectorize_attribute,
)

# The text encoder hashes character 3-grams and lowercased words into signed
# buckets and L2-normalizes. It is deterministic across processes.
encoder = HashingEncoder(dim=16, seed=42)
v = encoder.encode("IBM")
print("encode('IBM') =", np.round(v, 3))
print("norm:", np.linalg.norm(v))

schema = RelationSchema(
    name="Organization",
    attributes=(("name", "text"), ("sector", "categorical"), ("founded", "numeric")),
    foreign_keys=(("parent", "Organization"),),
)
records = [
    TupleRecord("Organization", "ibm", "ibm", {"name": "IBM", "sector": "tech", "founded": 1911.0}),
    TupleRecord("Organization", "hp", "hp", {"name": "HP", "sector": "tech", "founded": 1939.0}),
    TupleRecord("Organization", "red-hat", "red-hat",
                {"name": "Red Hat", "sector": "software", "founded": 1993.0},
                fk_values={"parent": ["ibm"]}),
]
model = fit_vectorizer(records, schema, encoder)

# Numeric columns normalize by their mean and population deviation; fitted
# categoricals one-hot with a spare UNK slot for values unseen at fit time.
print("\nfounded stats:", model.numeric_stats["founded"])
print("sector one-hot for 'tech':", vectorize_attribute(model, "sector", "tech"))
print("sector one-hot for 'retail' (unseen -> UNK):",
      vectorize_attribute(model, "sector", "retail"))
print("NULL founded ->", vectorize_attribute(model, "founded", None))

# The tuple vector concatenates all attribute sections, then one section per
# foreign key that sums the targets' base vectors (their attribute sections
# and presence bits, without their own fk sections), then one presence bit
# per field. tuple_vectors builds each tuple's base vector once and sums those
# rows into the fk sections of every tuple that names it.
tuples = tuple_vectors(model, records)
print("\nlayout:", model.layout())
print("tuple ids:", tuples.ids, "tuple vector dim:", tuples.dim)

# A mention vector is the encoding of its surface form, then of its sentence;
# mention_vectors encodes each distinct text once, however many mentions share it.
mentions = [
    TextMention(id="m1", span=(0, 7), mention_text="Red Hat",
                sentence_text="Red Hat shipped a new release this week."),
    TextMention(id="m2", span=(24, 31), mention_text="Red Hat",
                sentence_text="The parent company owns Red Hat."),
]
mv = mention_vectors(model.encoder, mentions)
print("mention vector dim (2 x encoder dim):", mv.dim)
print("shared surface form, equal first halves:",
      np.array_equal(mv["m1"][:16], mv["m2"][:16]))
