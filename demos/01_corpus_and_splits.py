"""Walk through corpus ingestion: XML entries, schemas, stats, and splits.

Run from the repository root:  python demos/01_corpus_and_splits.py
"""

from tablelink.config import SplitConfig
from tablelink.corpus import load_corpus_xml, make_stratified_splits
from tablelink.synthetic import synthetic_corpus_xml

# A corpus file holds entries: each one a small set of subject|predicate|object
# triples plus the sentences that verbalize them. The synthetic generator
# produces thirty landmark entities with ten sentences each.
xml = synthetic_corpus_xml(entities=30, mentions_per_entity=10, seed=7)
print(xml[:400], "...\n")

corpus = load_corpus_xml(xml)
print(f"tuples: {len(corpus.tuples)}, mentions: {len(corpus.mentions)}, "
      f"gold links: {len(corpus.links)}")

# Schemas are inferred per category: every non-null value parsing as a number
# makes a column numeric; few short distinct values make it categorical.
schema = corpus.schemas["Landmark"]
print("schema:", schema.attributes)

stats = corpus.stats()["Landmark"]
print(f"instances={stats.instances} tuples={stats.tuples} sentences={stats.sentences} "
      f"density={stats.avg_tuple_density:.2f}")

# Splits are by entity, never by link: a fifth of the entities is held out
# entirely (the cold-start set), the rest divides 80/20 into train and test.
splits = make_stratified_splits(corpus, SplitConfig(seed=0))
print(f"train={len(splits.train)} test={len(splits.test)} unseen={len(splits.unseen)}")
print("unseen entities:", sorted(splits.unseen))
