"""Linking workflow: bootstrap matching, semantic retrieval, ranking,
per-category training and Precision@k evaluation.

Candidates flow in two directions (tuple anchors retrieving mentions and
mention anchors retrieving tuples); ranked lists use dense ranks so that
equally scored candidates share a rank.
"""

import logging
import re
from dataclasses import dataclass, field

from . import annindex, formats, neural
from .corpus import Corpus
from .vectorize import KeyedVectors

logger = logging.getLogger(__name__)

TUPLE_TO_MENTIONS = "tuple_to_mentions"
MENTION_TO_TUPLES = "mention_to_tuples"
SPLIT_NAMES = ("test", "train", "unseen")
EXACT_SENTINEL_SCORE = 1.0


class LinkerError(RuntimeError):
    """Raised when the linking workflow cannot proceed."""


@dataclass(frozen=True)
class MatchCandidate:
    """A scored tuple/mention pair with its producing strategy."""

    tuple_key: str
    mention_id: str
    score: float
    strategy: str  # "exact" | "semantic"


@dataclass
class LinkResult:
    """Ranked counterparts of the anchor that keys it: (counterpart, score, dense rank)."""

    ranked: list


# ---------------------------------------------------------------------------
# Bootstrap (exact) matching
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\w+")


def _tokens(text):
    return _TOKEN.findall(text.lower())


def _contains_sequence(haystack, needle):
    if not needle or len(needle) > len(haystack):
        return False
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i : i + len(needle)] == needle:
            return True
    return False


def bootstrap_exact_match(tuples, mentions, schemas, name_attributes=None):
    """Seed candidates by exact token containment of name-like attributes.

    A candidate (r, t) is emitted iff the full token sequence of one of r's
    designated name attributes occurs contiguously (case-folded) in t's
    sentence. Name attributes default to the first text attribute of each
    schema (``schemas`` maps relation name to schema). Scores are the 1.0
    sentinel: the strategy carries no similarity.
    """
    name_attributes = dict(name_attributes or {})
    attrs_by_relation = {}
    for relation, schema in schemas.items():
        if relation in name_attributes:
            chosen = name_attributes[relation]
            attrs_by_relation[relation] = [chosen] if isinstance(chosen, str) else list(chosen)
        else:
            text_attrs = schema.text_attributes()
            attrs_by_relation[relation] = text_attrs[:1]
    if not any(attrs_by_relation.values()):
        logger.warning("bootstrap: no text attributes on any schema; emitting no candidates")
        return []

    mention_tokens = [(m, _tokens(m.sentence_text)) for m in mentions]
    candidates = []
    for rec in tuples:
        names = []
        for attr in attrs_by_relation.get(rec.relation, []):
            value = rec.values.get(attr)
            if value not in (None, ""):
                toks = _tokens(str(value))
                if toks:
                    names.append(toks)
        if not names:
            continue
        for mention, sent_toks in mention_tokens:
            if any(_contains_sequence(sent_toks, name) for name in names):
                candidates.append(
                    MatchCandidate(
                        tuple_key=rec.key,
                        mention_id=mention.id,
                        score=EXACT_SENTINEL_SCORE,
                        strategy="exact",
                    )
                )
    return candidates


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------

def dense_rank(scored):
    """Sort (id, score) ascending by (score, id) and assign dense ranks."""
    ordered = sorted(scored, key=lambda s: (s[1], s[0]))
    ranked, rank, prev = [], 0, None
    for counterpart, sc in ordered:
        if prev is None or sc != prev:
            rank += 1
            prev = sc
        ranked.append((counterpart, sc, rank))
    return ranked


def rank_candidates(candidates, direction=TUPLE_TO_MENTIONS):
    """Group candidates by anchor and dense-rank each group by score."""
    groups = {}
    for c in candidates:
        anchor, counterpart = (
            (c.tuple_key, c.mention_id)
            if direction == TUPLE_TO_MENTIONS
            else (c.mention_id, c.tuple_key)
        )
        groups.setdefault(anchor, []).append((counterpart, c.score))
    return {
        anchor: LinkResult(dense_rank(scored))
        for anchor, scored in groups.items()
    }


def semantic_link(forest: annindex.RpForest, anchors, n, search_k=None):
    """Retrieve each anchor's counterparts by its joint-space embedding, dense-ranked.

    ``anchors`` are keyed joint-space vectors (``KeyedVectors.of``); all of
    them go to the forest in one query block. Returns anchor id -> LinkResult.
    """
    if not anchors:
        return {}
    anchors = KeyedVectors.of(anchors)
    hits = forest.query(anchors.matrix, n, search_k=search_k)
    return {
        key: LinkResult(dense_rank(ranked))
        for key, ranked in zip(anchors.ids, hits)
    }


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Precision@k per direction, split, and category, plus overall rows."""

    ks: tuple = (1, 5, 10)
    primary_direction: str = TUPLE_TO_MENTIONS
    # direction -> split -> category -> {"count": int, "excluded": int,
    #                                    "hits": {k: int}, "precision": {k: float}}
    cells: dict = field(default_factory=dict)

    def add_cell(self, direction, split, category, hits, count, excluded=0):
        self.cells.setdefault(direction, {}).setdefault(split, {})[category] = {
            "count": count,
            "excluded": excluded,
            "hits": {int(k): int(hits[k]) for k in self.ks},
            "precision": {int(k): (hits[k] / count if count else 0.0) for k in self.ks},
        }

    def finalize_overall(self):
        for direction, by_split in self.cells.items():
            for split, by_category in by_split.items():
                cats = [c for name, c in by_category.items() if name != "overall"]
                hits = {k: sum(c["hits"][k] for c in cats) for k in self.ks}
                self.add_cell(direction, split, "overall", hits, sum(c["count"] for c in cats),
                              sum(c["excluded"] for c in cats))

    def precision(self, split, category="overall", k=1, direction=None):
        direction = direction or self.primary_direction
        return self.cells[direction][split][category]["precision"][k]

    def categories(self):
        cats = set()
        for by_split in self.cells.values():
            for by_category in by_split.values():
                cats.update(n for n in by_category if n != "overall")
        return sorted(cats)

    def to_dict(self):
        return {
            "format_version": 1,
            "ks": list(self.ks),
            "primary_direction": self.primary_direction,
            "cells": {
                direction: {
                    split: {
                        category: {
                            "count": cell["count"],
                            "excluded": cell["excluded"],
                            "hits": {str(k): v for k, v in sorted(cell["hits"].items())},
                            "precision": {str(k): v for k, v in sorted(cell["precision"].items())},
                        }
                        for category, cell in by_category.items()
                    }
                    for split, by_category in by_split.items()
                }
                for direction, by_split in self.cells.items()
            },
        }


def evaluate_precision(results, gold, ks=(1, 5, 10), split="test", category="overall",
                       direction=TUPLE_TO_MENTIONS, report=None):
    """Precision@k over anchors: fraction whose top-k holds a gold counterpart.

    ``results`` maps anchor id to LinkResult; ``gold`` maps anchor id to its
    set of gold counterparts. Top-k membership uses dense ranks. Anchors
    without any gold counterpart are excluded and counted. The cell is added
    to ``report`` (a fresh one when None), which is returned.
    """
    hits = {k: 0 for k in ks}
    evaluated = excluded = 0
    for anchor, result in results.items():
        positives = gold.get(anchor) or set()
        if not positives:
            excluded += 1
            continue
        evaluated += 1
        for k in ks:
            if any(cp in positives and rank <= k for cp, _, rank in result.ranked):
                hits[k] += 1
    if report is None:
        report = EvalReport(ks=tuple(ks), primary_direction=direction)
    report.add_cell(direction, split, category, hits, evaluated, excluded=excluded)
    return report


# ---------------------------------------------------------------------------
# Per-category training
# ---------------------------------------------------------------------------

def bootstrap_category(corpus: Corpus, category, name_attributes=None):
    """Exact-match candidates between one category's tuples and mentions."""
    return bootstrap_exact_match(
        corpus.tuples_of_category(category),
        corpus.mentions_of_category(category),
        {category: corpus.schemas[category]},
        name_attributes=name_attributes,
    )


def category_matches(corpus: Corpus, category, name_attributes=None):
    """Gold links of the category, or bootstrap candidates when none exist."""
    gold = corpus.links_of_category(category)
    if gold:
        return [(l.tuple_key, l.mention_id) for l in gold], "gold"
    candidates = bootstrap_category(corpus, category, name_attributes)
    return [(c.tuple_key, c.mention_id) for c in candidates], "bootstrap"


def train_category(corpus: Corpus, category, config, splits, tuple_vecs, mention_vecs,
                   cat_index=0, progress=None):
    """Obtain one category's matches and train its embedder pair on its raw ``KeyedVectors``.

    Only matches of train-split entities reach the sampler, so test- and
    unseen-split entities never appear in a batch. Returns the pair, its
    optimizer state and the loss history.
    """
    if not mention_vecs:
        raise LinkerError(f"category {category!r} has no mentions to train on")
    matches, source = category_matches(corpus, category, name_attributes=config.name_attributes)
    if not matches:
        raise LinkerError(
            f"category {category!r}: no gold links and the exact-match bootstrap found "
            "zero candidates; supply gold links or configure name_attributes to a text "
            "attribute whose values appear in sentences"
        )
    entity_of = {rec.key: rec.entity for rec in corpus.tuples_of_category(category)}
    train_links = {}
    for tk, mid in matches:
        entity = entity_of[tk]
        if entity in splits.train:
            train_links.setdefault(entity, []).append((tk, mid))
    if not train_links:
        raise LinkerError(f"category {category!r}: no matches among train-split entities")

    pair = neural.EmbedderPair.build(
        input_dim_r=tuple_vecs.dim,
        input_dim_t=mention_vecs.dim,
        hidden_r=tuple(config.network.hidden_r),
        hidden_t=tuple(config.network.hidden_t),
        joint_dim=config.network.joint_dim,
        margin=config.training.margin,
        keep_prob=config.training.keep_prob,
        seed=config.training.seed + cat_index,
    )
    adam = neural.AdamState(
        lr=config.training.lr,
        decay=config.training.decay,
        decay_every=config.training.decay_every,
    )
    sampler = neural.SamplerState(
        train_links,
        batch_size=config.training.batch_size,
        seed=config.training.seed + cat_index,
    )
    history = neural.train_pair(
        pair, adam, sampler, set(matches), tuple_vecs, mention_vecs,
        batches=config.training.batch_budget, log_fn=progress,
    )
    logger.info("category %s: trained on %d matches (%s)", category, len(matches), source)
    return pair, adam, history


def evaluate_category(report, corpus: Corpus, category, splits,
                      tuple_vecs, mention_vecs, tuple_forest, mention_forest,
                      n, search_k=None):
    """Add both link directions of one category to the report, per split.

    ``tuple_vecs`` and ``mention_vecs`` are the joint-space ``KeyedVectors``.
    Each direction ranks the anchors of all splits in one block and then
    splits the results: a row's distances do not depend on its block.
    """
    entity_of_tuple = {rec.key: rec.entity for rec in corpus.tuples_of_category(category)}
    entity_of_mention = {}
    for link in corpus.links_of_category(category):
        entity_of_mention.setdefault(link.mention_id, corpus.tuples[link.tuple_key].entity)
    directions = (
        (TUPLE_TO_MENTIONS, entity_of_tuple, tuple_vecs, mention_forest, corpus.links_by_tuple),
        (MENTION_TO_TUPLES, entity_of_mention, mention_vecs, tuple_forest, corpus.links_by_mention),
    )

    in_splits = splits.train | splits.test | splits.unseen
    for direction, entity_of, vecs, forest, links_by_anchor in directions:
        wanted = {anchor for anchor, entity in entity_of.items()
                  if entity in in_splits and anchor in links_by_anchor}
        rows = [i for i, anchor in enumerate(vecs.ids) if anchor in wanted]
        if len(rows) < len(wanted):
            raise LinkerError(
                f"{category}: {len(wanted) - len(rows)} {direction} anchors have no stored "
                "vector; rerun `tablelink embed-tuples` and `embed-mentions`"
            )
        ranked = semantic_link(forest, KeyedVectors([vecs.ids[i] for i in rows], vecs.matrix[rows]),
                               n, search_k=search_k)
        for split in SPLIT_NAMES:
            members = getattr(splits, split)
            results = {anchor: r for anchor, r in ranked.items() if entity_of[anchor] in members}
            gold = {anchor: set(links_by_anchor[anchor]) for anchor in results}
            evaluate_precision(results, gold, ks=report.ks, split=split, category=category,
                               direction=direction, report=report)
    return report


def export_links(results, path, strategy="semantic"):
    """Write ranked links as delimited text: anchor, counterpart, score, rank."""
    with formats.replacing(path, "w", encoding="utf-8") as f:
        f.write("anchor\tcounterpart\tscore\trank\tstrategy\n")
        for anchor in sorted(results):
            for counterpart, score, rank in results[anchor].ranked:
                f.write(f"{anchor}\t{counterpart}\t{score:.17g}\t{rank}\t{strategy}\n")
