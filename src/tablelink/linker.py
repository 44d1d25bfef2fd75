"""Linking workflow: bootstrap matching, semantic retrieval, ranking,
per-category training and Precision@k evaluation.

Links flow in two directions (tuple anchors retrieving mentions and
mention anchors retrieving tuples). Each anchor's links are one ranked list,
``[(counterpart, score, dense rank), ...]``: equally scored counterparts
share a rank.
"""

import logging
import math
from dataclasses import dataclass, field

from . import annindex, formats, neural
from .corpus import Corpus, is_null, words
from .vectorize import KeyedVectors

logger = logging.getLogger(__name__)

TUPLE_TO_MENTIONS = "tuple_to_mentions"
MENTION_TO_TUPLES = "mention_to_tuples"
SPLIT_NAMES = ("test", "train", "unseen")


class LinkerError(RuntimeError):
    """Raised when the linking workflow cannot proceed."""


# ---------------------------------------------------------------------------
# Bootstrap (exact) matching
# ---------------------------------------------------------------------------

def _tokens(text):
    """``text``'s case-folded word tokens as " a b " ("" if none). Tokens hold no spaces, so
    one such string is contained in another iff its tokens occur contiguously in the other's."""
    toks = words(text)
    return f" {' '.join(toks)} " if toks else ""


def bootstrap_exact_match(tuples, mentions, schema, name_attribute=None):
    """(tuple key, mention id) pairs of exact token containment of a name attribute.

    A pair (r, t) is emitted iff the full token sequence of r's
    ``name_attribute`` value occurs contiguously (case-folded) in t's
    sentence. The attribute defaults to the first text attribute of
    ``schema``, the relation of ``tuples``.
    """
    attr = name_attribute or next(iter(schema.text_attributes()), None)
    if attr is None:
        logger.warning("bootstrap: schema %r has no text attributes; emitting no pairs", schema.name)
        return []
    mention_tokens = [(m.id, _tokens(m.sentence_text)) for m in mentions]
    pairs = []
    for rec in tuples:
        value = rec.values.get(attr)
        name = "" if is_null(value) else _tokens(str(value))
        if name:
            pairs.extend((rec.key, mid) for mid, sent_toks in mention_tokens if name in sent_toks)
    return pairs


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


def exact_link(pairs, direction=TUPLE_TO_MENTIONS):
    """Group (tuple key, mention id) pairs by the ``direction``'s anchor, each group
    dense-ranked at score 1.0: every counterpart has rank 1, in id order."""
    groups = {}
    for tuple_key, mention_id in pairs:
        anchor, counterpart = ((tuple_key, mention_id) if direction == TUPLE_TO_MENTIONS
                               else (mention_id, tuple_key))
        groups.setdefault(anchor, []).append((counterpart, 1.0))
    return {anchor: dense_rank(scored) for anchor, scored in groups.items()}


def semantic_link(forest: annindex.RpForest, anchors, n, search_k=None):
    """Retrieve each anchor's counterparts by its joint-space embedding, dense-ranked.

    ``anchors`` are keyed joint-space vectors (``KeyedVectors.of``); all of
    them go to the forest in one query block. Returns anchor id -> ranked list.
    """
    if not anchors:
        return {}
    anchors = KeyedVectors.of(anchors)
    hits = forest.query(anchors.matrix, n, search_k=search_k)
    return {key: dense_rank(ranked) for key, ranked in zip(anchors.ids, hits)}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Precision@k per direction, split, and category, plus overall rows.

    Its two forms are ``to_dict`` (``report.json``) and ``table`` (``report.txt``).
    """

    ks: tuple = (1, 5, 10)
    primary_direction: str = TUPLE_TO_MENTIONS
    # direction -> split -> category -> {"count": int, "excluded": int,
    #                                    "hits": {str(k): int}, "precision": {str(k): float}}
    cells: dict = field(default_factory=dict)

    def add_cell(self, direction, split, category, hits, count, excluded=0):
        self.cells.setdefault(direction, {}).setdefault(split, {})[category] = {
            "count": count,
            "excluded": excluded,
            "hits": {str(k): int(hits[k]) for k in self.ks},
            "precision": {str(k): (hits[k] / count if count else 0.0) for k in self.ks},
        }

    def finalize_overall(self):
        for direction, by_split in self.cells.items():
            for split, by_category in by_split.items():
                cats = [c for name, c in by_category.items() if name != "overall"]
                hits = {k: sum(c["hits"][str(k)] for c in cats) for k in self.ks}
                self.add_cell(direction, split, "overall", hits, sum(c["count"] for c in cats),
                              sum(c["excluded"] for c in cats))

    def precision(self, split, category="overall", k=1, direction=None):
        direction = direction or self.primary_direction
        return self.cells[direction][split][category]["precision"][str(k)]

    def to_dict(self):
        return {
            "format_version": 1,
            "ks": list(self.ks),
            "primary_direction": self.primary_direction,
            "cells": self.cells,
        }

    def table(self):
        """The aligned text table: one row per category and, for each k, the
        primary direction's precision on the test, train and unseen splits."""
        by_split = self.cells.get(self.primary_direction, {})
        categories = sorted({name for by_direction in self.cells.values()
                             for by_category in by_direction.values()
                             for name in by_category if name != "overall"})
        headers = ["category"] + [f"P@{k}:{s}" for k in self.ks for s in SPLIT_NAMES]
        rows = []
        for category in categories:
            row = [category]
            for k in self.ks:
                for split in SPLIT_NAMES:
                    cell = by_split.get(split, {}).get(category)
                    row.append(f"{cell['precision'][str(k)]:.2f}" if cell else "-")
            rows.append(row)
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        return "".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n"
                       for line in [headers, *rows])


def evaluate_precision(results, gold, ks=(1, 5, 10), split="test", category="overall",
                       direction=TUPLE_TO_MENTIONS, report=None):
    """Precision@k over anchors: fraction whose top-k holds a gold counterpart.

    ``results`` maps anchor id to its ranked list; ``gold`` maps anchor id to its
    set of gold counterparts. An anchor's hit rank is the best dense rank of
    its gold counterparts, and it counts for every k at or above it. Anchors
    without any gold counterpart are excluded and counted. The cell is added
    to ``report``, counted at its ``ks``, and returned; ``ks`` only sizes a
    fresh report when ``report`` is None.
    """
    best = [min((rank for cp, _, rank in ranked if cp in gold[anchor]), default=math.inf)
            for anchor, ranked in results.items() if gold.get(anchor)]
    if report is None:
        report = EvalReport(ks=tuple(ks), primary_direction=direction)
    report.add_cell(direction, split, category,
                    {k: sum(rank <= k for rank in best) for k in report.ks},
                    len(best), excluded=len(results) - len(best))
    return report


# ---------------------------------------------------------------------------
# Per-category training
# ---------------------------------------------------------------------------

def category_matches(corpus: Corpus, category, name_attribute=None):
    """Gold links of the category, or its exact-match pairs when none exist."""
    gold = corpus.links_of_category(category)
    if gold:
        return gold, "gold"
    return bootstrap_exact_match(corpus.tuples_of_category(category),
                                 corpus.mentions_of_category(category),
                                 corpus.schemas[category], name_attribute), "bootstrap"


def train_category(corpus: Corpus, category, config, splits, tuple_vecs, mention_vecs,
                   cat_index=0):
    """Obtain one category's matches and train its embedder pair on its raw ``KeyedVectors``.

    Only matches of train-split entities reach the sampler, so test- and
    unseen-split entities never appear in a batch. The pair's first layers
    read only the columns that some drawable row sets (``neural.train_pair``).
    Returns the pair, its optimizer state and the loss history.
    """
    if not mention_vecs:
        raise LinkerError(f"category {category!r} has no mentions to train on")
    matches, source = category_matches(corpus, category, config.name_attributes.get(category))
    if not matches:
        raise LinkerError(
            f"category {category!r}: no gold links and the exact-match bootstrap found "
            "zero candidates; supply gold links or configure name_attributes to a text "
            "attribute whose values appear in sentences"
        )
    train_links = {}
    for tk, mid in matches:
        entity = corpus.tuples[tk].entity
        if entity in splits.train:
            train_links.setdefault(entity, []).append((tk, mid))
    if not train_links:
        raise LinkerError(f"category {category!r}: no matches among train-split entities")

    seed = config.training.seed + cat_index
    sampler = neural.SamplerState(train_links, batch_size=config.training.batch_size, seed=seed)
    pair = neural.EmbedderPair.build(
        input_dim_r=tuple_vecs.dim,
        input_dim_t=mention_vecs.dim,
        hidden_r=tuple(config.network.hidden_r),
        hidden_t=tuple(config.network.hidden_t),
        joint_dim=config.network.joint_dim,
        margin=config.training.margin,
        keep_prob=config.training.keep_prob,
        seed=seed,
        live_r=neural.live_columns(tuple_vecs, sampler.gold),
        live_t=neural.live_columns(mention_vecs, {mid for _, mid in sampler.drawable}),
    )
    adam = neural.AdamState(
        lr=config.training.lr,
        decay=config.training.decay,
        decay_every=config.training.decay_every,
    )
    history = neural.train_pair(pair, adam, sampler, tuple_vecs, mention_vecs,
                                batches=config.training.batch_budget)
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
    for tk, mid in corpus.links_of_category(category):
        entity_of_mention.setdefault(mid, corpus.tuples[tk].entity)
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
            evaluate_precision(results, gold, split=split, category=category,
                               direction=direction, report=report)
    return report


def export_links(results, path, strategy="semantic"):
    """Write ranked links as delimited text: anchor, counterpart, score, rank."""
    with formats.replacing(path, "w", encoding="utf-8") as f:
        f.write("anchor\tcounterpart\tscore\trank\tstrategy\n")
        for anchor in sorted(results):
            for counterpart, score, rank in results[anchor]:
                f.write(f"{anchor}\t{counterpart}\t{score:.17g}\t{rank}\t{strategy}\n")
