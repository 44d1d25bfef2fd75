import dataclasses
import json
import logging
import re

import numpy as np
import pytest

from tablelink import annindex, neural, vectorize
from tablelink.annindex import build_forest
from tablelink.cli import PIPELINE_STAGES, Workdir, run_command, run_stages
from tablelink.corpus import (Corpus, RelationSchema, Splits, TextMention, TupleRecord,
                              load_corpus_xml, make_stratified_splits)
from tablelink.linker import (
    MENTION_TO_TUPLES,
    TUPLE_TO_MENTIONS,
    EvalReport,
    LinkerError,
    bootstrap_exact_match,
    category_matches,
    dense_rank,
    evaluate_category,
    evaluate_precision,
    exact_link,
    semantic_link,
)
from tablelink.config import ProjectConfig
from tablelink.synthetic import synthetic_corpus_xml

from conftest import make_record


def mention(mid, sentence, mtext="IBM"):
    return TextMention(
        id=mid, span=(0, len(mtext)), mention_text=mtext, sentence_text=sentence
    )


class TestBootstrap:
    def test_exact_containment(self, org_schema, org_tuples):
        mentions = [
            mention("m1", "IBM reported strong sales this quarter."),
            mention("m2", "Big Blue beat expectations.", mtext="Big Blue"),
        ]
        got = bootstrap_exact_match(org_tuples, mentions, org_schema)
        assert ("IBM", "m1") in got
        assert all(m != "m2" for _, m in got)

    def test_containment_asymmetry(self, org_schema, org_tuples):
        mentions = [mention("m1", "HP Inc. announced a merger.", mtext="HP Inc.")]
        got = set(bootstrap_exact_match(org_tuples, mentions, org_schema))
        # "HP" is contained in the sentence, "HP Inc." is too
        assert ("HP", "m1") in got
        assert ("HP Inc.", "m1") in got
        short = [mention("m2", "Only HP appears here.")]
        got = set(bootstrap_exact_match(org_tuples, short, org_schema))
        assert ("HP", "m2") in got
        assert ("HP Inc.", "m2") not in got
        # a name matches whole tokens in order; punctuation between them does not count
        cases = [
            mention("m3", "HPE shipped servers."),
            mention("m4", "Inc. magazine praised HP."),
            mention("m5", "HP, Inc. (the printer maker) grew."),
        ]
        got = set(bootstrap_exact_match(org_tuples, cases, org_schema))
        assert got == {("HP", "m4"), ("HP", "m5"), ("HP Inc.", "m5")}

    def test_no_text_attribute_warns_and_returns_empty(self, caplog):
        schema = RelationSchema(name="N", attributes=(("x", "numeric"),))
        records = [make_record(schema, "k", x=1.0)]
        with caplog.at_level(logging.WARNING):
            out = bootstrap_exact_match(records, [mention("m", "Anything.")], schema)
        assert out == []
        assert any("no text attributes" in r.message for r in caplog.records)

    def test_soundness_no_candidate_without_tokens(self, org_schema, org_tuples):
        rng = np.random.default_rng(0)
        words = ["alpha", "ibm", "beta", "hp", "inc", "gamma", "delta"]
        mentions = []
        for i in range(50):
            sentence = " ".join(rng.choice(words, size=6)) + "."
            mentions.append(mention(f"m{i}", sentence.capitalize()))
        def words(text):
            # independent tokenization: punctuation to spaces, then split
            cleaned = "".join(ch if ch.isalnum() else " " for ch in text.lower())
            return cleaned.split()

        for tuple_key, mention_id in bootstrap_exact_match(org_tuples, mentions, org_schema):
            rec = next(r for r in org_tuples if r.key == tuple_key)
            sent = words(next(m for m in mentions if m.id == mention_id).sentence_text)
            name = words(rec.values["name"])
            joined = " " + " ".join(sent) + " "
            assert " " + " ".join(name) + " " in joined


class TestRanking:
    def test_dense_rank_semantics(self):
        ranked = dense_rank([("m1", 0.1), ("m2", 0.1), ("m3", 0.3)])
        assert [rank for _, _, rank in ranked] == [1, 1, 2]

    def test_exact_links_share_rank_one_in_id_order(self):
        results = exact_link([("t", f"m{i}") for i in (3, 0, 4, 1, 2)])
        assert results == {"t": [(f"m{i}", 1.0, 1) for i in range(5)]}

    def test_no_exact_pairs(self):
        assert exact_link([]) == {}

    def test_direction_grouping(self):
        results = exact_link([("t1", "m"), ("t2", "m")], direction=MENTION_TO_TUPLES)
        assert list(results) == ["m"]
        assert [cp for cp, _, _ in results["m"]] == ["t1", "t2"]

    def test_oracle_on_random_candidate_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 100))
            scores = [float(s) for s in rng.choice([0.1, 0.25, 0.5, 0.5, 0.9], size=n)]
            ranked = dense_rank([(f"m{i:03d}", s) for i, s in enumerate(scores)])
            for cp, sc, rank in ranked:
                # independent formulation: dense rank = 1 + distinct smaller scores
                oracle = 1 + len({s for s in scores if s < sc})
                assert rank == oracle


class TestSemanticLink:
    def test_identical_embedding_ranks_first(self):
        rng = np.random.default_rng(2)
        vectors = {f"m{i}": rng.normal(size=6) for i in range(20)}
        anchor = vectors["m7"].copy()
        forest = build_forest(vectors, t=4, leaf_capacity=4, seed=0)
        cp, sc, rank = semantic_link(forest, {"t": anchor}, 5)["t"][0]
        assert cp == "m7"
        assert sc == pytest.approx(0.0, abs=1e-12)
        assert rank == 1

    def test_single_leaf_matches_brute_force(self):
        from tablelink.annindex import brute_force_knn

        rng = np.random.default_rng(3)
        vectors = {f"m{i}": rng.normal(size=6) for i in range(12)}
        forest = build_forest(vectors, t=3, leaf_capacity=16, seed=0)
        anchor = rng.normal(size=6)
        ranked = semantic_link(forest, {"t": anchor}, 6)["t"]
        exact = brute_force_knn(vectors, anchor, 6)
        assert [(cp, sc) for cp, sc, _ in ranked] == exact

    def test_scores_ascending(self):
        rng = np.random.default_rng(4)
        vectors = {f"m{i}": rng.normal(size=4) for i in range(30)}
        forest = build_forest(vectors, t=4, leaf_capacity=8, seed=0)
        ranked = semantic_link(forest, {"t": rng.normal(size=4)}, 10)["t"]
        scores = [sc for _, sc, _ in ranked]
        assert scores == sorted(scores)
        assert len(ranked) == 10

    @pytest.mark.parametrize("search_k", [None, 24])
    def test_batch_equals_one_anchor_calls(self, search_k):
        rng = np.random.default_rng(5)
        vectors = {f"m{i:03d}": rng.normal(size=8) for i in range(150)}
        forest = build_forest(vectors, t=4, leaf_capacity=4, seed=1)
        anchors = {f"t{i:02d}": rng.normal(size=8) for i in range(30)}
        anchors["t_dup"] = vectors["m007"].copy()
        batch = semantic_link(forest, anchors, 10, search_k=search_k)
        merged = {}
        for anchor, vec in anchors.items():
            merged.update(semantic_link(forest, {anchor: vec}, 10, search_k=search_k))
        assert sorted(batch) == sorted(anchors)
        assert batch == merged

    def test_no_anchors(self):
        forest = build_forest({"m": np.ones(3)}, t=1, leaf_capacity=4, seed=0)
        assert semantic_link(forest, {}, 5) == {}


class TestEvaluatePrecision:
    def make_results(self, gold_rank, n=10):
        ranked = [(f"m{r}", 0.01 * r, r) for r in range(1, n + 1)]
        results = {"t": ranked}
        gold = {"t": {f"m{gold_rank}"}}
        return results, gold

    @staticmethod
    def precision(results, gold, ks=(1, 5, 10)):
        hits, count, _ = evaluate_precision(results, gold, ks)
        return {k: hits[k] / count for k in ks}

    def test_gold_at_rank_one(self):
        results, gold = self.make_results(1)
        precision = self.precision(results, gold)
        for k in (1, 5, 10):
            assert precision[k] == 1.0

    def test_gold_at_rank_seven(self):
        results, gold = self.make_results(7)
        precision = self.precision(results, gold)
        assert precision[1] == 0.0
        assert precision[5] == 0.0
        assert precision[10] == 1.0

    def test_anchor_without_gold_excluded(self):
        results, gold = self.make_results(1)
        results["orphan"] = [("m1", 0.1, 1)]
        _, count, excluded = evaluate_precision(results, gold, (1, 5, 10))
        assert count == 1
        assert excluded == 1

    def test_repeated_k_counts_an_anchor_once(self):
        results, gold = self.make_results(1)
        results["t2"] = [("m1", 0.1, 1), ("m2", 0.1, 1), ("m3", 0.2, 2)]
        gold["t2"] = {"m2", "m3"}
        hits, count, _ = evaluate_precision(results, gold, (5, 1, 5))
        assert hits == {5: 2, 1: 2}
        assert {k: hits[k] / count for k in hits} == {5: 1.0, 1: 1.0}

    def test_p_at_k_nondecreasing_property(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            results, gold = {}, {}
            for a in range(10):
                order = rng.permutation(20)
                ranked = [(f"m{j}", 0.01 * r, r + 1) for r, j in enumerate(order)]
                results[f"t{a}"] = ranked
                gold[f"t{a}"] = {f"m{int(rng.integers(20))}"}
            precision = self.precision(results, gold)
            assert precision[1] <= precision[5] <= precision[10]


class TestEvaluateCategory:
    def test_cells_per_direction_and_split_in_add_cell_form(self):
        """One entity per split; tuple tb's gold mention mb is second nearest (dense rank 2)."""
        schema = RelationSchema(name="R", attributes=(("name", "text"),))
        tuples = {f"t{e}": TupleRecord(relation="R", key=f"t{e}", entity=e, values={"name": e})
                  for e in "abc"}
        mentions = {f"m{e}": TextMention(id=f"m{e}", span=(0, 1), mention_text=e,
                                         sentence_text=f"{e}.", entity_category="R")
                    for e in "abc"}
        corpus = Corpus({"R": schema}, tuples, mentions, [(f"t{e}", f"m{e}") for e in "abc"])
        splits = Splits(train=frozenset("a"), test=frozenset("b"), unseen=frozenset("c"), seed=0)

        def at(degrees):
            return np.array([np.cos(np.radians(degrees)), np.sin(np.radians(degrees))])

        tuple_vecs = vectorize.KeyedVectors.of({"ta": at(0), "tb": at(10), "tc": at(120)})
        mention_vecs = vectorize.KeyedVectors.of({"ma": at(0), "mb": at(60), "mc": at(120)})
        forests = [build_forest(vecs, t=1, leaf_capacity=4, seed=0)
                   for vecs in (tuple_vecs, mention_vecs)]
        cells = evaluate_category(corpus, "R", splits, tuple_vecs, mention_vecs, *forests,
                                  ks=(1, 3))
        hit = {1: 1, 3: 1}
        assert cells == [
            (TUPLE_TO_MENTIONS, "test", "R", {1: 0, 3: 1}, 1, 0),
            (TUPLE_TO_MENTIONS, "train", "R", hit, 1, 0),
            (TUPLE_TO_MENTIONS, "unseen", "R", hit, 1, 0),
            (MENTION_TO_TUPLES, "test", "R", hit, 1, 0),
            (MENTION_TO_TUPLES, "train", "R", hit, 1, 0),
            (MENTION_TO_TUPLES, "unseen", "R", hit, 1, 0),
        ]
        report = EvalReport(ks=(1, 3))
        for cell in cells:
            report.add_cell(*cell)
        assert report.cells[TUPLE_TO_MENTIONS]["test"]["R"]["precision"] == {"1": 0.0, "3": 1.0}


@pytest.fixture(scope="module")
def tiny_synthetic_corpus():
    return load_corpus_xml(synthetic_corpus_xml(entities=12, mentions_per_entity=4, seed=3))


def tiny_config(budget=60):
    config = ProjectConfig()
    config.training.batch_budget = budget
    config.training.margin = 1.0
    config.training.lr = 1e-3
    config.network.hidden_r = [32]
    config.network.joint_dim = 16
    config.encoder.dim = 64
    config.index.t = 4
    return config


def ingest(root, corpus, config, splits=None):
    """A workdir at ``root`` holding an in-memory corpus and its splits (stratified by default)."""
    ws = Workdir(root)
    ws.ingest(corpus, splits or make_stratified_splits(corpus, config.split))
    return ws


def run_cycle(root, corpus, config):
    """Ingest an in-memory corpus into ``root`` and run every pipeline stage on it."""
    ws = ingest(root, corpus, config)
    return ws, run_stages(ws, config, None, PIPELINE_STAGES)


def report_cells(ws):
    """The cells of the ``report.json`` that the last ``eval`` wrote to ``ws``."""
    return json.loads((ws.root / "report.json").read_text())["cells"]


def train_command(root, config, capsys):
    """Run ``tablelink train`` on the workdir ``root``; returns its exit status and stderr."""
    doc = dataclasses.asdict(config)
    doc["paths"]["workdir"] = str(root)
    config_path = root.with_name(f"{root.name}.json")
    config_path.write_text(json.dumps(doc))
    capsys.readouterr()
    status = run_command(["train", "--config", str(config_path)])
    return status, capsys.readouterr().err


def fails_to_train(root, corpus, config, message, capsys, splits=None):
    """``train`` on ``corpus`` fails with ``message``, in process and as a command.

    Before ``fit``, the command names the missing vectorizer instead.
    """
    ws = ingest(root, corpus, config, splits)
    status, err = train_command(root, config, capsys)
    assert status == 1 and err.startswith("error: ") and "`tablelink fit`" in err
    with pytest.raises(LinkerError, match=f"^{re.escape(message)}$"):
        run_stages(ws, config, None, ("fit", "train"))
    assert train_command(root, config, capsys) == (2, f"error: {message}\n")


class TestRetrainCycle:
    """The whole cycle as `pipeline` runs it: fit, train, embed, index, evaluate."""

    def test_smoke_and_report_shape(self, tiny_synthetic_corpus, tmp_path):
        ws, timings = run_cycle(tmp_path, tiny_synthetic_corpus, tiny_config())
        cells = report_cells(ws)
        assert set(cells) == {TUPLE_TO_MENTIONS, MENTION_TO_TUPLES}
        for split in ("train", "test", "unseen"):
            cell = cells[TUPLE_TO_MENTIONS][split]["Landmark"]
            assert cell["count"] > 0
            p = cell["precision"]
            assert 0.0 <= p["1"] <= p["5"] <= p["10"] <= 1.0
        assert (tmp_path / "model_Landmark.ckpt").exists()
        assert set(timings) == set(PIPELINE_STAGES)

    def test_forests_share_the_embedded_matrices(self, tiny_synthetic_corpus, tmp_path,
                                                 monkeypatch):
        embedded, indexed = {}, {}
        write_vector_file, save_forest = vectorize.write_vector_file, annindex.save_forest

        def write(path, items):
            embedded[path.stem] = items
            write_vector_file(path, items)

        def save(forest, path):
            indexed[path.stem] = forest
            save_forest(forest, path)

        monkeypatch.setattr(vectorize, "write_vector_file", write)
        monkeypatch.setattr(annindex, "save_forest", save)
        run_cycle(tmp_path, tiny_synthetic_corpus, tiny_config())
        assert sorted(indexed) == sorted(embedded) == ["mentions_Landmark", "tuples_Landmark"]
        for stem, forest in indexed.items():
            assert np.shares_memory(forest.matrix, embedded[stem].matrix), stem

    def test_rerun_is_identical(self, tiny_synthetic_corpus, tmp_path):
        ws1, _ = run_cycle(tmp_path / "a", tiny_synthetic_corpus, tiny_config())
        ws2, _ = run_cycle(tmp_path / "b", tiny_synthetic_corpus, tiny_config())
        assert report_cells(ws1) == report_cells(ws2)

    def test_train_twice_gives_identical_checkpoints(self, tiny_synthetic_corpus, tmp_path):
        corpus, config = tiny_synthetic_corpus, tiny_config(budget=30)
        blobs = []
        for name in ("a", "b"):
            ws = ingest(tmp_path / name, corpus, config)
            run_stages(ws, config, None, ("fit", "train"))
            ckpt = ws.root / "model_Landmark.ckpt"
            assert neural.load_checkpoint(ckpt)[0].flat.dtype == np.float32
            blobs.append(ckpt.read_bytes())
        assert blobs[0] == blobs[1]

    def test_unseen_entities_never_sampled(self, tiny_synthetic_corpus, tmp_path, monkeypatch):
        samplers, train_pair = [], neural.train_pair

        def recording_train_pair(pair, adam, sampler, *args, **kwargs):
            samplers.append(sampler)
            return train_pair(pair, adam, sampler, *args, **kwargs)

        monkeypatch.setattr(neural, "train_pair", recording_train_pair)
        corpus, config = tiny_synthetic_corpus, tiny_config(budget=40)
        ws = ingest(tmp_path, corpus, config)
        run_stages(ws, config, None, ("fit", "train"))
        [sampler] = samplers
        train = ws.splits().train
        entities = {corpus.tuples[tk].entity for tk, _ in corpus.links}
        assert entities - train, "held-out entities have gold links"
        assert sampler.drawable
        assert all(corpus.tuples[tk].entity in train for tk, _ in sampler.drawable)

    def test_unseen_appear_only_in_unseen_cells(self, tiny_synthetic_corpus, tmp_path):
        ws, _ = run_cycle(tmp_path, tiny_synthetic_corpus, tiny_config(budget=40))
        counts = {
            split: report_cells(ws)[TUPLE_TO_MENTIONS][split]["Landmark"]["count"]
            for split in ("train", "test", "unseen")
        }
        assert counts["unseen"] == len(ws.splits().unseen)
        assert counts["test"] == len(ws.splits().test)
        assert counts["train"] == len(ws.splits().train)

    def test_no_matches_aborts_with_guidance(self, tmp_path, capsys):
        # strip every lexicalization token that could bootstrap: numeric-only schema
        xml = (
            "<benchmark><entries>"
            + "".join(
                f"<entry eid='Id{i}' category='Plain'>"
                f"<modifiedtripleset><mtriple>E{i} | size | {i}</mtriple></modifiedtripleset>"
                f"<lex lid='1'>Nothing relevant appears here.</lex></entry>"
                for i in range(6)
            )
            + "</entries></benchmark>"
        )
        corpus = load_corpus_xml(xml)
        # drop gold links so the bootstrap path is exercised
        stripped = Corpus(corpus.schemas, corpus.tuples, corpus.mentions, [])
        fails_to_train(tmp_path / "work", stripped, tiny_config(budget=10),
                       "category 'Plain': no gold links and the exact-match bootstrap found "
                       "zero candidates; supply gold links or configure name_attributes to a "
                       "text attribute whose values appear in sentences", capsys)

    def test_no_train_split_matches_aborts(self, tiny_synthetic_corpus, tmp_path, capsys):
        corpus, config = tiny_synthetic_corpus, tiny_config(budget=10)
        splits = make_stratified_splits(corpus, config.split)
        held_out = [(tk, mid) for tk, mid in corpus.links
                    if corpus.tuples[tk].entity not in splits.train]
        assert held_out
        stripped = Corpus(corpus.schemas, corpus.tuples, corpus.mentions, held_out)
        fails_to_train(tmp_path / "work", stripped, config,
                       "category 'Landmark': no matches among train-split entities", capsys,
                       splits=splits)


class TestCategoryMatches:
    def test_bootstrap_used_without_gold(self, tiny_synthetic_corpus):
        corpus = tiny_synthetic_corpus
        stripped = Corpus(corpus.schemas, corpus.tuples, corpus.mentions, [])
        matches, source = category_matches(stripped, "Landmark")
        assert source == "bootstrap"
        assert matches
        # soundness: every bootstrap match pairs a tuple with a sentence
        # containing its title tokens
        for tk, mid in matches:
            title = stripped.tuples[tk].values["title"].lower()
            assert title in stripped.mentions[mid].sentence_text.lower()

    def test_gold_preferred(self, tiny_synthetic_corpus):
        matches, source = category_matches(tiny_synthetic_corpus, "Landmark")
        assert source == "gold"
        assert len(matches) == len(tiny_synthetic_corpus.links)


class TestExportLinks:
    def test_tsv_format(self, tmp_path):
        results = {"t1": [("m1", 0.25, 1), ("m2", 0.5, 2)]}
        path = tmp_path / "links.tsv"
        from tablelink.linker import export_links

        export_links(results, path, strategy="semantic")
        lines = path.read_text().splitlines()
        assert lines[0] == "anchor\tcounterpart\tscore\trank\tstrategy"
        assert lines[1].split("\t") == ["t1", "m1", "0.25", "1", "semantic"]
