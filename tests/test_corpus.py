import json

import numpy as np
import pytest

from tablelink.config import SplitConfig
from tablelink.corpus import (
    Corpus,
    CorpusBuilder,
    CorpusError,
    GoldLink,
    RelationSchema,
    TextMention,
    TupleRecord,
    corpus_stats,
    load_corpus_xml,
    make_splits,
    make_stratified_splits,
    parse_webnlg_entry,
)
from tablelink.vectorize import HashingEncoder, fit_vectorizer, vectorize_tuple

from conftest import COLMORE_ROW_ENTRY, PUBLIC_SQUARE_ENTRY


class TestParseEntry:
    def test_public_square_entry(self):
        entry = parse_webnlg_entry(PUBLIC_SQUARE_ENTRY)
        assert entry.category == "Building"
        assert len(entry.records) == 1
        rec = entry.records[0]
        assert rec.values == {
            "floorCount": "45",
            "location": "Cleveland, Ohio 44114",
            "completionDate": "1985",
        }
        assert rec.fk_values == {}
        assert len(entry.mentions) == 1
        assert entry.mentions[0].mention_text == "200 Public Square"
        assert entry.mentions[0].entity_category == "Building"
        assert len(entry.links) == 1
        assert entry.links[0].tuple_key == "200_Public_Square"

    def test_colmore_row_entry(self):
        entry = parse_webnlg_entry(COLMORE_ROW_ENTRY)
        assert len(entry.records) == 2
        root, madin = entry.records
        assert root.key == "103_Colmore_Row"
        # four attributes; the architect one doubles as a foreign key
        assert len(root.values) == 4
        assert root.values["architect"] == "John Madin"
        assert root.fk_values == {"architect": ["John_Madin"]}
        assert madin.key == "John_Madin"
        assert madin.values == {"birthPlace": "Birmingham"}
        assert len(entry.mentions) == 1
        assert len(entry.links) == 1
        assert entry.links[0].tuple_key == "103_Colmore_Row"

    def test_mention_span_covers_surface_form(self):
        entry = parse_webnlg_entry(PUBLIC_SQUARE_ENTRY)
        m = entry.mentions[0]
        start, end = m.span
        assert m.sentence_text[start:end] == m.mention_text

    def test_empty_tripleset_rejected(self):
        xml = "<entry eid='Id9' category='X'><modifiedtripleset/><lex>Some text.</lex></entry>"
        with pytest.raises(CorpusError, match="empty triple set"):
            parse_webnlg_entry(xml)

    def test_no_lexicalization_rejected(self):
        xml = (
            "<entry eid='Id9' category='X'><modifiedtripleset>"
            "<mtriple>A | b | c</mtriple></modifiedtripleset></entry>"
        )
        with pytest.raises(CorpusError, match="no lexicalization"):
            parse_webnlg_entry(xml)

    def test_malformed_xml_reports_byte_offset(self):
        with pytest.raises(CorpusError, match="byte offset"):
            parse_webnlg_entry("<entry><modifiedtripleset></entry>")

    def test_malformed_triple_rejected(self):
        xml = (
            "<entry eid='Id9' category='X'><modifiedtripleset>"
            "<mtriple>only two | parts</mtriple></modifiedtripleset>"
            "<lex>Text.</lex></entry>"
        )
        with pytest.raises(CorpusError, match="malformed triple"):
            parse_webnlg_entry(xml)


class TestLoadCorpusXml:
    def test_malformed_xml_reports_byte_offset(self):
        with pytest.raises(CorpusError, match="byte offset 30: mismatched tag: line 2, column 18"):
            load_corpus_xml("<benchmark>\n<entries><entry></entries>\n</benchmark>")

    def test_two_entries(self, building_entries_xml):
        corpus = load_corpus_xml(building_entries_xml)
        assert set(corpus.schemas) == {"Building"}
        assert len(corpus.tuples) == 3
        assert len(corpus.mentions) == 2
        assert len(corpus.links) == 2
        schema = corpus.schemas["Building"]
        assert set(schema.attribute_names) == {
            "floorCount", "location", "completionDate", "architect", "birthPlace",
        }
        assert schema.foreign_keys == (("architect", "Building"),)

    def test_kind_inference(self, building_entries_xml):
        schema = load_corpus_xml(building_entries_xml).schemas["Building"]
        kinds = dict(schema.attributes)
        assert kinds["floorCount"] == "numeric"
        assert kinds["completionDate"] == "numeric"
        assert kinds["location"] == "text"
        # single short token values stay categorical
        assert kinds["birthPlace"] == "categorical"

    def test_same_subject_same_content_merges(self):
        entry = PUBLIC_SQUARE_ENTRY
        xml = f"<benchmark><entries>{entry}{entry.replace('Id24', 'Id25')}</entries></benchmark>"
        corpus = load_corpus_xml(xml)
        assert len(corpus.tuples) == 1
        assert len(corpus.mentions) == 2
        assert len(corpus.links) == 2

    def test_shared_sub_entity_gets_a_record_per_category(self):
        person = """
        <entry size="2" eid="Id7" category="Person">
          <modifiedtripleset>
            <mtriple>Alan_Walker | mentor | John_Madin</mtriple>
            <mtriple>John_Madin | birthPlace | Birmingham</mtriple>
          </modifiedtripleset>
          <lex lid="Id1">Alan Walker was mentored by John Madin.</lex>
        </entry>
        """
        xml = f"<benchmark><entries>{COLMORE_ROW_ENTRY}{person}</entries></benchmark>"
        corpus = load_corpus_xml(xml)
        assert corpus.tuples["John_Madin"].relation == "Building"
        assert corpus.tuples["John_Madin#2"].relation == "Person"
        assert corpus.tuples["Alan_Walker"].fk_values == {"mentor": ["John_Madin#2"]}
        schema = corpus.schemas["Person"]
        model = fit_vectorizer(corpus.tuples_of_category("Person"), schema, HashingEncoder(dim=8))
        vectorize_tuple(model, corpus.tuples["Alan_Walker"], tuple_lookup=corpus.tuples)

    def test_first_stored_record_wins(self):
        def entry(eid, color):
            return f"""
            <entry eid="{eid}" category="Shop">
              <modifiedtripleset>
                <mtriple>R | owner | S</mtriple>
                <mtriple>S | color | {color}</mtriple>
              </modifiedtripleset>
              <lex>R is owned by S.</lex>
            </entry>
            """

        builder, stored = CorpusBuilder(), {}
        for eid, color in (("e1", "red"), ("e2", "blue"), ("e3", "red")):
            builder.add_entry(parse_webnlg_entry(entry(eid, color)))
            corpus = builder.finalize()
            assert all(corpus.tuples[key] is rec for key, rec in stored.items()), eid
            stored = dict(corpus.tuples)
        assert sorted(corpus.tuples) == ["R", "S", "S#2"]
        assert corpus.tuples["R"].fk_values == {"owner": ["S"]}
        assert corpus.tuples["S"].values == {"color": "red"}
        assert corpus.tuples["S#2"].values == {"color": "blue"}
        assert [link.tuple_key for link in corpus.links] == ["R", "R", "R"]

    def test_same_subject_new_content_gets_new_record(self):
        second = PUBLIC_SQUARE_ENTRY.replace("Id24", "Id25").replace(
            "<mtriple>200_Public_Square | completionDate | 1985</mtriple>", ""
        )
        xml = f"<benchmark><entries>{PUBLIC_SQUARE_ENTRY}{second}</entries></benchmark>"
        corpus = load_corpus_xml(xml)
        assert len(corpus.tuples) == 2
        keys = sorted(corpus.tuples)
        assert keys == ["200_Public_Square", "200_Public_Square#2"]
        assert all(corpus.tuples[k].entity == "200_Public_Square" for k in keys)

    def test_gold_link_endpoints_validated(self):
        schema = RelationSchema(name="R", attributes=(("a", "text"),))
        rec = TupleRecord(relation="R", key="k", entity="k", values={"a": "v"})
        mention = TextMention(id="m", span=(0, 1), mention_text="v", sentence_text="v here")
        with pytest.raises(CorpusError, match="unknown mention"):
            Corpus({"R": schema}, {"k": rec}, {"m": mention}, [GoldLink("k", "nope")])

    def test_dangling_fk_targets_listed(self, caplog):
        schema = RelationSchema(name="R", attributes=(("a", "text"),), foreign_keys=(("ref", "R"),))
        rec = TupleRecord(relation="R", key="k", entity="k", values={"a": "v"},
                          fk_values={"ref": ["k", "gone"]})
        corpus = Corpus({"R": schema}, {"k": rec}, {}, [])
        assert corpus.dangling_fks == [("k", "ref", "gone")]
        assert "1 dangling foreign-key target" in caplog.text


class TestSplits:
    def test_hundred_entities(self):
        keys = [f"e{i}" for i in range(100)]
        splits = make_splits(keys, SplitConfig(seed=3))
        assert len(splits.unseen) == 20
        assert len(splits.test) == 16
        assert len(splits.train) == 64

    def test_deterministic(self):
        keys = [f"e{i}" for i in range(37)]
        a = make_splits(keys, SplitConfig(seed=11))
        b = make_splits(list(reversed(keys)), SplitConfig(seed=11))
        assert (a.train, a.test, a.unseen) == (b.train, b.test, b.unseen)

    def test_too_few_entities(self):
        with pytest.raises(CorpusError, match="at least 5"):
            make_splits(["a", "b", "c", "d"], SplitConfig(seed=0))

    def test_partition_property(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(5, 200))
            keys = {f"e{i}" for i in range(n)}
            splits = make_splits(keys, SplitConfig(seed=int(rng.integers(1000))))
            assert splits.train | splits.test | splits.unseen == keys
            assert not splits.train & splits.test
            assert not splits.train & splits.unseen
            assert not splits.test & splits.unseen

    def test_bad_fraction_rejected(self):
        with pytest.raises(CorpusError, match="unseen_fraction"):
            make_splits([f"e{i}" for i in range(10)], SplitConfig(seed=0, unseen_fraction=1.5))

    def test_stratified_covers_every_category(self, building_entries_xml):
        xml_parts = []
        for i in range(8):
            xml_parts.append(
                PUBLIC_SQUARE_ENTRY.replace("Id24", f"IdA{i}").replace(
                    "200_Public_Square", f"Tower_{i}"
                )
            )
            xml_parts.append(
                PUBLIC_SQUARE_ENTRY.replace("Id24", f"IdB{i}")
                .replace("200_Public_Square", f"Bridge_{i}")
                .replace('category="Building"', 'category="Bridge"')
            )
        corpus = load_corpus_xml(f"<benchmark><entries>{''.join(xml_parts)}</entries></benchmark>")
        splits = make_stratified_splits(corpus, SplitConfig(seed=1))
        for part in (splits.train, splits.test, splits.unseen):
            categories = {corpus.entity_category[e] for e in part}
            assert categories == {"Building", "Bridge"}

    def test_manifest_roundtrip(self):
        splits = make_splits([f"e{i}" for i in range(10)], SplitConfig(seed=2))
        from tablelink.corpus import Splits

        again = Splits.from_dict(json.loads(json.dumps(splits.to_dict())))
        assert again == splits


class TestStats:
    def test_two_entry_stats(self, building_entries_xml):
        corpus = load_corpus_xml(building_entries_xml)
        stats = corpus_stats(corpus)["Building"]
        assert stats.instances == 2  # the two gold-linked root entities
        assert stats.tuples == 3
        assert stats.sentences == 2
        assert stats.sentences_per_instance == 1.0
        assert stats.columns == 6  # five attributes plus the architect foreign key
        # densities per record: 3/5, 4/5, 1/5 over the five attributes
        oracle = (3 / 5 + 4 / 5 + 1 / 5) / 3
        assert stats.avg_tuple_density == pytest.approx(oracle)

    def test_all_null_tuple_density_zero(self):
        schema = RelationSchema(name="R", attributes=(("a", "text"), ("b", "numeric")))
        rec = TupleRecord(relation="R", key="k", entity="k", values={})
        corpus = Corpus({"R": schema}, {"k": rec}, {}, [])
        assert corpus_stats(corpus)["R"].avg_tuple_density == 0.0

    def test_parse_stats_round_trip_attribute_counts(self, building_entries_xml):
        corpus = load_corpus_xml(building_entries_xml)
        assert len(corpus.tuples["200_Public_Square"].values) == 3
        assert len(corpus.tuples["103_Colmore_Row"].values) == 4
        assert len(corpus.tuples["John_Madin"].values) == 1

    def test_corpus_json_roundtrip(self, building_entries_xml, tmp_path):
        corpus = load_corpus_xml(building_entries_xml)
        path = tmp_path / "corpus.json"
        corpus.save(path)
        again = Corpus.load(path)
        assert again.to_dict() == corpus.to_dict()
