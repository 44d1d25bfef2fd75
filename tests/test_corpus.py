import json

import numpy as np
import pytest

from tablelink.config import SplitConfig
from tablelink.corpus import (
    Corpus,
    CorpusError,
    RelationSchema,
    TextMention,
    TupleRecord,
    load_corpus_xml,
    make_splits,
    make_stratified_splits,
)
from tablelink.vectorize import HashingEncoder, fit_vectorizer, vectorize_tuple

from conftest import COLMORE_ROW_ENTRY, PUBLIC_SQUARE_ENTRY


def records(corpus):
    """The corpus's tuple records in the order they were stored, an entry's root first."""
    return list(corpus.tuples.values())


class TestParseEntry:
    def test_public_square_entry(self):
        corpus = load_corpus_xml(PUBLIC_SQUARE_ENTRY)
        assert corpus.categories() == ["Building"]
        assert len(corpus.tuples) == 1
        rec = records(corpus)[0]
        assert rec.values == {
            "floorCount": "45",
            "location": "Cleveland, Ohio 44114",
            "completionDate": "1985",
        }
        assert rec.fk_values == {}
        mentions = list(corpus.mentions.values())
        assert len(mentions) == 1
        assert mentions[0].mention_text == "200 Public Square"
        assert mentions[0].entity_category == "Building"
        assert len(corpus.links) == 1
        assert corpus.links[0][0] == "200_Public_Square"

    def test_colmore_row_entry(self):
        corpus = load_corpus_xml(COLMORE_ROW_ENTRY)
        assert len(corpus.tuples) == 2
        root, madin = records(corpus)
        assert root.key == "103_Colmore_Row"
        # four attributes; the architect one doubles as a foreign key
        assert len(root.values) == 4
        assert root.values["architect"] == "John Madin"
        assert root.fk_values == {"architect": ["John_Madin"]}
        assert madin.key == "John_Madin"
        assert madin.values == {"birthPlace": "Birmingham"}
        assert len(corpus.mentions) == 1
        assert len(corpus.links) == 1
        assert corpus.links[0][0] == "103_Colmore_Row"

    def test_mention_span_covers_surface_form(self):
        m = list(load_corpus_xml(PUBLIC_SQUARE_ENTRY).mentions.values())[0]
        start, end = m.span
        assert m.sentence_text[start:end] == m.mention_text

    def test_empty_tripleset_rejected(self):
        xml = "<entry eid='Id9' category='X'><modifiedtripleset/><lex>Some text.</lex></entry>"
        with pytest.raises(CorpusError, match="empty triple set"):
            load_corpus_xml(xml)

    def test_no_lexicalization_rejected(self):
        xml = (
            "<entry eid='Id9' category='X'><modifiedtripleset>"
            "<mtriple>A | b | c</mtriple></modifiedtripleset></entry>"
        )
        with pytest.raises(CorpusError, match="no lexicalization"):
            load_corpus_xml(xml)

    def test_malformed_xml_reports_byte_offset(self):
        with pytest.raises(CorpusError, match="byte offset"):
            load_corpus_xml("<entry><modifiedtripleset></entry>")

    def test_malformed_triple_rejected(self):
        xml = (
            "<entry eid='Id9' category='X'><modifiedtripleset>"
            "<mtriple>only two | parts</mtriple></modifiedtripleset>"
            "<lex>Text.</lex></entry>"
        )
        with pytest.raises(CorpusError, match="malformed triple"):
            load_corpus_xml(xml)


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

    def test_numeric_values_with_thousands_commas_vectorize(self):
        second = PUBLIC_SQUARE_ENTRY.replace("Id24", "Id25").replace("200_Public", "300_Public")
        second = second.replace("| 45", "| 1,045")
        xml = f"<benchmark><entries>{PUBLIC_SQUARE_ENTRY}{second}</entries></benchmark>"
        corpus = load_corpus_xml(xml)
        assert dict(corpus.schemas["Building"].attributes)["floorCount"] == "numeric"
        model = fit_vectorizer(corpus.tuples_of_category("Building"), corpus.schemas["Building"],
                               HashingEncoder(dim=8))
        assert model.numeric_stats["floorCount"] == (545.0, 500.0)
        vectorize_tuple(model, corpus.tuples["300_Public_Square"], tuple_lookup=corpus.tuples)

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

        entries, stored = "", {}
        for eid, color in (("e1", "red"), ("e2", "blue"), ("e3", "red")):
            entries += entry(eid, color)
            corpus = load_corpus_xml(f"<benchmark><entries>{entries}</entries></benchmark>")
            assert all(corpus.tuples[key] == rec for key, rec in stored.items()), eid
            stored = dict(corpus.tuples)
        assert sorted(corpus.tuples) == ["R", "S", "S#2"]
        assert corpus.tuples["R"].fk_values == {"owner": ["S"]}
        assert corpus.tuples["S"].values == {"color": "red"}
        assert corpus.tuples["S#2"].values == {"color": "blue"}
        assert [tk for tk, _ in corpus.links] == ["R", "R", "R"]

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
            Corpus({"R": schema}, {"k": rec}, {"m": mention}, [("k", "nope")])

    def test_mention_category_validated(self):
        schemas = {name: RelationSchema(name=name, attributes=(("a", "text"),)) for name in "RS"}
        rec = TupleRecord(relation="R", key="k", entity="k", values={"a": "v"})
        for category, match in (("Q", "names unknown category 'Q'"),
                                ("S", "joins tuple 'k' of 'R' to mention 'm' of another category")):
            mention = TextMention(id="m", span=(0, 1), mention_text="v", sentence_text="v here",
                                  entity_category=category)
            with pytest.raises(CorpusError, match=match):
                Corpus(schemas, {"k": rec}, {"m": mention}, [("k", "m")])

    def test_links_endpoints_checked_before_the_records(self):
        # a link to an unknown mention and a tuple of an unknown relation: the link is reported
        schema = RelationSchema(name="R", attributes=(("a", "text"),))
        rec = TupleRecord(relation="Q", key="k", entity="k", values={"a": "v"})
        with pytest.raises(CorpusError, match="unknown mention 'nope'"):
            Corpus({"R": schema}, {"k": rec}, {}, [("k", "nope")])

    def test_records_of_a_category_keep_their_stored_order(self):
        schemas = {name: RelationSchema(name=name, attributes=(("a", "text"),)) for name in "ABC"}
        tuples = {key: TupleRecord(relation=key[0], key=key, entity=key, values={"a": key})
                  for key in ("A1", "B1", "A2", "C1", "B2", "A3")}
        mentions = {mid: TextMention(id=mid, span=(0, 1), mention_text="x", sentence_text="x",
                                     entity_category=mid[1])
                    for mid in ("mB1", "mA1", "mA2", "mB2", "mA3")}  # C has no mentions
        links = [(f"{m[1]}{m[2]}", m) for m in ("mA2", "mB1", "mA1", "mB2", "mA3")]
        corpus = Corpus(schemas, tuples, mentions, links)
        for category in ("A", "B", "C", "Z"):
            assert corpus.tuples_of_category(category) == [
                r for r in tuples.values() if r.relation == category]
            assert corpus.mentions_of_category(category) == [
                m for m in mentions.values() if m.entity_category == category]
            assert corpus.links_of_category(category) == [
                (tk, mid) for tk, mid in links if tuples[tk].relation == category]
        assert corpus.mentions_of_category("C") == [] and len(corpus.tuples_of_category("A")) == 3
        assert corpus.stats()["C"].sentences == 0

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
        stats = corpus.stats()["Building"]
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
        assert corpus.stats()["R"].avg_tuple_density == 0.0

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
