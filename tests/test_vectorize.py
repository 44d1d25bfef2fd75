import hashlib
import json
import math
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from tablelink import vectorize
from tablelink.annindex import AnnIndexError, build_forest, load_forest, save_forest
from tablelink.corpus import RelationSchema, TupleRecord
from tablelink.vectorize import (
    HashingEncoder,
    KeyedVectors,
    VectorizeError,
    VectorizerModel,
    base_vector,
    embed_foreign_key,
    fit_vectorizer,
    mention_vectors,
    read_vector_file,
    to_float32,
    tuple_vectors,
    vectorize_attribute,
    vectorize_tuple,
    write_vector_file,
)
from tablelink.corpus import TextMention

from conftest import make_record, subprocess_env


def hashing_oracle(text, dim, seed):
    """Independent re-implementation of the signed hashing scheme."""
    feats = []
    for i in range(len(text) - 2):
        feats.append((b"c3", text[i : i + 3]))
    for word in re.findall(r"\w+", text.lower()):
        feats.append((b"w", word))
    key = struct.pack("<q", seed)
    acc = [0.0] * dim
    for ns, f in feats:
        digest = hashlib.blake2b(ns + b"\x1f" + f.encode(), digest_size=8, key=key).digest()
        h = int.from_bytes(digest, "little")
        acc[(h >> 1) % dim] += 1.0 if h % 2 == 0 else -1.0
    norm = math.sqrt(sum(a * a for a in acc))
    return [a / norm for a in acc] if norm else acc


# Texts whose 3-grams and words repeat, within a text and across texts.
REPEATING_TEXTS = ("aaaa aaaa", "the cat saw the other cat", "Big Blue Big Blue", "Big Blue")


class TestHashingEncoder:
    def test_unit_norm_for_nondegenerate_text(self):
        enc = HashingEncoder(dim=64, seed=1)
        for text in ("IBM", "a longer sentence about things", "xy"):
            assert abs(np.linalg.norm(enc.encode(text)) - 1.0) < 1e-9

    def test_empty_text_is_zero(self):
        enc = HashingEncoder(dim=16, seed=0)
        assert np.all(enc.encode("") == 0.0)

    def test_ibm_matches_independent_oracle(self):
        enc = HashingEncoder(dim=8, seed=42)
        got = enc.encode("IBM")
        expected = hashing_oracle("IBM", 8, 42)
        # frozen from the oracle: one 3-gram and one word land in buckets 4/5
        h = 1.0 / math.sqrt(2.0)
        assert expected == [0.0, 0.0, 0.0, 0.0, -h, h, 0.0, 0.0]
        np.testing.assert_array_equal(got, expected)

    def test_oracle_agreement_on_longer_texts(self):
        enc = HashingEncoder(dim=32, seed=7)
        for text in ("200 Public Square", "HP Inc. reported", *REPEATING_TEXTS):
            np.testing.assert_allclose(enc.encode(text), hashing_oracle(text, 32, 7), atol=1e-15)

    def test_warm_encoder_matches_fresh_one(self):
        warm = HashingEncoder(dim=32, seed=7)
        for text in REPEATING_TEXTS:
            warm.encode(text)
        for text in (*REPEATING_TEXTS, "a cat in Cleveland"):
            np.testing.assert_array_equal(warm.encode(text), HashingEncoder(dim=32, seed=7).encode(text))

    def test_instances_do_not_share_memo_entries(self):
        first = HashingEncoder(dim=32, seed=7)
        for text in REPEATING_TEXTS:
            first.encode(text)
        for dim, seed in ((32, 8), (16, 7)):
            other = HashingEncoder(dim=dim, seed=seed)
            for text in REPEATING_TEXTS:
                np.testing.assert_allclose(other.encode(text), hashing_oracle(text, dim, seed),
                                           atol=1e-15)

    def test_memo_bound_changes_no_output(self, monkeypatch):
        monkeypatch.setattr(vectorize, "MEMO_LIMIT", 3)
        enc = HashingEncoder(dim=32, seed=7)
        for text in (*REPEATING_TEXTS, *REPEATING_TEXTS):
            np.testing.assert_allclose(enc.encode(text), hashing_oracle(text, 32, 7), atol=1e-15)
            assert len(enc._memo) <= 3

    def test_deterministic_across_processes(self):
        enc = HashingEncoder(dim=32, seed=5)
        here = enc.encode("Cleveland, Ohio 44114").tobytes().hex()
        code = (
            "from tablelink.vectorize import HashingEncoder;"
            "print(HashingEncoder(dim=32, seed=5).encode('Cleveland, Ohio 44114')"
            ".tobytes().hex())"
        )
        other = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=subprocess_env(),
        ).stdout.strip()
        assert other == here

    def test_seed_changes_output(self):
        a = HashingEncoder(dim=32, seed=0).encode("IBM")
        b = HashingEncoder(dim=32, seed=1).encode("IBM")
        assert not np.array_equal(a, b)


@pytest.fixture
def numeric_schema():
    return RelationSchema(name="R", attributes=(("x", "numeric"),))


@pytest.fixture
def mixed_schema():
    return RelationSchema(
        name="R",
        attributes=(("desc", "text"), ("x", "numeric"), ("kind", "categorical")),
        foreign_keys=(("parent", "R"),),
    )


def population_std(values):
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


class TestFitVectorizer:
    def test_numeric_stats(self, numeric_schema):
        records = [make_record(numeric_schema, f"k{i}", x=float(v)) for i, v in enumerate((1, 2, 3))]
        model = fit_vectorizer(records, numeric_schema, HashingEncoder(dim=8, seed=0))
        mean, std = model.numeric_stats["x"]
        assert mean == pytest.approx(2.0, abs=1e-12)
        assert std == pytest.approx(population_std([1, 2, 3]), abs=1e-12)
        assert std == pytest.approx(0.81650, abs=1e-5)

    def test_categorical_vocab_has_unk(self):
        schema = RelationSchema(name="R", attributes=(("c", "categorical"),))
        records = [make_record(schema, f"k{i}", c=v) for i, v in enumerate("ABC")]
        model = fit_vectorizer(records, schema, HashingEncoder(dim=8, seed=0))
        assert len(model.vocabularies["c"]) == 4

    def test_all_null_numeric_fallback(self, numeric_schema):
        records = [make_record(numeric_schema, f"k{i}") for i in range(3)]
        model = fit_vectorizer(records, numeric_schema, HashingEncoder(dim=8, seed=0))
        assert model.numeric_stats["x"] == (0.0, 1.0)

    def test_zero_variance_fallback(self, numeric_schema):
        records = [make_record(numeric_schema, f"k{i}", x=7.0) for i in range(3)]
        model = fit_vectorizer(records, numeric_schema, HashingEncoder(dim=8, seed=0))
        assert model.numeric_stats["x"] == (7.0, 1.0)

    def test_overflowing_stats_rejected_without_a_warning(self, numeric_schema):
        values = (1e200, -1e200, 3.0, 4.0, 5.0, 6.0)
        records = [make_record(numeric_schema, f"k{i}", x=v) for i, v in enumerate(values)]
        with pytest.raises(VectorizeError, match="non-finite stats"):
            fit_vectorizer(records, numeric_schema, HashingEncoder(dim=8, seed=0))

    def test_empty_tuple_set_rejected(self, numeric_schema):
        with pytest.raises(VectorizeError, match="empty"):
            fit_vectorizer([], numeric_schema, HashingEncoder(dim=8, seed=0))

    def test_wrong_relation_rejected(self, numeric_schema):
        alien = TupleRecord(relation="Other", key="k", entity="k", values={})
        with pytest.raises(VectorizeError, match="relation"):
            fit_vectorizer([alien], numeric_schema, HashingEncoder(dim=8, seed=0))


class TestVectorizeAttribute:
    def test_one_hot(self):
        schema = RelationSchema(name="R", attributes=(("c", "categorical"),))
        records = [make_record(schema, f"k{i}", c=v) for i, v in enumerate("ABC")]
        model = fit_vectorizer(records, schema, HashingEncoder(dim=8, seed=0))
        np.testing.assert_array_equal(vectorize_attribute(model, "c", "B"), [0, 1, 0, 0])
        np.testing.assert_array_equal(vectorize_attribute(model, "c", "ZZZ"), [0, 0, 0, 1])
        np.testing.assert_array_equal(vectorize_attribute(model, "c", None), [0, 0, 0, 0])

    def test_numeric_normalization(self, numeric_schema):
        records = [make_record(numeric_schema, f"k{i}", x=float(v)) for i, v in enumerate((1, 2, 3))]
        model = fit_vectorizer(records, numeric_schema, HashingEncoder(dim=8, seed=0))
        mean, std = model.numeric_stats["x"]
        oracle = (3.0 - mean) / std
        got = vectorize_attribute(model, "x", 3.0)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(oracle, abs=1e-15)
        assert got[0] == pytest.approx(1.22474, abs=1e-5)

    def test_null_text_is_zero_with_presence_bit_zero(self, mixed_schema):
        records = [make_record(mixed_schema, "k", desc="words here", x=1.0, kind="a")]
        model = fit_vectorizer(records, mixed_schema, HashingEncoder(dim=8, seed=0))
        assert np.all(vectorize_attribute(model, "desc", None) == 0.0)
        rec = make_record(mixed_schema, "k2", x=1.0, kind="a")
        vec = tuple_vectors(model, [rec])["k2"]
        layout = {(kind, name): (off, dim) for kind, name, off, dim in model.layout()}
        p_off, p_dim = layout[("presence", "")]
        presence = vec[p_off : p_off + p_dim]
        np.testing.assert_array_equal(presence, [0.0, 1.0, 1.0, 0.0])

    def test_normalized_mean_zero_var_one(self, numeric_schema):
        rng = np.random.default_rng(3)
        values = rng.normal(50.0, 12.0, size=200)
        records = [make_record(numeric_schema, f"k{i}", x=float(v)) for i, v in enumerate(values)]
        model = fit_vectorizer(records, numeric_schema, HashingEncoder(dim=8, seed=0))
        normalized = np.array([vectorize_attribute(model, "x", float(v))[0] for v in values])
        assert abs(normalized.mean()) < 1e-9
        assert abs(normalized.var() - 1.0) < 1e-6


class TestForeignKeys:
    def make_model(self, records, schema):
        return fit_vectorizer(records, schema, HashingEncoder(dim=8, seed=0))

    def test_sum_of_base_vectors(self):
        schema = RelationSchema(
            name="R", attributes=(("a", "numeric"), ("b", "numeric")),
            foreign_keys=(("ref", "R"),),
        )
        t1 = make_record(schema, "t1", a=1.0)
        t2 = make_record(schema, "t2", b=1.0)
        t3 = TupleRecord(relation="R", key="t3", entity="t3", values={"a": 3.0, "b": 5.0},
                         fk_values={"ref": ["t1"]})
        model = self.make_model([t1, t2, t3], schema)
        assert model.numeric_stats == {"a": (2.0, 1.0), "b": (3.0, 2.0)}
        # base vector: [normalized a, normalized b, presence(a), presence(b), presence(ref)];
        # t3's own fk section is not part of it
        base_t1 = [-1.0, 0.0, 1.0, 0.0, 0.0]
        base_t2 = [0.0, -1.0, 0.0, 1.0, 0.0]
        base_t3 = [1.0, 1.0, 1.0, 1.0, 1.0]
        bases = {rec.key: base_vector(model, rec) for rec in (t1, t2, t3)}
        got = embed_foreign_key(model, ["t1", "t2", "t3"], bases)
        np.testing.assert_array_equal(got, np.sum([base_t1, base_t2, base_t3], axis=0))
        # and the fk section of a full tuple vector is that same sum
        np.testing.assert_array_equal(
            vectorize_tuple(model, t3, bases), [1.0, 1.0] + base_t1 + [1.0, 1.0, 1.0]
        )

    def test_empty_fk_list_is_zero(self):
        schema = RelationSchema(
            name="R", attributes=(("a", "numeric"),), foreign_keys=(("ref", "R"),)
        )
        model = self.make_model([make_record(schema, "t", a=1.0)], schema)
        got = embed_foreign_key(model, [], {})
        assert got.shape == (model.fk_section_dim(),)
        assert np.all(got == 0.0)

    def test_dangling_target_counted(self):
        schema = RelationSchema(
            name="R", attributes=(("a", "numeric"),), foreign_keys=(("ref", "R"),)
        )
        model = self.make_model([make_record(schema, "t", a=1.0)], schema)
        got = embed_foreign_key(model, ["missing"], {})
        assert np.all(got == 0.0)

    def test_cycle_terminates_with_hand_unrolled_value(self):
        schema = RelationSchema(
            name="R", attributes=(("x", "numeric"),), foreign_keys=(("ref", "R"),)
        )
        a = TupleRecord(relation="R", key="a", entity="a", values={"x": 2.0},
                        fk_values={"ref": ["b"]})
        b = TupleRecord(relation="R", key="b", entity="b", values={"x": 3.0},
                        fk_values={"ref": ["a"]})
        model = self.make_model([a, b], schema)
        mean, std = model.numeric_stats["x"]
        assert (mean, std) == (2.5, 0.5)
        # depth-0 contribution of b omits b's own fk section:
        # [normalized x, presence(x), presence(ref)]
        oracle_b0 = [(3.0 - 2.5) / 0.5, 1.0, 1.0]
        got = tuple_vectors(model, [a, b])["a"]
        oracle = [(2.0 - 2.5) / 0.5] + oracle_b0 + [1.0, 1.0]
        np.testing.assert_array_equal(got, oracle)

    def test_linearity_in_target_multiset(self):
        schema = RelationSchema(
            name="R", attributes=(("x", "numeric"),), foreign_keys=(("ref", "R"),)
        )
        rng = np.random.default_rng(0)
        records = {
            f"t{i}": make_record(schema, f"t{i}", x=float(rng.normal())) for i in range(6)
        }
        model = self.make_model(list(records.values()), schema)
        l1 = ["t0", "t1", "t2"]
        l2 = ["t2", "t3", "t4", "t5"]
        bases = {key: base_vector(model, rec) for key, rec in records.items()}
        combined = embed_foreign_key(model, l1 + l2, bases)
        separate = embed_foreign_key(model, l1, bases) + embed_foreign_key(model, l2, bases)
        np.testing.assert_allclose(combined, separate, rtol=0, atol=1e-9)


class TestVectorizeTuple:
    def test_output_dim_arithmetic(self, mixed_schema):
        records = [
            make_record(mixed_schema, f"k{i}", desc=f"text {i}", x=float(i), kind=k)
            for i, k in enumerate("abc")
        ]
        model = fit_vectorizer(records, mixed_schema, HashingEncoder(dim=16, seed=0))
        # sections: text 16, numeric 1, categorical 4 (3 values + UNK),
        # fk D = base dim of the target (16 + 1 + 4 + 4 presence), presence 4
        d = model.fk_section_dim()
        assert d == 16 + 1 + 4 + 4
        assert model.dim() == 16 + 1 + 4 + d + 4
        vec = tuple_vectors(model, records)["k0"]
        assert vec.shape == (model.dim(),)

    def test_determinism(self, mixed_schema):
        records = [make_record(mixed_schema, "k", desc="same text", x=2.0, kind="a")]
        model = fit_vectorizer(records, mixed_schema, HashingEncoder(dim=16, seed=0))
        v1 = tuple_vectors(model, records)["k"]
        v2 = tuple_vectors(model, records)["k"]
        assert v1.tobytes() == v2.tobytes()

    def test_all_null_tuple_is_zero(self, mixed_schema):
        records = [make_record(mixed_schema, "k", desc="text", x=1.0, kind="a")]
        model = fit_vectorizer(records, mixed_schema, HashingEncoder(dim=16, seed=0))
        vec = tuple_vectors(model, [make_record(mixed_schema, "empty")])["empty"]
        assert np.all(vec == 0.0)

    def test_dim_invariant_across_tuples(self, mixed_schema):
        records = [
            make_record(mixed_schema, "k1", desc="one two three", x=5.0, kind="a"),
            make_record(mixed_schema, "k2"),
            make_record(mixed_schema, "k3", kind="never seen before"),
        ]
        model = fit_vectorizer(records, mixed_schema, HashingEncoder(dim=16, seed=0))
        vecs = tuple_vectors(model, records)
        dims = {vecs[r.key].shape for r in records}
        assert dims == {(model.dim(),)}


class TestVectorizeMention:
    def test_halves(self):
        enc = HashingEncoder(dim=32, seed=0)
        m1 = TextMention(id="1", span=(0, 3), mention_text="IBM",
                         sentence_text="IBM was founded long ago.")
        m2 = TextMention(id="2", span=(0, 3), mention_text="IBM",
                         sentence_text="Analysts wrote about IBM yesterday.")
        vecs = mention_vectors(enc, [m1, m2])
        v1, v2 = vecs["1"], vecs["2"]
        assert v1.shape == (64,)
        np.testing.assert_array_equal(v1[:32], enc.encode("IBM").astype(np.float32))
        np.testing.assert_array_equal(v1[:32], v2[:32])
        assert not np.array_equal(v1[32:], v2[32:])


class TestSideBuilders:
    """Each side is built in one call that builds a tuple's base vector and encodes a text once."""

    def counted(self, monkeypatch):
        calls = {"base_vector": 0, "encode": 0}

        def count(name, fn):
            def counting(*args):
                calls[name] += 1
                return fn(*args)
            return counting

        monkeypatch.setattr(vectorize, "base_vector", count("base_vector", vectorize.base_vector))
        monkeypatch.setattr(HashingEncoder, "encode", count("encode", HashingEncoder.encode))
        return calls

    def test_each_base_built_once(self, monkeypatch):
        schema = RelationSchema(name="R", attributes=(("d", "text"), ("x", "numeric")),
                                foreign_keys=(("ref", "R"), ("near", "R")))
        hub = make_record(schema, "hub", d="the hub", x=1.0)
        records = [hub] + [
            TupleRecord(relation="R", key=f"t{i}", entity=f"t{i}", values={"d": f"spoke {i}"},
                        fk_values={"ref": ["hub"], "near": ["hub", f"t{(i + 1) % 4}"]})
            for i in range(4)
        ]
        model = fit_vectorizer(records, schema, HashingEncoder(dim=16, seed=0))
        calls = self.counted(monkeypatch)
        vecs = tuple_vectors(model, records)
        assert calls == {"base_vector": len(records), "encode": len(records)}
        assert vecs.ids == sorted(rec.key for rec in records)
        bases = {rec.key: base_vector(model, rec) for rec in records}
        for rec in records:
            row = vectorize_tuple(model, rec, bases)
            assert vecs[rec.key].tobytes() == row.astype(np.float32).tobytes()

    def test_each_distinct_text_encoded_once(self, monkeypatch):
        enc = HashingEncoder(dim=16, seed=0)
        shared = "IBM and HP both sell servers."
        mentions = [
            TextMention(id="1", span=(0, 3), mention_text="IBM", sentence_text=shared),
            TextMention(id="2", span=(8, 10), mention_text="HP", sentence_text=shared),
            TextMention(id="3", span=(0, 3), mention_text="IBM", sentence_text="IBM grew."),
            TextMention(id="4", span=(0, 3), mention_text="IBM", sentence_text=shared),
        ]
        texts = {t for m in mentions for t in (m.mention_text, m.sentence_text)}
        calls = self.counted(monkeypatch)
        vecs = mention_vectors(enc, mentions)
        assert calls["encode"] == len(texts) == 4
        assert vecs.ids == ["1", "2", "3", "4"]
        for m in mentions:
            row = np.concatenate([enc.encode(m.mention_text), enc.encode(m.sentence_text)])
            assert vecs[m.id].tobytes() == row.astype(np.float32).tobytes()


class TestModelSerialization:
    def test_json_roundtrip_preserves_vectors(self, mixed_schema, tmp_path):
        records = [
            make_record(mixed_schema, f"k{i}", desc=f"words {i}", x=float(i), kind=k)
            for i, k in enumerate("aab")
        ]
        model = fit_vectorizer(records, mixed_schema, HashingEncoder(dim=16, seed=3))
        path = tmp_path / "vectorizer.json"
        model.save(path)
        again = VectorizerModel.load(path)
        built, rebuilt = tuple_vectors(model, records), tuple_vectors(again, records)
        for rec in records:
            np.testing.assert_array_equal(built[rec.key], rebuilt[rec.key])

    def test_fk_depth_key_of_older_files_is_ignored(self, tmp_path):
        schema = RelationSchema(
            name="R", attributes=(("d", "text"), ("x", "numeric")), foreign_keys=(("ref", "R"),)
        )
        records = {
            f"k{i}": TupleRecord(relation="R", key=f"k{i}", entity=f"k{i}",
                                 values={"d": f"words {i}", "x": float(i)},
                                 fk_values={"ref": [f"k{(i + 1) % 4}", f"k{(i + 2) % 4}"]})
            for i in range(4)
        }
        model = fit_vectorizer(records.values(), schema, HashingEncoder(dim=16, seed=3))
        path = tmp_path / "vectorizer.json"
        model.save(path)
        doc = json.loads(path.read_text())
        assert "fk_depth" not in doc
        # as in the vectorizer files of earlier versions
        doc["fk_depth"] = 1
        path.write_text(json.dumps(doc, sort_keys=True, indent=1))
        again = VectorizerModel.load(path)
        built = tuple_vectors(model, list(records.values()))
        rebuilt = tuple_vectors(again, list(records.values()))
        for rec in records.values():
            assert rebuilt[rec.key].tobytes() == built[rec.key].tobytes()

    def test_version_mismatch_rejected(self, mixed_schema, tmp_path):
        records = [make_record(mixed_schema, "k", desc="w", x=1.0, kind="a")]
        model = fit_vectorizer(records, mixed_schema, HashingEncoder(dim=8, seed=0))
        path = tmp_path / "vectorizer.json"
        model.save(path)
        blob = path.read_text().replace('"format_version":1', '"format_version":9')
        path.write_text(blob)
        with pytest.raises(VectorizeError, match="version"):
            VectorizerModel.load(path)


class TestVectorFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        items = {f"key{i}": rng.normal(size=12) for i in range(20)}
        path = tmp_path / "x.vec"
        write_vector_file(path, items)
        back = read_vector_file(path)
        assert sorted(back) == sorted(items)
        for k, v in items.items():
            assert back[k].tobytes() == v.astype(np.float32).tobytes()

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "x.vec"
        write_vector_file(path, {"a": np.ones(4), "b": np.zeros(4)})
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(VectorizeError, match="truncated|corrupt"):
            read_vector_file(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])  # 1e200: past float32
    def test_non_finite_vectors_are_not_written_or_read(self, tmp_path, bad):
        path = tmp_path / "x.vec"
        with pytest.raises(VectorizeError, match="non-finite"):  # and no RuntimeWarning
            write_vector_file(path, {"a": np.ones(4), "b": np.array([0.0, 1.0, bad, 2.0])})
        assert not path.exists()
        write_vector_file(path, {"a": np.ones(4)})
        path.write_bytes(path.read_bytes()[:-4] + to_float32(bad).tobytes())
        with pytest.raises(VectorizeError, match="x.vec: non-finite"):
            read_vector_file(path)

    def test_largest_float32_row_is_written_read_and_indexed(self, tmp_path):
        big = np.full(4, np.finfo(np.float32).max, dtype=np.float32)
        write_vector_file(tmp_path / "x.vec", {"a": big, "b": np.ones(4)})
        back = read_vector_file(tmp_path / "x.vec")
        assert back["a"].tobytes() == big.tobytes() and np.isfinite(back.norms).all()
        save_forest(build_forest(back, t=2, leaf_capacity=4, seed=0), tmp_path / "x.idx")
        forest = load_forest(tmp_path / "x.idx")
        assert forest.norms[0] == 2 * float(big[0])  # sums the f32 squares in f64, exactly
        assert forest.query(big, 1) == [("a", pytest.approx(0.0, abs=1e-12))]

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "x.vec"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(VectorizeError, match="magic"):
            read_vector_file(path)

    def test_version_1_rejected_with_embed_hint(self, tmp_path):
        path = tmp_path / "x.vec"
        # a v1 file: magic, version 1, count 1, then key, per-record dim, values
        path.write_bytes(b"TLVC" + struct.pack("<III", 1, 1, 1) + b"a"
                         + struct.pack("<I", 2) + np.ones(2).tobytes())
        with pytest.raises(VectorizeError, match="version 1 .*tablelink embed-tuples"):
            read_vector_file(path)

    def test_layout_is_header_then_index_body(self, tmp_path):
        rng = np.random.default_rng(3)
        items = {f"key{i}": rng.normal(size=6) for i in range(11)}
        write_vector_file(tmp_path / "x.vec", items)
        save_forest(build_forest(items, t=2, leaf_capacity=4, seed=0), tmp_path / "x.idx")
        vec, idx = (tmp_path / "x.vec").read_bytes(), (tmp_path / "x.idx").read_bytes()
        assert len(vec) == 20 + sum(4 + len(k) for k in items) + 4 * 11 * 6
        assert vec[20:] == idx[36:]

    @pytest.mark.parametrize("suffix", ["vec", "idx"])
    @pytest.mark.parametrize("change, message", [
        ("cut", "truncated"), ("extra", "1 trailing bytes"), ("bad-key", "not UTF-8"),
        ("duplicate-key", "not strictly ascending: 'a' after 'a'"),
        ("keys-descending", "not strictly ascending: 'a' after 'b'"),
    ])
    def test_corrupt_keyed_matrix_body_raises(self, tmp_path, suffix, change, message):
        items = {"a": np.ones(4), "b": np.zeros(4)}
        path = tmp_path / f"x.{suffix}"
        if suffix == "vec":
            write_vector_file(path, items)
            read, error, header = read_vector_file, VectorizeError, 20
        else:
            save_forest(build_forest(items, t=2, leaf_capacity=4, seed=0), path)
            read, error, header = load_forest, AnnIndexError, 36
        data = bytearray(path.read_bytes())
        if change == "cut":
            del data[-1]
        elif change == "extra":
            data.append(0)
        elif change == "bad-key":
            data[header + 4] = 0xFF  # first byte of the first key
        elif change == "duplicate-key":
            data[header + 9] = ord("a")  # the keys "a", "b" become "a", "a"
        else:
            data[header + 4], data[header + 9] = ord("b"), ord("a")  # ... or "b", "a"
        path.write_bytes(bytes(data))
        with pytest.raises(error, match=message):
            read(path)


class TestKeyedVectors:
    def test_sorted_keys_and_stacked_rows(self):
        vectors = KeyedVectors.of({"b": [1, 2], "a": np.array([3.0, 4.0])})
        assert vectors.ids == ["a", "b"] and list(vectors) == ["a", "b"] and len(vectors) == 2
        assert vectors.matrix.dtype == np.float32 and vectors.dim == 2
        np.testing.assert_array_equal(vectors.matrix, [[3.0, 4.0], [1.0, 2.0]])
        np.testing.assert_array_equal(vectors["b"], [1.0, 2.0])
        np.testing.assert_array_equal(vectors.norms, [5.0, math.sqrt(5.0)])
        assert "a" in vectors and "c" not in vectors
        assert KeyedVectors.of(vectors) is vectors

    @pytest.mark.parametrize("ids, bad, message", [
        *((["a", "b"], bad, "non-finite") for bad in (np.nan, np.inf, -np.inf, 1e39)),  # 1e39: past f32
        (["a", "a"], 0.0, "id table is not strictly ascending: 'a' after 'a'"),
        (["b", "a"], 0.0, "id table is not strictly ascending: 'a' after 'b'"),
    ], ids=["nan", "inf", "-inf", "1e39", "repeated-id", "descending-ids"])
    def test_constructor_checks_rows_and_ids(self, ids, bad, message):
        rows = np.array([[1.0, bad], [0.0, 1.0]])
        with pytest.raises(VectorizeError, match=message):  # and no RuntimeWarning
            KeyedVectors(ids, rows)
        if message.startswith("id table"):  # ``of`` sorts the keys of a mapping
            assert KeyedVectors.of(dict(zip(ids, rows))).ids == sorted(set(ids))

    @pytest.mark.parametrize("ids", [[2, 10], ["a", b"b"], ["a", np.int64(3)]])
    def test_ids_that_are_not_str_rejected(self, ids):
        with pytest.raises(VectorizeError, match="not a str"):
            KeyedVectors(ids, np.ones((2, 3)))

    @pytest.mark.parametrize("suffix", ["vec", "idx"])
    def test_writers_reject_ids_that_are_not_str(self, tmp_path, suffix):
        """Written as ``str(key)``, 2 and 10 would make an id table that reads back descending."""
        items = {2: np.ones(3), 10: np.zeros(3)}
        path = tmp_path / f"x.{suffix}"
        with pytest.raises(VectorizeError, match="id 2 is a int, not a str"):
            if suffix == "vec":
                write_vector_file(path, items)
            else:
                save_forest(build_forest(items, t=2, leaf_capacity=4, seed=0), path)
        assert not path.exists()

    @pytest.mark.parametrize("suffix", ["vec", "idx"])
    def test_writers_reject_mixed_key_types_before_sorting(self, tmp_path, suffix):
        items = {1: np.ones(3), "a": np.zeros(3)}  # sorting them would raise a bare TypeError
        path = tmp_path / f"x.{suffix}"
        with pytest.raises(VectorizeError, match="id 1 is a int, not a str"):
            if suffix == "vec":
                write_vector_file(path, items)
            else:
                save_forest(build_forest(items, t=2, leaf_capacity=4, seed=0), path)
        assert not path.exists()

    def test_not_1d_rejected(self):
        with pytest.raises(VectorizeError, match="1-D of one dimension"):
            KeyedVectors.of({"a": np.ones((2, 2))})

    def test_forest_shares_the_matrix_read(self, tmp_path):
        rng = np.random.default_rng(4)
        write_vector_file(tmp_path / "x.vec", {f"k{i}": rng.normal(size=5) for i in range(9)})
        vectors = read_vector_file(tmp_path / "x.vec")
        forest = build_forest(vectors, t=2, leaf_capacity=4, seed=0)
        assert isinstance(vectors, KeyedVectors) and forest.ids == vectors.ids
        assert np.shares_memory(forest.matrix, vectors.matrix)
