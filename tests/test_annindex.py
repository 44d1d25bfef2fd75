import struct

import numpy as np
import pytest

from tablelink.annindex import (
    AnnIndexError,
    _dots,
    _top_n,
    brute_force_knn,
    build_forest,
    cosine_distances,
    default_search_k,
    load_forest,
    query_forest,
    save_forest,
)
from tablelink.vectorize import KeyedVectors, VectorizeError

from conftest import random_unit_vectors


def keyed(matrix):
    return {f"v{i:04d}": matrix[i] for i in range(matrix.shape[0])}


@pytest.fixture
def small_items():
    rng = np.random.default_rng(0)
    return keyed(random_unit_vectors(rng, 10, 8))


def leaves_under(tree, node):
    """The item lists of the leaves under ``node`` of a forest's tree tables."""
    _, _, children, leaves = tree
    if node < 0:
        return [leaves[~node]]
    left, right = children[node]
    return leaves_under(tree, left) + leaves_under(tree, right)


class TestBuild:
    def test_small_set_single_leaf_per_tree(self, small_items):
        forest = build_forest(small_items, t=4, leaf_capacity=16, seed=0)
        for normals, offsets, children, leaves in forest.trees:
            assert normals.shape == (0, 8) and len(offsets) == 0 and children == []
            assert len(leaves) == 1
            assert sorted(leaves[0]) == list(range(10))

    def test_leaves_partition_items(self):
        rng = np.random.default_rng(1)
        items = keyed(random_unit_vectors(rng, 500, 16))
        forest = build_forest(items, t=8, leaf_capacity=16, seed=3)
        for tree in forest.trees:
            normals, offsets, children, leaves = tree
            assert normals.dtype == np.float32 and normals.shape == (len(children), 16)
            assert len(offsets) == len(children) and len(leaves) == len(children) + 1
            reached = leaves_under(tree, 0)  # every leaf hangs under the root once
            assert sorted(map(sorted, reached)) == sorted(map(sorted, leaves))
            assert all(len(leaf) <= 16 for leaf in leaves)
            assert sorted(i for leaf in leaves for i in leaf) == list(range(500))

    def test_left_at_or_below_the_plane_right_above(self):
        rng = np.random.default_rng(2)
        forest = build_forest(keyed(random_unit_vectors(rng, 300, 12)), t=4, leaf_capacity=8,
                              seed=5)
        for tree in forest.trees:
            normals, offsets, children, _ = tree
            for node, (left, right) in enumerate(children):
                for child, sign in ((left, -1), (right, 1)):
                    rows = [i for leaf in leaves_under(tree, child) for i in leaf]
                    margins = forest.matrix[rows].astype(np.float64) @ normals[node] - offsets[node]
                    assert (sign * margins > -1e-6).all()

    def test_build_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        items = keyed(random_unit_vectors(rng, 200, 12))
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_forest(build_forest(items, t=6, leaf_capacity=8, seed=9), p1)
        save_forest(build_forest(items, t=6, leaf_capacity=8, seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_margin_row_bits_independent_of_the_table(self):
        """A plane's margin reads the same bits in any table, and with the operands swapped."""
        rng = np.random.default_rng(18)
        for dim in (4, 16, 256):
            rows = rng.normal(size=(50, dim)).astype(np.float32)
            q = rng.normal(size=dim).astype(np.float32)
            full = _dots(rows, q)
            for i, row in enumerate(rows):
                assert full[i] == _dots(row, q) == _dots(rows[i:i + 3], q)[0]
                assert full[i] == _dots(q[None], row)[0]  # operands swapped, as in the build

    def test_identical_points_terminate(self):
        items = {f"k{i}": np.ones(4) for i in range(100)}
        forest = build_forest(items, t=3, leaf_capacity=8, seed=0)
        for _, _, children, leaves in forest.trees:
            assert children and all(len(leaf) <= 8 for leaf in leaves)
        hits = query_forest(forest, np.ones(4), 5)
        assert len(hits) == 5
        assert all(s == pytest.approx(0.0, abs=1e-12) for _, s in hits)

    def test_empty_items_rejected(self):
        with pytest.raises(AnnIndexError, match="zero items"):
            build_forest({}, t=2, leaf_capacity=4, seed=0)

    def test_ragged_vectors_rejected(self):
        with pytest.raises(VectorizeError, match="one dimension"):
            build_forest({"a": np.ones(3), "b": np.ones(4)})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_vectors_with_non_finite_components_or_norms_rejected(self, bad):
        with pytest.raises(VectorizeError, match="non-finite"):
            build_forest({"a": np.ones(3), "b": np.array([1.0, bad, 0.0])})


class TestQuery:
    def test_indexed_vector_found_at_rank_one(self, small_items):
        forest = build_forest(small_items, t=4, leaf_capacity=4, seed=1)
        key = "v0003"
        hits = query_forest(forest, small_items[key], 3)
        assert hits[0][0] == key
        assert hits[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_n_larger_than_item_count_returns_all_sorted(self, small_items):
        forest = build_forest(small_items, t=2, leaf_capacity=4, seed=1)
        q = np.ones(8) / np.sqrt(8)
        hits = query_forest(forest, q, 50)
        assert len(hits) == 10
        scores = [s for _, s in hits]
        assert scores == sorted(scores)

    def test_n_below_one_rejected(self, small_items):
        forest = build_forest(small_items, t=2, leaf_capacity=4, seed=1)
        with pytest.raises(AnnIndexError, match=r"index\.n must lie in \[1, "):
            query_forest(forest, np.ones(8), 0)

    @pytest.mark.parametrize("search_k", [0, -5])
    def test_search_k_below_one_rejected(self, small_items, search_k):
        forest = build_forest(small_items, t=2, leaf_capacity=4, seed=1)
        with pytest.raises(AnnIndexError, match=r"index\.search_k must lie in \[1, "):
            query_forest(forest, np.ones(8), 5, search_k=search_k)
        with pytest.raises(AnnIndexError, match="empty forest"):
            query_forest(KeyedVectors([], np.empty((0, 8))), np.ones(8), 5, search_k=search_k)

    def test_dim_mismatch_rejected(self, small_items):
        forest = build_forest(small_items, t=2, leaf_capacity=4, seed=1)
        for search in (query_forest, brute_force_knn):
            for q in (np.ones(5), np.ones(9)):
                with pytest.raises(AnnIndexError, match="dim"):
                    search(forest, q, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39])  # 1e39: past the float32 range
    def test_non_finite_query_rejected(self, small_items, bad):
        forest = build_forest(small_items, t=2, leaf_capacity=4, seed=1)
        for search in (query_forest, brute_force_knn):
            with pytest.raises(AnnIndexError, match="NaN or infinite component"):
                search(forest, np.array([bad] + [0.0] * 7), 3)

    def test_routing_consistency(self):
        """A one-leaf search of one tree reaches the leaf that holds the query item."""
        rng = np.random.default_rng(4)
        items = keyed(random_unit_vectors(rng, 300, 16))
        for seed in (5, 6, 7, 8):
            forest = build_forest(items, t=1, leaf_capacity=8, seed=seed)
            for key in ("v0000", "v0123", "v0299"):
                [(hit, dist)] = query_forest(forest, items[key], 1, search_k=1)
                assert hit == key
                assert dist == pytest.approx(0.0, abs=1e-12)

    def test_tie_break_by_ascending_id(self):
        v = np.array([1.0, 0.0])
        items = {"b": v.copy(), "a": v.copy(), "c": v.copy(), "d": np.array([0.0, 1.0])}
        forest = build_forest(items, t=2, leaf_capacity=4, seed=0)
        hits = query_forest(forest, v, 4)
        assert [h[0] for h in hits] == ["a", "b", "c", "d"]

    def test_query_is_rounded_to_float32_first(self, small_items):
        forest = build_forest(small_items, t=2, leaf_capacity=4, seed=1)
        rng = np.random.default_rng(3)
        for q in random_unit_vectors(rng, 10, 8):
            rounded = q.astype(np.float32)
            assert query_forest(forest, q, 4) == query_forest(forest, rounded, 4)
            assert query_forest(forest, q, 4, search_k=2) == query_forest(forest, rounded, 4,
                                                                          search_k=2)
            assert brute_force_knn(forest, q, 4) == brute_force_knn(forest, rounded, 4)

    def test_small_recall_against_brute_force(self):
        rng = np.random.default_rng(6)
        items = keyed(random_unit_vectors(rng, 300, 32))
        forest = build_forest(items, t=20, leaf_capacity=16, seed=7)
        queries = random_unit_vectors(rng, 30, 32)
        recalls = []
        for q in queries:
            approx = {k for k, _ in query_forest(forest, q, 10, search_k=800)}
            exact = {k for k, _ in brute_force_knn(items, q, 10)}
            recalls.append(len(approx & exact) / len(exact))
        assert float(np.mean(recalls)) >= 0.9


class TestBruteForce:
    def test_orthogonal_pair(self):
        items = {"id1": np.array([1.0, 0.0]), "id2": np.array([0.0, 1.0])}
        hits = brute_force_knn(items, np.array([1.0, 0.0]), 2)
        assert hits[0] == ("id1", pytest.approx(0.0, abs=1e-15))
        assert hits[1] == ("id2", pytest.approx(1.0, abs=1e-15))

    def test_n_zero_empty(self, small_items):
        assert brute_force_knn(small_items, np.ones(8), 0) == []

    def test_empty_or_non_finite_items_rejected(self):
        with pytest.raises(AnnIndexError, match="empty"):
            brute_force_knn({}, np.ones(2), 2)
        with pytest.raises(VectorizeError, match="non-finite"):
            brute_force_knn({"a": np.ones(2), "b": np.array([np.nan, 1.0])}, np.ones(2), 2)

    def test_single_leaf_forest_agrees_exactly(self, small_items):
        forest = build_forest(small_items, t=3, leaf_capacity=16, seed=2)
        rng = np.random.default_rng(8)
        for q in random_unit_vectors(rng, 20, 8):
            assert query_forest(forest, q, 5) == brute_force_knn(small_items, q, 5)


class TestTopN:
    @staticmethod
    def by_argsort(ids, dist, n):
        order = np.argsort(dist, axis=1, kind="stable")[:, :n]
        return [[(ids[i], float(row[i])) for i in cols] for row, cols in zip(dist, order)]

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 9])
    def test_equals_a_stable_argsort_ties_included(self, n):
        rng = np.random.default_rng(21)
        dist = rng.integers(0, 4, size=(40, 6)) / 4.0  # many ties, within and across the cut
        dist[3] = 0.5  # a row of one value
        dist[4, 1:4] = np.nan  # sorted last, so n = 5 cuts among them
        ids = [f"c{i}" for i in range(6)]
        assert repr(_top_n(ids, dist, n)) == repr(self.by_argsort(ids, dist, n))  # nan != nan

    def test_no_rows(self):
        assert _top_n(["a", "b"], np.empty((0, 2)), 1) == []


class TestExhaustive:
    @pytest.fixture
    def multi_leaf(self):
        rng = np.random.default_rng(14)
        items = keyed(random_unit_vectors(rng, 200, 12))
        forest = build_forest(items, t=3, leaf_capacity=2, seed=4)
        assert all(children for _, _, children, _ in forest.trees)  # every tree has a split
        return items, forest, random_unit_vectors(rng, 15, 12)

    @pytest.mark.parametrize("extra", [0, 7])
    def test_budget_covering_forest_equals_brute_force(self, multi_leaf, extra):
        items, forest, queries = multi_leaf
        search_k = len(forest) + extra
        block = query_forest(forest, queries, 10, search_k=search_k)
        assert len(block) == len(queries)
        for q, hits in zip(queries, block):
            exact = brute_force_knn(items, q, 10)
            assert query_forest(forest, q, 10, search_k=search_k) == exact
            assert hits == exact


class TestCosineKernel:
    def test_row_bits_independent_of_batch_shape(self):
        rng = np.random.default_rng(15)
        for dim in (3, 16, 256):
            matrix = rng.normal(size=(120, dim))
            norms = np.linalg.norm(matrix, axis=1)
            queries = rng.normal(size=(40, dim))
            full = cosine_distances(matrix, norms, queries)
            reference = 1.0 - (queries @ matrix.T) / np.outer(
                np.linalg.norm(queries, axis=1), norms)
            np.testing.assert_allclose(full, reference, rtol=0, atol=1e-12)
            subset = np.sort(rng.choice(120, size=37, replace=False))
            for r, q in enumerate(queries):
                alone = cosine_distances(matrix, norms, q[None])[0]
                assert np.array_equal(alone, full[r])
                some = cosine_distances(matrix[subset], norms[subset], q[None])[0]
                assert np.array_equal(some, full[r, subset])

    def test_distance_properties(self):
        def score(u, v):
            return cosine_distances(u[None], np.linalg.norm(u[None], axis=1), v[None])[0, 0]

        u = np.array([0.3, -2.0, 1.0])
        assert score(u, u) == 0.0
        assert score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert score(u, -u) == pytest.approx(2.0, abs=1e-15)
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, v = rng.normal(size=3), rng.normal(size=3)
            assert score(u, v) == score(v, u)
            assert score(3.7 * u, v) == pytest.approx(score(u, v), abs=1e-12)

    def test_zero_vectors_score_one(self):
        matrix = np.array([[1.0, 0.0], [0.0, 0.0]])
        dist = cosine_distances(matrix, np.linalg.norm(matrix, axis=1),
                                np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert dist.tolist() == [[0.0, 1.0], [1.0, 1.0]]


class TestSerialization:
    def test_roundtrip_query_equivalence(self, tmp_path):
        rng = np.random.default_rng(9)
        items = keyed(random_unit_vectors(rng, 400, 24))
        forest = build_forest(items, t=10, leaf_capacity=12, seed=11)
        path = tmp_path / "f.idx"
        save_forest(forest, path)
        loaded = load_forest(path)
        for q in random_unit_vectors(rng, 100, 24):
            # a budget below the item count traverses the rebuilt trees
            assert query_forest(loaded, q, 10, search_k=60) == query_forest(
                forest, q, 10, search_k=60)

    def test_save_is_bit_exact_after_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        items = keyed(random_unit_vectors(rng, 100, 8))
        forest = build_forest(items, t=4, leaf_capacity=8, seed=1)
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        save_forest(forest, p1)
        save_forest(load_forest(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        forest = build_forest(keyed(random_unit_vectors(rng, 50, 8)), t=3, leaf_capacity=8, seed=0)
        path = tmp_path / "f.idx"
        save_forest(forest, path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(AnnIndexError, match="truncated|trailing"):
            load_forest(path)

    def test_version_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(12)
        forest = build_forest(keyed(random_unit_vectors(rng, 20, 8)), t=2, leaf_capacity=8, seed=0)
        path = tmp_path / "f.idx"
        save_forest(forest, path)
        data = bytearray(path.read_bytes())
        for version in (9, 1):  # 1 stored the trees
            data[4:8] = struct.pack("<I", version)
            path.write_bytes(bytes(data))
            with pytest.raises(AnnIndexError, match=f"version {version} .*tablelink build-index"):
                load_forest(path)

    @pytest.mark.parametrize("offset", [12, 16])  # t, leaf_capacity
    def test_zero_parameter_in_header_rejected(self, tmp_path, offset):
        rng = np.random.default_rng(16)
        forest = build_forest(keyed(random_unit_vectors(rng, 20, 8)), t=2, leaf_capacity=8, seed=0)
        path = tmp_path / "f.idx"
        save_forest(forest, path)
        data = bytearray(path.read_bytes())
        data[offset:offset + 4] = struct.pack("<I", 0)
        path.write_bytes(bytes(data))
        with pytest.raises(AnnIndexError, match=r"index\.(t|leaf_capacity) must lie in \[1, "):
            load_forest(path)

    def test_file_holds_header_ids_and_matrix_only(self, tmp_path):
        rng = np.random.default_rng(17)
        forest = build_forest(keyed(random_unit_vectors(rng, 30, 8)), t=50, leaf_capacity=2, seed=0)
        path = tmp_path / "f.idx"
        save_forest(forest, path)
        header = 4 + struct.calcsize("<IIIIqQ")
        assert path.stat().st_size == header + 30 * (4 + len("v0000")) + 4 * 30 * 8
        assert "trees" not in vars(load_forest(path))


class TestDefaults:
    def test_default_search_k(self):
        assert default_search_k(10, 50) == 2000
        assert default_search_k(10, 5) == 200
