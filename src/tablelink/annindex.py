"""Random-projection-forest approximate nearest-neighbor index.

Each tree splits the vector space recursively by hyperplanes equidistant
from two sampled points; queries traverse all trees best-first by margin to
the splitting planes, merge the collected leaf candidates, and re-rank them
by exact cosine distance. A query whose budget covers the whole forest
skips the trees and ranks every item. A forest is a pure function of its
vectors and build parameters, so it serializes to a versioned binary file
of exactly those, and its trees are built from them on the first query
that traverses them.
"""

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import formats
from .vectorize import KeyedVectors


class AnnIndexError(ValueError):
    """Raised for malformed queries and index files."""


@dataclass
class RpNode:
    """Internal node (normal/offset/children) or leaf (item index list)."""

    normal: np.ndarray = None
    offset: float = 0.0
    left: int = -1
    right: int = -1
    items: list = None

    @property
    def is_leaf(self):
        return self.items is not None


class RpForest(KeyedVectors):
    """An immutable keyed vector set with a forest over it.

    Its ``t`` trees are built from ``matrix``, ``leaf_capacity`` and ``seed``
    on first access to ``trees``; a query whose budget covers the forest
    never builds them.
    """

    def __init__(self, ids, matrix, t, leaf_capacity, seed):
        super().__init__(ids, matrix)
        self.t = int(t)
        self.leaf_capacity = int(leaf_capacity)
        if self.t < 1 or self.leaf_capacity < 1:
            raise AnnIndexError("t and leaf_capacity must be >= 1")
        self.seed = int(seed)

    @functools.cached_property
    def trees(self):
        """One list of ``RpNode`` per tree, root first; deterministic per seed."""
        return [
            _build_tree(self.matrix, self.leaf_capacity, np.random.default_rng(stream))
            for stream in np.random.SeedSequence(self.seed).spawn(self.t)
        ]

    def query(self, q, n, search_k=None):
        return query_forest(self, q, n, search_k=search_k)


def cosine_distances(matrix, norms, Q):
    """Cosine distances of each query row to each item row, a (b, items) block.

    ``norms`` are the items' L2 norms; a zero item or query vector scores 1.
    Each entry is one einsum reduction over two contiguous rows, so a row
    scores the same bits alone, in a batch or against a subset of items; a
    BLAS ``Q @ M.T`` changes the last bits with the batch shape.
    """
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    dist = np.einsum("kj,ij->ki", Q, np.ascontiguousarray(matrix))
    denom = np.linalg.norm(Q, axis=1)[:, None] * norms
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(dist, denom, out=dist)
    np.clip(dist, -1.0, 1.0, out=dist)
    np.subtract(1.0, dist, out=dist)
    dist[denom == 0.0] = 1.0
    return dist


def _top_n(ids, dist, n):
    """Per row of ``dist``, the n nearest (id, distance) pairs.

    ``ids`` name the columns in ascending order, so the stable sort breaks
    ties by id.
    """
    order = np.argsort(dist, axis=1, kind="stable")[:, :n]
    scores = np.take_along_axis(dist, order, axis=1).tolist()
    return [[(ids[i], score) for i, score in zip(row, row_scores)]
            for row, row_scores in zip(order.tolist(), scores)]


def build_forest(items, t=16, leaf_capacity=16, seed=0):
    """A forest of ``t`` random-projection trees over keyed vectors (``KeyedVectors.of``).

    Checks the vectors and parameters; the forest shares their matrix, and
    the trees themselves are built on the first query that traverses them
    (``RpForest.trees``).
    """
    items = KeyedVectors.of(items)
    if not items:
        raise AnnIndexError("cannot build a forest over zero items")
    if not np.isfinite(items.norms).all():
        raise AnnIndexError("item vectors contain non-finite components or norms")
    return RpForest(items.ids, items.matrix, t, leaf_capacity, seed)


def _build_tree(matrix, leaf_capacity, rng):
    """One tree over the rows of ``matrix``, as its node list with the root at 0.

    Splits sample two distinct points p, q of the node's subset and use the
    hyperplane equidistant from them (normal p - q, offset at the midpoint).
    Degenerate samples are retried up to 8 times, then a random unit normal
    is used; if even that fails to separate the points they are split by
    index parity so the recursion always terminates.
    """
    dim = matrix.shape[1]
    # (node slot, item indices) work stack; children appended on demand
    nodes = [RpNode()]
    stack = [(0, np.arange(len(matrix)))]
    while stack:
        slot, indices = stack.pop()
        if len(indices) <= leaf_capacity:
            nodes[slot] = RpNode(items=[int(i) for i in indices])
            continue
        normal, offset = _choose_split(matrix, indices, rng, dim)
        margins = matrix[indices] @ normal - offset
        right_mask = margins > 0
        if not right_mask.any() or right_mask.all():
            # identical points: parity split keeps both sides nonempty
            right_mask = (np.arange(len(indices)) % 2).astype(bool)
        left_slot, right_slot = len(nodes), len(nodes) + 1
        nodes.extend((RpNode(), RpNode()))
        nodes[slot] = RpNode(
            normal=normal, offset=float(offset), left=left_slot, right=right_slot
        )
        stack.append((left_slot, indices[~right_mask]))
        stack.append((right_slot, indices[right_mask]))
    return nodes


def _choose_split(matrix, indices, rng, dim):
    for _ in range(8):
        pick = rng.choice(len(indices), size=2, replace=False)
        p, q = matrix[indices[pick[0]]], matrix[indices[pick[1]]]
        normal = p - q
        if float(np.linalg.norm(normal)) > 1e-12:
            return normal, float(normal @ (p + q) / 2.0)
    normal = rng.normal(size=dim)
    normal /= max(float(np.linalg.norm(normal)), 1e-12)
    centroid = matrix[indices].mean(axis=0)
    return normal, float(normal @ centroid)


def query_forest(forest: RpForest, q, n, search_k=None):
    """Approximate top-n by cosine distance, ascending, ties by id.

    ``q`` is one query (returns one list of (id, distance)) or a (b, dim)
    block (returns b lists). Each query traverses all trees with one
    best-first priority queue keyed by the margin to the splitting
    hyperplanes; traversal stops once every tree contributed at least
    ceil(search_k / t) candidates and at least search_k distinct candidates
    were collected (or everything was visited), and the candidates are
    re-ranked by exact cosine distance. When ``n`` or ``search_k`` reaches
    the forest size that search collects every item, so the whole block is
    ranked exactly in one kernel call without touching the trees.
    """
    q = np.asarray(q, dtype=np.float64)
    if len(forest) == 0:
        raise AnnIndexError("cannot query an empty forest")
    if q.ndim not in (1, 2) or q.shape[-1] != forest.dim:
        raise AnnIndexError(f"query dim {q.shape} does not match forest dim {forest.dim}")
    if n < 1:
        raise AnnIndexError("n must be >= 1")
    queries = q.reshape(-1, forest.dim)
    if search_k is None:
        search_k = default_search_k(n, forest.t)
    if max(n, search_k) >= len(forest):
        hits = _top_n(forest.ids, cosine_distances(forest.matrix, forest.norms, queries), n)
    else:
        hits = []
        for row in queries:
            columns = _traverse(forest, row, search_k)
            dist = cosine_distances(forest.matrix[columns], forest.norms[columns], row[None])
            hits.extend(_top_n([forest.ids[i] for i in columns], dist, n))
    return hits if q.ndim == 2 else hits[0]


def _traverse(forest: RpForest, q, search_k):
    """Ascending indices of the items a best-first search of all trees collects."""
    per_tree_target = math.ceil(search_k / forest.t)
    heap = []
    counter = 0
    for tree_idx in range(forest.t):
        heapq.heappush(heap, (-math.inf, counter, tree_idx, 0))
        counter += 1
    candidates = set()
    per_tree = [0] * forest.t
    while heap:
        if (
            min(per_tree) >= per_tree_target
            and len(candidates) >= min(search_k, len(forest))
        ):
            break
        neg_priority, _, tree_idx, node_idx = heapq.heappop(heap)
        priority = -neg_priority
        node = forest.trees[tree_idx][node_idx]
        if node.is_leaf:
            per_tree[tree_idx] += len(node.items)
            candidates.update(node.items)
            continue
        margin = float(node.normal @ q) - node.offset
        near, far = (node.right, node.left) if margin > 0 else (node.left, node.right)
        heapq.heappush(heap, (-priority, counter, tree_idx, near))
        counter += 1
        heapq.heappush(heap, (-min(priority, abs(margin)), counter, tree_idx, far))
        counter += 1
    return sorted(candidates)


def default_search_k(n, t):
    return 4 * n * t


def brute_force_knn(items, q, n):
    """Exact top-n by cosine distance with the same kernel and ordering as the forest.

    ``items`` are keyed vectors (``KeyedVectors.of``); ``q`` is one query.
    """
    if n <= 0:
        return []
    items = KeyedVectors.of(items)
    q = np.asarray(q, dtype=np.float64)
    return _top_n(items.ids, cosine_distances(items.matrix, items.norms, q[None]), n)[0]


# ---------------------------------------------------------------------------
# Serialization: a header, then the keyed-matrix body of ``*.vec`` files
# (layout documented in docs/FORMATS.md)
# ---------------------------------------------------------------------------

IDX_MAGIC = b"RPFI"
IDX_VERSION = 2
IDX_HEADER = "<IIIIqQ"  # version, dim, t, leaf capacity, seed, count


def save_forest(forest: RpForest, path):
    with formats.write_binary(path, IDX_MAGIC, IDX_HEADER, IDX_VERSION, forest.dim, forest.t,
                              forest.leaf_capacity, forest.seed, len(forest)) as f:
        formats.write_keyed_matrix(f, forest.ids, forest.matrix)


def load_forest(path):
    """Load a saved forest; truncated or mismatched files raise, whole."""
    return formats.read_binary(path, IDX_MAGIC, IDX_HEADER, IDX_VERSION, AnnIndexError,
                               "`tablelink build-index`", _parse_forest)


def _parse_forest(data, offset, dim, t, leaf_capacity, seed, count):
    return RpForest(*formats.read_keyed_matrix(data, offset, dim, count), t, leaf_capacity, seed)
