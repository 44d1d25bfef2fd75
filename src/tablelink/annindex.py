"""Random-projection-forest approximate nearest-neighbor index.

Each tree splits the vector space recursively by hyperplanes equidistant
from two sampled points and is held as flat tables (``_build_tree``); queries
traverse all trees best-first by margin to the splitting planes, merge the
collected leaf candidates, and re-rank them by exact cosine distance. A
query whose budget covers the whole forest skips the trees and ranks every
item. A forest is a pure function of its vectors and build parameters, so it
serializes to a versioned binary file of exactly those, and its trees are
built from them on the first query that traverses them.
"""

import functools
import heapq
import math

import numpy as np

from . import formats
from .config import check
from .vectorize import KeyedVectors, to_float32


class AnnIndexError(ValueError):
    """Raised for malformed queries and index files."""


class RpForest(KeyedVectors):
    """An immutable keyed vector set with a forest over it.

    Its ``t`` trees are built from ``matrix``, ``leaf_capacity`` and ``seed``
    on first access to ``trees``; a query whose budget covers the forest
    never builds them.
    """

    def __init__(self, ids, matrix, t, leaf_capacity, seed):
        super().__init__(ids, matrix)
        self.t = check("index.t", int(t), AnnIndexError)
        self.leaf_capacity = check("index.leaf_capacity", int(leaf_capacity), AnnIndexError)
        self.seed = check("index.seed", int(seed), AnnIndexError)

    @functools.cached_property
    def trees(self):
        """Each tree's ``(normals, offsets, children, leaves)`` tables; deterministic per seed."""
        return [
            _build_tree(self.matrix, self.leaf_capacity, np.random.default_rng(stream))
            for stream in np.random.SeedSequence(self.seed).spawn(self.t)
        ]

    def query(self, q, n, search_k=None):
        return query_forest(self, q, n, search_k=search_k)


def cosine_distances(matrix, norms, Q):
    """Cosine distances of each query row to each item row, a (b, items) block.

    ``norms`` are the items' f64 L2 norms; a zero item or query vector scores
    1. The float32 rows and queries are widened to f64, so each dot product
    and norm of float32 values is summed in f64 and a vector's distance to
    itself is 0 within 1e-12. Each entry is one einsum reduction over two
    contiguous rows, so a row scores the same bits alone, in a batch or
    against a subset of items; a BLAS ``Q @ M.T`` changes the last bits with
    the batch shape.
    """
    Q = np.ascontiguousarray(Q, dtype=np.float64)
    dist = np.einsum("kj,ij->ki", Q, np.ascontiguousarray(matrix, dtype=np.float64))
    denom = np.linalg.norm(Q, axis=1)[:, None] * norms
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(dist, denom, out=dist)
    np.clip(dist, -1.0, 1.0, out=dist)
    np.subtract(1.0, dist, out=dist)
    dist[denom == 0.0] = 1.0
    return dist


def _top_n(ids, dist, n):
    """Per row of ``dist``, the n nearest (id, distance) pairs: a stable sort of the row, cut at n.

    ``ids`` name the columns in ascending order, so ties break by id. Only
    the columns not beyond a row's n-th smallest distance, ties included,
    are sorted.
    """
    k = min(n, dist.shape[1])
    nth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero(~(dist > nth))  # a NaN is kept where a sort puts it: last
    scores = dist[rows, cols]
    order = np.lexsort((scores, rows))  # by row, then distance; ties keep ascending columns
    cols, scores = cols[order].tolist(), scores[order].tolist()
    hits, start = [], 0
    for end in np.cumsum(np.bincount(rows, minlength=len(dist))).tolist():
        stop = min(end, start + n)
        hits.append([(ids[i], score) for i, score in zip(cols[start:stop], scores[start:stop])])
        start = end
    return hits


def build_forest(items, t=16, leaf_capacity=16, seed=0):
    """A forest of ``t`` random-projection trees over keyed vectors (``KeyedVectors.of``).

    ``KeyedVectors`` checks the vectors and ``RpForest`` the parameters; the
    forest shares their matrix, and the trees themselves are built on the
    first query that traverses them (``RpForest.trees``).
    """
    items = KeyedVectors.of(items)
    if not items:
        raise AnnIndexError("cannot build a forest over zero items")
    return RpForest(items.ids, items.matrix, t, leaf_capacity, seed)


def _build_tree(matrix, leaf_capacity, rng):
    """One tree over the rows of ``matrix`` as tables ``(normals, offsets, children, leaves)``.

    Split node i has the plane ``normals[i] @ x = offsets[i]`` (an f32 row and a
    float) and the children ``children[i] = (left, right)``, left at or below the
    plane: a child ``c >= 0`` is split node c, and ``c < 0`` the leaf ``leaves[~c]``,
    a list of item indices. The root is 0, or ``~0`` for a single leaf. Splits
    sample two distinct points p, q of the node's subset and use the hyperplane
    equidistant from them (normal p - q, offset at the midpoint). Degenerate
    samples are retried up to 8 times, then a random unit normal is used; if
    even that fails to separate the points they are split by index parity so
    the recursion always terminates.
    """
    dim = matrix.shape[1]
    normals, offsets, children, leaves = [], [], [], []
    # (the parent's child pair, left 0 or right 1, item indices) work stack
    stack = [([0], 0, np.arange(len(matrix)))]
    while stack:
        pair, side, indices = stack.pop()
        if len(indices) <= leaf_capacity:
            pair[side] = ~len(leaves)
            leaves.append(indices.tolist())
            continue
        normal, offset = _choose_split(matrix, indices, rng, dim)
        margins = _dots(matrix[indices], normal) - offset
        right_mask = margins > 0
        if not right_mask.any() or right_mask.all():
            # identical points: parity split keeps both sides nonempty
            right_mask = (np.arange(len(indices)) % 2).astype(bool)
        pair[side] = len(children)
        normals.append(normal)
        offsets.append(offset)
        children.append([None, None])
        stack.append((children[-1], 0, indices[~right_mask]))
        stack.append((children[-1], 1, indices[right_mask]))
    return (np.array(normals, dtype=np.float32).reshape(-1, dim), np.array(offsets),
            children, leaves)


def _choose_split(matrix, indices, rng, dim):
    for _ in range(8):
        pick = rng.choice(len(indices), size=2, replace=False)
        p, q = matrix[indices[pick[0]]], matrix[indices[pick[1]]]
        normal = p - q
        if float(np.linalg.norm(normal)) > 1e-12:
            return normal, float(_dots(normal, (p + q) / 2.0))
    normal = rng.normal(size=dim)
    normal = (normal / max(float(np.linalg.norm(normal)), 1e-12)).astype(np.float32)
    centroid = matrix[indices].mean(axis=0)
    return normal, float(_dots(normal, centroid))


def _dots(rows, v):
    """``rows @ v``, one einsum reduction per row, so no row's bits depend on the others.

    Offsets, build sides and query margins all come from it: a query equal to an
    item takes the item's side of each plane (BLAS moves a row's last bits with its
    position), and one at a plane's midpoint or centroid has margin 0 exactly.
    """
    return np.einsum("...j,j->...", rows, v)


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
    ranked exactly in one kernel call without touching the trees. ``q`` is
    rounded to float32 first, the precision of the forest's vectors. ``t`` is
    read only to default ``search_k``, so with ``search_k=len(forest)`` any
    ``KeyedVectors`` can stand for the forest (``brute_force_knn``).
    """
    q = to_float32(q)
    if len(forest) == 0:
        raise AnnIndexError("cannot query an empty forest")
    if q.ndim not in (1, 2) or q.shape[-1] != forest.dim:
        raise AnnIndexError(f"query dim {q.shape} does not match forest dim {forest.dim}")
    if not np.isfinite(q).all():
        raise AnnIndexError("query has a NaN or infinite component, or one past the float32 range")
    check("index.n", n, AnnIndexError)
    queries = q.reshape(-1, forest.dim)
    if search_k is None:
        search_k = default_search_k(n, forest.t)
    check("index.search_k", search_k, AnnIndexError)
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
    margins = [(_dots(normals, q) - offsets).tolist() for normals, offsets, _, _ in forest.trees]
    # (-priority, push order, tree, node): ties pop in push order
    heap = [(-math.inf, i, i, 0 if children else ~0)
            for i, (_, _, children, _) in enumerate(forest.trees)]
    counter = len(heap)
    candidates = set()
    per_tree = [0] * forest.t
    while heap:
        if min(per_tree) >= per_tree_target and len(candidates) >= min(search_k, len(forest)):
            break
        neg_priority, _, tree_idx, node = heapq.heappop(heap)
        _, _, children, leaves = forest.trees[tree_idx]
        if node < 0:
            per_tree[tree_idx] += len(leaves[~node])
            candidates.update(leaves[~node])
            continue
        margin = margins[tree_idx][node]
        left, right = children[node]
        near, far = (right, left) if margin > 0 else (left, right)
        heapq.heappush(heap, (neg_priority, counter, tree_idx, near))
        heapq.heappush(heap, (max(neg_priority, -abs(margin)), counter + 1, tree_idx, far))
        counter += 2
    return sorted(candidates)


def default_search_k(n, t):
    return 4 * n * t


def brute_force_knn(items, q, n):
    """Exact top-n by cosine distance: ``query_forest``'s exhaustive search, with its checks.

    ``items`` are keyed vectors (``KeyedVectors.of``); ``q`` is one query.
    """
    if n <= 0:
        return []
    items = KeyedVectors.of(items)
    return query_forest(items, q, n, search_k=len(items))


# ---------------------------------------------------------------------------
# Serialization: a header, then the keyed-matrix body of ``*.vec`` files
# (layout documented in docs/FORMATS.md)
# ---------------------------------------------------------------------------

IDX_MAGIC = b"RPFI"
IDX_VERSION = 3
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
