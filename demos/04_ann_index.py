"""Random-projection-forest retrieval: recall/latency trade-off and files.

Run from the repository root:  python demos/04_ann_index.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from tablelink.annindex import brute_force_knn, build_forest, load_forest, query_forest, save_forest

rng = np.random.default_rng(0)
x = rng.normal(size=(2000, 64))
x /= np.linalg.norm(x, axis=1, keepdims=True)
items = {f"v{i:05d}": x[i] for i in range(len(x))}

queries = rng.normal(size=(50, 64))
queries /= np.linalg.norm(queries, axis=1, keepdims=True)
exact = [set(k for k, _ in brute_force_knn(items, q, 10)) for q in queries]

# More trees widen the candidate union and lift recall; the search budget
# (search_k, default 4*n*t) bounds how many candidates each query collects.
for t in (2, 8, 32):
    forest = build_forest(items, t=t, leaf_capacity=16, seed=1)
    forest.trees  # built on first use; build them here so ms/query excludes it
    started = time.perf_counter()
    recalls = []
    for q, ex in zip(queries, exact):
        got = set(k for k, _ in query_forest(forest, q, 10))
        recalls.append(len(got & ex) / len(ex))
    ms = 1000 * (time.perf_counter() - started) / len(queries)
    print(f"t={t:3d}  recall@10={np.mean(recalls):.3f}  {ms:.2f} ms/query")

# A forest file holds the ids, vectors and build parameters, not the trees:
# the loaded forest rebuilds the same trees on its first query, so a round
# trip answers every query identically.
forest = build_forest(items, t=8, leaf_capacity=16, seed=1)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "vectors.idx"
    save_forest(forest, path)
    print(f"\nindex file size: {path.stat().st_size / 1e6:.1f} MB")
    loaded = load_forest(path)
    q = queries[0]
    assert query_forest(loaded, q, 5) == query_forest(forest, q, 5)
    print("round-trip query equivalence: ok")
    for key, dist in query_forest(loaded, q, 5):
        print(f"  {key}  {dist:.4f}")
