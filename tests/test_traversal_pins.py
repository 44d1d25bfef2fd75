"""Pinned traversal output: the hit ids of seeded forests searched below their item count.

Gate 4 and the round-trip tests compare a forest with itself, so they cannot
see a change to the trees or to the best-first traversal that moves which
items a narrow search collects. This test compares the hits of a few seeded
forests with ``tests/data/traversal_pins.json``: one over rounded 4-dim
points, many of them repeated or on one ray, queried by items themselves,
and one over 300 unit vectors in 16 dims. Only ids are pinned, not
distances, so another BLAS cannot flip it.

Record the pins again only with a change that means to move traversal::

    PYTHONPATH=src python tests/test_traversal_pins.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from tablelink.annindex import build_forest, query_forest

PINS = Path(__file__).resolve().parent / "data" / "traversal_pins.json"
CASES = {  # name: (items, dim, t, leaf_capacity, rounded)
    "rounded-300x4": (300, 4, 3, 4, True),
    "unit-300x16": (300, 16, 8, 8, False),
}
SEEDS = ("0", "1")
N = 5


def case_hits(name, seed):
    """{budget: the row index of each hit, per query} of one seeded case."""
    count, dim, t, leaf_capacity, rounded = CASES[name]
    rng = np.random.default_rng(int(seed))
    x = rng.normal(size=(count, dim))
    x = np.round(x) if rounded else x / np.linalg.norm(x, axis=1, keepdims=True)
    forest = build_forest({f"v{i:04d}": row for i, row in enumerate(x)}, t=t,
                          leaf_capacity=leaf_capacity, seed=int(seed))
    queries = np.vstack([x[:20], rng.normal(size=(20, dim))])  # items, then fresh points
    if rounded:
        queries = np.round(queries)
    hits = {}
    for search_k in (None, 4 * t):  # the default 4 * N * t and a narrower budget, both < count
        block = query_forest(forest, queries, N, search_k=search_k)
        hits[str(search_k)] = [[int(key[1:]) for key, _ in row] for row in block]
    return hits


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CASES)
def test_hit_ids_match_the_pins(name, seed):
    pinned = json.loads(PINS.read_text())[name][seed]
    assert case_hits(name, seed) == pinned


if __name__ == "__main__":
    PINS.write_text(json.dumps({name: {seed: case_hits(name, seed) for seed in SEEDS}
                                for name in CASES}, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
