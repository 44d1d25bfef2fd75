"""Train the two networks into one joint space on a toy matching problem.

The tuple side has columns that no training row sets, as hashed features
often do. The pair is built on the live columns only, trained in float32,
saved to a checkpoint and loaded back.

Run from the repository root:  python demos/03_train_joint_space.py
"""

import tempfile
from pathlib import Path

import numpy as np

from tablelink.annindex import cosine_distances
from tablelink.neural import (
    AdamState,
    EmbedderPair,
    SamplerState,
    gradient_check,
    live_columns,
    load_checkpoint,
    sample_batch,
    save_checkpoint,
    train_pair,
)

rng = np.random.default_rng(0)

# Ten entities; the tuple side sees a 24-dim signature plus 6 columns that
# no entity sets, the mention side a noisy 32-dim view that shares the
# signature's 24 coordinates.
entities = [f"e{i}" for i in range(10)]
signatures = {e: rng.normal(size=24) for e in entities}
vectors_r = {e: np.concatenate([signatures[e], np.zeros(6)]) for e in entities}
vectors_t, links = {}, {}
for e in entities:
    links[e] = []
    for j in range(6):
        mid = f"{e}.m{j}"
        view = np.concatenate([signatures[e] + 0.1 * rng.normal(size=24),
                               rng.normal(size=8)])
        vectors_t[mid] = view
        links[e].append((e, mid))

live_r = live_columns(vectors_r, entities)
live_t = live_columns(vectors_t, list(vectors_t))
print(f"first layers read {len(live_r)} of 30 tuple and {len(live_t)} of 32 mention columns")
pair = EmbedderPair.build(input_dim_r=30, input_dim_t=32, hidden_r=(32,),
                          joint_dim=16, margin=1.0, keep_prob=0.75, seed=1,
                          live_r=live_r, live_t=live_t)
adam = AdamState(lr=1e-3)
sampler = SamplerState(links, batch_size=16, seed=2)

# Check the analytic gradients against central finite differences before
# trusting the training loop (dropout off for the check, which runs in f64).
check_pair = EmbedderPair.build(input_dim_r=30, input_dim_t=32, hidden_r=(4,),
                                joint_dim=3, margin=0.5, keep_prob=1.0, seed=3)
batch = sample_batch(SamplerState(links, batch_size=3, seed=4), vectors_r, vectors_t)
print("max relative gradient error:", gradient_check(check_pair, batch, epsilon=1e-5))

history = train_pair(pair, adam, sampler, vectors_r, vectors_t, batches=400)
print("loss: first=%.3f mid=%.3f last=%.3f" % (history[0][2], history[200][2], history[-1][2]))

# After training, a tuple scores its own mentions well below the others.
e = "e3"
anchor = pair.net_r.embed(vectors_r[e][None])
joint = pair.net_t.embed(np.stack(list(vectors_t.values())))
dist = cosine_distances(joint, np.linalg.norm(joint, axis=1), anchor)[0]
own = np.array([mid.startswith(e + ".") for mid in vectors_t])
print(f"mean cosine distance to own mentions: {dist[own].mean():.3f}, "
      f"to others: {dist[~own].mean():.3f}")

# The checkpoint stores the live column indices and the float32 weights; the
# pair loaded back embeds raw vectors to the same float32 bits.
with tempfile.TemporaryDirectory() as directory:
    path = Path(directory) / "model.ckpt"
    save_checkpoint(path, pair, step=adam.step)
    loaded, header = load_checkpoint(path)
    print(f"checkpoint: {path.stat().st_size} bytes, {pair.flat.size} float32 parameters, "
          f"live_r {header['live_r'][:3]}...{header['live_r'][-1]}")
assert np.array_equal(loaded.net_r.embed(vectors_r[e][None]), anchor)
