"""Trainable joint embedding space over tuple and mention vectors.

Two feed-forward networks project the two raw vector spaces into one joint
space where cosine distance encodes match likelihood. Training minimizes a
pairwise contrastive hinge loss: for every anchor, each in-batch negative
must score at least a margin beyond the anchor's average positive score.
All forward/backward math is explicit numpy so gradients can be verified
against finite differences.
"""

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from . import formats
from .config import check


class TrainingError(RuntimeError):
    """Raised when training diverges (non-finite loss or gradients)."""

    def __init__(self, message, batch=None):
        super().__init__(message)
        self.batch = batch


def elu(z):
    return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))


def elu_grad(z):
    return np.where(z > 0, 1.0, np.exp(np.minimum(z, 0.0)))


# Rows of a layer drawn at once by ``DenseNet.init``: 64 rows of a
# 2,000-column layer are 1 MiB of f64.
INIT_BLOCK_ROWS = 64


class DenseNet:
    """Affine layers with elu on hidden layers and an identity output.

    Dropout (inverted, keep probability ``keep_prob``) applies to hidden
    activations only and only when ``training`` is set, so inference is
    deterministic. ``backward`` writes into ``grad_weights`` and
    ``grad_biases``, views of its ``EmbedderPair``'s gradient buffer.
    Every array, inputs and activations included, takes the dtype of the
    weights given.

    The first layer reads only the columns ``live`` (strictly ascending,
    below ``raw_dim``) of a raw vector ``raw_dim`` wide; None means every
    column of a raw vector as wide as the first layer. ``embed`` takes raw
    rows, ``forward`` rows already cut to the live columns.
    """

    def __init__(self, weights, biases, keep_prob=0.75, live=None, raw_dim=None):
        if len(weights) != len(biases):
            raise ValueError("weights/biases length mismatch")
        for i in range(len(weights) - 1):
            if weights[i + 1].shape[1] != weights[i].shape[0]:
                raise ValueError("layer dims do not chain")
        self.weights = [np.asarray(w) for w in weights]
        self.biases = [np.asarray(b) for b in biases]
        self.keep_prob = float(keep_prob)
        self.live, self.raw_dim = _live_table(live, raw_dim, self.input_dim)

    @classmethod
    def init(cls, dims, rng, keep_prob=0.75, live=None):
        """Glorot-initialized float32 net for layer sizes ``dims = [in, ..., out]``.

        Each value is the float32 rounding of an f64 normal draw. With
        ``live``, the first layer keeps only those input columns, each with
        the value a full draw gives it. Each layer is drawn in blocks of
        ``INIT_BLOCK_ROWS`` rows, which give the values of one draw, so no f64
        matrix of a full layer is ever held.
        """
        weights, biases = [], []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            cols = np.arange(fan_in) if i or live is None else live
            w = np.empty((fan_out, len(cols)), dtype=np.float32)
            for start in range(0, fan_out, INIT_BLOCK_ROWS):
                rows = min(INIT_BLOCK_ROWS, fan_out - start)
                w[start : start + rows] = rng.normal(0.0, scale, size=(rows, fan_in))[:, cols]
            weights.append(w)
            biases.append(np.zeros(fan_out, dtype=np.float32))
        return cls(weights, biases, keep_prob=keep_prob, live=live, raw_dim=dims[0])

    def widened(self):
        """An f64 copy of the net, for ``gradient_check``."""
        return DenseNet([w.astype(np.float64) for w in self.weights],
                        [b.astype(np.float64) for b in self.biases], keep_prob=self.keep_prob,
                        live=self.live, raw_dim=self.raw_dim)

    @property
    def input_dim(self):
        return self.weights[0].shape[1]

    @property
    def output_dim(self):
        return self.weights[-1].shape[0]

    def embed(self, raw):
        """The net as trained, in its dtype, run on the ``live`` columns of raw rows."""
        raw = np.atleast_2d(np.asarray(raw))
        if raw.shape[1] != self.raw_dim:
            raise ValueError(f"input dim {raw.shape[1]} != raw input dim {self.raw_dim}")
        return self.forward(raw[:, self.live])[0]

    def forward(self, x, training=False, rng=None):
        """Batched forward pass; returns (output, cache for backward)."""
        a = np.atleast_2d(np.asarray(x, dtype=self.weights[0].dtype))
        if a.shape[1] != self.input_dim:
            raise ValueError(f"input dim {a.shape[1]} != net input dim {self.input_dim}")
        cache = []
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
            if i < last:
                h = elu(z)
                mask = None
                if training and self.keep_prob < 1.0:
                    if rng is None:
                        raise ValueError("training-mode forward needs an rng for dropout")
                    mask = (rng.random(h.shape) < self.keep_prob) / h.dtype.type(self.keep_prob)
                    h = h * mask
                cache.append((a, z, mask))
                a = h
            else:
                cache.append((a, z, None))
                a = z
        return a, cache

    def backward(self, d_out, cache):
        """Write the parameter gradients given d loss/d output.

        The input gradient is never formed: nothing upstream of the first
        layer reads it.
        """
        d_a = np.atleast_2d(d_out)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            a_in, z, mask = cache[i]
            if i < last:
                if mask is not None:
                    d_a *= mask
                d_z = d_a * elu_grad(z)
            else:
                d_z = d_a
            np.matmul(d_z.T, a_in, out=self.grad_weights[i])
            np.sum(d_z, axis=0, out=self.grad_biases[i])
            if i > 0:
                d_a = d_z @ self.weights[i]


def _layer_views(buffer, offset, shapes):
    """Weight and bias views of ``buffer`` from ``offset`` for layer shapes (out, in).

    Returns (weights, biases, offset past the last bias).
    """
    weights, biases = [], []
    for out_dim, in_dim in shapes:
        end = offset + out_dim * in_dim
        weights.append(buffer[offset:end].reshape(out_dim, in_dim))
        biases.append(buffer[end : end + out_dim])
        offset = end + out_dim
    return weights, biases, offset


@dataclass
class EmbedderPair:
    """The two networks of the joint space plus the training margin.

    ``net_r`` embeds raw tuple vectors and ``net_t`` raw mention vectors.
    ``linker.train_category`` builds each net's first layer on the columns
    its training rows set (``DenseNet.live``), so a column no training row
    sets has no weights at all.

    Every parameter is a view into one contiguous buffer ``flat`` and every
    gradient a view into ``grad``, both in ``parameters()`` order and of the
    nets' dtype. A ``flat`` passed in supplies the parameter values in that
    order; otherwise the nets' arrays are copied into a new buffer.
    """

    net_r: DenseNet
    net_t: DenseNet
    joint_dim: int
    margin: float = 0.001
    seed: int = 0
    train_rng: np.random.Generator = None
    flat: np.ndarray = field(default=None, repr=False, compare=False)
    grad: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.net_r.output_dim != self.joint_dim or self.net_t.output_dim != self.joint_dim:
            raise ValueError("both networks must output joint_dim")
        check("training.margin", self.margin, ValueError)
        if self.train_rng is None:
            self.train_rng = np.random.default_rng(self.seed)
        params = self.parameters()
        if self.flat is None:
            self.flat = np.concatenate([p.ravel() for p in params])
        elif self.flat.shape != (sum(p.size for p in params),):
            raise ValueError("flat does not hold exactly the parameters of both nets")
        self.grad = np.zeros(self.flat.size, dtype=self.flat.dtype)
        offset = 0
        for net in (self.net_r, self.net_t):
            shapes = [w.shape for w in net.weights]
            net.weights, net.biases, _ = _layer_views(self.flat, offset, shapes)
            net.grad_weights, net.grad_biases, offset = _layer_views(self.grad, offset, shapes)

    @classmethod
    def build(cls, input_dim_r, input_dim_t, hidden_r=(512,), hidden_t=(),
              joint_dim=256, margin=0.001, keep_prob=0.75, seed=0, live_r=None, live_t=None):
        """A Glorot-initialized float32 pair whose first layers read ``live_r`` and ``live_t``.

        The draws are those of the full nets (``DenseNet.init``), so a live
        column gets the value it has in a pair built on every column.
        """
        rng = np.random.default_rng(seed)
        net_r = DenseNet.init([input_dim_r, *hidden_r, joint_dim], rng, keep_prob, live_r)
        net_t = DenseNet.init([input_dim_t, *hidden_t, joint_dim], rng, keep_prob, live_t)
        return cls(net_r=net_r, net_t=net_t, joint_dim=joint_dim, margin=margin, seed=seed)

    def parameters(self):
        """All parameter arrays in declaration order (net_r, then net_t)."""
        out = []
        for net in (self.net_r, self.net_t):
            for w, b in zip(net.weights, net.biases):
                out.extend((w, b))
        return out


def _live_table(live, raw_dim, width):
    """(``live`` checked, as int64, and ``raw_dim``) for a first layer ``width`` inputs wide.

    A live table lists one strictly ascending column below ``raw_dim`` per
    input of the layer; None means every column of a raw vector ``width``
    wide. Any other table raises ``ValueError``.
    """
    raw_dim = width if raw_dim is None else raw_dim
    live = np.arange(raw_dim) if live is None else np.asarray(live)
    if live.size == 0:
        live = live.astype(np.int64)  # an empty JSON list reads as float
    if live.dtype.kind not in "iu":
        raise ValueError(f"live table holds {live.dtype} values, not column indices")
    if live.shape != (width,):
        raise ValueError(f"live table lists {live.size} columns; the first layer reads {width}")
    if np.any(live[1:] <= live[:-1]):
        raise ValueError("live table does not strictly ascend")
    if live.size and (live[0] < 0 or live[-1] >= raw_dim):
        raise ValueError(f"live table leaves the input range [0, {raw_dim})")
    return live.astype(np.int64), raw_dim


def live_columns(vectors, keys):
    """Ascending indices of the columns that are nonzero in at least one of the rows ``keys``."""
    live = False
    for key in keys:
        live |= vectors[key] != 0
    return np.flatnonzero(live)


# ---------------------------------------------------------------------------
# Scoring and loss
# ---------------------------------------------------------------------------

@dataclass
class LossStats:
    active_terms: int = 0
    skipped_tuple_anchors: int = 0
    skipped_mention_anchors: int = 0
    zero_vectors: int = 0
    min_hinge_gap: float = float("inf")


def score_matrix(e_r, e_t):
    """Pairwise cosine distances; zero-norm rows/columns score 1 everywhere."""
    norms_r = np.linalg.norm(e_r, axis=1)
    norms_t = np.linalg.norm(e_t, axis=1)
    u = e_r / np.where(norms_r > 0, norms_r, 1.0)[:, None]
    v = e_t / np.where(norms_t > 0, norms_t, 1.0)[:, None]
    return 1.0 - u @ v.T, u, v, norms_r, norms_t


def loss_from_embeddings(e_r, e_t, pos_pairs, margin):
    """Pairwise contrastive hinge loss and its embedding gradients.

    For a tuple anchor r with in-batch positives P and negatives N (the
    non-matching in-batch mentions), each negative contributes
    ``max(0, margin + avg_{p in P} S[r,p] - S[r,n])``; mention anchors
    contribute symmetrically. Anchors without in-batch positives are
    skipped and counted. Returns (loss, dL/dE_R, dL/dE_T, stats).
    """
    e_r = np.atleast_2d(np.asarray(e_r))
    e_t = np.atleast_2d(np.asarray(e_t))
    a, b = e_r.shape[0], e_t.shape[0]
    if not (np.all(np.isfinite(e_r)) and np.all(np.isfinite(e_t))):
        # surface as a non-finite loss so the optimizer aborts with a dump
        nan = float("nan")
        return nan, np.zeros_like(e_r), np.zeros_like(e_t), LossStats()
    pos = np.zeros((a, b), dtype=bool)
    for i, j in pos_pairs:
        pos[i, j] = True

    s, u, v, norms_r, norms_t = score_matrix(e_r, e_t)
    stats = LossStats(zero_vectors=int((norms_r == 0).sum() + (norms_t == 0).sum()))

    d_s = np.zeros_like(s)
    loss = 0.0

    # tuple anchors are rows (axis 1), mention anchors columns (axis 0)
    for axis, skipped in ((1, "skipped_tuple_anchors"), (0, "skipped_mention_anchors")):
        npos = pos.sum(axis=axis, dtype=s.dtype)
        has_pos = npos > 0
        setattr(stats, skipped, int((~has_pos).sum()))
        if not has_pos.any():
            continue
        avg = np.where(has_pos, (s * pos).sum(axis=axis) / np.maximum(npos, 1), 0.0)
        hinge = margin + np.expand_dims(avg, axis) - s
        relevant = ~pos & np.expand_dims(has_pos, axis)
        active = relevant & (hinge > 0)
        if relevant.any():
            stats.min_hinge_gap = min(stats.min_hinge_gap, float(np.min(np.abs(hinge[relevant]))))
        loss += float(hinge[active].sum())
        stats.active_terms += int(active.sum())
        d_s -= active
        share = np.where(has_pos, active.sum(axis=axis, dtype=s.dtype) / np.maximum(npos, 1), 0.0)
        d_s += pos * np.expand_dims(share, axis)

    # back through S = 1 - U V^T and the row normalizations
    d_c = -d_s
    d_u = d_c @ v
    d_v = d_c.T @ u
    d_er = (d_u - (d_u * u).sum(axis=1, keepdims=True) * u) / np.where(
        norms_r > 0, norms_r, 1.0
    )[:, None]
    d_et = (d_v - (d_v * v).sum(axis=1, keepdims=True) * v) / np.where(
        norms_t > 0, norms_t, 1.0
    )[:, None]
    d_er[norms_r == 0] = 0.0
    d_et[norms_t == 0] = 0.0
    return loss, d_er, d_et, stats


@dataclass
class TrainingBatch:
    """A batch of raw vectors with the gold pairs marked among them."""

    x_tuples: np.ndarray  # (n_r, d_r)
    x_mentions: np.ndarray  # (n_t, d_t)
    pos_pairs: list  # of (tuple row, mention row) index pairs
    tuple_keys: list = field(default_factory=list)
    mention_ids: list = field(default_factory=list)


def pairwise_contrastive_loss(pair: EmbedderPair, batch: TrainingBatch, training=False):
    """Loss over a batch at ``pair.margin`` plus exact parameter gradients.

    Returns (loss, ``pair.grad``, stats): the gradient is flat, in
    ``pair.flat`` order, and the next call overwrites it.
    """
    rng = pair.train_rng if training else None
    e_r, cache_r = pair.net_r.forward(batch.x_tuples, training=training, rng=rng)
    e_t, cache_t = pair.net_t.forward(batch.x_mentions, training=training, rng=rng)
    loss, d_er, d_et, stats = loss_from_embeddings(e_r, e_t, batch.pos_pairs, pair.margin)
    pair.net_r.backward(d_er, cache_r)
    pair.net_t.backward(d_et, cache_t)
    return loss, pair.grad, stats


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

# Elements per pass of the Adam update. Its five slices (parameters,
# gradient, two moments, scratch) take 5 * 32768 * itemsize bytes, 640 KiB
# in f32 and 1.25 MiB in f64, so they stay in a 2 MiB per-core L2 cache.
ADAM_BLOCK = 32768


@dataclass
class AdamState:
    """Adam moments over a pair's flat buffer plus the stepped learning-rate schedule.

    The moments take the size and dtype of the first buffer stepped. The
    effective rate decays exponentially: ``lr * decay^(step // every)``.
    """

    lr: float = 1e-5
    decay: float = 0.9
    decay_every: int = 1000
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = None
    v: np.ndarray = None
    scratch: np.ndarray = field(default=None, init=False, repr=False)

    def effective_lr(self, step=None):
        step = self.step if step is None else step
        return self.lr * self.decay ** (step // self.decay_every)

    def _ensure(self, flat):
        if self.m is None:
            self.m = np.zeros(flat.size, dtype=flat.dtype)
            self.v = np.zeros(flat.size, dtype=flat.dtype)
            self.scratch = np.empty(min(flat.size, ADAM_BLOCK), dtype=flat.dtype)
        elif self.m.size != flat.size or self.m.dtype != flat.dtype:
            raise ValueError(f"Adam moments hold {self.m.size} {self.m.dtype} parameters, "
                             f"the pair {flat.size} {flat.dtype}")


def gradient_step(pair: EmbedderPair, adam: AdamState, batch: TrainingBatch):
    """One Adam update on the batch; returns (loss, stats).

    Aborts with a diagnostic dump of the offending batch if the loss or any
    gradient is non-finite.
    """
    loss, _, stats = pairwise_contrastive_loss(pair, batch, training=True)
    if not np.isfinite(loss) or not np.isfinite(pair.grad).all():
        dump = {
            "step": adam.step,
            "tuple_keys": list(batch.tuple_keys),
            "mention_ids": list(batch.mention_ids),
            "pos_pairs": list(map(list, batch.pos_pairs)),
            "loss": repr(loss),
        }
        raise TrainingError(f"non-finite loss or gradient at step {adam.step}: {dump}", batch=dump)
    adam._ensure(pair.flat)
    t = adam.step + 1
    b1, b2 = adam.beta1, adam.beta2
    # Both bias corrections fold into the step size and epsilon (Kingma & Ba,
    # arXiv 1412.6980, sec. 2): lr * m_hat / (sqrt(v_hat) + eps) equals
    # step_size * m / (sqrt(v) + eps_hat).
    root = math.sqrt(1 - b2**t)
    step_size = adam.effective_lr() * root / (1 - b1**t)
    eps_hat = adam.eps * root
    for start in range(0, pair.flat.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        p, g, m, v = pair.flat[block], pair.grad[block], adam.m[block], adam.v[block]
        s = adam.scratch[: p.size]
        m *= b1
        np.multiply(g, 1 - b1, out=s)
        m += s
        v *= b2
        np.multiply(g, g, out=s)
        s *= 1 - b2
        v += s
        np.sqrt(v, out=s)
        s += eps_hat
        np.divide(m, s, out=s)
        s *= step_size
        p -= s
    adam.step += 1
    return loss, stats


def gradient_check(pair: EmbedderPair, batch: TrainingBatch, epsilon=1e-5):
    """Max relative error between analytic and central-difference gradients.

    Dropout must be off (inference-mode forward is used). If some hinge sits
    within ~10*epsilon of its boundary the copy's margin is nudged and the
    check retried, since the subgradient is not comparable to finite
    differences there. The relative error uses an absolute floor of 1e-6 so
    that pairs of essentially-zero gradients compare by absolute difference.
    The check runs on an f64 copy of ``pair``, since differences of a
    float32 loss at ``epsilon`` would be rounding noise.
    """
    pair = replace(pair, net_r=pair.net_r.widened(), net_t=pair.net_t.widened(), flat=None)
    for attempt in range(8):
        _, _, stats = pairwise_contrastive_loss(pair, batch)
        if stats.min_hinge_gap > 10 * epsilon:
            break
        pair.margin += max(0.01, 100 * epsilon) * (attempt + 1)
    # the gradient buffer is overwritten by every loss below
    analytic = pairwise_contrastive_loss(pair, batch)[1].copy()
    max_rel = 0.0
    for i, g in enumerate(analytic):
        saved = pair.flat[i]
        pair.flat[i] = saved + epsilon
        plus = pairwise_contrastive_loss(pair, batch)[0]
        pair.flat[i] = saved - epsilon
        minus = pairwise_contrastive_loss(pair, batch)[0]
        pair.flat[i] = saved
        numeric = (plus - minus) / (2 * epsilon)
        max_rel = max(max_rel, abs(g - numeric) / max(1e-6, abs(g), abs(numeric)))
    return max_rel


# ---------------------------------------------------------------------------
# Batch sampling
# ---------------------------------------------------------------------------

class SamplerState:
    """Positive-pair sampler that compensates skewed entity frequencies.

    Entities are drawn with probability proportional to 1/(1 + seen count),
    so rarely sampled entities catch up; one of the entity's gold links is
    then drawn uniformly. Every batch therefore contains at least one
    positive pair by construction. ``drawable`` lists every link it can draw;
    ``gold`` maps each drawable tuple key to its set of drawable mention ids.
    """

    def __init__(self, links_by_entity, batch_size=32, seed=0):
        self.links_by_entity = {e: list(ls) for e, ls in links_by_entity.items() if ls}
        if not self.links_by_entity:
            raise ValueError("no gold links among trainable entities")
        self.entities = sorted(self.links_by_entity)
        self.batch_size = check("training.batch_size", int(batch_size), ValueError)
        self.rng = np.random.default_rng(seed)
        self.seen = {e: 0 for e in self.entities}
        self.drawable = [link for links in self.links_by_entity.values() for link in links]
        self.gold = {}
        for tk, mid in self.drawable:
            self.gold.setdefault(tk, set()).add(mid)

    def sample_pairs(self):
        """Draw one batch worth of (tuple_key, mention_id) positive pairs."""
        weights = np.array([1.0 / (1.0 + self.seen[e]) for e in self.entities])
        p = weights / weights.sum()
        idx = self.rng.choice(len(self.entities), size=self.batch_size, replace=True, p=p)
        pairs = []
        for i in idx:
            entity = self.entities[i]
            links = self.links_by_entity[entity]
            pairs.append(links[int(self.rng.integers(len(links)))])
        for i in idx:
            self.seen[self.entities[i]] += 1
        return pairs


def sample_batch(sampler: SamplerState, vectors_r, vectors_t):
    """Assemble a TrainingBatch from sampled pairs and raw vector stores.

    A batch pair is positive iff it is in ``sampler.gold``, so a gold pair
    that happens to fall inside the batch is never treated as a negative.
    """
    drawn = sampler.sample_pairs()
    tuple_keys = list(dict.fromkeys(tk for tk, _ in drawn))
    mention_ids = list(dict.fromkeys(mid for _, mid in drawn))
    m_index = {mid: j for j, mid in enumerate(mention_ids)}
    pos_pairs = [(i, j) for i, tk in enumerate(tuple_keys)
                 for j in sorted(m_index[mid] for mid in sampler.gold[tk] if mid in m_index)]
    return TrainingBatch(
        x_tuples=np.stack([vectors_r[k] for k in tuple_keys]),
        x_mentions=np.stack([vectors_t[k] for k in mention_ids]),
        pos_pairs=pos_pairs,
        tuple_keys=tuple_keys,
        mention_ids=mention_ids,
    )


def train_pair(pair: EmbedderPair, adam: AdamState, sampler: SamplerState,
               vectors_r, vectors_t, batches):
    """Run a fixed budget of sampled batches; returns the history, one (step, lr, loss) per batch.

    Each row the sampler can draw is cut once to the pair's live columns, in
    the pair's dtype, and the steps run on those. A first-layer column that
    is zero in every drawable row has a zero gradient at every step, and
    Adam from zero moments never moves it, so a pair built on the columns
    those rows set (``live_columns``) trains each of its values exactly as a
    pair on every column would. A built pair is float32, so a step moves
    half the bytes of f64. ``adam`` holds the moments of the pair's
    parameters.
    """
    dtype = pair.flat.dtype
    rows_r = {tk: vectors_r[tk][pair.net_r.live].astype(dtype) for tk, _ in sampler.drawable}
    rows_t = {mid: vectors_t[mid][pair.net_t.live].astype(dtype) for _, mid in sampler.drawable}
    history = []
    # a huge learning rate overflows the parameters; gradient_step then raises on the loss
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(batches):
            batch = sample_batch(sampler, rows_r, rows_t)
            lr = adam.effective_lr()
            loss, _ = gradient_step(pair, adam, batch)
            history.append((adam.step - 1, lr, loss))
    return history


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CKPT_MAGIC = b"TLCK"
CKPT_VERSION = 2
CKPT_HEADER = "<II"  # version, JSON header length


def save_checkpoint(path, pair: EmbedderPair, step=0, extra=None):
    """JSON header (shapes, input dims, live tables, hyper-parameters, step), then ``pair.flat``.

    The parameters are written as f32 LE. Only a float32 pair is saved, so
    the file holds its values exactly.
    """
    if pair.flat.dtype != np.float32:
        raise ValueError(f"a checkpoint holds float32 parameters, not {pair.flat.dtype}")
    header = {"format_version": CKPT_VERSION, "joint_dim": pair.joint_dim,
              "margin": pair.margin, "seed": pair.seed, "step": step}
    for side, net in zip("rt", (pair.net_r, pair.net_t)):
        header[f"shapes_{side}"] = [list(w.shape) for w in net.weights]
        header[f"keep_prob_{side}"] = net.keep_prob
        header[f"input_dim_{side}"] = net.raw_dim
        header[f"live_{side}"] = net.live.tolist()
    if extra:
        header["extra"] = extra
    blob = formats.encode_json(header)
    with formats.write_binary(path, CKPT_MAGIC, CKPT_HEADER, CKPT_VERSION, len(blob)) as f:
        f.write(blob)
        f.write(np.ascontiguousarray(pair.flat, dtype="<f4"))


def load_checkpoint(path):
    """Rebuild the float32 EmbedderPair of a checkpoint; returns (pair, header)."""

    def parse(data, offset, hlen):
        header, nets, count, hyper = formats.parse_json(
            data[offset : offset + hlen], path, _read_header, TrainingError
        )
        flat = formats.read_floats(data, offset + hlen, count, np.float32)
        start, built = 0, []
        for shapes, kwargs in nets:
            weights, biases, start = _layer_views(flat, start, shapes)
            built.append(DenseNet(weights, biases, **kwargs))
        return EmbedderPair(*built, **hyper, flat=flat), header

    return formats.read_binary(path, CKPT_MAGIC, CKPT_HEADER, CKPT_VERSION, TrainingError,
                               "`tablelink train`", parse)


def _read_header(header):
    """(header, (layer shapes, other DenseNet kwargs) of each net, parameter count, pair kwargs)."""
    nets = []
    for side in "rt":
        shapes = [(operator.index(out_dim), operator.index(in_dim))
                  for out_dim, in_dim in header[f"shapes_{side}"]]
        nets.append((shapes, {
            "keep_prob": check("training.keep_prob", float(header[f"keep_prob_{side}"]), ValueError),
            "live": header[f"live_{side}"],
            "raw_dim": operator.index(header[f"input_dim_{side}"]),
        }))
    count = sum(out_dim * (in_dim + 1) for shapes, _ in nets for out_dim, in_dim in shapes)
    hyper = {key: operator.index(header[key]) for key in ("joint_dim", "seed")}
    hyper["margin"] = float(header["margin"])
    return header, nets, count, hyper
