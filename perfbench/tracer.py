"""External tracer for the tablelink layers.

The tracer never edits the package: it replaces public functions and
methods of the modules ``corpus``, ``vectorize``, ``neural``, ``annindex``,
``linker`` and ``cli`` with wrappers that record a span (name, start, end,
parent) and call the original. Each name is wrapped where callers look it
up: ``cli`` imports ``load_corpus_xml`` by name, so ``cli.load_corpus_xml``
is patched; module globals such as ``neural.gradient_step`` are seen by
every caller in their module. ``uninstall`` restores every original, so a
run can alternate traced and untraced passes.

Spans are kept in memory and summarised into per-layer metrics at the end
of the run; ``write`` dumps them compactly for later inspection.
"""

import json
import math
import statistics
import time
from contextlib import contextmanager


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# (module, owner attribute or None, attribute, span name, info extractor)
TARGETS = (
    ("cli", None, "load_corpus_xml", "corpus.parse", None),
    ("corpus", "Corpus", "load", "corpus.json_load", None),
    ("corpus", "Corpus", "save", "corpus.json_save", None),
    ("vectorize", "HashingEncoder", "encode", "vectorize.encode", None),
    ("vectorize", None, "vectorize_tuple", "vectorize.tuple",
     lambda a, k: ("t", _arg(a, k, 1, "rec").key)),
    ("vectorize", None, "vectorize_mention", "vectorize.mention",
     lambda a, k: ("m", _arg(a, k, 1, "mention").id)),
    ("vectorize", None, "write_vector_file", "vectorize.vec_io", None),
    ("vectorize", None, "read_vector_file", "vectorize.vec_io", None),
    ("neural", None, "sample_batch", "neural.sample", None),
    ("neural", None, "gradient_step", "neural.gradient_step", None),
    ("neural", None, "pairwise_contrastive_loss", "neural.pcl", None),
    ("neural", None, "loss_from_embeddings", "neural.loss", None),
    ("neural", "DenseNet", "forward", "neural.forward", None),
    ("neural", "DenseNet", "backward", "neural.backward", None),
    ("neural", None, "save_checkpoint", "neural.ckpt_save", None),
    ("neural", None, "load_checkpoint", "neural.ckpt_load", None),
    ("annindex", None, "build_forest", "annindex.build", None),
    ("annindex", None, "save_forest", "annindex.save", None),
    ("annindex", None, "load_forest", "annindex.load", None),
    ("annindex", None, "query_forest", "annindex.query", None),
    ("linker", None, "semantic_link", "linker.semantic_link",
     lambda a, k: _arg(a, k, 5, "anchor_id", "")),
    ("linker", None, "evaluate_category", "linker.evaluate_category", None),
)


class Tracer:
    """Records nested spans from wrappers installed around package names."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # [name, start, end, parent index, info]
        self._stack = []
        self._saved = []  # (owner, attribute, original)

    @contextmanager
    def span(self, name, info=None):
        idx = self._open(name, info)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name, info):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, info])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, fn, name, info_fn):
        def traced(*args, **kwargs):
            idx = self._open(name, info_fn(args, kwargs) if info_fn else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, owner_name, attr, name, info_fn in TARGETS:
            module = getattr(self.package, module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrapper(original.__func__, name, info_fn))
            else:
                wrapped = self._wrapper(original, name, info_fn)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"names": names, "spans": rows}, f, separators=(",", ":"))


def tail_percentile(values):
    """The highest of p99.9/p99/p95/p90/p75/p50 with >= 10 samples beyond it.

    Returns (label, value); with fewer than 20 samples the label says so and
    the value is the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}", ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return f"p50 (only {n} samples)", statistics.median(ordered) if ordered else 0.0


def layer_metrics(spans, gold_tuple_keys):
    """Per-layer metrics from a span list; also returns notes for the log.

    Spans under a ``bench.pass`` span belong to the traced measured pass and
    spans under ``bench.setup`` to set-up. Totals and medians count both;
    ``vectorize.vectors_built``, ``vectorize.reuse_ratio`` and ``cli.self_ms``
    count the pass only. ``gold_tuple_keys`` are the tuples with a gold link.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_sum = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_sum[s[3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    def under(i, name):
        return any(spans[p][0] == name for p in ancestors(i))

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total_ms(*names):
        return 1000.0 * sum(dur[i] for name in names for i in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    # One training step is a sample_batch span plus the gradient_step after
    # it. Forward, loss and backward sit inside the step's
    # pairwise_contrastive_loss; the optimizer is the step's time outside
    # that call (finite check + Adam).
    last_sample, steps = {}, {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name == "neural.sample":
            last_sample[parent] = i
        elif name == "neural.gradient_step":
            sample = last_sample.pop(parent, None)
            steps[i] = {"neural.sample": dur[sample] if sample is not None else 0.0}
        elif name == "neural.pcl" and parent in steps:
            steps[parent]["neural.pcl"] = dur[i]
        elif (name in ("neural.forward", "neural.loss", "neural.backward")
              and parent >= 0 and spans[parent][0] == "neural.pcl" and spans[parent][3] in steps):
            part = steps[spans[parent][3]]
            part[name] = part.get(name, 0.0) + dur[i]

    def per_step(fn):
        return [1000.0 * fn(g, part) for g, part in steps.items()]

    step = per_step(lambda g, part: part["neural.sample"] + dur[g])
    sample = per_step(lambda g, part: part["neural.sample"])
    forward = per_step(lambda g, part: part.get("neural.forward", 0.0))
    loss = per_step(lambda g, part: part.get("neural.loss", 0.0))
    backward = per_step(lambda g, part: part.get("neural.backward", 0.0))
    optimizer = per_step(lambda g, part: dur[g] - part.get("neural.pcl", 0.0))

    infer = [i for i in by_name.get("neural.forward", ()) if not under(i, "neural.gradient_step")]
    queries = [1000.0 * dur[i] for i in by_name.get("annindex.query", ())]
    links = [1000.0 * dur[i] for i in by_name.get("linker.semantic_link", ())]
    link_anchors = [i for i in by_name.get("linker.semantic_link", ()) if under(i, "cli.link")]
    eval_anchors = [i for i in by_name.get("linker.semantic_link", ())
                    if under(i, "linker.evaluate_category")]

    def top_level(name):
        return [i for i in by_name.get(name, ()) if not under(i, name)]

    pass_vectors = [spans[i][4] for name in ("vectorize.tuple", "vectorize.mention")
                    for i in top_level(name) if under(i, "bench.pass")]
    cli_self = {}
    for i, s in enumerate(spans):
        if s[0].startswith("cli.") and under(i, "bench.pass"):
            command = s[0][len("cli."):]
            cli_self[command] = cli_self.get(command, 0.0) + 1000.0 * (dur[i] - child_sum[i])

    step_tail = tail_percentile(step)
    query_tail = tail_percentile(queries)
    link_tail = tail_percentile(links)
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    metrics = {
        "neural.steps": (len(step), "count"),
        "neural.step_ms.p50": (med(step), "ms"),
        "neural.step_ms.tail": (step_tail[1], "ms"),
        "neural.sample_ms": (med(sample), "ms"),
        "neural.forward_ms": (med(forward), "ms"),
        "neural.loss_ms": (med(loss), "ms"),
        "neural.backward_ms": (med(backward), "ms"),
        "neural.optimizer_ms": (med(optimizer), "ms"),
        "neural.infer_calls": (len(infer), "count"),
        "neural.infer_ms": (1000.0 * sum(dur[i] for i in infer), "ms"),
        "neural.ckpt_ms": (total_ms("neural.ckpt_save", "neural.ckpt_load"), "ms"),
        "neural.ckpt_loads": (count("neural.ckpt_load"), "count"),
        "annindex.build_ms": (total_ms("annindex.build"), "ms"),
        "annindex.io_ms": (total_ms("annindex.save", "annindex.load"), "ms"),
        "annindex.loads": (count("annindex.load"), "count"),
        "annindex.queries": (len(queries), "count"),
        "annindex.query_ms.p50": (med(queries), "ms"),
        "annindex.query_ms.tail": (query_tail[1], "ms"),
        "vectorize.encode_calls": (count("vectorize.encode"), "count"),
        "vectorize.encode_ms": (total_ms("vectorize.encode"), "ms"),
        "vectorize.tuple_ms": (1000.0 * sum(dur[i] for i in top_level("vectorize.tuple")), "ms"),
        "vectorize.mention_ms": (total_ms("vectorize.mention"), "ms"),
        "vectorize.vectors_built": (len(pass_vectors), "count"),
        "vectorize.reuse_ratio": (
            len(set(pass_vectors)) / len(pass_vectors) if pass_vectors else 0.0, "ratio"),
        "vectorize.vec_io_ms": (total_ms("vectorize.vec_io"), "ms"),
        "corpus.parse_ms": (total_ms("corpus.parse"), "ms"),
        "corpus.json_loads": (count("corpus.json_load"), "count"),
        "corpus.json_ms": (total_ms("corpus.json_load", "corpus.json_save"), "ms"),
        "linker.link_anchors": (len(link_anchors), "count"),
        "linker.link_gold_ratio": (
            sum(1 for i in link_anchors if spans[i][4] in gold_tuple_keys) / len(link_anchors)
            if link_anchors else 0.0, "ratio"),
        "linker.eval_anchors": (len(eval_anchors), "count"),
        "linker.semantic_link_ms.p50": (med(links), "ms"),
        "linker.semantic_link_ms.tail": (link_tail[1], "ms"),
        "cli.self_ms": (sum(cli_self.values()), "ms"),
    }
    notes = [
        f"neural.step_ms.tail is {step_tail[0]} of {len(step)} steps",
        f"annindex.query_ms.tail is {query_tail[0]} of {len(queries)} queries",
        f"linker.semantic_link_ms.tail is {link_tail[0]} of {len(links)} calls",
    ] + [f"cli.self_ms.{cmd} = {ms:.3f} ms" for cmd, ms in sorted(cli_self.items())]
    return metrics, notes
