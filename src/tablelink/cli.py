"""Command-line orchestration over a project workdir.

Every command is a pure function of its inputs, configuration, and seeds;
artifacts land in the configured workdir under stable names (corpus.json,
manifest.json, splits.json, vectorizer_<category>.json, train_<category>.log,
model_<category>.ckpt, *.vec, *.idx, links_<category>.tsv,
mention_links_<category>.tsv, report.json, report.txt, timings.json). A lock
file guards the workdir against concurrent commands.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import annindex, formats, linker, neural, vectorize
from .config import ConfigError, load_config
from .corpus import (Corpus, CorpusError, Manifest, Splits, load_corpus_xml,
                     make_stratified_splits, slug)


class UsageError(Exception):
    """Command-line usage problems (unknown flag, bad subcommand)."""


class PrerequisiteError(Exception):
    """A required artifact is missing or stale; the message names its producer."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class WorkdirLock:
    """Exclusive lock file so only one command runs per workdir.

    The file holds the owner's PID. A lock whose process no longer exists is
    reclaimed once; a live, unreadable or garbled lock is left alone.
    """

    def __init__(self, workdir):
        self.path = Path(workdir) / ".lock"

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        for retry in (False, True):
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if retry or not self._owner_is_gone():
                    raise linker.LinkerError(
                        f"workdir is locked by another command; remove {self.path} if stale"
                    ) from None
                self.path.unlink(missing_ok=True)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)

    def _owner_is_gone(self):
        try:
            pid = int(self.path.read_text())
        except (OSError, ValueError):
            return False
        if pid <= 0:  # 0 and negative PIDs name process groups, not the owner
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, OverflowError):  # alive under another user, or not a PID
            pass
        return False


# Each artifact -> the artifacts built from it, which a new one leaves stale. A
# name is a file name with {} for a category's slug; "raw <side>" names the
# vectors of a side before the networks, kept only in memory.
DERIVED = {
    "corpus.json": ("manifest.json", "vectorizer_{}.json"),
    "vectorizer_{}.json": ("raw tuples", "raw mentions", "model_{}.ckpt", "train_{}.log"),
    "model_{}.ckpt": ("tuples_{}.vec", "mentions_{}.vec"),
    "tuples_{}.vec": ("tuples_{}.idx", "links_{}.tsv", "report.json", "report.txt"),
    "mentions_{}.vec": ("mentions_{}.idx", "mention_links_{}.tsv", "report.json", "report.txt"),
    "tuples_{}.idx": ("mention_links_{}.tsv", "report.json", "report.txt"),
    "mentions_{}.idx": ("links_{}.tsv", "report.json", "report.txt"),
}


class Artifacts:
    """Artifacts kept in memory once written or loaded.

    A stage ``put``s what it writes, so a later stage in the same process
    takes it from memory; a lone command loads it from the workdir, and a
    missing file names the command that produces it. A new artifact deletes
    every artifact derived from the one it replaces, from memory and disk,
    so no later command reads vectors of an older model. ``slug`` fills the
    {} of a name: a category's slug, or ``*`` for the whole workdir.
    """

    def __init__(self, root, slug):
        self.root = Path(root)
        self.slug = slug
        self._memo = {}

    def path(self, name) -> Path:
        return self.root / name.format(self.slug)

    def put(self, name, value) -> Path:
        """Keep ``value`` in memory; returns the path to write it to."""
        self._drop_derived(name)
        self._memo[name] = value
        return self.path(name)

    def _drop_derived(self, name):
        for derived in DERIVED.get(name, ()):
            self._memo.pop(derived, None)
            for path in self.root.glob(derived.format(self.slug)):
                path.unlink()
            self._drop_derived(derived)

    def _get(self, name, producer, load):
        if name not in self._memo:
            path = self.path(name)
            if not path.exists():
                raise PrerequisiteError(f"missing artifact {path.name}; run `tablelink {producer}` first")
            self._memo[name] = load(path)
        return self._memo[name]


class Workdir(Artifacts):
    """A workdir's corpus, its manifest and splits, the root of every other artifact.

    ``report`` collects the evaluation cells of one ``run_stages`` call.
    """

    def __init__(self, root):
        super().__init__(root, "*")
        self.report = None

    def ingest(self, corpus: Corpus, splits: Splits):
        self.root.mkdir(parents=True, exist_ok=True)
        blob = corpus.save(self.put("corpus.json", corpus))
        manifest = Manifest.of(corpus, blob)
        manifest.save(self.put("manifest.json", manifest))
        splits.save(self.put("splits.json", splits))

    def corpus(self) -> Corpus:
        return self._get("corpus.json", "ingest", Corpus.load)

    def manifest(self) -> Manifest:
        """What ``run_stages`` needs of ``corpus.json``; a load checks it against that file's digest."""
        return self._get("manifest.json", "ingest", self._load_manifest)

    def _load_manifest(self, path):
        manifest = Manifest.load(path)
        corpus_path = self.path("corpus.json")
        if not (corpus_path.exists() and manifest.describes(corpus_path.read_bytes())):
            self.corpus()  # a missing or malformed corpus.json names itself
            raise PrerequisiteError(f"{path.name} does not match corpus.json; "
                                    "rerun `tablelink ingest`")
        return manifest

    def splits(self) -> Splits:
        return self._get("splits.json", "ingest", Splits.load)


class CategoryArtifacts(Artifacts):
    """One category's artifacts, dropped with it before the next category loads."""

    def __init__(self, ws: Workdir, category, cat_index):
        super().__init__(ws.root, slug(category))
        self.ws = ws
        self.category = category
        self.cat_index = cat_index

    def vectorizer(self) -> vectorize.VectorizerModel:
        return self._get("vectorizer_{}.json", "fit", vectorize.VectorizerModel.load)

    def raw_vectors(self, side) -> vectorize.KeyedVectors:
        """Vectors of one side ("tuples" or "mentions") before the networks, built once."""
        if f"raw {side}" not in self._memo:
            corpus, model = self.ws.corpus(), self.vectorizer()
            self._memo[f"raw {side}"] = (
                vectorize.tuple_vectors(model, corpus.tuples_of_category(self.category))
                if side == "tuples" else
                vectorize.mention_vectors(model.encoder, corpus.mentions_of_category(self.category)))
        return self._memo[f"raw {side}"]

    def pair(self) -> neural.EmbedderPair:
        return self._get("model_{}.ckpt", "train", lambda path: neural.load_checkpoint(path)[0])

    def vectors(self, side) -> vectorize.KeyedVectors:
        """Joint-space vectors of one side ("tuples" or "mentions")."""
        return self._get(f"{side}_{{}}.vec", f"embed-{side}", vectorize.read_vector_file)

    def forest(self, side) -> annindex.RpForest:
        return self._get(f"{side}_{{}}.idx", "build-index", annindex.load_forest)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_ingest(config, args):
    if not config.paths.corpus:
        raise ConfigError("paths.corpus must point at the corpus XML file")
    source = Path(config.paths.corpus)
    if not source.exists():
        raise ConfigError(f"paths.corpus does not exist: {source}")
    corpus = load_corpus_xml(source)
    ws = Workdir(config.paths.workdir)
    splits = make_stratified_splits(corpus, config.split)
    ws.ingest(corpus, splits)
    print(
        f"ingested {len(corpus.tuples)} tuples, {len(corpus.mentions)} mentions, "
        f"{len(corpus.links)} links across {len(corpus.schemas)} categories"
    )
    print(f"splits: {len(splits.train)} train / {len(splits.test)} test / {len(splits.unseen)} unseen")
    return ws


def cmd_stats(config, args):
    stats = Workdir(config.paths.workdir).corpus().stats()
    header = (
        f"{'category':<20}{'instances':>10}{'tuples':>8}{'sentences':>11}"
        f"{'sent/inst':>11}{'columns':>9}{'density':>9}"
    )
    print(header)
    for category in sorted(stats):
        s = stats[category]
        print(
            f"{category:<20}{s.instances:>10}{s.tuples:>8}{s.sentences:>11}"
            f"{s.sentences_per_instance:>11.2f}{s.columns:>9}{s.avg_tuple_density:>9.2f}"
        )


# ---------------------------------------------------------------------------
# Per-category stages
# ---------------------------------------------------------------------------

def stage_fit(art: CategoryArtifacts, config, args):
    corpus = art.ws.corpus()
    encoder = vectorize.HashingEncoder(dim=config.encoder.dim, seed=config.encoder.seed)
    model = vectorize.fit_vectorizer(
        corpus.tuples_of_category(art.category), corpus.schemas[art.category], encoder
    )
    model.save(art.put("vectorizer_{}.json", model))
    print(f"fitted vectorizer for {art.category}: tuple dim {model.dim()}")


def stage_train(art: CategoryArtifacts, config, args):
    """Train the category's embedder pair on the matches of train-split entities.

    Only those matches reach the sampler, so test- and unseen-split entities
    never appear in a batch, and each net's first layer reads only the
    columns that some drawable row sets (``neural.live_columns``).
    """
    corpus, splits = art.ws.corpus(), art.ws.splits()
    tuple_vecs, mention_vecs = art.raw_vectors("tuples"), art.raw_vectors("mentions")
    category = art.category
    matches, source = linker.category_matches(corpus, category,
                                              config.name_attributes.get(category))
    if not matches:
        raise linker.LinkerError(
            f"category {category!r}: no gold links and the exact-match bootstrap found "
            "zero candidates; supply gold links or configure name_attributes to a text "
            "attribute whose values appear in sentences"
        )
    train_links = {}
    for tk, mid in matches:
        entity = corpus.tuples[tk].entity
        if entity in splits.train:
            train_links.setdefault(entity, []).append((tk, mid))
    if not train_links:
        raise linker.LinkerError(f"category {category!r}: no matches among train-split entities")

    training, network = config.training, config.network
    seed = training.seed + art.cat_index
    sampler = neural.SamplerState(train_links, batch_size=training.batch_size, seed=seed)
    pair = neural.EmbedderPair.build(
        input_dim_r=tuple_vecs.dim,
        input_dim_t=mention_vecs.dim,
        hidden_r=tuple(network.hidden_r),
        hidden_t=tuple(network.hidden_t),
        joint_dim=network.joint_dim,
        margin=training.margin,
        keep_prob=training.keep_prob,
        seed=seed,
        live_r=neural.live_columns(tuple_vecs, sampler.gold),
        live_t=neural.live_columns(mention_vecs, {mid for _, mid in sampler.drawable}),
    )
    adam = neural.AdamState(lr=training.lr, decay=training.decay,
                            decay_every=training.decay_every)
    history = neural.train_pair(pair, adam, sampler, tuple_vecs, mention_vecs,
                                batches=training.batch_budget)
    with formats.replacing(art.path("train_{}.log"), "w", encoding="utf-8") as log:
        log.writelines(f"{step}\t{lr:.6e}\t{loss:.6e}\n" for step, lr, loss in history)
    path = art.put("model_{}.ckpt", pair)
    neural.save_checkpoint(path, pair, step=adam.step, extra={"category": category})
    final = history[-1][2] if history else float("nan")
    print(f"trained {category}: {len(matches)} {source} matches, {len(history)} batches, "
          f"final loss {final:.4f}")


def _stage_embed(art: CategoryArtifacts, side):
    pair, raw, ckpt = art.pair(), art.raw_vectors(side), art.path("model_{}.ckpt")
    net = pair.net_r if side == "tuples" else pair.net_t
    if net.raw_dim != raw.dim:
        raise PrerequisiteError(f"{ckpt.name} was trained on other input dims than "
                                f"vectorizer_{art.slug}.json gives; rerun `tablelink train`")
    try:
        vectors = vectorize.KeyedVectors(raw.ids, net.embed(raw.matrix))
    except vectorize.VectorizeError:  # the ids are the raw vectors', so a value is not finite
        raise neural.TrainingError(f"{ckpt}: embeds {side} to vectors with non-finite "
                                   "components; rerun `tablelink train`") from None
    path = art.put(f"{side}_{{}}.vec", vectors)
    vectorize.write_vector_file(path, vectors)
    print(f"embedded {len(vectors)} {side} for {art.category} -> {path.name}")


def stage_build_index(art: CategoryArtifacts, config, args):
    for side in ("tuples", "mentions"):
        forest = annindex.build_forest(
            art.vectors(side), t=config.index.t,
            leaf_capacity=config.index.leaf_capacity, seed=config.index.seed,
        )
        annindex.save_forest(forest, art.put(f"{side}_{{}}.idx", forest))
        print(f"indexed {len(forest)} {side} vectors for {art.category} (t={forest.t})")


# --direction -> (report direction, anchor side, counterpart side, links file)
LINK_DIRECTIONS = {
    "tuple-to-mentions": (linker.TUPLE_TO_MENTIONS, "tuples", "mentions", "links_{}.tsv"),
    "mention-to-tuples": (linker.MENTION_TO_TUPLES, "mentions", "tuples", "mention_links_{}.tsv"),
}


def stage_link(art: CategoryArtifacts, config, args):
    direction, anchor_side, side, links_file = LINK_DIRECTIONS[args.direction]
    if config.strategy == "exact":
        corpus = art.ws.corpus()
        pairs = linker.bootstrap_exact_match(
            corpus.tuples_of_category(art.category), corpus.mentions_of_category(art.category),
            corpus.schemas[art.category], config.name_attributes.get(art.category),
        )
        results = linker.exact_link(pairs, direction)
    else:
        results = linker.semantic_link(
            art.forest(side), art.vectors(anchor_side), config.index.n,
            search_k=config.index.search_k,
        )
    path = art.path(links_file)
    linker.export_links(results, path, strategy=config.strategy)
    print(f"linked {len(results)} anchors for {art.category} -> {path.name}")


def stage_eval(art: CategoryArtifacts, config, args):
    linker.evaluate_category(
        art.ws.report, art.ws.corpus(), art.category, art.ws.splits(),
        art.vectors("tuples"), art.vectors("mentions"),
        art.forest("tuples"), art.forest("mentions"),
        n=max(config.eval_ks), search_k=config.index.search_k,
    )


STAGES = {
    "fit": stage_fit,
    "train": stage_train,
    "embed-tuples": lambda art, config, args: _stage_embed(art, "tuples"),
    "embed-mentions": lambda art, config, args: _stage_embed(art, "mentions"),
    "build-index": stage_build_index,
    "link": stage_link,
    "eval": stage_eval,
}


def run_stages(ws: Workdir, config, args, names):
    """Run the named stages category by category; returns seconds per stage.

    The categories come from the manifest, and ``name_attributes`` is
    checked against its schemas first; a stage that reads records loads
    ``corpus.json`` itself. ``fit`` runs on every category, the other stages
    only on categories with mentions. One category's artifacts are dropped
    before the next category's load. ``eval`` writes the report once, after
    the last category.
    """
    manifest = ws.manifest()
    config.check_name_attributes(manifest.schemas)
    if "eval" in names:
        ws.report = linker.EvalReport(ks=tuple(config.eval_ks))
    timings = dict.fromkeys(names, 0.0)
    for cat_index, category in enumerate(manifest.categories()):
        art = CategoryArtifacts(ws, category, cat_index)
        has_mentions = manifest.mention_counts[category] > 0
        for name in names:
            if name == "fit" or has_mentions:
                started = time.perf_counter()
                STAGES[name](art, config, args)
                timings[name] += time.perf_counter() - started
    if "eval" in names:
        ws.report.finalize_overall()
        formats.save_json(ws.root / "report.json", ws.report.to_dict())
        table = ws.report.table()
        with formats.replacing(ws.root / "report.txt", "w", encoding="utf-8") as f:
            f.write(table)
        sys.stdout.write(table)
    return timings


PIPELINE_STAGES = ("fit", "train", "embed-tuples", "embed-mentions", "build-index", "eval")


def cmd_pipeline(config, args):
    """``ingest``, then every stage except ``link``, handing results on in memory."""
    started = time.perf_counter()
    ws = cmd_ingest(config, args)
    timings = {"ingest": time.perf_counter() - started}
    timings.update(run_stages(ws, config, args, PIPELINE_STAGES))
    timings["total"] = time.perf_counter() - started
    formats.save_json(ws.root / "timings.json", {k: round(v, 3) for k, v in timings.items()})
    print(f"stage timings (s): {json.dumps({k: round(v, 2) for k, v in sorted(timings.items())})}")


def _stage_command(name):
    return lambda config, args: run_stages(Workdir(config.paths.workdir), config, args, (name,))


COMMANDS = {
    "ingest": cmd_ingest,
    "stats": cmd_stats,
    **{name: _stage_command(name) for name in STAGES},
    "pipeline": cmd_pipeline,
}


def build_parser():
    parser = _Parser(prog="tablelink", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="project configuration JSON")
        p.add_argument("--profile", default=None, help="named profile (desk, paper)")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="override a config value, e.g. training.lr=1e-4",
        )
        if name == "link":
            p.add_argument("--direction", choices=list(LINK_DIRECTIONS), default="tuple-to-mentions")
    return parser


def run_command(argv):
    """Run one subcommand; returns the process exit status.

    0 on success, 1 on usage/validation errors (including missing
    prerequisite artifacts), 2 on runtime failures.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("missing command; see --help")
        config = load_config(args.config, profile=args.profile, overrides=args.overrides)
    except (UsageError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    started = time.perf_counter()
    try:
        with WorkdirLock(config.paths.workdir or "."):
            COMMANDS[args.command](config, args)
    except (UsageError, ConfigError, PrerequisiteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CorpusError, vectorize.VectorizeError, annindex.AnnIndexError,
            linker.LinkerError, neural.TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command} finished in {time.perf_counter() - started:.2f}s")
    return 0


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
