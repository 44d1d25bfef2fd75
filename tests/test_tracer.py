"""The benchmark tracer's wrap-by-name contract.

``perfbench/tracer.py`` wraps package functions by their names in
``TARGETS``; a rename or a move would otherwise show only in a traced
benchmark run. This test loads the tracer read-only, runs a small command
chain under it and checks that every target recorded a span, that
``uninstall`` put every original back, and that each build of a side
recorded one row span per tuple or mention.
"""

import importlib.util
import json
from pathlib import Path

import tablelink
from tablelink.cli import run_command
from tablelink.corpus import Corpus
from tablelink.synthetic import write_synthetic_corpus

ROOT = Path(__file__).resolve().parent.parent
CHAIN = ("ingest", "fit", "train", "embed-tuples", "embed-mentions", "build-index", "link", "eval")


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(module_name, owner_name, attr):
    """The object a target's name is bound to now, as ``Tracer.install`` reads it."""
    module = getattr(tablelink, module_name)
    return getattr(module, owner_name).__dict__[attr] if owner_name else getattr(module, attr)


def test_every_target_records_a_span_and_is_restored(tmp_path):
    tracer_module = load_tracer()
    originals = [current(*target[:3]) for target in tracer_module.TARGETS]
    write_synthetic_corpus(tmp_path / "corpus.xml", entities=12, mentions_per_entity=3, seed=3)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "paths": {"corpus": str(tmp_path / "corpus.xml"), "workdir": str(tmp_path / "work")},
        "encoder": {"dim": 32},
        "network": {"hidden_r": [16], "joint_dim": 8},
        "training": {"batch_budget": 5, "batch_size": 8},
        "index": {"t": 2, "leaf_capacity": 4, "search_k": 2, "n": 1},
    }))
    tracer = tracer_module.Tracer(tablelink)
    tracer.install()
    try:
        for command in CHAIN:
            with tracer.span(f"cli.{command}"):
                assert run_command([command, "--config", str(config)]) == 0, command
    finally:
        tracer.uninstall()
    missing = {target[3] for target in tracer_module.TARGETS} - {span[0] for span in tracer.spans}
    assert not missing
    for target, original in zip(tracer_module.TARGETS, originals):
        assert current(*target[:3]) is original, target[:3]

    # each build of a side names every row of the category once, as vectors_built counts them
    corpus = Corpus.load(tmp_path / "work" / "corpus.json")
    tuple_keys = [("t", rec.key) for rec in corpus.tuples_of_category("Landmark")]
    mention_ids = [("m", m.id) for m in corpus.mentions_of_category("Landmark")]
    for command, rows in (("train", tuple_keys + mention_ids), ("embed-tuples", tuple_keys),
                          ("embed-mentions", mention_ids)):
        assert sorted(row_spans(tracer.spans, f"cli.{command}")) == sorted(rows)


def row_spans(spans, command_span):
    """The info of each ``vectorize.tuple`` and ``vectorize.mention`` span under ``command_span``."""
    for name, _, _, parent, info in spans:
        if name in ("vectorize.tuple", "vectorize.mention"):
            while parent >= 0 and spans[parent][0] != command_span:
                parent = spans[parent][3]
            if parent >= 0:
                yield info
