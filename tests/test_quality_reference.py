"""Opt-in quality reference: seeded Precision@k on a WebNLG-shaped corpus.

Gate 7 reads P@1 = P@10 = 1.00 on every split, so it cannot see a training
change that costs quality. This test runs ``pipeline`` at
``batch_budget=300`` on the ``perfbench/webnlg_corpus.py`` corpus
(3 categories x 70 roots) for seeds 1-3 and compares the pooled ``overall``
P@1 and P@10 of both directions on the test, train and unseen splits with
``tests/data/quality_reference.json``. A cell fails if its mean over the
three seeds moves by more than the larger of two amounts: the recorded
spread of that cell across seeds (max - min), or one anchor of that cell
(1 / its smallest anchor count). The recorded per-seed values come from
another machine or build: on a 2-vCPU box, ``d10cc79``, the commit that
recorded them, reads ``mention_to_tuples/unseen/P@1`` 0.1787 (recorded
0.1809) and ``tuple_to_mentions/test/P@10`` 0.5153 (recorded 0.5238), as
``5511f3b`` does.

It takes about 20 s, so it is skipped unless
``TABLELINK_QUALITY_REFERENCE=1``::

    TABLELINK_QUALITY_REFERENCE=1 PYTHONPATH=src python -m pytest -q tests/test_quality_reference.py

Record the reference again only with a change that means to move quality::

    PYTHONPATH=src python tests/test_quality_reference.py
"""

import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from tablelink.cli import run_command
from tablelink.linker import MENTION_TO_TUPLES, SPLIT_NAMES, TUPLE_TO_MENTIONS

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "data" / "quality_reference.json"
SEEDS = (1, 2, 3)
CORPUS = {"categories": 3, "roots_per_category": 70}
BATCH_BUDGET = 300
KS = ("1", "10")


def webnlg_corpus_xml(seed):
    spec = importlib.util.spec_from_file_location(
        "webnlg_corpus", ROOT / "perfbench" / "webnlg_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.webnlg_corpus_xml(seed, **CORPUS)[0]


def measure(seed, directory):
    """Cell name -> (pooled precision, anchor count) of one seeded ``pipeline`` run."""
    directory = Path(directory)
    corpus_path = directory / f"corpus_{seed}.xml"
    corpus_path.write_text(webnlg_corpus_xml(seed), encoding="utf-8")
    workdir = directory / f"work_{seed}"
    config_path = directory / f"config_{seed}.json"
    config_path.write_text(json.dumps({
        "paths": {"corpus": str(corpus_path), "workdir": str(workdir)},
        "training": {"batch_budget": BATCH_BUDGET},
    }))
    assert run_command(["pipeline", "--config", str(config_path)]) == 0
    report = json.loads((workdir / "report.json").read_text())
    cells = {}
    for direction in (TUPLE_TO_MENTIONS, MENTION_TO_TUPLES):
        for split in SPLIT_NAMES:
            overall = report["cells"][direction][split]["overall"]
            for k in KS:
                cells[f"{direction}/{split}/P@{k}"] = (overall["precision"][k], overall["count"])
    return cells


def record(runs):
    """The reference document for per-seed ``measure`` results."""
    cells = {}
    for name in runs[0]:
        values = [run[name][0] for run in runs]
        cells[name] = {
            "per_seed": values,
            "mean": sum(values) / len(values),
            "spread": max(values) - min(values),
            "anchors": [run[name][1] for run in runs],
        }
    return {"seeds": list(SEEDS), "corpus": CORPUS, "batch_budget": BATCH_BUDGET, "cells": cells}


@pytest.mark.skipif(os.environ.get("TABLELINK_QUALITY_REFERENCE") != "1",
                    reason="opt-in: set TABLELINK_QUALITY_REFERENCE=1")
def test_pooled_precision_within_reference(tmp_path):
    reference = json.loads(REFERENCE.read_text())
    assert reference["seeds"] == list(SEEDS)
    assert reference["corpus"] == CORPUS and reference["batch_budget"] == BATCH_BUDGET
    now = record([measure(seed, tmp_path) for seed in SEEDS])["cells"]
    assert now.keys() == reference["cells"].keys()
    moved = []
    for name, ref in reference["cells"].items():
        # the corpus and its splits do not depend on training
        assert now[name]["anchors"] == ref["anchors"], name
        allowed = max(ref["spread"], 1.0 / min(ref["anchors"]))
        delta = now[name]["mean"] - ref["mean"]
        print(f"{name}: {ref['mean']:.4f} -> {now[name]['mean']:.4f} (allowed {allowed:.4f})")
        if abs(delta) > allowed:
            moved.append(f"{name} moved {delta:+.4f}, allowed {allowed:.4f}")
    assert not moved, moved


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        runs = [measure(seed, directory) for seed in SEEDS]
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(record(runs), indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}", file=sys.stderr)
