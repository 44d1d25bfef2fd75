import errno
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from tablelink import annindex, cli
from tablelink.annindex import brute_force_knn
from tablelink.cli import run_command
from tablelink.config import PROFILES, ConfigError, ProjectConfig, apply_profile, load_config
from tablelink.linker import TUPLE_TO_MENTIONS, EvalReport
from tablelink.neural import DenseNet, EmbedderPair, TrainingError
from tablelink.synthetic import synthetic_corpus_xml, write_synthetic_corpus
from tablelink.vectorize import read_vector_file, write_vector_file

from conftest import subprocess_env

INDEX_CHAIN = ("ingest", "fit", "train", "embed-tuples", "embed-mentions", "build-index")


def ids_reversed(blob):
    """A ``*.vec`` file whose id table lists the same ids, descending."""
    keys, pos = [], 20
    for _ in range(struct.unpack_from("<Q", blob, 12)[0]):  # the header's record count
        klen = struct.unpack_from("<I", blob, pos)[0]
        keys.append(blob[pos : pos + 4 + klen])
        pos += 4 + klen
    return blob[:20] + b"".join(reversed(keys)) + blob[pos:]


def format_version(version, rerun):
    """A corruption that sets a binary artifact's format version; the error names ``rerun``."""
    def corrupt(blob):
        return blob[:4] + struct.pack("<I", version) + blob[8:]
    corrupt.rerun = rerun
    return corrupt


def last_f32(value):
    """A corruption that sets the last f32 value of a binary artifact, the end of its body."""
    return lambda blob: blob[:-4] + struct.pack("<f", value)


def ckpt_header_text(edit):
    """A corruption that replaces a checkpoint's JSON header bytes with ``edit`` of them."""
    def corrupt(blob):
        hlen = struct.unpack_from("<I", blob, 8)[0]
        text = edit(blob[12 : 12 + hlen])
        return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen :]
    return corrupt


def ckpt_header(edit):
    """A corruption that applies ``edit`` to a checkpoint's JSON header, in place."""
    def rewrite(text):
        header = json.loads(text)
        edit(header)
        return json.dumps(header, sort_keys=True).encode("utf-8")
    return ckpt_header_text(rewrite)


def ckpt_live(side, edit):
    """A corruption that rewrites the live table ``live_<side>`` in a checkpoint's JSON header."""
    def rewrite(header):
        header[f"live_{side}"] = edit(header[f"live_{side}"], header[f"input_dim_{side}"])
    return ckpt_header(rewrite)


def first_attribute_of_one(blob, *schema_path):
    """A JSON artifact whose first schema attribute pair is cut to its name."""
    doc = json.loads(blob)
    schema = doc
    for key in schema_path:
        schema = schema[key]
    schema["attributes"][0] = schema["attributes"][0][:1]
    return json.dumps(doc).encode("utf-8")


def json_drop(blob, *path):
    """A JSON artifact with the key at the end of ``path`` removed."""
    doc = json.loads(blob)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return json.dumps(doc).encode("utf-8")


def id_number(blob, records, field, link_side):
    """A ``corpus.json`` whose first ``records`` entry has the id 1, in its gold links too."""
    doc = json.loads(blob)
    old, doc[records][0][field] = doc[records][0][field], 1
    for link in doc["links"]:
        if link[link_side] == old:
            link[link_side] = 1
    return json.dumps(doc).encode("utf-8")


def json_repeat(blob, records, index=0):
    """A ``corpus.json`` whose ``records`` list repeats its entry ``index`` at the end."""
    doc = json.loads(blob)
    doc[records].append(doc[records][index])
    return json.dumps(doc).encode("utf-8")


def json_key_repeated(key):
    """A corruption that writes the first JSON object key ``key`` twice, first with the value {}."""
    return lambda blob: blob.replace(b'"%s":' % key, b'"%s":{},"%s":' % (key, key), 1)


def fk_to_other_relation(blob):
    """A ``corpus.json`` whose first tuple's foreign key names a tuple of another relation."""
    doc = json.loads(blob)
    doc["schemas"]["Landmark"]["foreign_keys"] = [["near", "Landmark"]]
    doc["schemas"]["Peak"] = {"attributes": [], "foreign_keys": []}
    doc["tuples"].append({"relation": "Peak", "key": "peak", "entity": "peak", "values": {},
                          "fk_values": {}})
    doc["tuples"][0]["fk_values"] = {"near": ["peak"]}
    return json.dumps(doc).encode("utf-8")


def categories_sharing_a_slug(blob):
    """A ``corpus.json`` with two more categories whose artifact names would be the same."""
    doc = json.loads(blob)
    for category in ("Land/mark", "Land_mark"):
        doc["schemas"][category] = {"attributes": [], "foreign_keys": []}
    return json.dumps(doc).encode("utf-8")


def splits_overlap(blob):
    """A ``splits.json`` whose test split also lists the first train entity."""
    splits = json.loads(blob)["splits"]
    return json_set(blob, "splits", "test", value=splits["test"] + splits["train"][:1])


def json_set(blob, *path, value):
    """A JSON artifact with the value at the key ``path`` replaced."""
    doc = json.loads(blob)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc).encode("utf-8")


@pytest.fixture
def project(tmp_path):
    corpus_path = tmp_path / "corpus.xml"
    write_synthetic_corpus(corpus_path, entities=12, mentions_per_entity=4, seed=3)
    config = {
        "paths": {"corpus": str(corpus_path), "workdir": str(tmp_path / "work")},
        "encoder": {"dim": 64, "seed": 0},
        "network": {"hidden_r": [32], "hidden_t": [], "joint_dim": 16},
        "training": {"margin": 1.0, "lr": 1e-3, "batch_budget": 60, "batch_size": 16},
        "index": {"t": 4, "leaf_capacity": 8},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path, tmp_path / "work"


def write_two_category_corpus(path):
    """The fixture's Landmark corpus plus a Peak category with its own names and ids."""
    landmarks = synthetic_corpus_xml(entities=12, mentions_per_entity=4, seed=3)
    peaks = synthetic_corpus_xml(entities=10, mentions_per_entity=3, seed=4, category="Peak")
    for old, new in (("Canyon", "Ridge"), ("Harbor", "Bluff"), ("Meadow", "Crest"),
                     ("Orchard", "Knoll"), ("Summit", "Spire"), ('eid="Id', 'eid="Pk')):
        peaks = peaks.replace(old, new)
    entries = peaks.split(" <entries>\n", 1)[1].split(" </entries>", 1)[0]
    path.write_text(landmarks.replace(" </entries>", entries + " </entries>"))


def lock_holder(workdir):
    """A child process that holds ``workdir``'s lock until its stdin closes."""
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys\nfrom tablelink import cli\n"
         "with cli.workdir_lock(sys.argv[1]):\n print('held', flush=True)\n sys.stdin.read()",
         str(workdir)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=subprocess_env(),
    )
    assert child.stdout.readline() == "held\n"
    child.stdout.close()
    return child


class LockRace:
    """Named ``cli.workdir_lock`` lockers on one workdir in one process.

    ``before_next("flock", step)`` runs ``step`` between the next locker's
    open and its flock, and ``before_next("unlink", step)`` before the next
    holder unlinks its file on exit. Every entry checks that no other locker
    holds the workdir.
    """

    def __init__(self, workdir, monkeypatch):
        self.workdir, self.locks, self.held, self.entered = workdir, {}, set(), []
        self.steps = {"flock": [], "unlink": []}
        for owner, name in ((cli.fcntl, "flock"), (cli.Path, "unlink")):
            monkeypatch.setattr(owner, name, self._interleaved(getattr(owner, name), self.steps[name]))

    @staticmethod
    def _interleaved(call, steps):
        def interleaved(*args, **kwargs):
            while steps:
                steps.pop(0)()
            return call(*args, **kwargs)
        return interleaved

    def before_next(self, call, step):
        self.steps[call].append(step)

    def enter(self, name):
        lock = cli.workdir_lock(self.workdir)
        lock.__enter__()
        assert not self.held, f"{name} entered while {self.held} held the lock"
        self.held.add(name)
        self.entered.append(name)
        self.locks[name] = lock

    def exit(self, name):
        self.locks.pop(name).__exit__(None, None, None)
        self.held.remove(name)


class TestCommands:
    def test_full_command_chain(self, project, capsys):
        config_path, workdir = project
        for command in (
            "ingest", "stats", "fit", "train",
            "embed-tuples", "embed-mentions", "build-index", "link", "eval",
        ):
            assert run_command([command, "--config", str(config_path)]) == 0, command
        for name in (
            "corpus.json", "splits.json", "vectorizer_Landmark.json",
            "model_Landmark.ckpt", "tuples_Landmark.vec", "mentions_Landmark.vec",
            "tuples_Landmark.idx", "mentions_Landmark.idx", "links_Landmark.tsv",
            "report.json", "report.txt",
        ):
            assert (workdir / name).exists(), name
        out = capsys.readouterr().out
        assert "instances" in out  # stats table printed

    def test_stats_counts(self, project, capsys):
        config_path, _ = project
        assert run_command(["ingest", "--config", str(config_path)]) == 0
        assert run_command(["stats", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("Landmark"))
        fields = line.split()
        assert fields[1:4] == ["12", "12", "48"]

    def test_link_before_index_names_producer(self, project, capsys):
        config_path, _ = project
        for command in ("ingest", "fit", "train"):
            assert run_command([command, "--config", str(config_path)]) == 0
        status = run_command(["link", "--config", str(config_path)])
        assert status == 1
        assert "build-index" in capsys.readouterr().err

    def test_eval_before_embed_names_producer(self, project, capsys):
        config_path, _ = project
        assert run_command(["ingest", "--config", str(config_path)]) == 0
        assert run_command(["fit", "--config", str(config_path)]) == 0
        assert run_command(["eval", "--config", str(config_path)]) == 1
        assert "embed-tuples" in capsys.readouterr().err

    def test_link_list_length_is_index_n(self, project, capsys):
        config_path, workdir = project
        for command in INDEX_CHAIN:
            assert run_command([command, "--config", str(config_path)]) == 0, command
        assert run_command(["link", "--config", str(config_path), "--set", "index.n=3"]) == 0
        rows = (workdir / "links_Landmark.tsv").read_text().splitlines()[1:]
        anchors = [row.split("\t")[0] for row in rows]
        assert anchors and max(anchors.count(a) for a in anchors) <= 3
        capsys.readouterr()
        assert run_command(["link", "--config", str(config_path), "--set", "index.n=0"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_link_and_eval_read_only_vectors_and_indexes(self, project, tmp_path):
        """link and eval rank the stored joint-space vectors: no checkpoint or vectorizer."""
        config_path, workdir = project
        for command in INDEX_CHAIN:
            assert run_command([command, "--config", str(config_path)]) == 0, command
        bare = tmp_path / "bare"
        shutil.copytree(workdir, bare)
        (bare / "model_Landmark.ckpt").unlink()
        (bare / "vectorizer_Landmark.json").unlink()

        def run_both(*argv):
            for root in (workdir, bare):
                assert run_command([*argv, "--config", str(config_path),
                                    "--set", f"paths.workdir={root}"]) == 0, (argv, root)

        vectors = {side: read_vector_file(workdir / f"{side}_Landmark.vec")
                   for side in ("tuples", "mentions")}
        for direction, anchor_side, other_side, name in (
            ("tuple-to-mentions", "tuples", "mentions", "links_Landmark.tsv"),
            ("mention-to-tuples", "mentions", "tuples", "mention_links_Landmark.tsv"),
        ):
            run_both("link", "--direction", direction)
            links = (workdir / name).read_bytes()
            assert (bare / name).read_bytes() == links
            items = vectors[other_side]
            for row in links.decode("utf-8").splitlines()[1:]:
                anchor, counterpart, sc, rank, _ = row.split("\t")
                if rank == "1":
                    exact = dict(brute_force_knn(items, vectors[anchor_side][anchor], len(items)))
                    assert float(sc) == exact[counterpart], (anchor, counterpart)
        for root in (workdir, bare):
            for name in ("links_Landmark.tsv", "mention_links_Landmark.tsv"):
                assert (root / name).exists(), (root, name)
        tuple_anchors = {row.split("\t")[0] for row in
                         (workdir / "links_Landmark.tsv").read_text().splitlines()[1:]}
        assert tuple_anchors == set(vectors["tuples"])
        run_both("eval")
        for name in ("report.json", "report.txt"):
            assert (bare / name).read_bytes() == (workdir / name).read_bytes(), name

    def test_trees_built_only_by_a_narrow_query(self, project, monkeypatch):
        """At the default budget no command builds a tree; a budget of 1 does."""
        config_path, _ = project

        class TreeBuilt(Exception):
            pass

        def no_trees(*args):
            raise TreeBuilt

        monkeypatch.setattr(annindex, "_build_tree", no_trees)
        for argv in (*([c] for c in INDEX_CHAIN), ["link"],
                     ["link", "--direction", "mention-to-tuples"], ["eval"]):
            assert run_command([*argv, "--config", str(config_path)]) == 0, argv
        with pytest.raises(TreeBuilt):
            run_command(["link", "--config", str(config_path), "--set", "index.search_k=1"])

    def test_pipeline_rerun_identical(self, project):
        config_path, workdir = project
        assert run_command(["pipeline", "--config", str(config_path)]) == 0
        first = {
            name: (workdir / name).read_bytes()
            for name in ("report.json", "splits.json", "model_Landmark.ckpt",
                         "tuples_Landmark.vec", "mentions_Landmark.idx")
        }
        assert run_command(["pipeline", "--config", str(config_path)]) == 0
        for name, blob in first.items():
            assert (workdir / name).read_bytes() == blob, name

    def test_command_chain_matches_pipeline(self, project, tmp_path):
        config_path, chain_dir = project
        write_two_category_corpus(tmp_path / "corpus.xml")
        for command in ("ingest", "fit", "train", "embed-tuples", "embed-mentions",
                        "build-index", "eval"):
            assert run_command([command, "--config", str(config_path)]) == 0, command
        pipeline_dir = tmp_path / "pipeline"
        assert run_command(["pipeline", "--config", str(config_path),
                            "--set", f"paths.workdir={pipeline_dir}"]) == 0
        chain = {p.name: p.read_bytes() for p in chain_dir.iterdir()}
        piped = {p.name: p.read_bytes() for p in pipeline_dir.iterdir()}
        assert "model_Peak.ckpt" in chain and "tuples_Landmark.idx" in chain
        assert set(piped) - set(chain) == {"timings.json"}
        del piped["timings.json"]
        assert piped == chain

    def test_json_artifacts_and_checkpoint_headers_share_one_compact_encoding(self, project):
        config_path, workdir = project
        assert run_command(["pipeline", "--config", str(config_path)]) == 0

        def compact(blob):
            return json.dumps(json.loads(blob), sort_keys=True, separators=(",", ":")).encode()

        documents = {p.name: p.read_bytes() for p in workdir.glob("*.json")}
        assert {"corpus.json", "splits.json", "vectorizer_Landmark.json", "report.json",
                "timings.json"} <= set(documents)
        ckpt = (workdir / "model_Landmark.ckpt").read_bytes()
        documents["checkpoint header"] = ckpt[12 : 12 + struct.unpack_from("<I", ckpt, 8)[0]]
        for name, blob in documents.items():
            assert compact(blob) == blob, name

    def test_new_artifact_deletes_those_derived_from_the_old(self, project, capsys):
        config_path, workdir = project
        for step in INDEX_CHAIN:
            assert run_command([step, "--config", str(config_path)]) == 0, step
        derived = {"model_Landmark.ckpt", "tuples_Landmark.vec", "mentions_Landmark.vec",
                   "tuples_Landmark.idx", "mentions_Landmark.idx"}

        def present():
            return {p.name for p in workdir.iterdir()} & derived

        assert present() == derived
        assert run_command(["embed-tuples", "--config", str(config_path)]) == 0
        assert present() == derived - {"tuples_Landmark.idx"}
        assert run_command(["train", "--config", str(config_path),
                            "--set", "training.seed=9"]) == 0
        assert present() == {"model_Landmark.ckpt"}
        capsys.readouterr()
        assert run_command(["eval", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            "error: missing artifact tuples_Landmark.vec; run `tablelink embed-tuples` first\n"
        )
        assert run_command(["link", "--config", str(config_path)]) == 1
        assert "mentions_Landmark.idx" in capsys.readouterr().err
        for step in INDEX_CHAIN[3:]:
            assert run_command([step, "--config", str(config_path)]) == 0, step
        assert run_command(["fit", "--config", str(config_path)]) == 0
        assert present() == set()

    def test_train_log_holds_one_line_per_batch(self, project):
        config_path, workdir = project
        for step in ("ingest", "fit", "train"):
            assert run_command([step, "--config", str(config_path)]) == 0, step
        training = json.loads(config_path.read_text())["training"]
        text = (workdir / "train_Landmark.log").read_text(encoding="utf-8")
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == training["batch_budget"]
        for step, line in enumerate(lines):
            fields = line.split("\t")
            assert fields[:2] == [str(step), f"{training['lr']:.6e}"] and len(fields) == 3
            assert np.isfinite(float(fields[2]))

    def test_links_reports_and_train_log_go_with_their_inputs(self, project):
        config_path, workdir = project
        for step in (*INDEX_CHAIN, "link", "eval"):
            assert run_command([step, "--config", str(config_path)]) == 0, step
        assert run_command(["link", "--config", str(config_path),
                            "--direction", "mention-to-tuples"]) == 0
        outputs = {"links_Landmark.tsv", "mention_links_Landmark.tsv", "report.json",
                   "report.txt", "train_Landmark.log"}

        def present():
            return {p.name for p in workdir.iterdir()} & outputs

        assert present() == outputs
        assert run_command(["build-index", "--config", str(config_path)]) == 0
        assert present() == {"train_Landmark.log"}
        for step in ("link", "eval"):
            assert run_command([step, "--config", str(config_path)]) == 0, step
        assert run_command(["embed-mentions", "--config", str(config_path)]) == 0
        assert present() == {"train_Landmark.log"}
        for step in ("build-index", "link", "eval"):
            assert run_command([step, "--config", str(config_path)]) == 0, step
        assert run_command(["train", "--config", str(config_path),
                            "--set", "training.seed=9"]) == 0
        assert present() == {"train_Landmark.log"}
        assert run_command(["fit", "--config", str(config_path)]) == 0
        assert present() == set()

    def test_ingest_deletes_the_artifacts_of_the_corpus_it_replaces(self, project, tmp_path,
                                                                    capsys):
        config_path, workdir = project
        write_two_category_corpus(tmp_path / "corpus.xml")
        for step in (*INDEX_CHAIN, "link", "eval", "pipeline"):
            assert run_command([step, "--config", str(config_path)]) == 0, step
        assert {"model_Peak.ckpt", "timings.json"} <= {p.name for p in workdir.iterdir()}
        write_synthetic_corpus(tmp_path / "corpus.xml", entities=12, mentions_per_entity=4, seed=5)
        assert run_command(["ingest", "--config", str(config_path)]) == 0
        assert sorted(p.name for p in workdir.iterdir()) == ["corpus.json", "manifest.json",
                                                              "splits.json"]
        capsys.readouterr()
        assert run_command(["eval", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            "error: missing artifact tuples_Landmark.vec; run `tablelink embed-tuples` first\n"
        )

    def test_commands_that_read_no_records_leave_corpus_json_unparsed(self, project, tmp_path,
                                                                      monkeypatch):
        config_path, workdir = project
        write_two_category_corpus(tmp_path / "corpus.xml")
        for step in INDEX_CHAIN:
            assert run_command([step, "--config", str(config_path)]) == 0, step
        queries = (["build-index"], ["link"], ["link", "--direction", "mention-to-tuples"])

        def run_queries():
            for argv in queries:
                assert run_command([*argv, "--config", str(config_path)]) == 0, argv
            return {p.name: p.read_bytes() for p in workdir.iterdir()}

        unpatched = run_queries()

        def no_load(path):
            raise AssertionError(f"{path} was parsed")

        monkeypatch.setattr(cli.Corpus, "load", no_load)
        assert run_queries() == unpatched

    def test_exact_link_loads_the_corpus(self, project, monkeypatch):
        config_path, workdir = project
        assert run_command(["ingest", "--config", str(config_path)]) == 0
        loaded, load = [], cli.Corpus.load
        monkeypatch.setattr(cli.Corpus, "load", lambda path: loaded.append(path) or load(path))
        assert run_command(["link", "--config", str(config_path), "--set", "strategy=exact"]) == 0
        assert loaded == [workdir / "corpus.json"]

    def test_corpus_json_of_another_ingest_exits_one(self, project, tmp_path, capsys):
        config_path, workdir = project
        for step in INDEX_CHAIN:
            assert run_command([step, "--config", str(config_path)]) == 0, step
        other = json.loads(config_path.read_text())
        other["paths"] = {"corpus": str(tmp_path / "other.xml"), "workdir": str(tmp_path / "other")}
        write_synthetic_corpus(tmp_path / "other.xml", entities=12, mentions_per_entity=4, seed=5)
        (tmp_path / "other.json").write_text(json.dumps(other))
        assert run_command(["ingest", "--config", str(tmp_path / "other.json")]) == 0
        shutil.copyfile(tmp_path / "other" / "corpus.json", workdir / "corpus.json")
        capsys.readouterr()
        assert run_command(["build-index", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            "error: manifest.json does not match corpus.json; rerun `tablelink ingest`\n"
        )

    def test_missing_manifest_names_ingest(self, project, capsys):
        config_path, workdir = project
        for step in INDEX_CHAIN:
            assert run_command([step, "--config", str(config_path)]) == 0, step
        (workdir / "manifest.json").unlink()
        capsys.readouterr()
        for command in ("fit", "build-index", "link", "eval"):
            assert run_command([command, "--config", str(config_path)]) == 1, command
            assert capsys.readouterr().err == (
                "error: missing artifact manifest.json; run `tablelink ingest` first\n"
            )

    def test_exact_strategy_link(self, project):
        config_path, workdir = project
        assert run_command(["ingest", "--config", str(config_path)]) == 0
        status = run_command(
            ["link", "--config", str(config_path), "--set", "strategy=exact"]
        )
        assert status == 0
        lines = (workdir / "links_Landmark.tsv").read_text().splitlines()
        assert len(lines) > 1
        assert all(l.split("\t")[4] == "exact" for l in lines[1:])
        assert all(l.split("\t")[2:4] == ["1", "1"] for l in lines[1:])  # score 1, rank 1

    @pytest.mark.parametrize("name_attributes, message", [
        ({"Nope": "title"}, "'Nope' names no category"),
        ({"Landmark": "nonexistent"}, "'nonexistent' is not an attribute of 'Landmark'"),
    ])
    def test_name_attributes_outside_the_corpus_exit_one(self, project, capsys,
                                                         name_attributes, message):
        config_path, workdir = project
        assert run_command(["ingest", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert run_command(["link", "--config", str(config_path), "--set", "strategy=exact",
                            "--set", f"name_attributes={json.dumps(name_attributes)}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: name_attributes") and err.count("\n") == 1
        assert message in err
        assert not (workdir / "links_Landmark.tsv").exists()

    def test_parser_is_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_profile_and_overrides_do_not_outlive_their_call(self, project, monkeypatch):
        config_path, _ = project
        resolved = []

        def recording_load_config(*args, **kwargs):
            resolved.append(load_config(*args, **kwargs))
            return resolved[-1]

        monkeypatch.setattr(cli, "load_config", recording_load_config)
        assert run_command(["ingest", "--config", str(config_path), "--profile", "paper",
                            "--set", "training.batch_size=8"]) == 0
        assert run_command(["ingest", "--config", str(config_path)]) == 0
        first, second = resolved
        assert (first.index.t, first.training.batch_size) == (200, 8)
        assert second == load_config(config_path)

    def test_link_direction_does_not_outlive_its_call(self, project):
        config_path, workdir = project
        exact = ["--config", str(config_path), "--set", "strategy=exact"]
        assert run_command(["ingest", *exact]) == 0
        assert run_command(["link", *exact, "--direction", "mention-to-tuples"]) == 0
        assert (workdir / "mention_links_Landmark.tsv").exists()
        assert not (workdir / "links_Landmark.tsv").exists()
        assert run_command(["link", *exact]) == 0
        assert (workdir / "links_Landmark.tsv").exists()

    def test_usage_error_after_a_successful_call_reads_the_same(self, project, capsys):
        config_path, _ = project
        bogus = ["ingest", "--config", str(config_path), "--bogus"]
        assert run_command(bogus) == 1
        before = capsys.readouterr().err
        assert run_command(["ingest", "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert run_command(bogus) == 1
        assert capsys.readouterr().err == before == "error: unrecognized arguments: --bogus\n"

    @pytest.mark.parametrize("argv, usage", [(["--help"], "usage: tablelink [-h]"),
                                             (["link", "--help"], "usage: tablelink link [-h]")])
    def test_help_returns_zero_without_exiting(self, capsys, monkeypatch, argv, usage):
        monkeypatch.setenv("COLUMNS", "80")  # the help's width, as in the child below
        assert run_command(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith(usage)
        child = subprocess.run([sys.executable, "-m", "tablelink.cli", *argv],
                               capture_output=True, text=True, timeout=60,
                               env={**subprocess_env(), "COLUMNS": "80"})
        assert (child.returncode, child.stdout, child.stderr) == (0, out, "")


class TestErrors:
    def test_unknown_flag_exits_one(self, project, capsys):
        config_path, _ = project
        assert run_command(["ingest", "--config", str(config_path), "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_exits_one(self, project):
        config_path, _ = project
        assert run_command(["frobnicate", "--config", str(config_path)]) == 1

    def test_missing_command_exits_one(self):
        assert run_command([]) == 1

    def test_missing_corpus_path_exits_one(self, project, capsys):
        config_path, _ = project
        status = run_command(
            ["ingest", "--config", str(config_path), "--set", "paths.corpus=/no/such.xml"]
        )
        assert status == 1
        assert "does not exist" in capsys.readouterr().err

    def test_config_validation_failure_exits_one(self, project, capsys):
        config_path, _ = project
        status = run_command(
            ["ingest", "--config", str(config_path), "--set", "training.lr=-1"]
        )
        assert status == 1
        assert "training.lr" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "encoder.dim=0", "network.joint_dim=0", "network.hidden_r=[0]", "network.hidden_t=[0]",
        "training.margin=-1", "training.lr=0", "training.decay=0", "training.decay=1.5",
        "training.decay_every=0", "training.keep_prob=0", "training.keep_prob=1.5",
        "training.batch_size=0", "training.batch_budget=-1", "index.t=0", "index.leaf_capacity=0",
        "index.n=0", "index.search_k=0", "split.unseen_fraction=1",
        "split.test_fraction_of_seen=0", "strategy=fuzzy", "eval_ks=[]", "eval_ks=[0]",
        "eval_ks=[5,1,5]", "split.seed=-1", "training.seed=-1", f"encoder.seed={10**30}",
        f"index.seed={10**23}", "index.seed=-1", "index.t=4294967296",
        "index.leaf_capacity=4294967296", "network.joint_dim=4294967296", "training.margin=NaN",
        "training.lr=Infinity", "training.margin=Infinity", "training.decay=-Infinity",
        "split.unseen_fraction=NaN", 'name_attributes={"Landmark": 5}', "training.lr=2147483648",
    ])
    def test_config_out_of_bounds_exits_one_naming_the_key(self, project, capsys, override):
        config_path, workdir = project
        assert run_command(["ingest", "--config", str(config_path), "--set", override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert override.partition("=")[0] in err
        assert not workdir.exists()

    @pytest.mark.parametrize("key", ["encoder.dim", "network.hidden_r", "network.hidden_t",
                                     "network.joint_dim", "training.batch_size"])
    def test_sizes_are_capped_at_two_to_the_twenty(self, project, key):
        # through validate alone: a command would try to allocate the size
        config_path, _ = project

        def override(size):
            return f"{key}=[{size}]" if key.startswith("network.hidden") else f"{key}={size}"

        assert load_config(config_path, overrides=[override(2**20)]).validate()
        for size in (2**20 + 1, 2**61):
            with pytest.raises(ConfigError, match=key):
                load_config(config_path, overrides=[override(size)])

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_config_exits_one(self, tmp_path, capsys, kind):
        path = tmp_path / "c.json"
        if kind == "directory":
            path.mkdir()
        assert run_command(["ingest", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "c.json" in err[0]

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        for doc, message in (({"paths": {"corpus": "x", "typo_key": "y"}}, "unknown config key 'paths.typo_key'"),
                             ({"typo_section": {}}, "unknown config key 'typo_section'")):
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigError, match=message):
                load_config(path)

    def test_lock_blocks_concurrent_commands(self, project, capsys):
        config_path, workdir = project
        assert run_command(["ingest", "--config", str(config_path)]) == 0
        child = lock_holder(workdir)
        try:
            capsys.readouterr()
            assert run_command(["stats", "--config", str(config_path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error:") and "locked" in err[0]
            fd = os.open(workdir / ".lock", os.O_RDONLY)
            try:  # the child's lock is still held
                with pytest.raises(BlockingIOError):
                    cli.fcntl.flock(fd, cli.fcntl.LOCK_EX | cli.fcntl.LOCK_NB)
            finally:
                os.close(fd)
        finally:
            child.stdin.close()
            assert child.wait(timeout=30) == 0
        assert not (workdir / ".lock").exists()

    def test_lock_of_exited_process_is_reclaimed(self, project, capsys):
        config_path, workdir = project
        assert run_command(["ingest", "--config", str(config_path)]) == 0
        child = lock_holder(workdir)
        child.kill()
        child.wait(timeout=30)
        child.stdin.close()
        lock = workdir / ".lock"
        assert lock.exists()  # a killed holder leaves its file, not its lock
        assert run_command(["stats", "--config", str(config_path)]) == 0
        assert not lock.exists()
        for content in ("", "not-a-pid", "0", "-1"):  # the file's content is never read
            lock.write_text(content)
            assert run_command(["stats", "--config", str(config_path)]) == 0
            assert not lock.exists()

    def test_filesystem_that_refuses_locks_exits_two(self, project, capsys, monkeypatch):
        config_path, workdir = project
        assert run_command(["ingest", "--config", str(config_path)]) == 0
        capsys.readouterr()

        def refuse(fd, operation):
            raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

        monkeypatch.setattr(cli.fcntl, "flock", refuse)
        fds = os.listdir("/dev/fd")
        assert run_command(["stats", "--config", str(config_path)]) == 2
        assert os.listdir("/dev/fd") == fds  # the lock file is closed
        assert capsys.readouterr().err == (
            f"error: cannot lock {workdir / '.lock'}: {os.strerror(errno.ENOLCK)}\n"
        )

    def test_second_locker_between_open_and_flock_excludes_the_first(self, tmp_path,
                                                                      monkeypatch):
        # two lockers open the same .lock; the second takes the flock before the first
        lockers = LockRace(tmp_path, monkeypatch)
        lockers.before_next("flock", lambda: lockers.enter("second"))
        with pytest.raises(cli.linker.LinkerError, match="locked"):
            lockers.enter("first")
        assert lockers.entered == ["second"] and lockers.held == {"second"}
        lockers.exit("second")
        lockers.enter("first")
        lockers.exit("first")
        assert list(tmp_path.iterdir()) == []

    def test_locker_whose_file_was_unlinked_retries_on_the_fresh_one(self, tmp_path,
                                                                      monkeypatch):
        # the holder exits between a waiter's open and its flock
        lockers = LockRace(tmp_path, monkeypatch)
        lockers.enter("holder")
        lockers.before_next("flock", lambda: (lockers.exit("holder"), lockers.enter("third")))
        with pytest.raises(cli.linker.LinkerError, match="locked"):
            lockers.enter("waiter")
        assert lockers.held == {"third"}
        lockers.exit("third")

        lockers.enter("holder")  # with no third locker, the waiter takes a fresh file
        lockers.before_next("flock", lambda: lockers.exit("holder"))
        lockers.enter("waiter")
        assert lockers.entered == ["holder", "third", "holder", "waiter"]
        lockers.exit("waiter")
        assert list(tmp_path.iterdir()) == []

    def test_lock_holder_unlinks_its_file_before_it_lets_go(self, tmp_path, monkeypatch):
        lockers = LockRace(tmp_path, monkeypatch)
        lockers.enter("holder")

        def late():
            with pytest.raises(cli.linker.LinkerError, match="locked"):
                lockers.enter("late")

        lockers.before_next("unlink", late)
        lockers.exit("holder")
        assert lockers.entered == ["holder"]
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_artifact_fails_loudly(self, project, capsys):
        config_path, workdir = project
        assert run_command(["ingest", "--config", str(config_path)]) == 0
        blob = (workdir / "corpus.json").read_text().replace(
            '"format_version":1', '"format_version":7'
        )
        (workdir / "corpus.json").write_text(blob)
        assert run_command(["stats", "--config", str(config_path)]) == 2
        assert "version" in capsys.readouterr().err

        (workdir / "corpus.json").write_text(blob[:500])
        assert run_command(["stats", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

        assert run_command(["ingest", "--config", str(config_path)]) == 0
        assert run_command(["fit", "--config", str(config_path)]) == 0
        splits = (workdir / "splits.json").read_text()
        (workdir / "splits.json").write_text(splits[: len(splits) // 2])
        capsys.readouterr()
        assert run_command(["train", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "splits.json" in err

        for command in ("ingest", "fit", "train", "embed-tuples"):
            assert run_command([command, "--config", str(config_path)]) == 0, command
        vec = workdir / "tuples_Landmark.vec"
        vec.write_bytes(vec.read_bytes()[:-8])
        capsys.readouterr()
        assert run_command(["build-index", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and vec.name in err

    @pytest.mark.parametrize("artifact, corrupt, command", [
        ("vectorizer_Landmark.json", lambda b: b[: len(b) // 2], "train"),
        ("vectorizer_Landmark.json", lambda b: b.replace(b'"encoder"', b'"encodex"'), "train"),
        ("model_Landmark.ckpt", lambda b: b[:6], "embed-tuples"),
        ("model_Landmark.ckpt", lambda b: b[:12] + b"\xff" + b[13:], "embed-tuples"),
        ("model_Landmark.ckpt", lambda b: b.replace(b'"joint_dim"', b'"joint_dix"'), "embed-tuples"),
        ("model_Landmark.ckpt", lambda b: b.replace(b'"joint_dim":16', b'"joint_dim":15'),
         "embed-tuples"),
        ("vectorizer_Landmark.json", lambda b: first_attribute_of_one(b, "schema"), "train"),
        ("corpus.json", lambda b: first_attribute_of_one(b, "schemas", "Landmark"), "fit"),
        ("tuples_Landmark.vec", lambda b: b[:10], "build-index"),
        ("mentions_Landmark.idx", lambda b: b[:10], "link"),
        ("tuples_Landmark.vec", ids_reversed, "build-index"),
        ("corpus.json", lambda b: json_set(b, "format_version", value=9), "fit"),
        ("vectorizer_Landmark.json", lambda b: json_set(b, "format_version", value=9), "train"),
        ("vectorizer_Landmark.json", lambda b: json_set(b, "encoder", "dim", value=0), "train"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "owner", value="x"), "fit"),
        ("corpus.json", lambda b: json_drop(b, "mentions", 0, "entity_category"), "fit"),
        ("tuples_Landmark.vec", last_f32(float("nan")), "eval"),
        ("mentions_Landmark.idx", last_f32(float("nan")), "link"),
        ("model_Landmark.ckpt", last_f32(float("nan")), "embed-mentions"),
        ("tuples_Landmark.vec",
         format_version(2, "rerun `tablelink embed-tuples` / `embed-mentions`"), "build-index"),
        ("mentions_Landmark.idx", format_version(2, "rerun `tablelink build-index`"), "link"),
        ("model_Landmark.ckpt", last_f32(float("inf")), "embed-mentions"),
        ("corpus.json", lambda b: json_set(b, "mentions", 0, "mention_text", value=5), "train"),
        ("corpus.json", lambda b: json_set(b, "mentions", 0, "sentence_text", value=5), "train"),
        ("vectorizer_Landmark.json",
         lambda b: json_set(b, "numeric_stats", "height", value=["a", "b"]), "train"),
        ("vectorizer_Landmark.json",
         lambda b: json_set(b, "numeric_stats", "height", value=[430.5, 0]), "train"),
        ("vectorizer_Landmark.json", lambda b: json_drop(b, "numeric_stats", "height"), "train"),
        ("vectorizer_Landmark.json",
         lambda b: json_set(b, "vocabularies", "region", value={"Eastvale": 0}), "train"),
        ("model_Landmark.ckpt", ckpt_live("r", lambda live, dim: live[1::-1] + live[2:]),
         "embed-tuples"),
        ("model_Landmark.ckpt", ckpt_live("t", lambda live, dim: live[:-1] + [dim]), "embed-mentions"),
        ("model_Landmark.ckpt", ckpt_header(lambda h: h.update(margin="x")), "embed-tuples"),
        ("model_Landmark.ckpt", ckpt_header(lambda h: h.update(seed="x")), "embed-tuples"),
        ("model_Landmark.ckpt",
         ckpt_header(lambda h: h.update(shapes_r=[[float(o), i] for o, i in h["shapes_r"]])),
         "embed-tuples"),
        ("model_Landmark.ckpt", ckpt_header(lambda h: h.update(keep_prob_t=None)), "embed-mentions"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "values", value=["x"]), "fit"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "fk_values", value=["x"]), "fit"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "fk_values", value={"x": [1]}), "fit"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "values", "height", value="tall"), "fit"),
        ("corpus.json", lambda b: json_set(b, "mentions", 0, "entity_category", value="Nowhere"),
         "train"),
        ("corpus.json", lambda b: id_number(b, "tuples", "key", 0), "train"),
        ("corpus.json", lambda b: id_number(b, "mentions", "id", 1), "train"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "entity", value=1), "train"),
        ("splits.json", splits_overlap, "eval"),
        ("splits.json", lambda b: json_set(b, "splits", "unseen", value=[1, 2]), "eval"),
        ("splits.json", lambda b: json_set(b, "seed", value="1"), "eval"),
        ("vectorizer_Landmark.json", lambda b: json_set(b, "encoder", "seed", value=True),
         "embed-tuples"),
        ("vectorizer_Landmark.json", lambda b: json_set(b, "encoder", "dim", value=64.9),
         "embed-tuples"),
        ("vectorizer_Landmark.json", lambda b: json_set(b, "encoder", "seed", value=2**70),
         "train"),
        ("model_Landmark.ckpt", ckpt_header(lambda h: h.update(margin=float("nan"))),
         "embed-tuples"),
        ("model_Landmark.ckpt", ckpt_header(lambda h: h.update(margin=float("inf"))),
         "embed-tuples"),
        ("mentions_Landmark.idx", lambda b: b[:20] + struct.pack("<q", -1) + b[28:], "link"),
        ("mentions_Landmark.idx", lambda b: b[:12] + struct.pack("<I", 0) + b[16:], "link"),
        ("mentions_Landmark.idx", lambda b: b[:16] + struct.pack("<I", 0) + b[20:], "link"),
        ("vectorizer_Landmark.json", lambda b: json_set(b, "encoder", "dim", value=2**20 + 1),
         "train"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "values", "colour", value="red"), "stats"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "fk_values", "owner", value=[]), "train"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "values", "title", value=["a"]), "train"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "values", "region", value={"x": 1}),
         "train"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "values", "region", value=5), "train"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "values", "title", value=True), "train"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "values", "title", value=3.5), "train"),
        ("corpus.json", lambda b: json_set(b, "tuples", 0, "values", "title", value=float("nan")),
         "train"),
        ("corpus.json", lambda b: json_repeat(b, "tuples"), "stats"),
        ("corpus.json", lambda b: json_repeat(b, "mentions"), "train"),
        ("corpus.json", lambda b: json_repeat(b, "links"), "train"),
        ("corpus.json", lambda b: json_set(b, "mentions", 0, "span", value=[0.5, True]), "train"),
        ("corpus.json",
         lambda b: json_set(b, "schemas", "Landmark", "foreign_keys", value=[["near", "Peak"]]),
         "fit"),
        ("corpus.json", fk_to_other_relation, "fit"),
        ("vectorizer_Landmark.json",
         lambda b: json_set(b, "schema", "foreign_keys", value=[["near", "Peak"]]), "train"),
        ("corpus.json", json_key_repeated(b"values"), "fit"),
        ("vectorizer_Landmark.json", json_key_repeated(b"encoder"), "train"),
        ("model_Landmark.ckpt", ckpt_header_text(json_key_repeated(b"margin")), "embed-tuples"),
        ("model_Landmark.ckpt", ckpt_header(lambda h: h.update(keep_prob_r=0)), "embed-tuples"),
        ("model_Landmark.ckpt", ckpt_header(lambda h: h.update(keep_prob_t=1.5)),
         "embed-mentions"),
        ("model_Landmark.ckpt", ckpt_header(lambda h: h.update(margin=-1e-9)), "embed-tuples"),
        ("model_Landmark.ckpt", ckpt_header(lambda h: h.update(joint_dim=float(h["joint_dim"]))),
         "embed-tuples"),
        ("vectorizer_Landmark.json", lambda b: json_set(b, "encoder", "seed", value=2**63),
         "train"),
        ("vectorizer_Landmark.json", lambda b: json_set(b, "encoder", "seed", value=-1), "train"),
        ("corpus.json", categories_sharing_a_slug, "fit"),
        ("manifest.json", lambda b: json_set(b, "format_version", value=2), "build-index"),
        ("manifest.json", lambda b: json_set(b, "categories", "Landmark", "schema", "attributes",
                                             0, 1, value="date"), "build-index"),
        ("manifest.json", lambda b: json_set(b, "categories", "Landmark", "mention_count",
                                             value=-1), "build-index"),
        ("manifest.json", lambda b: json_set(b, "categories", "Landmark", "mention_count",
                                             value=48.0), "build-index"),
        ("manifest.json", lambda b: json_set(b, "corpus_sha256",
                                             value=json.loads(b)["corpus_sha256"].upper()),
         "build-index"),
        ("manifest.json", json_key_repeated(b"corpus_sha256"), "build-index"),
    ], ids=["vectorizer-cut", "vectorizer-no-encoder", "ckpt-cut-6", "ckpt-header-not-utf8",
            "ckpt-no-joint-dim", "ckpt-joint-dim-disagrees", "vectorizer-attribute-of-one",
            "corpus-attribute-of-one", "vec-cut-10", "idx-cut-10", "vec-ids-descending",
            "corpus-version", "vectorizer-version", "vectorizer-encoder-dim-0",
            "corpus-tuple-unknown-field", "corpus-mention-no-category", "vec-nan", "idx-nan",
            "ckpt-nan", "vec-version-2", "idx-version-2", "ckpt-huge", "corpus-mention-text-number",
            "corpus-sentence-text-number", "vectorizer-stats-not-numbers",
            "vectorizer-stats-std-0", "vectorizer-stats-missing", "vectorizer-vocabulary-object",
            "ckpt-live-descending", "ckpt-live-out-of-range", "ckpt-margin-string",
            "ckpt-seed-string", "ckpt-shape-float", "ckpt-keep-prob-null",
            "corpus-tuple-values-list",
            "corpus-tuple-fk-values-list", "corpus-tuple-fk-targets-not-strings",
            "corpus-numeric-not-a-number", "corpus-mention-category-unknown",
            "corpus-tuple-key-number", "corpus-mention-id-number", "corpus-tuple-entity-number",
            "splits-overlap", "splits-members-numbers", "splits-seed-string",
            "vectorizer-encoder-seed-bool", "vectorizer-encoder-dim-float",
            "vectorizer-encoder-seed-2**70", "ckpt-margin-nan", "ckpt-margin-inf",
            "idx-seed-negative", "idx-t-zero", "idx-leaf-capacity-zero",
            "vectorizer-encoder-dim-2**20+1", "corpus-attribute-undeclared",
            "corpus-foreign-key-undeclared", "corpus-text-list", "corpus-categorical-object",
            "corpus-categorical-number", "corpus-text-bool", "corpus-text-float", "corpus-text-nan",
            "corpus-tuple-key-repeated", "corpus-mention-id-repeated", "corpus-link-repeated",
            "corpus-span-not-integers", "corpus-foreign-key-targets-other-relation",
            "corpus-foreign-key-names-tuple-of-other-relation",
            "vectorizer-foreign-key-targets-other-relation", "corpus-values-key-repeated",
            "vectorizer-key-repeated", "ckpt-header-key-repeated", "ckpt-keep-prob-r-0",
            "ckpt-keep-prob-t-1.5", "ckpt-margin-negative", "ckpt-joint-dim-float",
            "vectorizer-encoder-seed-2**63",
            "vectorizer-encoder-seed-negative", "corpus-categories-share-a-slug",
            "manifest-version", "manifest-attribute-kind-unknown",
            "manifest-mention-count-negative", "manifest-mention-count-float",
            "manifest-digest-uppercase", "manifest-key-repeated"])
    def test_corrupt_artifact_exits_two_naming_it(self, project, capsys, artifact, corrupt, command):
        config_path, workdir = project
        for step in INDEX_CHAIN:
            assert run_command([step, "--config", str(config_path)]) == 0, step
        path = workdir / artifact
        path.write_bytes(corrupt(path.read_bytes()))
        capsys.readouterr()
        assert run_command([command, "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and artifact in err
        assert getattr(corrupt, "rerun", "") in err

    def test_corpus_xml_not_utf8_exits_two_naming_it(self, project, capsys):
        config_path, _ = project
        corpus_path = json.loads(config_path.read_text())["paths"]["corpus"]
        with open(corpus_path, "ab") as f:
            f.write(b"<!-- \xff -->\n")
        assert run_command(["ingest", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and corpus_path in err

    def test_categories_sharing_an_artifact_stem_exit_two(self, project, capsys):
        config_path, workdir = project
        towers = synthetic_corpus_xml(entities=12, mentions_per_entity=4, seed=3, category="Sky Tower")
        other = synthetic_corpus_xml(entities=10, mentions_per_entity=3, seed=4, category="Sky_Tower")
        entries = other.replace('eid="Id', 'eid="Sk').split(" <entries>\n", 1)[1].split(" </entries>")[0]
        corpus_path = json.loads(config_path.read_text())["paths"]["corpus"]
        with open(corpus_path, "w", encoding="utf-8") as f:
            f.write(towers.replace(" </entries>", entries + " </entries>"))
        for command in ("ingest", "pipeline"):
            assert run_command([command, "--config", str(config_path)]) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and corpus_path in err
            assert "'Sky Tower'" in err and "'Sky_Tower'" in err
            assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("xml, message", [
        ("<benchmark><entries><entry></entries></benchmark>", "malformed XML at byte offset"),
        ("<benchmark><entries/></benchmark>", "no <entry> elements"),
        ("<entry eid='Id9'><modifiedtripleset><mtriple>A | b</mtriple></modifiedtripleset>"
         "<lex>A.</lex></entry>", "malformed triple"),
        ("<entry eid='Id9'><modifiedtripleset/><lex>A.</lex></entry>", "empty triple set"),
        ("<entry eid='Id9'><modifiedtripleset><mtriple>A | b | c</mtriple></modifiedtripleset>"
         "</entry>", "no lexicalization"),
    ], ids=["malformed-xml", "no-entries", "malformed-triple", "empty-triple-set",
            "no-lexicalization"])
    def test_corpus_xml_rejected_exits_two_naming_it(self, project, capsys, xml, message):
        config_path, workdir = project
        corpus_path = json.loads(config_path.read_text())["paths"]["corpus"]
        with open(corpus_path, "w", encoding="utf-8") as f:
            f.write(xml)
        assert run_command(["ingest", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus_path}: ") and err.count("\n") == 1 and message in err
        assert list(workdir.iterdir()) == []

    def test_eval_on_vectors_missing_an_anchor_exits_two(self, project, capsys):
        config_path, workdir = project
        for step in INDEX_CHAIN:
            assert run_command([step, "--config", str(config_path)]) == 0, step
        path = workdir / "tuples_Landmark.vec"
        vecs = read_vector_file(path)
        write_vector_file(path, {key: vecs[key] for key in vecs.ids[1:]})
        capsys.readouterr()
        assert run_command(["eval", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "embed-tuples" in err

    def test_override_of_wrong_type_exits_one(self, project, capsys):
        config_path, _ = project
        status = run_command(
            ["ingest", "--config", str(config_path), "--set", "training.batch_size=abc"]
        )
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "training.batch_size" in err
        for override, message in (
                ('name_attributes={"Landmark": "title", "Landmark": "title"}', "repeated key"),
                ("encoder.seed=" + "1" * 5000, "limit")):
            assert run_command(["ingest", "--config", str(config_path), "--set", override]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        lr = load_config(config_path, overrides=["training.lr=1"]).training.lr
        assert lr == 1.0 and isinstance(lr, float)

    def test_config_file_value_of_wrong_type_exits_one(self, project, capsys):
        config_path, _ = project
        config = json.loads(config_path.read_text())
        for section, key, value in (("training", "batch_size", "abc"),
                                    ("network", "hidden_r", [32, "x"]),
                                    (None, "eval_ks", 10)):
            bad = json.loads(json.dumps(config))
            (bad[section] if section else bad)[key] = value
            config_path.write_text(json.dumps(bad))
            assert run_command(["ingest", "--config", str(config_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and key in err
        index_twice = json.dumps(config)[:-1] + ', "index": ' + json.dumps(config["index"]) + "}"
        for text in ('{"training": 5}', "[1]", '{"paths": ', index_twice):
            config_path.write_text(text)
            assert run_command(["ingest", "--config", str(config_path)]) == 1
            assert capsys.readouterr().err.startswith("error: ")
        config["training"]["lr"] = 1
        config_path.write_text(json.dumps(config))
        lr = load_config(config_path).training.lr
        assert lr == 1.0 and isinstance(lr, float)

    def test_stale_checkpoint_names_train(self, project, capsys):
        self._check_stale_checkpoint_names_train(project, capsys, "embed-tuples")

    def test_stale_checkpoint_names_train_on_embed_mentions(self, project, capsys):
        self._check_stale_checkpoint_names_train(project, capsys, "embed-mentions")

    @staticmethod
    def _check_stale_checkpoint_names_train(project, capsys, embed):
        config_path, workdir = project
        for command in ("ingest", "fit", "train"):
            assert run_command([command, "--config", str(config_path)]) == 0
        ckpt = workdir / "model_Landmark.ckpt"
        old = ckpt.read_bytes()
        assert run_command(
            ["fit", "--config", str(config_path), "--set", "encoder.dim=16"]
        ) == 0
        assert not ckpt.exists()  # fit deletes it; put the old one back
        ckpt.write_bytes(old)
        capsys.readouterr()
        assert run_command([embed, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "model_Landmark.ckpt" in err and "rerun `tablelink train`" in err

    def test_version_1_checkpoint_exits_two_naming_train(self, project, capsys):
        config_path, workdir = project
        for command in ("ingest", "fit", "train"):
            assert run_command([command, "--config", str(config_path)]) == 0
        ckpt = workdir / "model_Landmark.ckpt"
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        capsys.readouterr()
        assert run_command(["embed-tuples", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "model_Landmark.ckpt" in err and "rerun `tablelink train`" in err

    def test_embed_refuses_vectors_whose_norm_overflows(self, project):
        config_path, workdir = project
        for command in ("ingest", "fit", "train"):
            assert run_command([command, "--config", str(config_path)]) == 0
        art = cli.CategoryArtifacts(cli.Workdir(workdir), "Landmark", 0)
        # one f64 layer per side of finite weights whose outputs square past the f64 range
        nets = [DenseNet([np.full((4, art.raw_vectors(side).dim), 1e200)], [np.zeros(4)])
                for side in ("tuples", "mentions")]
        art.put("model_{}.ckpt", EmbedderPair(*nets, joint_dim=4))
        with pytest.raises(TrainingError, match="model_Landmark.ckpt: embeds tuples to vectors "
                                                "with non-finite components"):
            cli._stage_embed(art, "tuples")
        assert not (workdir / "tuples_Landmark.vec").exists()


class TestProfiles:
    def test_paper_profile_pins_hyperparameters(self):
        config = apply_profile(ProjectConfig(), "paper")
        assert config.training.margin == 0.001
        assert config.training.keep_prob == 0.75
        assert config.training.lr == 1e-5
        assert config.training.decay == 0.9
        assert config.training.decay_every == 1000
        assert config.index.t == 200
        assert config.index.n == 10

    def test_paper_profile_reaches_the_command(self, project, capsys):
        config_path, workdir = project
        for step in INDEX_CHAIN[:-1]:
            assert run_command([step, "--config", str(config_path)]) == 0, step
        capsys.readouterr()
        assert run_command(["build-index", "--config", str(config_path), "--profile", "paper"]) == 0
        assert "indexed 12 tuples vectors for Landmark (t=200)" in capsys.readouterr().out
        assert annindex.load_forest(workdir / "mentions_Landmark.idx").t == 200

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError, match="unknown profile"):
            apply_profile(ProjectConfig(), "galactic")

    def test_profiles_registry(self):
        assert set(PROFILES) == {"desk", "paper"}


def one_category_report(value=1.0):
    report = EvalReport(ks=(1, 5, 10))
    for split in ("test", "train", "unseen"):
        hits = {k: int(value * 4) for k in (1, 5, 10)}
        report.add_cell(TUPLE_TO_MENTIONS, split, "Building", hits, 4)
    report.finalize_overall()
    return report


class TestEmitReport:
    def test_single_row_nine_cells(self):
        table = one_category_report().table()
        lines = [l for l in table.splitlines() if l.strip()]
        assert len(lines) == 2
        cells = lines[1].split()
        assert cells[0] == "Building"
        assert cells[1:] == ["1.00"] * 9

    def test_empty_report_header_only(self):
        report = EvalReport(ks=(1, 5, 10))
        table = report.table()
        lines = [l for l in table.splitlines() if l.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("category")
        assert report.to_dict()["cells"] == {}

    def test_deterministic_bytes(self):
        report = one_category_report(0.75)
        assert report.to_dict() == report.to_dict()
        assert report.table() == report.table()
