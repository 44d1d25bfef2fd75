"""tablelink benchmark: three workloads, end-to-end metrics, a traced run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload desk-pipeline --seed 1 --seconds 30 --trace 0

Each workload runs in this one process as a closed loop with one client:
every ``tablelink.cli.run_command`` call starts when the previous returns.
Inputs are generated from ``--seed``; the program sees only the corpus XML
and a config file. Passes repeat until ``--seconds`` would be exceeded.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
installs the external tracer (perfbench/tracer.py) for set-up and one
measured pass, alternates it with untraced passes, and reports the
per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object; the lines before it record the environment, the
corpus shape, per-command timings and the correctness checks. See
perfbench/README.md for why each workload exists.
"""

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
WARM_PASSES = 3  # fewest untraced passes after the cold first one
CHAIN = ("ingest", "fit", "train", "embed-tuples", "embed-mentions", "build-index", "link", "eval")
PREPARE = CHAIN[:5]

# Per-command figures printed beside the end-to-end metrics: name -> commands.
COMMAND_GROUPS = {
    "desk-pipeline": {"pipeline_s": ("pipeline",)},
    "webnlg-chain": {
        "ingest_s": ("ingest", "fit"),
        "train_s": ("train",),
        "embed_s": ("embed-tuples", "embed-mentions"),
        "build_index_s": ("build-index",),
        "link_s": ("link",),
        "eval_s": ("eval",),
    },
    "paper-index": {"build_index_s": ("build-index",), "link_s": ("link",)},
}

# Training budgets are cut from the default 2400 batches so that several
# passes fit in one run; see README.md.
WORKLOADS = {
    "desk-pipeline": {
        "corpus": {"kind": "synthetic", "entities": 30, "mentions_per_entity": 10},
        "config": {"training": {"batch_budget": 300}},
        "profile": None,
        "prepared": False,
        "pass": ("pipeline",),
        "recall_samples": None,
        "quality_floor": 0.5,
    },
    "webnlg-chain": {
        "corpus": {"kind": "webnlg", "categories": 3, "roots_per_category": 70},
        "config": {"training": {"batch_budget": 15}},
        "profile": None,
        "prepared": False,
        "pass": CHAIN,
        "recall_samples": None,
        "quality_floor": 0.3,
    },
    "paper-index": {
        "corpus": {"kind": "webnlg", "categories": 2, "roots_per_category": 30},
        "config": {"training": {"batch_budget": 10}},
        "profile": "paper",
        "prepared": True,
        "pass": ("build-index", "link"),
        "recall_samples": 8,
        "quality_floor": None,
    },
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program to measure)."""


def log(msg):
    print(msg, flush=True)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "tablelink", "cli.py")):
        raise BenchError(f"no tablelink sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import tablelink.cli  # noqa: F401
    import tablelink
    return tablelink


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def blas_record():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
    return name, threads


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as f:
        ref = f.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        return ref[5:]
    return ref


def environment(workload, seed):
    import numpy as np
    blas, threads = blas_record()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "commit": commit(),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def make_corpus(spec, seed, path):
    """Write the workload corpus; returns its shape per category and digest."""
    if spec["kind"] == "synthetic":
        from tablelink.synthetic import synthetic_corpus_xml
        text = synthetic_corpus_xml(
            entities=spec["entities"], mentions_per_entity=spec["mentions_per_entity"], seed=seed)
        n, m = spec["entities"], spec["entities"] * spec["mentions_per_entity"]
        shape = {"Landmark": {"entities": n, "tuples": n, "mentions": m, "links": m}}
    else:
        from webnlg_corpus import webnlg_corpus_xml
        text, shape = webnlg_corpus_xml(
            seed, categories=spec["categories"], roots_per_category=spec["roots_per_category"])
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return shape, hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_config(path, corpus, workdir, overrides):
    config = {"paths": {"corpus": corpus, "workdir": workdir}}
    config.update(overrides)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config, f, indent=1, sort_keys=True)


def digest(workdir):
    """SHA-256 over the files of a directory, except timings.json (wall times vary)."""
    if not os.path.isdir(workdir):
        return "missing workdir"
    h = hashlib.sha256()
    for name in sorted(os.listdir(workdir)):
        path = os.path.join(workdir, name)
        if name in ("timings.json", ".lock") or not os.path.isfile(path):
            continue
        h.update(name.encode("utf-8") + b"\0")
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def tree_bytes(workdir, suffix=""):
    if not os.path.isdir(workdir):
        return 0
    return sum(os.path.getsize(os.path.join(workdir, n))
               for n in os.listdir(workdir) if n.endswith(suffix))


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Runner:
    """Runs CLI commands in-process, counts them and times them."""

    def __init__(self, cli, config_path, profile, log_path, tracer=None):
        self.cli = cli
        self.base = ["--config", config_path] + (["--profile", profile] if profile else [])
        self.log = open(log_path, "w", encoding="utf-8")
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.times = {}

    def close(self):
        self.log.close()

    def run(self, command, record=True):
        self.attempted += 1
        span = self.tracer.span(f"cli.{command}") if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(self.log), contextlib.redirect_stderr(self.log), span:
            started = time.perf_counter()
            status = self.cli.run_command([command] + self.base)
            elapsed = time.perf_counter() - started
        if status != 0:
            self.failed += 1
        if record:
            self.times.setdefault(command, []).append(elapsed)
        return elapsed


def import_time():
    """Wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=SRC)
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tablelink.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - started


def measure_setup(spec, runner, workdir, tracer):
    """Set-up, repeated: returns (median seconds, checks).

    One set-up is a fresh interpreter importing the CLI, plus the preparing
    commands where the workload has them.
    """
    setups, digests = [], set()
    with traced_span(tracer, "bench.setup"):
        for _ in range(SETUP_REPEATS):
            elapsed = import_time()
            if spec["prepared"]:
                shutil.rmtree(workdir, ignore_errors=True)
                elapsed += sum(runner.run(c, record=False) for c in PREPARE)
                digests.add(digest(workdir))
            setups.append(elapsed)
    checks = [("set-up repeats write identical artifacts", len(digests) == 1)] if digests else []
    return statistics.median(setups), checks


def measure_passes(spec, runner, workdir, seconds, tracer):
    """Measured passes until the next would end after ``seconds``.

    The first untraced pass runs cold; at least ``WARM_PASSES``
    untraced passes follow it, and ``wall_s`` is their median. With a
    tracer, the third pass is traced and the others are not, so the
    overhead is measured in the same process. Returns the untraced pass
    times (cold first), the traced pass time, the workdir size after the
    traced pass, the peak RSS in MiB after the first pass (before any check
    reads artifacts) and the set of artifact digests.
    """
    walls, traced_wall, workdir_bytes, digests = [], None, 0, set()
    peak_rss_mb = None
    started = time.perf_counter()
    while True:
        if not spec["prepared"]:
            shutil.rmtree(workdir, ignore_errors=True)
        traced = tracer is not None and len(walls) == 2 and traced_wall is None
        with traced_span(tracer if traced else None, "bench.pass"):
            wall = sum(runner.run(c, record=not traced) for c in spec["pass"])
        if traced:
            traced_wall = wall
            workdir_bytes = tree_bytes(workdir)
        else:
            walls.append(wall)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digests.add(digest(workdir))
        log(f"pass {len(walls) + (traced_wall is not None)} wall = {wall:.4f} s"
            + (" (traced)" if traced else ""))
        if len(walls) > WARM_PASSES and time.perf_counter() - started + wall > seconds:
            return walls, traced_wall, workdir_bytes, peak_rss_mb, digests


@contextlib.contextmanager
def traced_span(tracer, name):
    """Install the tracer's wrappers for the block and record it as a span."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        with tracer.span(name):
            yield
    finally:
        tracer.uninstall()


def check(label, fn, *args):
    """Run one correctness check; a missing or malformed artifact fails it."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return (f"{label} ({type(exc).__name__}: {exc})", False)


def run_workload(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    package = import_package()
    from tablelink import annindex, vectorize
    from tablelink.config import load_config

    for key, value in environment(name, seed).items():
        log(f"env {key} = {value}")

    base = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    corpus_path = os.path.join(base, "corpus.xml")
    shape, corpus_digest = make_corpus(spec["corpus"], seed, corpus_path)
    for category, counts in sorted(shape.items()):
        log("corpus " + category + " " + " ".join(f"{k}={v}" for k, v in counts.items()))

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer(package)

    config_path = os.path.join(base, "config.json")
    workdir = os.path.join(base, "work")
    write_config(config_path, corpus_path, workdir, spec["config"])
    input_key = hashlib.sha256(json.dumps(
        [name, spec["config"], spec["profile"], corpus_digest, digest(package.__path__[0])]
    ).encode("utf-8")).hexdigest()
    log_path = os.path.join(base, "commands.log")
    runner = Runner(package.cli, config_path, spec["profile"], log_path, tracer)
    try:
        setup_s, checks = measure_setup(spec, runner, workdir, tracer)
        walls, traced_wall, workdir_bytes, peak_rss_mb, digests = measure_passes(
            spec, runner, workdir, seconds, tracer)
    finally:
        runner.close()
    log(f"cold first pass = {walls[0]:.4f} s, warm pass median = "
        f"{statistics.median(walls[1:]):.4f} s")
    log(f"peak RSS after the first pass = {peak_rss_mb:.3f} MiB, after the last = "
        f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.3f} MiB")

    # Correctness checks, after the timed phase.
    checks.append((f"all {runner.attempted} commands exit 0", runner.failed == 0))
    checks.append((f"{len(walls) + (traced_wall is not None)} passes write identical artifacts",
                   len(digests) == 1))
    checks.append(stored_digest_check(input_key, digests.pop() if len(digests) == 1 else None))
    checks.append(check("corpus.json shape", shape_check, workdir, shape))
    quality = {}
    if spec["quality_floor"] is not None:
        ok, quality = report_check(workdir)
        checks.append(("report.json holds the test, train and unseen splits", ok))
        pooled = quality.get("p_at_10_pooled", 0.0)
        checks.append((f"pooled P@10 {pooled:.4f} >= {spec['quality_floor']}",
                       pooled >= spec["quality_floor"]))
    else:
        checks.append(check("link files", links_check, workdir, shape))
    config = load_config(config_path, profile=spec["profile"])
    recall = forest_recall(workdir, annindex, vectorize, seed, spec["recall_samples"],
                           config.index.n, config.index.search_k)
    search_k = config.index.search_k or annindex.default_search_k(config.index.n, config.index.t)
    checks.append((f"forest recall@{config.index.n} at search_k={search_k} "
                   f"against brute force = {recall}", recall is not None))

    for group, commands in COMMAND_GROUPS[name].items():
        per_pass = [sum(runner.times[c][i] for c in commands)
                    for i in range(1, len(runner.times[commands[0]]))]
        log(f"command {group} = {statistics.median(per_pass):.4f} s "
            f"(median of {len(per_pass)} warm untraced passes)")
    for key, value in sorted(quality.items()):
        log(f"quality {key} = {value:.4f} ratio")
    for label, ok in checks:
        log(f"check {'ok  ' if ok else 'FAIL'} {label}")
    if runner.failed:
        with open(log_path, encoding="utf-8") as f:
            for line in f:
                if line.startswith("error:"):
                    log(line.rstrip())

    if tracer:
        tracer.write(os.path.join(WORK, f"trace-{name}-{seed}.json"))
        from tracer import layer_metrics
        metrics, notes = layer_metrics(tracer.spans, gold_tuple_keys(workdir))
        metrics["cli.workdir_bytes"] = (workdir_bytes, "bytes")
        untraced = statistics.median(walls[1:])
        overhead = traced_wall - untraced
        notes.append(f"tracing overhead = {overhead:.4f} s on a {untraced:.4f} s pass "
                     f"({100 * overhead / untraced:.1f}%)")
        for note in notes:
            log(f"trace {note}")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls[1:]), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "index_mb": (tree_bytes(workdir, ".idx") / 2**20, "MB"),
            "forest_recall_at_10": (recall or 0.0, "ratio"),
        }
    for key, (value, unit) in metrics.items():
        log(f"metric {key} = {value} {unit}")
    shutil.rmtree(base, ignore_errors=True)
    return {
        "correct": all(ok for _, ok in checks),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def stored_digest_check(key, value):
    """Every run on the same inputs, traced or not, writes the same bytes.

    ``key`` digests the workload's inputs (corpus XML, config, profile) and
    the program's sources, so a changed generator, workload or program
    starts a fresh record.
    """
    path = os.path.join(WORK, "digests.json")
    stored = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as f:
            stored = json.load(f)
    if value is None:
        return ("artifact digest matches earlier runs on these inputs", False)
    if key in stored:
        return (f"artifact digest {value[:12]} matches earlier runs on these inputs",
                stored[key] == value)
    stored[key] = value
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(stored, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return (f"artifact digest {value[:12]} recorded for these inputs", True)


def shape_check(workdir, shape):
    with open(os.path.join(workdir, "corpus.json"), encoding="utf-8") as f:
        corpus = json.load(f)
    relation = {t["key"]: t["relation"] for t in corpus["tuples"]}
    seen = {c: {"tuples": 0, "mentions": 0, "links": 0} for c in corpus["schemas"]}
    for t in corpus["tuples"]:
        seen[t["relation"]]["tuples"] += 1
    for m in corpus["mentions"]:
        seen[m["entity_category"]]["mentions"] += 1
    for tuple_key, _ in corpus["links"]:
        seen[relation[tuple_key]]["links"] += 1
    expected = {c: {k: s[k] for k in ("tuples", "mentions", "links")} for c, s in shape.items()}
    return ("corpus.json holds the generated tuples, mentions and links", seen == expected)


def report_check(workdir):
    """report.json parses and holds all splits; returns quality figures."""
    try:
        with open(os.path.join(workdir, "report.json"), encoding="utf-8") as f:
            cells = json.load(f)["cells"]
        primary = cells["tuple_to_mentions"]
        ok = all(s in primary and "overall" in primary[s] for s in ("test", "train", "unseen"))
        hits = count = 0
        for by_split in cells.values():
            for split in ("test", "train", "unseen"):
                cell = by_split.get(split, {}).get("overall", {})
                hits += cell.get("hits", {}).get("10", 0)
                count += cell.get("count", 0)
        return ok, {
            "p_at_1_test": primary["test"]["overall"]["precision"]["1"],
            "p_at_10_unseen": primary["unseen"]["overall"]["precision"]["10"],
            "p_at_10_pooled": hits / count if count else 0.0,
        }
    except (OSError, ValueError, KeyError):
        return False, {}


def links_check(workdir, shape):
    anchors = 0
    for name in os.listdir(workdir):
        if name.startswith("links_") and name.endswith(".tsv"):
            with open(os.path.join(workdir, name), encoding="utf-8") as f:
                rows = [line.rstrip("\n").split("\t") for line in f][1:]
            anchors += len({r[0] for r in rows if int(r[3]) >= 1})
    expected = sum(s["tuples"] for s in shape.values())
    return (f"links rank all {expected} tuple anchors", anchors == expected)


def gold_tuple_keys(workdir):
    try:
        with open(os.path.join(workdir, "corpus.json"), encoding="utf-8") as f:
            return {tuple_key for tuple_key, _ in json.load(f)["links"]}
    except (OSError, ValueError, KeyError):
        return set()


def forest_recall(workdir, annindex, vectorize, seed, samples, n, search_k):
    """Recall@n of the saved forests against brute force.

    Each forest is queried with the ``n`` and ``search_k`` of the
    workload's resolved config, as ``link`` and ``eval`` query it, by the
    vectors of the opposite side's ``.vec`` file: all of them, or a seeded
    sample of ``samples`` per forest. Returns None when the artifacts
    cannot be read.
    """
    import numpy as np
    rng = np.random.default_rng(seed)
    overlaps = []
    try:
        for name in sorted(os.listdir(workdir)):
            if not name.endswith(".idx"):
                continue
            side, rest = name.split("_", 1)
            other = "mentions" if side == "tuples" else "tuples"
            forest = annindex.load_forest(os.path.join(workdir, name))
            queries = vectorize.read_vector_file(os.path.join(workdir, f"{other}_{rest[:-4]}.vec"))
            keys = sorted(queries)
            picks = range(len(keys)) if samples is None else rng.choice(
                len(keys), size=min(samples, len(keys)), replace=False)
            for i in picks:
                q = queries[keys[int(i)]]
                got = {k for k, _ in forest.query(q, n, search_k=search_k)}
                want = {k for k, _ in annindex.brute_force_knn(forest, q, n)}
                overlaps.append(len(got & want) / len(want))
    except (OSError, ValueError) as exc:
        log(f"error forest recall: {type(exc).__name__}: {exc}")
        return None
    return float(np.mean(overlaps)) if overlaps else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
