"""Seeded mutation sweep and config sweep of the CLI exit contract.

Each mutant of a workdir artifact, a truncation or a single-byte flip, goes
to a command that reads it, and each mutant of the corpus XML goes to
``ingest``, in a workdir of its own (a successful ``ingest`` replaces every
artifact). Each numeric config key goes through ``--set``,
with boundary values, to the first command that reads it. The command must
exit 0, or exit 1 or 2 with exactly one ``error:`` line and no traceback. A
flip inside a float that stays finite is legal input and may exit 0, so the
sweep requires only the contract.

Tier 1 runs a fixed subset: 3 truncations and 3 flips of each of the 10
inputs, and the config cases in ``CONFIG_PROBES`` plus every 11th other one.
The whole sweep (11 truncations and 65 flips per input, every key with every
value) is opt-in:

    TABLELINK_MUTATION_SWEEP=1 PYTHONPATH=src python -m pytest -q tests/test_mutation_sweep.py
"""

import contextlib
import dataclasses
import io
import json
import os

import numpy as np
import pytest

from tablelink.cli import run_command
from tablelink.config import BOUNDS, ConfigError, ProjectConfig, load_config
from tablelink.synthetic import write_synthetic_corpus

FULL = os.environ.get("TABLELINK_MUTATION_SWEEP") == "1"

# artifact -> the command that reads it
READERS = {
    "corpus.json": ["fit"],
    "manifest.json": ["build-index"],
    "splits.json": ["train"],
    "vectorizer_Landmark.json": ["embed-tuples"],
    "model_Landmark.ckpt": ["embed-mentions"],
    "tuples_Landmark.vec": ["build-index"],
    "mentions_Landmark.vec": ["eval"],
    "tuples_Landmark.idx": ["link", "--direction", "mention-to-tuples"],
    "mentions_Landmark.idx": ["link"],
}
# The XML comes last, so each workdir artifact keeps its seed.
INPUTS = [*sorted(READERS), "corpus.xml"]


def mutants(blob, seed):
    """(label, bytes) of truncations at fixed offsets and seeded single-byte flips.

    Half of the flips fall in the first 256 bytes, where every header is.
    """
    n = len(blob)
    cuts = sorted({0, 1, 4, 8, 12, 20, n // 4, n // 2, 3 * n // 4, n - 8, n - 1})
    rng = np.random.default_rng(seed)
    positions = np.concatenate([rng.integers(0, min(n, 256), 33), rng.integers(0, n, 32)])
    flips = list(zip(positions.tolist(), rng.integers(1, 256, len(positions)).tolist()))
    if not FULL:
        cuts, flips = cuts[::4], flips[::22]
    for cut in cuts:
        yield f"cut@{cut}", blob[:cut]
    for pos, mask in flips:
        flipped = bytearray(blob)
        flipped[pos] ^= mask
        yield f"flip@{pos}^{mask:#04x}", bytes(flipped)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A config and the pristine bytes of a workdir after the command chain up to build-index."""
    root = tmp_path_factory.mktemp("sweep")
    write_synthetic_corpus(root / "corpus.xml", entities=12, mentions_per_entity=3, seed=3)
    config = {
        "paths": {"corpus": str(root / "corpus.xml"), "workdir": str(root / "work")},
        "encoder": {"dim": 32, "seed": 0},
        "network": {"hidden_r": [16], "hidden_t": [], "joint_dim": 8},
        "training": {"batch_budget": 5, "batch_size": 8},
        "index": {"t": 2, "leaf_capacity": 4},
    }
    (root / "config.json").write_text(json.dumps(config))
    config["paths"] = {"corpus": str(root / "mutant.xml"), "workdir": str(root / "xml-work")}
    (root / "xml.json").write_text(json.dumps(config))
    for step in ("ingest", "fit", "train", "embed-tuples", "embed-mentions", "build-index"):
        assert quiet_run([step, "--config", str(root / "config.json")])[0] == 0, step
    work = root / "work"
    return root / "config.json", work, {p.name: p.read_bytes() for p in work.iterdir()}


def quiet_run(argv):
    """(exit status, stderr) of ``run_command(argv)``, with its output captured."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = run_command(argv)
    return status, err.getvalue()


def restore(work, pristine, replaced=None):
    """Put the workdir back to its ``pristine`` bytes, with ``replaced`` (name -> bytes) swapped in."""
    for path in work.iterdir():
        if path.name not in pristine:
            path.unlink()
    for name, original in pristine.items():
        (work / name).write_bytes((replaced or {}).get(name, original))


def contract_breach(argv):
    """How ``run_command(argv)`` breaks the exit contract, or None if it keeps it."""
    try:
        status, err = quiet_run(argv)
    except Exception as exc:  # an escape from the exit contract is the finding
        return f"raised {type(exc).__name__}: {exc}"
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if status != 0 and (status not in (1, 2) or len(errors) != 1 or "Traceback" in err):
        return f"exit {status}, stderr {err!r}"
    return None


@pytest.mark.parametrize("artifact", INPUTS)
def test_every_mutant_keeps_the_exit_contract(workdir, artifact):
    config_path, work, pristine = workdir
    if artifact == "corpus.xml":  # ``xml.json`` reads ``mutant.xml`` into a workdir of its own
        original, command = config_path.with_name(artifact).read_bytes(), ["ingest"]
        config_path = config_path.with_name("xml.json")
    else:
        original, command = pristine[artifact], READERS[artifact]
    broken = []
    for label, blob in mutants(original, seed=INPUTS.index(artifact)):
        if artifact == "corpus.xml":
            config_path.with_name("mutant.xml").write_bytes(blob)
        else:
            restore(work, pristine, {artifact: blob})
        breach = contract_breach([*command, "--config", str(config_path)])
        if breach:
            broken.append(f"{label}: {breach}")
    assert not broken, f"{artifact} fed to `{' '.join(command)}`:\n" + "\n".join(broken)


NARROW_LINK = ["link", "--set", "index.search_k=2", "--set", "index.n=1"]

# numeric config key -> the first command that reads it
CONFIG_READERS = {
    "encoder.dim": ["fit"],
    "encoder.seed": ["fit"],
    **{f"network.{key}": ["train"] for key in ("hidden_r", "hidden_t", "joint_dim")},
    **{f"training.{key}": ["train"] for key in ("margin", "lr", "decay", "decay_every",
                                                "keep_prob", "batch_size", "batch_budget", "seed")},
    **{f"index.{key}": ["build-index"] for key in ("t", "leaf_capacity", "seed")},
    "index.search_k": NARROW_LINK,
    "index.n": NARROW_LINK,
    **{f"split.{key}": ["ingest"] for key in ("seed", "unseen_fraction", "test_fraction_of_seen")},
    "eval_ks": ["eval"],
}
LIST_KEYS = {"network.hidden_r", "network.hidden_t", "eval_ks"}
BOUNDARY_VALUES = ("-1", "0", str(2**31), str(2**32), str(2**63), str(2**64),
                   "NaN", "Infinity", "-Infinity")
# A command allocates or loops in proportion to these: a large one goes through validate alone.
SIZES = {"encoder.dim", "network.hidden_r", "network.hidden_t", "network.joint_dim",
         "training.batch_size", "training.batch_budget", "index.t"}
# validate caps these sizes at 2**20, so a large one must raise ConfigError.
CAPPED = {"encoder.dim", "network.hidden_r", "network.hidden_t", "network.joint_dim",
          "training.batch_size"}
# Values that once ended in a traceback or exited 0; tier 1 always runs them.
CONFIG_PROBES = {("split.seed", "-1"), ("training.seed", "-1"), ("encoder.seed", str(2**64)),
                 ("index.seed", str(2**64)), ("index.seed", "-1"), ("index.t", str(2**32)),
                 ("index.leaf_capacity", str(2**32)), ("training.margin", "NaN"),
                 ("training.lr", "Infinity"), ("training.margin", "Infinity")}
CONFIG_CASES = [(key, value) for key in CONFIG_READERS for value in BOUNDARY_VALUES]
if not FULL:
    CONFIG_CASES = [case for i, case in enumerate(CONFIG_CASES)
                    if case in CONFIG_PROBES or i % 11 == 0]


def test_config_sweep_covers_every_numeric_key():
    """The sweep and ``config.BOUNDS`` each hold exactly the numeric config keys."""
    numeric = (int, float, int | None, list[int])

    def keys(section, parts=()):
        for f in dataclasses.fields(section):
            if dataclasses.is_dataclass(f.type):
                yield from keys(f.type, (*parts, f.name))
            elif f.type in numeric:
                yield ".".join((*parts, f.name))

    assert sorted(keys(ProjectConfig)) == sorted(CONFIG_READERS) == sorted(BOUNDS)


@pytest.mark.parametrize("key, value", CONFIG_CASES)
def test_every_config_value_keeps_the_exit_contract(workdir, key, value):
    config_path, work, pristine = workdir
    override = f"{key}=[{value}]" if key in LIST_KEYS else f"{key}={value}"
    if key in CAPPED and value.isdigit() and int(value) >= 2**31:
        with pytest.raises(ConfigError, match=key):
            load_config(config_path, overrides=[override])
        return
    if key in SIZES and value.isdigit() and int(value) >= 2**31:
        try:
            load_config(config_path, overrides=[override])
        except ConfigError:
            pass
        return
    restore(work, pristine)
    command = [*CONFIG_READERS[key], "--config", str(config_path), "--set", override]
    breach = contract_breach(command)
    assert breach is None, f"`{' '.join(command)}`: {breach}"
