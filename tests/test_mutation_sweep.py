"""Seeded mutation sweep of the CLI exit contract.

Each mutant of a workdir artifact, a truncation or a single-byte flip, goes
to a command that reads it. The command must exit 0, or exit 1 or 2 with
exactly one ``error:`` line and no traceback. A flip inside a float that stays
finite is legal input and may exit 0, so the sweep requires only the
contract.

Tier 1 runs a fixed subset of each artifact's mutants (3 truncations and 3
flips). The whole sweep (11 truncations and 65 flips per artifact) is opt-in:

    TABLELINK_MUTATION_SWEEP=1 PYTHONPATH=src python -m pytest -q tests/test_mutation_sweep.py
"""

import contextlib
import io
import json
import os

import numpy as np
import pytest

from tablelink.cli import run_command
from tablelink.synthetic import write_synthetic_corpus

FULL = os.environ.get("TABLELINK_MUTATION_SWEEP") == "1"

# artifact -> the command that reads it
READERS = {
    "corpus.json": ["fit"],
    "splits.json": ["train"],
    "vectorizer_Landmark.json": ["embed-tuples"],
    "model_Landmark.ckpt": ["embed-mentions"],
    "tuples_Landmark.vec": ["build-index"],
    "mentions_Landmark.vec": ["eval"],
    "tuples_Landmark.idx": ["link", "--direction", "mention-to-tuples"],
    "mentions_Landmark.idx": ["link"],
}


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


@pytest.mark.parametrize("artifact", sorted(READERS))
def test_every_mutant_keeps_the_exit_contract(workdir, artifact):
    config_path, work, pristine = workdir
    command = READERS[artifact]
    broken = []
    for label, blob in mutants(pristine[artifact], seed=sorted(READERS).index(artifact)):
        for path in work.iterdir():
            if path.name not in pristine:
                path.unlink()
        for name, original in pristine.items():
            (work / name).write_bytes(blob if name == artifact else original)
        try:
            status, err = quiet_run([*command, "--config", str(config_path)])
        except Exception as exc:  # an escape from the exit contract is the finding
            broken.append(f"{label}: raised {type(exc).__name__}: {exc}")
            continue
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        if status != 0 and (status not in (1, 2) or len(errors) != 1 or "Traceback" in err):
            broken.append(f"{label}: exit {status}, stderr {err!r}")
    assert not broken, f"{artifact} fed to `{' '.join(command)}`:\n" + "\n".join(broken)
