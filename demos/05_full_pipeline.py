"""The complete cycle on the synthetic corpus: `tablelink pipeline` fits,
trains, embeds, indexes and evaluates Precision@k per split; the saved
artifacts then answer a cold-start lookup.

Run from the repository root:  python demos/05_full_pipeline.py
(takes a few seconds: 1000 training batches on one 30-entity category)
"""

import json
import tempfile
from pathlib import Path

from tablelink.cli import CategoryArtifacts, Workdir, run_command
from tablelink.linker import semantic_link
from tablelink.synthetic import write_synthetic_corpus

root = Path(tempfile.mkdtemp(prefix="tablelink-demo-"))
write_synthetic_corpus(root / "corpus.xml", entities=30, mentions_per_entity=10, seed=7)
config = {
    "paths": {"corpus": str(root / "corpus.xml"), "workdir": str(root / "work")},
    "training": {"batch_budget": 1000},
}
(root / "config.json").write_text(json.dumps(config))

status = run_command(["pipeline", "--config", str(root / "config.json")])
assert status == 0, f"pipeline exited {status}"
print((root / "work" / "report.txt").read_text())
print("timings (s):", json.loads((root / "work" / "timings.json").read_text()))

# Cold-start lookup from the saved artifacts: an unseen entity's tuple was
# never in a training batch, yet its mentions should surface near the top.
ws = Workdir(root / "work")
corpus = ws.corpus()
landmarks = CategoryArtifacts(ws, "Landmark", cat_index=0)
unseen_entity = sorted(ws.splits().unseen)[0]
anchor_key = next(key for key in corpus.links_by_tuple
                  if corpus.tuples[key].entity == unseen_entity)
ranked = semantic_link(landmarks.forest("mentions"),
                       {anchor_key: landmarks.vectors("tuples")[anchor_key]}, 5)[anchor_key]
gold = set(corpus.links_by_tuple[anchor_key])
print(f"top-5 mentions for unseen entity {unseen_entity}:")
for mention_id, dist, rank in ranked:
    mark = "*" if mention_id in gold else " "
    print(f" {mark} rank {rank}  {dist:.4f}  {corpus.mentions[mention_id].sentence_text}")
print(f"artifacts in {root / 'work'}")
