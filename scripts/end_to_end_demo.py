"""Small end-to-end walkthrough: synthesize a bilingual benchmark, train,
evaluate, and print the headline metrics. Runs in about a minute.

    python scripts/end_to_end_demo.py --out /tmp/tkgdistill-demo
"""

import argparse
import json
import sys
from pathlib import Path

from tkgdistill.cli import main as cli_main

CONFIG = """\
dim = 24
epochs = 10
batch_size = 128
neighbors = 6
dropout = 0.1
learning_rate = 0.02
reasoning_negatives = 6
alignment_negatives = 12
time_intervals = 4
warmup_epochs_before_generation = 3
pseudo_min_similarity = 0.85
top1_completion = false
patience = 10
"""


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="/tmp/tkgdistill-demo")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out)
    data = out / "data"
    run = out / "run"

    steps = [
        ["synth", "--entities", "120", "--relations", "12", "--steps", "40",
         "--events-per-step", "15", "--coverage", "0.1", "--seed",
         str(args.seed), "--out", str(data)],
    ]
    for cmd in steps:
        if cli_main(cmd) != 0:
            return 1

    cfg_path = out / "train.ini"
    out.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(CONFIG)
    rc = cli_main([
        "train", "--config", str(cfg_path),
        "--source", str(data / "source.tsv"),
        "--target", str(data / "target.tsv"),
        "--align", str(data / "alignment.tsv"),
        "--seed", str(args.seed), "--out", str(run),
    ])
    if rc != 0:
        return rc

    # score the model on the target file itself (history doubles as test
    # here; the causal encoder only ever sees events before each query)
    rc = cli_main([
        "eval", "--checkpoint", str(run / "checkpoint.mpkd"),
        "--history", str(data / "target.tsv"),
        "--test", str(data / "target.tsv"),
        "--neighbors", "6", "--per-step", "--out", str(out / "eval"),
    ])
    if rc != 0:
        return rc
    doc = json.loads((out / "eval" / "metrics.json").read_text())
    print(f"MRR {doc['mrr']:.4f}  Hits@10 {doc['hits10']:.4f} "
          f"over {doc['query_count']} queries")
    print(f"artifacts under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
