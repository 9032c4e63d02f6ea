"""Print the traced baseline beside the reference table of ROADMAP.md.

    python3 perfbench/baseline.py [--seed 7]

Runs ``run.py --trace 1`` for verify-all and nikolskii-bulk at the seed (the
CLI's default seed is 7), then reads the span files from ``.perfbench_out/``
and prints, as markdown: verify-all seconds and records per suite, bulk
Nikolskii seconds per group, and capped L^p evaluations per suite and group.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"

# The reference table of ROADMAP.md (single runs, default BLAS threads).
ROADMAP_SUITE_S = {
    "sharpness": 0.34, "nikolskii": 1.82, "hausdorff-young": 1.18, "weyl": 0.01,
    "corollary": 0.05, "embeddings": 9.60, "wiener-chain": 8.79,
}
ROADMAP_RECORDS = 1964
ROADMAP_BULK_S = {"torus:1": 0.14, "torus:2": 7.17, "su2": 2.58}
ROADMAP_CAPPED = {
    ("nikolskii", "su2"): 7, ("hausdorff-young", "su2"): 7,
    ("embeddings", "torus:2"): 16, ("wiener-chain", "torus:2"): 33,
}


def load_spans(workload, seed) -> list[dict]:
    with open(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl", encoding="ascii") as fh:
        return [json.loads(line) for line in fh]


def suite_of(spans, span) -> str | None:
    while span["parent"] >= 0:
        span = spans[span["parent"]]
        if span["name"].startswith("verify.suite."):
            return span["name"][len("verify.suite."):]
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    for workload in ("verify-all", "nikolskii-bulk"):
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "1"],
            check=True, stdout=subprocess.DEVNULL,
        )

    spans = load_spans("verify-all", args.seed)
    print(f"verify-all, seed {args.seed}, traced\n")
    print("| suite | seconds | ROADMAP seconds | records |")
    print("|---|---|---|---|")
    total = 0
    for s in spans:
        if s["name"].startswith("verify.suite."):
            suite = s["name"][len("verify.suite."):]
            total += s["records"]
            print(f"| {suite} | {s['end'] - s['start']:.2f} | "
                  f"{ROADMAP_SUITE_S[suite]:.2f} | {s['records']} |")
    print(f"\nrecords: {total} (ROADMAP {ROADMAP_RECORDS})\n")

    capped = Counter()
    for s in spans:
        if s["name"] == "norms.lp_norms":
            n = sum(c == "capped" for c in s["certified"])
            if n:
                capped[(suite_of(spans, s), s["group"])] += n
    print("| suite | group | capped L^p | ROADMAP |")
    print("|---|---|---|---|")
    for key in sorted(set(capped) | set(ROADMAP_CAPPED)):
        print(f"| {key[0]} | {key[1]} | {capped[key]} | {ROADMAP_CAPPED.get(key, 0)} |")
    print(f"\ncapped: {sum(capped.values())} (ROADMAP {sum(ROADMAP_CAPPED.values())})\n")

    spans = load_spans("nikolskii-bulk", args.seed)
    suite = next(i for i, s in enumerate(spans) if s["name"] == "verify.suite.nikolskii")
    corpora = [s for s in spans if s["parent"] == suite and s["name"] == "verify.make_corpus"]
    ends = [s["start"] for s in corpora[1:]] + [spans[suite]["end"]]
    print(f"nikolskii-bulk, seed {args.seed}, 50 functions per group, traced\n")
    print("| group | seconds | ROADMAP seconds |")
    print("|---|---|---|")
    for s, end in zip(corpora, ends):
        print(f"| {s['group']} | {end - s['start']:.2f} | {ROADMAP_BULK_S[s['group']]:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
