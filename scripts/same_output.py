#!/usr/bin/env python3
"""Compare the reports of this checkout with those of a parent checkout.

Usage: python3 scripts/same_output.py PARENT

PARENT is an unpacked copy of the parent commit, for example made with
`git archive REV | tar -x -C PARENT`.  For this checkout and for PARENT the
script writes 16 report files, each from a fresh process whose PYTHONPATH
is that checkout's src:

  * `peterweyl verify all` at seeds 7 and 11, under the corpus profiles
    dense_gaussian, sparse and smooth_decay, on the default groups and on
    torus:1,torus:2,torus:3,su2 (12 reports);
  * the bulk Nikolskii suite, 50 functions per group (`peterweyl verify
    nikolskii --count 50`), at seeds 7 and 101;
  * the embeddings and wiener-chain suites at seed 7 under a node cap of
    200,000 (`--max-nodes 200000`), where ladders end capped (35 of the
    338 embeddings records and 37 of the 458 wiener-chain records say so).

For each file it prints `same` when the two are byte-identical, `headers
differ` when only `#` lines differ, else the number of records that moved
and the number of changed verdicts.  Records
are the report's JSON lines, paired by position; a record present in one
report only counts as moved and as a changed verdict.  The exit status is
1 if any verdict changed, 2 if a run did not finish, else 0.  Standard
library only; the package and its tests do not import it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

SEEDS = (7, 11)
PROFILES = ("dense_gaussian", "sparse", "smooth_decay")
GROUP_SETS = (None, "torus:1,torus:2,torus:3,su2")  # None: the default groups
BULK_SEEDS = (7, 101)
BULK_COUNT = 50
CAPPED_SUITES = ("embeddings", "wiener-chain")
CAPPED_SEED = 7
CAPPED_NODES = 200_000


def runs() -> list[tuple[str, list[str]]]:
    """(file name, `peterweyl verify` arguments) of every report compared."""
    out = []
    for seed in SEEDS:
        for profile in PROFILES:
            for groups in GROUP_SETS:
                argv = ["all", "--seed", str(seed), "--profile", profile]
                name = f"all-{seed}-{profile}"
                if groups:
                    argv += ["--group", groups]
                    name += "-four"
                out.append((name + ".txt", argv))
    for seed in BULK_SEEDS:
        out.append((f"bulk-{seed}.txt",
                    ["nikolskii", "--count", str(BULK_COUNT), "--seed", str(seed)]))
    for suite in CAPPED_SUITES:
        out.append((f"{suite}-{CAPPED_SEED}-cap{CAPPED_NODES}.txt",
                    [suite, "--seed", str(CAPPED_SEED), "--max-nodes", str(CAPPED_NODES)]))
    return out


def write_report(checkout: str, argv: list[str], path: str) -> None:
    # One fresh process on the checkout's own src; exit 1 only says a record
    # failed, which the comparison reports.
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    done = subprocess.run([sys.executable, "-m", "peterweyl", "verify", *argv, "--out", path],
                          env=env, cwd=checkout, capture_output=True, text=True)
    if done.returncode not in (0, 1) or not os.path.exists(path):
        raise RuntimeError(f"{checkout}: verify {' '.join(argv)} exited "
                           f"{done.returncode}: {done.stderr.strip()}")


def records(path: str) -> list[str]:
    with open(path, encoding="ascii") as fh:
        return [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]


def compare(old_path: str, new_path: str) -> tuple[int, int] | None:
    """None when the files are byte-identical, else (moved records,
    changed verdicts)."""
    with open(old_path, "rb") as a, open(new_path, "rb") as b:
        if a.read() == b.read():
            return None
    old, new = records(old_path), records(new_path)
    unpaired = abs(len(old) - len(new))
    moved = unpaired + sum(a != b for a, b in zip(old, new))
    changed = unpaired + sum(json.loads(a)["holds"] != json.loads(b)["holds"]
                             for a, b in zip(old, new) if a != b)
    return moved, changed


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "src")):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent = os.path.abspath(argv[0])
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in runs():
            paths = [os.path.join(tmp, f"{side}-{name}") for side in ("parent", "here")]
            try:
                for checkout, path in zip((parent, here), paths):
                    write_report(checkout, args, path)
            except RuntimeError as exc:
                print(f"{name}: {exc}")
                status = 2
                continue
            diff = compare(*paths)
            if diff is None:
                print(f"{name}: same")
            elif diff == (0, 0):
                print(f"{name}: headers differ")
            else:
                print(f"{name}: {diff[0]} moved records, {diff[1]} changed verdicts")
                if diff[1] and status == 0:
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
