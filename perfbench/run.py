"""Cold-process benchmark of peterweyl.

    python3 perfbench/run.py --workload {verify-all,nikolskii-bulk,roundtrip} \
        --seed N --seconds S --trace {0,1}

Every timed execution runs in a fresh interpreter (``perfbench/child.py``),
so the package's in-process memos (quadrature rules, Wigner tables,
synthesized values) start empty each time, as they do for a user.  One child
runs at a time, with BLAS/OpenMP pinned to ``THREADS`` threads.

``--trace 0`` runs the workload in back-to-back children for about
``--seconds`` seconds (at least ``MIN_CHILDREN`` times; child i draws seed
``seed + CHILD_SEED_STRIDE * i``) and reports the end-to-end metrics.  Times
are medians over the run's children, each in reference seconds (see
``ref_seconds``); memory and the capped share are medians over children too.
``--trace 1`` runs the workload once untraced and once traced at the same
seed, checks that both give identical outputs, and reports the traced
per-layer metrics, the tracing overhead and the layer probes.  The last line of standard output is the JSON
result; a record of the run, with versions and per-child numbers, goes to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_PARENT = ROOT / ".perfbench_tmp"

WORKLOADS = ("verify-all", "nikolskii-bulk", "roundtrip")
THREADS = 1
# Extra set-up-only children per timed run, so that set-up time has at least
# six samples.
SETUP_CHILDREN = 4
# Least number of workload children per timed run.  Wall time depends on the
# seed, because the corpus decides how many L^p ladders run into the node cap
# (63 to 91 capped evaluations across verify-all seeds), so a run covers
# several seeds; verify-all, at about 15 s a child, covers two.
MIN_CHILDREN = {"verify-all": 2, "nikolskii-bulk": 3, "roundtrip": 3}
CHILD_SEED_STRIDE = 100_003
# A run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 170.0
EXIT_NO_PACKAGE = 3


class NoPackage(Exception):
    """The checkout holds no peterweyl source to benchmark."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(THREADS)
    env.pop("PYTHONPATH", None)
    return env


def spawn(mode, workload, seed, tmp, deadline, spans=None) -> dict:
    """Run one child; returns its JSON line plus set-up time and status."""
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--tmp", tmp]
    if spans:
        cmd += ["--spans", spans]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"{mode} child timed out", "seed": seed}
    if proc.returncode == EXIT_NO_PACKAGE:
        raise NoPackage(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "error": f"{mode} child exit {proc.returncode}: {tail[0]}",
                "seed": seed}
    res = json.loads(lines[-1])
    res.update(ok=True, seed=seed, setup_s=res["t_ready"] - t_spawn,
               total_s=time.monotonic() - t_spawn)
    return res


def fail_counts(children) -> tuple[int, int]:
    """Attempted and failed checks; a child that crashed fails all of its own."""
    expected = max((c["attempted"] for c in children if "attempted" in c), default=1)
    attempted = failed = 0
    for c in children:
        if not c["ok"]:
            attempted += expected
            failed += expected
        elif "attempted" in c:
            attempted += c["attempted"]
            failed += c["failed"]
    return attempted, failed


def ref_seconds(seconds: float, calib_s: list, slice_s: list = ()) -> float:
    """``seconds`` scaled to the host speed at which ``calib.reference`` takes
    ``calib.REF_S``.  ``calib_s`` holds its times taken next to the phase and
    ``slice_s`` the times of the single slices taken during it.

    The host's speed swings by up to 1.8x within seconds, as other tenants
    load the shared cores, so raw seconds of one run say more about the
    neighbours than about peterweyl.  The reference kernel uses nothing of
    peterweyl, so a slower program still reads slower.
    """
    slices = calib.SLICES * len(calib_s) + len(slice_s)
    per_reference = calib.SLICES * (sum(calib_s) + sum(slice_s)) / slices
    return seconds * calib.REF_S / per_reference


def timed_run(workload, seed, seconds, tmp, deadline) -> tuple[dict, list, int, int]:
    setups = [spawn("setup", workload, seed + CHILD_SEED_STRIDE * i, tmp, deadline)
              for i in range(SETUP_CHILDREN)]
    children = []
    start = time.monotonic()
    while True:
        c = spawn("run", workload, seed + CHILD_SEED_STRIDE * len(children), tmp, deadline)
        children.append(c)
        elapsed = time.monotonic() - start
        if not c["ok"] or (
            len(children) >= MIN_CHILDREN[workload] and elapsed + c["total_s"] > seconds
        ):
            break
    attempted, failed = fail_counts(setups + children)
    good = [c for c in children if c["ok"]]
    if not good:
        raise RuntimeError("; ".join(c["error"] for c in children))
    metrics = {
        "setup_s": (statistics.median(
            ref_seconds(c["setup_s"], c["calib_s"][:1]) for c in setups + good if c["ok"]), "s"),
        "wall_s": (statistics.median(
            ref_seconds(c["wall_s"], c["calib_s"], c["slice_s"]) for c in good), "s"),
        "peak_rss_mb": (statistics.median(c["rss_mb"] for c in good), "MB"),
        "pass_frac": (1.0 - failed / attempted, "frac"),
        "uncapped_frac": (
            statistics.median(1.0 - c["lp_capped"] / c["lp_evals"] if c["lp_evals"] else 1.0
                              for c in good),
            "frac",
        ),
    }
    return metrics, setups + children, attempted, failed


def traced_run(workload, seed, tmp, deadline) -> tuple[dict, list, int, int]:
    OUT_DIR.mkdir(exist_ok=True)
    spans = str(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    plain = spawn("run", workload, seed, tmp, deadline)
    traced = spawn("trace", workload, seed, tmp, deadline, spans=spans)
    probe = spawn("probe", workload, seed, tmp, deadline)
    children = [plain, traced, probe]
    if not (plain["ok"] and traced["ok"] and probe["ok"]):
        raise RuntimeError("; ".join(c["error"] for c in children if not c["ok"]))
    attempted, failed = fail_counts([plain, traced])
    if plain["digest"] != traced["digest"]:
        failed += traced["attempted"]  # tracing changed the outputs
    layers = dict(traced["layers"])
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers.update(probe["layers"])
    metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
    return metrics, children, attempted, failed


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name == "norms.synth_reuse":
        return "frac"
    return "count"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "peterweyl" / "__init__.py").is_file():
        print(f"error: no peterweyl source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        if args.trace:
            metrics, children, attempted, failed = traced_run(
                args.workload, args.seed, tmp, deadline)
        else:
            metrics, children, attempted, failed = timed_run(
                args.workload, args.seed, args.seconds, tmp, deadline)
    except NoPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: no child completed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass

    versions = next((c["versions"] for c in children if c.get("ok")), {})
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {**versions, "nproc": os.cpu_count(), "blas_threads": THREADS,
                "commit": git_commit()},
        "children": [{k: v for k, v in c.items() if k not in ("layers", "versions")}
                     for c in children],
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for c in children:
        if not c.get("ok"):
            print(f"check failed: {c['error']}", file=sys.stderr)
    print(f"env {json.dumps(record['env'], sort_keys=True)}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
