"""One cold benchmark process: import peterweyl from the checkout's ``src``,
set up one workload, optionally run it, and print one JSON line.

    python3 perfbench/child.py --mode {setup,run,trace,probe} \
        --workload NAME --seed N --tmp DIR [--spans FILE]

``setup`` stops once the inputs exist; ``run`` times the workload; ``trace``
does the same with every layer wrapped in spans (written to ``--spans``
after the clock stops); ``probe`` times the fixed-input layer probes.
``setup``, ``run`` and ``trace`` also time ``calib.reference`` right after
set-up; ``run`` and ``trace`` time slices of it during the timed phase (and
take them off its seconds) and time it again right after.
Exit status 3 means the package source is missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXIT_NO_PACKAGE = 3


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace", "probe"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    try:
        import peterweyl
        import peterweyl.cli
    except ImportError as exc:
        print(f"cannot import peterweyl from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    if Path(peterweyl.__file__).resolve().parent.parent != SRC.resolve():
        print(f"peterweyl imported from {peterweyl.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_PACKAGE

    import numpy
    import scipy

    import calib
    import probes
    import tracer
    import workloads

    out = {
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "peterweyl": peterweyl.__version__,
        }
    }
    if args.mode == "probe":
        out["t_ready"] = time.monotonic()
        out["layers"] = probes.run(peterweyl, args.seed)
        print(json.dumps(out))
        return 0

    certs = tracer.count_certifications(peterweyl)
    trace = None
    if args.mode == "trace":
        trace = tracer.Tracer()
        trace.install(peterweyl)
    setup, run, check = workloads.WORKLOADS[args.workload]
    state = setup(peterweyl, args.seed, args.tmp)
    out["t_ready"] = time.monotonic()
    out["calib_s"] = [calib.reference()]
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    with calib.InPhase() as sampler:
        start = time.perf_counter()
        cpu_start = time.process_time()
        result = run(state)
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
    out["slice_s"] = sampler.times
    out["wall_s"] = wall_s - sum(sampler.times)
    out["cpu_s"] = cpu_s - sum(sampler.times)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["calib_s"].append(calib.reference())
    out["attempted"], out["failed"], out["digest"] = check(state, result)
    out["lp_evals"] = sum(certs.values())
    out["lp_capped"] = certs["capped"]
    if trace is not None:
        out["layers"] = trace.layer_metrics()
        if args.spans:
            trace.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
