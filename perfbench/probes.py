"""Layer probes: single layers timed at fixed (group, band) inputs.

They are reported beside the traced layer metrics and are not gated.  Each
probe takes the median of ``REPEATS`` calls.  A repeat never hits one of the
package's memos: quadrature rules are memoized per band, so each repeat asks
for a band with the same grid shape under a new key, and every function fed
to the L^p ladder is new, so the synthesized-value memo misses.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 5

LADDER_PS = ((1.0, "p1"), (1.5, "p1_5"), (2.0, "p2"), (3.0, "p3"), (4.0, "p4"),
             (float("inf"), "pinf"))


def _median_s(fn, inputs) -> float:
    times = []
    for x in inputs:
        start = time.perf_counter()
        fn(x)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run(pkg, seed) -> dict[str, float]:
    groups, fourier, norms, verify = pkg.groups, pkg.fourier, pkg.norms, pkg.verify
    su2, t2, t3 = groups.su2(), groups.torus(2), groups.torus(3)
    m: dict[str, float] = {}

    # Quadrature and Wigner-d tables at su2/8.  Bands 8.0, 7.99, ... all give
    # ceil(2B) = 16, hence the same grid.
    bands = [8.0 - 0.01 * i for i in range(REPEATS)]
    m["probe.su2_8.quadrature_s"] = _median_s(lambda b: groups.quadrature(su2, b), bands)
    rule = groups.quadrature(su2, 8.0)
    m["probe.su2_8.nodes"] = rule.node_count
    twoL = max(groups.enumerate_dual(su2, 8.0))
    z = np.cos(rule.axes[1])
    m["probe.su2_8.wigner_d_tables_s"] = _median_s(
        lambda _: groups.wigner_d_tables(twoL, z), range(REPEATS)
    )

    # Synthesis and analysis at fixed (group, band); the rule's lazy Wigner
    # tables are built before timing.
    for tag, group, band in (("torus2_12", t2, 12.0), ("su2_8", su2, 8.0)):
        rule = groups.quadrature(group, band)
        fns = verify.make_corpus(group, band, REPEATS, seed).functions
        fourier.synthesize(fns[0], rule)
        grids = []
        m[f"probe.{tag}.synthesize_s"] = _median_s(
            lambda F: grids.append(fourier.synthesize(F, rule)), fns
        )
        m[f"probe.{tag}.analyze_s"] = _median_s(lambda g: fourier.analyze(g, band), grids)

    # One ladder level per p on dense torus:2/32 functions: the node cap stops
    # the ladder after the base grid (after level 1, the exact level, for p = 4).
    fns = verify.make_corpus(t2, 32.0, REPEATS * len(LADDER_PS), seed + 1).functions
    w = fns[0].max_weight()
    level_nodes = [groups.quadrature(t2, w * 2.0**j).node_count for j in (0, 1)]
    for i, (p, tag) in enumerate(LADDER_PS):
        cap = level_nodes[1] if p == 4.0 else level_nodes[0]
        m[f"probe.ladder.{tag}.s"] = _median_s(
            lambda F: norms.lp_norms(F, [p], max_nodes=cap),
            fns[i * REPEATS:(i + 1) * REPEATS],
        )
        m[f"probe.ladder.{tag}.nodes"] = cap

    # Support counts: the rho = 2 spectral power at torus:2/4.
    fns = verify.make_corpus(t2, 4.0, REPEATS, seed + 2).functions
    m["probe.pointwise_power.torus2_4.s"] = _median_s(
        lambda F: fourier.pointwise_power(F, 2, threshold=0.0), fns
    )

    # Coefficient bookkeeping on Dirichlet kernels.
    for tag, group, band in (("torus2_32", t2, 32.0), ("torus3_16", t3, 16.0)):
        D = fourier.dirichlet(group, band)
        m[f"probe.dyadic_blocks.{tag}.s"] = _median_s(
            lambda _: norms.dyadic_blocks(D), range(REPEATS)
        )
        m[f"probe.seq_lp_norm.{tag}.s"] = _median_s(
            lambda _: norms.seq_lp_norm(D, 1.0), range(REPEATS)
        )
    return m
