"""Span tracing of peterweyl's public functions, installed from outside.

The package's modules bind each other's functions with ``from .x import
name``, so rebinding a function in its home module alone would miss most
callers.  ``Tracer.install`` therefore replaces a function object in every
package namespace that holds it (and in ``verify._SUITE_RUNNERS``, through
which ``run_suite`` dispatches).

A span is ``(parent, name, start, end, attrs)``; its id is its index in
``Tracer.spans``.  Spans stay in memory until ``write`` is called after the
timed phase.  Hot helpers (``weight_sq``, ``validate_rep`` and the norms
value memo ``_synth_values``) are counted only, without spans: they run
close to a million times in ``verify all`` and spans would swamp them.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

MODULES = ("groups", "fourier", "norms", "verify", "cli")

# (home module, function) pairs traced with spans; the span name is
# "<module>.<function>".
SPANNED = (
    ("groups", "quadrature"),
    ("groups", "wigner_d_tables"),
    ("groups", "enumerate_dual"),
    ("groups", "weyl_count"),
    ("fourier", "synthesize"),
    ("fourier", "analyze"),
    ("fourier", "pointwise_power"),
    ("fourier", "support_count"),
    ("fourier", "dump_spectral"),
    ("fourier", "load_spectral"),
    ("fourier", "dirichlet"),
    ("fourier", "partial_sum"),
    ("norms", "lp_norms"),
    ("norms", "tl_norm"),
    ("norms", "besov_norm"),
    ("norms", "dyadic_blocks"),
    ("norms", "seq_lp_norm"),
    ("norms", "beurling_norm"),
    ("norms", "beurling_r_norm"),
    ("norms", "sobolev_norm"),
    ("verify", "make_corpus"),
    ("verify", "render_report"),
    ("cli", "main"),
)

COUNTED = (
    ("groups", "weight_sq"),
    ("groups", "validate_rep"),
    ("norms", "_synth_values"),
)

SUITES = (
    "sharpness", "nikolskii", "hausdorff-young", "weyl", "corollary",
    "embeddings", "wiener-chain",
)


def _attrs(name, args, out):
    # Machine-independent facts recorded with a finished span.
    if name == "groups.quadrature":
        return {"nodes": out.node_count}
    if name == "groups.wigner_d_tables":
        return {"entries": sum(t.size for t in out)}
    if name == "fourier.synthesize":
        return {"nodes": out.rule.node_count}
    if name == "fourier.analyze":
        return {"nodes": args[0].rule.node_count}
    if name == "fourier.dump_spectral":
        return {"bytes": len(out)}
    if name == "fourier.load_spectral":
        return {"bytes": len(args[0])}
    if name == "norms.lp_norms":
        return {
            "group": str(args[0].group),
            "certified": [info["certified"] for _, info in out.values()],
            "nodes": max((info["nodes"] for _, info in out.values()), default=0),
        }
    if name == "verify.make_corpus":
        return {"group": str(args[0])}
    if name.startswith("verify.suite."):
        return {"records": len(out)}
    return None


def _rebind(pkg, orig, wrapper) -> None:
    for mod in [pkg] + [getattr(pkg, m) for m in MODULES]:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
    runners = pkg.verify._SUITE_RUNNERS
    for key, val in list(runners.items()):
        if val is orig:
            runners[key] = wrapper


def count_certifications(pkg) -> Counter:
    """Count L^p evaluations by certification (exact, refined, capped).

    A count-only wrapper around ``norms.lp_norms``, installed in timed runs
    too: it reads the returned provenance and adds no span.
    """
    certs: Counter = Counter()
    orig = pkg.norms.lp_norms

    def wrapper(*args, **kwargs):
        out = orig(*args, **kwargs)
        certs.update(info["certified"].split(" ")[0] for _, info in out.values())
        return out

    wrapper.__wrapped__ = orig
    _rebind(pkg, orig, wrapper)
    return certs


class Tracer:
    """Parent-linked spans and call counters for one process."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _span(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                spans[sid] = (parent, name, start, clock(), {"error": type(exc).__name__})
                raise
            finally:
                stack.pop()
            end = clock()
            spans[sid] = (parent, name, start, end, _attrs(name, args, out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, pkg) -> None:
        """Wrap the traced functions of an imported ``peterweyl`` package."""
        for mod, fn_name in SPANNED:
            orig = getattr(getattr(pkg, mod), fn_name)
            _rebind(pkg, orig, self._span(f"{mod}.{fn_name}", orig))
        for suite, orig in list(pkg.verify._SUITE_RUNNERS.items()):
            _rebind(pkg, orig, self._span(f"verify.suite.{suite}", orig))
        for mod, fn_name in COUNTED:
            orig = getattr(getattr(pkg, mod), fn_name)
            _rebind(pkg, orig, self._counter(f"{mod}.{fn_name}", orig))

    def write(self, path) -> None:
        """Write every span as one JSON line, start/end relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for sid, (parent, name, start, end, attrs) in enumerate(self.spans):
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": start - t0, "end": end - t0}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and node totals from the spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        children = defaultdict(list)
        for sid, (parent, name, start, end, _) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(sid)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for sid, (_, name, start, end, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
            total_s[name] += end - start

        def attr_sum(name, key):
            return sum((a or {}).get(key, 0) for _, n, _, _, a in spans if n == name)

        def attr_max(name, key):
            return max(((a or {}).get(key, 0) for _, n, _, _, a in spans if n == name), default=0)

        def child_quadratures(name):
            # Grids built directly under spans of one function: its ladder levels.
            levels = 0
            nodes = 0
            for sid, span in enumerate(spans):
                if span[1] != name:
                    continue
                for c in children[sid]:
                    if spans[c][1] == "groups.quadrature" and "nodes" in (spans[c][4] or {}):
                        levels += 1
                        nodes += spans[c][4]["nodes"]
            return levels, nodes

        certs = Counter()
        for _, n, _, _, a in spans:
            if n == "norms.lp_norms" and a and "certified" in a:
                certs.update(c.split(" ")[0] for c in a["certified"])

        norms_spans = {n for n in calls if n.startswith("norms.")}
        synth_under_norms = 0
        for parent, n, _, _, _ in spans:
            if n != "fourier.synthesize":
                continue
            while parent >= 0 and spans[parent][1] not in norms_spans:
                parent = spans[parent][0]
            synth_under_norms += parent >= 0
        requests = self.counts["norms._synth_values"]

        m = {
            "groups.quadrature.calls": calls["groups.quadrature"],
            "groups.quadrature.self_s": self_s["groups.quadrature"],
            "groups.quadrature.nodes_max": attr_max("groups.quadrature", "nodes"),
            "groups.quadrature.refused": sum(
                1 for _, n, _, _, a in spans
                if n == "groups.quadrature" and (a or {}).get("error") == "ResourceLimitError"
            ),
            "groups.wigner_d_tables.calls": calls["groups.wigner_d_tables"],
            "groups.wigner_d_tables.self_s": self_s["groups.wigner_d_tables"],
            "groups.wigner_d_tables.entries": attr_sum("groups.wigner_d_tables", "entries"),
            "groups.enumerate_dual.calls": calls["groups.enumerate_dual"],
            "groups.enumerate_dual.self_s": self_s["groups.enumerate_dual"],
            "groups.weyl_count.self_s": self_s["groups.weyl_count"],
            "groups.weight_sq.calls": self.counts["groups.weight_sq"],
            "groups.validate_rep.calls": self.counts["groups.validate_rep"],
        }
        for fn in ("synthesize", "analyze"):
            m[f"fourier.{fn}.calls"] = calls[f"fourier.{fn}"]
            m[f"fourier.{fn}.self_s"] = self_s[f"fourier.{fn}"]
            m[f"fourier.{fn}.nodes"] = attr_sum(f"fourier.{fn}", "nodes")
        m["fourier.pointwise_power.calls"] = calls["fourier.pointwise_power"]
        m["fourier.pointwise_power.self_s"] = self_s["fourier.pointwise_power"]
        m["fourier.pointwise_power.nodes"] = child_quadratures("fourier.pointwise_power")[1]
        m["fourier.support_count.self_s"] = self_s["fourier.support_count"]
        m["fourier.serialize.self_s"] = (
            self_s["fourier.dump_spectral"] + self_s["fourier.load_spectral"]
        )
        m["fourier.serialize.bytes"] = (
            attr_sum("fourier.dump_spectral", "bytes")
            + attr_sum("fourier.load_spectral", "bytes")
        )
        m["fourier.dirichlet.self_s"] = self_s["fourier.dirichlet"]
        m["fourier.partial_sum.self_s"] = self_s["fourier.partial_sum"]
        m["norms.lp_norms.calls"] = calls["norms.lp_norms"]
        m["norms.lp_norms.self_s"] = self_s["norms.lp_norms"]
        m["norms.lp_norms.levels"] = child_quadratures("norms.lp_norms")[0]
        m["norms.lp_norms.nodes_max"] = attr_max("norms.lp_norms", "nodes")
        m["norms.lp.exact"] = certs["exact"]
        m["norms.lp.refined"] = certs["refined"]
        m["norms.lp.capped"] = certs["capped"]
        m["norms.tl_norm.calls"] = calls["norms.tl_norm"]
        m["norms.tl_norm.self_s"] = self_s["norms.tl_norm"]
        m["norms.tl_norm.levels"] = child_quadratures("norms.tl_norm")[0]
        for fn in ("besov_norm", "dyadic_blocks", "seq_lp_norm"):
            m[f"norms.{fn}.calls"] = calls[f"norms.{fn}"]
            m[f"norms.{fn}.self_s"] = self_s[f"norms.{fn}"]
        m["norms.beurling.self_s"] = (
            self_s["norms.beurling_norm"] + self_s["norms.beurling_r_norm"]
        )
        m["norms.sobolev_norm.self_s"] = self_s["norms.sobolev_norm"]
        m["norms.synth_reuse"] = 1.0 - synth_under_norms / requests if requests else 0.0
        m["norms.synth_reuse.base"] = requests
        for suite in SUITES:
            m[f"verify.{suite}.s"] = total_s[f"verify.suite.{suite}"]
            m[f"verify.{suite}.records"] = attr_sum(f"verify.suite.{suite}", "records")
        m["verify.make_corpus.self_s"] = self_s["verify.make_corpus"]
        m["verify.render_report.self_s"] = self_s["verify.render_report"]
        m["cli.main.self_s"] = self_s["cli.main"]
        m["trace.spans"] = len(spans)
        return m
