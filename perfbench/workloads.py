"""The three benchmark workloads, each split into set-up and a timed run.

Every function here reaches the package through module attributes at call
time (``pkg.verify.nikolskii_suite_reports``, not a name imported once), so
the wrappers a tracer installs are the ones that run.

``setup(pkg, seed, tmp)`` prepares the inputs and returns a state (roundtrip
makes its corpora here; the CLI and the bulk suite build theirs from the
seed, as a user's run does);
``run(state)`` does the timed work and returns raw outputs; ``check(state,
outputs)`` runs after the clock stops and returns ``(attempted, failed,
digest)``.  The digest identifies the outputs, so a traced and an untraced
run of one seed can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

# `peterweyl verify all` at the default configuration writes this many records.
VERIFY_ALL_RECORDS = 1964

# Bulk Nikolskii: 50 dense functions per group at the default bands.
BULK_COUNT = 50
BULK_RECORDS = 8400  # 3 groups x 50 functions x 14 (p, q) pairs x 4 records

# Round-trip corpora of acceptance criteria 1-2.
ROUNDTRIP = (("torus:1", 16.0), ("torus:2", 12.0), ("su2", 8.0))
ROUNDTRIP_COUNT = 50
TOL_EXACT = 1e-9


# ---------------------------------------------------------------------------
# verify-all: the CLI at its default configuration


def setup_verify_all(pkg, seed, tmp):
    # The CLI builds its corpora from the seed inside the timed phase.
    out = os.path.join(tmp, f"report-{seed}.txt")
    return {"pkg": pkg, "argv": ["verify", "all", "--seed", str(seed), "--out", out]}


def run_verify_all(state):
    return state["pkg"].cli.main(state["argv"])


def check_verify_all(state, rc):
    with open(state["argv"][-1], "rb") as fh:
        data = fh.read()
    os.unlink(state["argv"][-1])
    records = [json.loads(ln) for ln in data.decode("ascii").splitlines()
               if ln and not ln.startswith("#")]
    held = sum(1 for r in records if r["holds"] is True)
    failed = VERIFY_ALL_RECORDS - held
    if rc != 0 or len(records) != VERIFY_ALL_RECORDS:
        failed = VERIFY_ALL_RECORDS
    return VERIFY_ALL_RECORDS, failed, hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# nikolskii-bulk: the bulk Nikolskii suite on 50 dense functions per group


def setup_nikolskii_bulk(pkg, seed, tmp):
    # The suite builds its corpora from the seed itself, as a user's run does.
    cfg = pkg.verify.RunConfig(suite="nikolskii", corpus_count=BULK_COUNT, seed=seed)
    return {"pkg": pkg, "cfg": cfg}


def run_nikolskii_bulk(state):
    return state["pkg"].verify.nikolskii_suite_reports(state["cfg"])


def check_nikolskii_bulk(state, reports):
    held = sum(1 for r in reports if r.holds)
    failed = BULK_RECORDS - held
    if len(reports) != BULK_RECORDS:
        failed = BULK_RECORDS
    text = "\n".join(json.dumps(r.to_record(), sort_keys=True) for r in reports)
    return BULK_RECORDS, failed, hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# roundtrip: dump -> load -> synthesize -> analyze, then Plancherel at p = 2


def setup_roundtrip(pkg, seed, tmp):
    corpora = [
        pkg.verify.make_corpus(pkg.groups.parse_group(g), band, ROUNDTRIP_COUNT, seed)
        for g, band in ROUNDTRIP
    ]
    return {"pkg": pkg, "corpora": corpora}


def run_roundtrip(state):
    pkg = state["pkg"]
    out = []
    for corpus in state["corpora"]:
        band = corpus.bandlimit
        rule = pkg.groups.quadrature(corpus.group, band)
        for F in corpus.functions:
            text = pkg.fourier.dump_spectral(F)
            G = pkg.fourier.load_spectral(text)
            back = pkg.fourier.analyze(pkg.fourier.synthesize(G, rule), band)
            l2 = pkg.norms.lp_norm(G, 2.0)
            seq2 = pkg.norms.seq_lp_norm(G, 2.0)
            out.append((F, text, G, back, l2, seq2))
    return out


def _same(F, G) -> bool:
    return F.coeffs.keys() == G.coeffs.keys() and all(
        np.array_equal(F.coeffs[k], G.coeffs[k]) for k in F.coeffs
    )


def _rel_err(F, G) -> float:
    num = 0.0
    den = 0.0
    for k in set(F.coeffs) | set(G.coeffs):
        a = F.coeffs.get(k)
        b = G.coeffs.get(k)
        diff = a if b is None else b if a is None else a - b
        num += float(np.sum(np.abs(diff) ** 2))
        if a is not None:
            den += float(np.sum(np.abs(a) ** 2))
    return math.sqrt(num / den)


def check_roundtrip(state, results):
    h = hashlib.sha256()
    failed = 0
    for F, text, G, back, l2, seq2 in results:
        ok = (
            _same(F, G)
            and _rel_err(F, back) <= TOL_EXACT
            and abs(l2 - seq2) <= TOL_EXACT * seq2
        )
        failed += not ok
        h.update(text.encode())
        for k, mat in back.items():
            h.update(repr(k).encode())
            h.update(mat.tobytes())
        h.update(repr((l2, seq2)).encode())
    attempted = ROUNDTRIP_COUNT * len(ROUNDTRIP)
    failed += attempted - len(results)
    return attempted, failed, h.hexdigest()


WORKLOADS = {
    "verify-all": (setup_verify_all, run_verify_all, check_verify_all),
    "nikolskii-bulk": (setup_nikolskii_bulk, run_nikolskii_bulk, check_nikolskii_bulk),
    "roundtrip": (setup_roundtrip, run_roundtrip, check_roundtrip),
}
