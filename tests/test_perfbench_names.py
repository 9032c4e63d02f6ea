"""The package names and shapes the benchmark harness's tracer relies on.

perfbench/tracer.py wraps package functions by name in every timed run,
reads lp_norms' provenance and counts the entries of the Wigner-d tables;
perfbench/workloads.py counts every record failed when a workload writes
other than its fixed number of records.  Both are loaded here read-only
(nothing installed), so a change that removes or renames one of those
names, or changes one of those shapes or counts, fails a test rather than
the benchmark run.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import peterweyl
import peterweyl.cli  # noqa: F401  (the tracer wraps cli.main)
from peterweyl.fourier import SpectralFunction, dirichlet, zero_spectral
from peterweyl.groups import torus, wigner_d_tables
from peterweyl.norms import INF, lp_norms

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(peterweyl.__file__).resolve().parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_traced_function_exists(tracer):
    for mod, fn_name in tracer.SPANNED + tracer.COUNTED:
        module = importlib.import_module(f"peterweyl.{mod}")
        assert callable(getattr(module, fn_name, None)), f"{mod}.{fn_name}"
    for mod in tracer.MODULES:
        assert getattr(peterweyl, mod) is importlib.import_module(f"peterweyl.{mod}")
    # the tracer's per-suite metrics name verify's suites in its order
    assert tracer.SUITES == tuple(peterweyl.verify._SUITE_RUNNERS)


def test_lp_norms_returns_value_and_provenance_per_exponent():
    # exact, identity-pinned, enclosed, refined and capped values, and a zero function
    F = SpectralFunction(torus(1), {(0,): [[1.0]], (1,): [[0.3]], (-2,): [[0.5j]]})
    for G in (F, dirichlet(torus(2), 2.0), zero_spectral(torus(1))):
        ps = [1.0, 2.0, 3.0, INF]
        out = lp_norms(G, ps)
        assert sorted(out) == ps
        for p, (value, info) in out.items():
            assert isinstance(value, float), p
            assert type(info["certified"]) is str and info["certified"], p
            assert type(info["nodes"]) is int, p


def test_wigner_d_tables_returns_one_square_table_per_spin(tracer):
    # the tracer's "entries" counter sums the sizes of the returned tables
    z = np.linspace(-1.0, 1.0, 5)
    for twoL_max in (0, 1, 4):
        tabs = wigner_d_tables(twoL_max, z)
        assert type(tabs) is list and len(tabs) == twoL_max + 1
        assert [t.shape for t in tabs] == [(t + 1, t + 1, z.size) for t in range(twoL_max + 1)]
        attrs = tracer._attrs("groups.wigner_d_tables", (twoL_max, z), tabs)
        assert attrs == {"entries": z.size * sum((t + 1) ** 2 for t in range(twoL_max + 1))}


def test_workloads_write_the_record_counts_perfbench_expects(workloads, tmp_path):
    # Through the workloads' own set-up, run and check: a record count other
    # than VERIFY_ALL_RECORDS or BULK_RECORDS fails every record.
    for name, records in (("verify-all", workloads.VERIFY_ALL_RECORDS),
                          ("nikolskii-bulk", workloads.BULK_RECORDS)):
        setup, run, check = workloads.WORKLOADS[name]
        state = setup(peterweyl, 7, str(tmp_path))
        attempted, failed, _ = check(state, run(state))
        assert (attempted, failed) == (records, 0), name


def test_verify_all_certification_counts(tracer, tmp_path):
    # perfbench's uncapped_frac on verify-all is 1 - capped / all of these
    # counts (1 - 49/2974), so a change that moves an L^p evaluation onto or
    # off norms.lp_norms, or changes its certification, moves that metric.
    original = peterweyl.norms.lp_norms
    certs = tracer.count_certifications(peterweyl)
    wrapper = peterweyl.norms.lp_norms
    try:
        rc = peterweyl.cli.main(["verify", "all", "--seed", "7", "--out", str(tmp_path / "r")])
    finally:
        tracer._rebind(peterweyl, wrapper, original)
    assert peterweyl.norms.lp_norms is original and "lp_norms" not in vars(peterweyl.verify)
    assert rc == 0
    assert dict(certs) == {"exact": 2435, "enclosed": 156, "refined": 334, "capped": 49}


def test_nikolskii_bulk_certification_counts(tracer, workloads, tmp_path):
    # perfbench's uncapped_frac on nikolskii-bulk reads the same counts
    # (the workload's own set-up and run, at seed 7), so it is pinned too.
    original = peterweyl.norms.lp_norms
    certs = tracer.count_certifications(peterweyl)
    wrapper = peterweyl.norms.lp_norms
    try:
        setup, run, check = workloads.WORKLOADS["nikolskii-bulk"]
        state = setup(peterweyl, 7, str(tmp_path))
        attempted, failed, _ = check(state, run(state))
    finally:
        tracer._rebind(peterweyl, wrapper, original)
    assert peterweyl.norms.lp_norms is original and "lp_norms" not in vars(peterweyl.verify)
    assert (attempted, failed) == (workloads.BULK_RECORDS, 0)
    assert dict(certs) == {"exact": 750, "enclosed": 150}


def _names_lp_norms(node) -> bool:
    # a name, attribute or imported alias spelled lp_norms
    return "lp_norms" in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None) if isinstance(node, ast.alias) else None)


def test_lp_norms_has_one_caller_and_verify_and_cli_never_name_it():
    # lp_norms' (value, dict) entries are the shape the tracer pins; one
    # function in the package reads them (norms._read_lp_norms), so a change
    # of that shape has one reader to change, and verify and the CLI reach
    # L^p values only through the Enclosures it returns.
    callers, naming = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                if any(isinstance(node, ast.Call) and _names_lp_norms(node.func)
                       for node in ast.walk(fn)):
                    callers.add((path.stem, getattr(fn, "name", "<lambda>")))
        if any(_names_lp_norms(node) for node in ast.walk(tree)):
            naming.add(path.stem)
    assert callers == {("norms", "_read_lp_norms")}
    assert not naming & {"verify", "cli"}
