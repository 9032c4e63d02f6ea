"""Command-line interface: commands, exit codes, report determinism."""

import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from peterweyl import cli
from peterweyl.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)
from peterweyl.fourier import dirichlet, read_spectral, save_spectral, zero_spectral
from peterweyl.groups import enumerate_dual, parse_group, torus, weight_sq
from peterweyl.norms import (
    REFINE_STOP,
    SUP_ROUNDOFF,
    lp_norm,
    norm_enclosure,
    norm_info,
    parse_norm_spec,
)
from peterweyl.verify import PROFILES, SUITES, make_corpus

from elements import rep_dim


@pytest.fixture()
def dirichlet_file(tmp_path):
    path = tmp_path / "d12.spectral"
    save_spectral(dirichlet(torus(1), 2.0), path)
    return str(path)


def test_dual_table(capsys):
    assert main(["dual", "--group", "torus:1", "--L", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "N(2) = 3" in out
    assert out.count("\n") >= 5  # header + 3 rows + count


def test_dual_su2(capsys):
    assert main(["dual", "--group", "su2", "--L", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "l=1/2" in out and "N(2) = 14" in out


@pytest.mark.parametrize("group", ["torus:1", "torus:2", "torus:3", "su2"])
def test_dual_table_matches_rep_info_rows(group, capsys):
    # the table as it was printed from rep_info row by row (dimension,
    # <xi>^2 - 1 and <xi> from the exact weight), kept as the reference
    g = parse_group(group)
    for L in (1.0, 2.5, 7.0):
        assert main(["dual", "--group", group, "--L", repr(L)]) == EXIT_OK
        reps = enumerate_dual(g, L)
        lines = [f"# dual of {g} up to weight {L:g}", "index\td\tlambda\tweight"]
        for xi in reps:
            if g.kind == "torus":
                label = "(" + ",".join(str(k) for k in xi) + ")"
            else:
                label = f"l={xi // 2}" if xi % 2 == 0 else f"l={xi}/2"
            wsq = weight_sq(g, xi)
            lines.append(f"{label}\t{rep_dim(g, xi)}\t{float(wsq - 1):.12g}\t"
                         f"{math.sqrt(float(wsq)):.12g}")
        lines.append(f"N({L:g}) = {sum(rep_dim(g, xi) ** 2 for xi in reps)}")
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_dual_domain_error_exit_2(capsys):
    assert main(["dual", "--group", "torus:1", "--L", "0.5"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_2(capsys):
    assert main(["dual", "--group"]) == EXIT_USAGE


def test_norm_infinity_flag(dirichlet_file, capsys):
    assert main(["norm", dirichlet_file, "Lp:inf"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Lp:inf = 3.0" in out
    assert "exact (identity-pinned)" in out
    # the pinned sup reads f(e) from the coefficients and builds no grid,
    # nor does a Besov sup whose blocks are all pinned
    assert "grid:" not in out
    assert main(["norm", dirichlet_file, "besov:r=0,p=inf,q=1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "exact (identity-pinned)" in out and "grid:" not in out


def test_norm_seq_inf(dirichlet_file, capsys):
    assert main(["norm", dirichlet_file, "seq:inf"]) == EXIT_OK
    assert "seq:inf = 1.0" in capsys.readouterr().out


def test_norm_parse_error(dirichlet_file, capsys):
    assert main(["norm", dirichlet_file, "Lp:x"]) == EXIT_USAGE
    assert "rule 'number'" in capsys.readouterr().err


def test_verify_sharpness_su2(tmp_path, capsys):
    out = str(tmp_path / "report.txt")
    code = main(
        ["verify", "sharpness", "--group", "su2", "--L", "2,4,8", "--out", out]
    )
    assert code == EXIT_OK
    with open(out) as fh:
        text = fh.read()
    assert text.count('"name": "nikolskii-sharpness"') == 3
    assert '"holds": false' not in text


def test_verify_weyl_su2(capsys):
    assert main(["verify", "weyl", "--group", "su2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"name": "weyl-spot-su2"' in out
    assert '"holds": false' not in out


def test_python_dash_m_runs_the_cli(capsys):
    # python -m peterweyl from a plain source checkout: the exit code and
    # report of cli.main, run in this process.
    argv = ["verify", "weyl", "--group", "torus:1"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "peterweyl", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert proc.stdout == captured.out and proc.stderr == captured.err
    assert '"name": "weyl-slope"' in proc.stdout and '"holds": false' not in proc.stdout


def test_verify_resource_cap_exit_3(tmp_path, capsys):
    code = main(
        [
            "verify", "sharpness", "--group", "su2", "--L", "64",
            "--max-nodes", "100", "--out", str(tmp_path / "r.txt"),
        ]
    )
    assert code == EXIT_RESOURCE
    # the corpus entry cap reads the Weyl count before the dual is enumerated
    out = tmp_path / "corpus"
    code = main(
        [
            "corpus", "--group", "torus:2", "--bandlimit", "1e4", "--count", "1",
            "--seed", "1", "--out", str(out),
        ]
    )
    assert code == EXIT_RESOURCE
    assert not out.exists()
    # so does the dual listing, against the same cap
    assert main(["dual", "--group", "torus:2", "--L", "1e5"]) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert "dual listing would hold" in captured.err
    assert "index" not in captured.out
    # huge finite bands are refused before anything is counted: on tori by a
    # lower bound on the lattice count, on SU(2) by the closed-form count
    for group in ("torus:2", "su2"):
        assert main(["dual", "--group", group, "--L", "1e300"]) == EXIT_RESOURCE
        assert "dual listing would hold" in capsys.readouterr().err
    for group in ("su2", "torus:3"):
        out = tmp_path / f"corpus-{group}"
        assert main(["corpus", "--group", group, "--bandlimit", "1e300", "--count", "1",
                     "--seed", "1", "--out", str(out)]) == EXIT_RESOURCE
        assert not out.exists()
    # and so is any other listing of the dual, such as a Dirichlet kernel's
    for group in ("su2", "torus:2"):
        assert main(["verify", "sharpness", "--group", group, "--L", "1e300",
                     "--out", str(tmp_path / "r.txt")]) == EXIT_RESOURCE


def test_verify_weyl_and_corollary_answer_or_refuse_huge_bands(tmp_path, capsys):
    # a huge last band is refused at once where the count would walk the
    # lattice (tori of rank >= 2), leave float range (SU(2)) or feed the
    # corollary sum too many terms; T^1 counts it in closed form
    out = str(tmp_path / "r.txt")
    grid = "10,20,30,40,1e300"
    for group, code in (("torus:2", EXIT_RESOURCE), ("torus:3", EXIT_RESOURCE),
                        ("su2", EXIT_USAGE)):
        assert main(["verify", "weyl", "--group", group, "--L", grid, "--out", out]) == code
        assert "error:" in capsys.readouterr().err
    assert main(["verify", "weyl", "--group", "torus:1", "--L", grid, "--out", out]) == EXIT_OK
    with open(out) as fh:
        assert '"name": "weyl-slope"' in fh.read()
    assert main(["verify", "corollary", "--L", "2,4,8,16,1e300", "--out", out]) == EXIT_RESOURCE
    assert "weighted sum" in capsys.readouterr().err


def test_verify_overrides_apply_to_any_spelling_of_a_group(tmp_path):
    # The config stores each group by its canonical name, so --bandlimit
    # and --L reach a group however it is spelled.
    out = str(tmp_path / "r.txt")

    def run(*argv):
        assert main(["verify", *argv, "--out", out]) == EXIT_OK
        with open(out) as fh:
            lines = fh.read().splitlines()
        config = json.loads(lines[2].removeprefix("# config "))
        return config, [json.loads(ln) for ln in lines if not ln.startswith("#")]

    config, records = run("all", "--group", "torus:+1", "--bandlimit", "4", "--count", "1")
    assert (config["groups"], config["bandlimit"], config["L"]) == (["torus:1"], 4.0, None)
    assert {r["instance"]["L"] for r in records if r["name"] == "nikolskii"} == {4.0}
    config, records = run("embeddings", "--group", "torus:01", "--L", "4,8,16", "--count", "1")
    slopes = [r for r in records if r["name"].startswith("embedding-slope:")]
    assert slopes and all(r["instance"]["grid"] == [4.0, 8.0, 16.0] for r in slopes)
    config, records = run("weyl", "--group", "torus:01", "--L", "10,20,30,40,50")
    assert [r["instance"]["grid"] for r in records] == [[10.0, 20.0, 30.0, 40.0, 50.0]]


def test_verify_reports_byte_identical(tmp_path):
    args = ["verify", "hausdorff-young", "--group", "torus:1", "--seed", "7",
            "--count", "3"]
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    assert main(args + ["--out", a]) == EXIT_OK
    assert main(args + ["--out", b]) == EXIT_OK
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_corpus_command_roundtrip(tmp_path):
    out1 = str(tmp_path / "c1")
    out2 = str(tmp_path / "c2")
    base = [
        "corpus", "--group", "torus:1", "--bandlimit", "8", "--count", "3",
        "--seed", "7", "--profile", "smooth_decay",
    ]
    assert main(base + ["--out", out1]) == EXIT_OK
    assert main(base + ["--out", out2]) == EXIT_OK
    names = sorted(os.listdir(out1))
    assert names == ["fn_000.spectral", "fn_001.spectral", "fn_002.spectral"]
    for name in names:
        with open(os.path.join(out1, name), "rb") as fa, open(os.path.join(out2, name), "rb") as fb:
            assert fa.read() == fb.read()
    F = read_spectral(os.path.join(out1, "fn_000.spectral"))
    assert len(F.support()) == 15


def test_corpus_profiles_are_the_corpus_generators(tmp_path, capsys):
    # corpus --profile offers verify.PROFILES, the profiles make_corpus
    # takes, and refuses any other name as a usage error.
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    profile = next(a for a in sub.choices["corpus"]._actions if a.dest == "profile")
    assert profile.choices is PROFILES
    args = ["corpus", "--group", "torus:1", "--bandlimit", "2", "--count", "1", "--seed", "7",
            "--out", str(tmp_path)]
    assert main(args + ["--profile", "uniform"]) == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


def test_violation_exit_code(tmp_path, monkeypatch):
    # a deliberately impossible tolerance forces a failing record
    code = main(
        [
            "verify", "sharpness", "--group", "torus:1", "--L", "2",
            "--tol", "exact=-1", "--out", str(tmp_path / "r.txt"),
        ]
    )
    assert code == EXIT_VIOLATION


@pytest.fixture()
def two_shell_file(tmp_path):
    # Dirichlet kernel on T^1 reaching dyadic shells s = 0, 1, 2
    path = tmp_path / "d16.spectral"
    save_spectral(dirichlet(torus(1), 6.0), path)
    return str(path)


def test_norm_prints_besov_certification_and_grid(two_shell_file, capsys):
    assert main(["norm", two_shell_file, "besov:r=0.5,p=2,q=2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "certification: exact\n" in out
    assert "grid: " in out and " nodes (band " in out


@pytest.mark.parametrize(
    "spec",
    ["besov:r=nan,p=2,q=2", "besov:r=1e6,p=2,q=2", "besov:r=300,p=2,q=2", "sobolev:r=1e6,p=2",
     "seq:1e-10", "wiener:1e-300", "beurling:0.001"],
)
def test_norm_bad_smoothness_exit_2(two_shell_file, spec, capsys):
    assert main(["norm", two_shell_file, spec]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_norm_exponents_past_float_range_or_every_grid(tmp_path, capsys):
    # |f|^p summed to about 1, whose 1/p-th power leaves float range: exit 2
    # with no numpy warning; an even p so large that no grid integrates
    # |f|^p exactly: exit 3, refused before any grid is sized
    out = str(tmp_path / "c")
    assert main(["corpus", "--group", "torus:2", "--bandlimit", "3", "--count", "1",
                 "--seed", "1", "--out", out]) == EXIT_OK
    path = os.path.join(out, "fn_000.spectral")
    capsys.readouterr()
    assert main(["norm", path, "Lp:1e-300"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: L^1e-300 value")
    assert "leaves float range at the root 1/1e-300" in err
    assert main(["norm", path, "tl:r=1,p=2,q=0.001"]) == EXIT_USAGE
    assert "l^0.001 aggregate leaves float range at the root 1/0.001" in capsys.readouterr().err
    assert main(["norm", path, "Lp:1e300"]) == EXIT_RESOURCE
    assert "needs more than the cap" in capsys.readouterr().err
    # 1/p itself past float range: a quadrature sum below 1 underflows at
    # the root, refused rather than printed as a refined 0.0
    dpath = str(tmp_path / "d.spectral")
    save_spectral(dirichlet(torus(1), 2.0), dpath)
    assert main(["norm", dpath, "Lp:1e-320"]) == EXIT_USAGE
    assert "leaves float range at the root" in capsys.readouterr().err


def test_norm_refuses_an_exponent_too_small_to_root(tmp_path, capsys):
    # At p = 1e-16 every |f|^p rounds to about 1 and the ladder "refined"
    # 1.0 for a function whose geometric mean is about 4.3: exit 2.  Down
    # to p = 1e-9 the value stands.
    out = str(tmp_path / "c7")
    assert main(["corpus", "--group", "torus:2", "--bandlimit", "4", "--count", "1",
                 "--seed", "7", "--out", out]) == EXIT_OK
    path = os.path.join(out, "fn_000.spectral")
    capsys.readouterr()
    assert main(["norm", path, "Lp:1e-16"]) == EXIT_USAGE
    assert "at exponent 1e-16: below 1.11e-10" in capsys.readouterr().err
    assert main(["norm", path, "Lp:1e-9"]) == EXIT_OK
    value = float(capsys.readouterr().out.splitlines()[0].split(" = ")[1])
    assert 4.0 < value < 4.7


@pytest.mark.parametrize("grid", ["4,4,4", "8"])
def test_verify_embeddings_refuses_a_degenerate_family_grid(tmp_path, grid, capsys):
    # A repeated band limit gave a rank-deficient slope fit (false
    # violations, numpy RankWarnings); a single one dropped every slope
    # record: both exit 2.
    argv = ["verify", "embeddings", "--group", "torus:1", "--L", grid,
            "--out", str(tmp_path / "report")]
    assert main(argv) == EXIT_USAGE
    assert "degenerate grid" in capsys.readouterr().err


def test_norm_grids_no_array_can_hold_exit_3(two_shell_file, monkeypatch, capsys):
    # a node cap past any array does not let through a grid past MAX_GRID_NODES
    argv = ["norm", two_shell_file, "Lp:1e18", "--max-nodes", "99999999999999999999"]
    assert main(argv) == EXIT_RESOURCE
    assert "needs more than the cap" in capsys.readouterr().err
    # a grid under the cap that memory cannot hold

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 81.6 TiB")

    monkeypatch.setattr(cli, "norm_info", out_of_memory)
    assert main(["norm", two_shell_file, "Lp:3"]) == EXIT_RESOURCE
    assert "out of memory: Unable to allocate" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["-5", "0"])
def test_node_cap_below_one_is_a_usage_error(tmp_path, dirichlet_file, monkeypatch, capsys, cap):
    # refused by the parser, before any corpus is built or norm evaluated
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "run_suite", no_work)
    monkeypatch.setattr(cli, "norm_info", no_work)
    out = tmp_path / "r.txt"
    for argv in (["verify", "nikolskii", "--count", "1", "--max-nodes", cap, "--out", str(out)],
                 ["verify", "weyl", "--group", "torus:1", "--L", "10,20,30,40,50",
                  "--max-nodes", cap, "--out", str(out)],
                 ["norm", dirichlet_file, "Lp:2", "--max-nodes", cap]):
        assert main(argv) == EXIT_USAGE
        assert f"node cap must be a positive integer, got '{cap}'" in capsys.readouterr().err
    assert not out.exists()


def test_node_cap_of_one_is_accepted(tmp_path, dirichlet_file, capsys):
    out = tmp_path / "r.txt"
    argv = ["verify", "weyl", "--group", "torus:1", "--L", "10,20,30,40,50",
            "--max-nodes", "1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert '"max_nodes": 1,' in out.read_text()
    # a suite or norm needing a grid runs into the cap
    argv = ["verify", "nikolskii", "--count", "1", "--max-nodes", "1", "--out", str(out)]
    assert main(argv) == EXIT_RESOURCE
    assert main(["norm", dirichlet_file, "Lp:2", "--max-nodes", "1"]) == EXIT_RESOURCE
    assert capsys.readouterr().err.count("needs more than the cap of 1 nodes") == 2


def test_verify_huge_r_exit_2(tmp_path, capsys):
    code = main(
        ["verify", "embeddings", "--group", "torus:1", "--r", "1e6",
         "--out", str(tmp_path / "r.txt")]
    )
    assert code == EXIT_USAGE
    assert "float range" in capsys.readouterr().err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BIG = "specfun v1\ngroup torus:1\nrep 0 1 1e200 0\nrep 3 1 1e200 0\n"


@pytest.mark.parametrize("spec", ["Lp:3", "Lp:2", "seq:2", "beurling:2",
                                  "besov:r=0.5,p=2,q=1", "tl:r=0.5,p=2,q=2",
                                  "sobolev:r=400,p=2"])
def test_norm_of_huge_coefficients_exit_2(tmp_path, spec, capsys):
    # |f|^p, the coefficient sums or the Sobolev rescaling leave float range:
    # an error, not "inf ... exact", and stderr holds that one line, no
    # numpy warning
    path = _write(tmp_path, "big.spectral", BIG)
    assert main(["norm", path, spec]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "not finite" in captured.err or "float range" in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "inf" not in captured.out


def test_norm_prints_the_sup_enclosure(tmp_path, capsys):
    # The three phases align at some point of T^2, so the sup is the sum A
    # of the coefficient moduli, and no mesh bound beats the coefficient
    # bound (1 + SUP_ROUNDOFF) A: it is hi on the enclosed grid and under a
    # cap of 200 nodes alike.
    path = _write(tmp_path, "t2.spectral", "specfun v1\ngroup torus:2\nrep 0,0 1 1 0\n"
                  "rep 1,2 1 0 1\nrep -2,1 1 0.5 -0.5\n")
    bound = (1.0 + SUP_ROUNDOFF) * (2.0 + abs(0.5 - 0.5j))
    for cap, cert in ((None, "enclosed"), ("200", "capped")):
        assert main(["norm", path, "Lp:inf"] + (["--max-nodes", cap] if cap else [])) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == f"certification: {cert}"
        assert lines[2].startswith("enclosure: [") and lines[2].endswith("]")
        lo, hi = map(float, lines[2][len("enclosure: ["):-1].split(", "))
        assert lines[0] == f"Lp:inf = {lo!r}" and lo <= hi <= 1.02 * lo
        assert hi == bound
    # not pinned at the identity, entries near the top of float range
    path = _write(tmp_path, "big.spectral", "specfun v1\ngroup torus:1\nrep 0 1 1e200 0\n"
                  "rep 3 1 0 1e200\n")
    assert main(["norm", path, "Lp:inf"]) == EXIT_OK
    assert "certification: enclosed" in capsys.readouterr().out


def test_verify_on_a_sparse_corpus_exits_0(tmp_path, capsys):
    out = str(tmp_path / "hy.txt")
    argv = ["verify", "hausdorff-young", "--profile", "sparse", "--seed", "7", "--out", out]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.endswith(" 0 fail\n")


def _enclosure_line(line):
    assert line.startswith("enclosure: [") and line.endswith("]")
    return tuple(map(float, line[len("enclosure: ["):-1].split(", ")))


def test_norm_prints_the_besov_sup_enclosure(tmp_path, capsys):
    # p = inf blocks are enclosed: the Besov value carries the l^q aggregate
    # of their upper ends, and says so
    path = str(tmp_path / "f.spectral")
    save_spectral(make_corpus(torus(2), 3.0, 1, 3).functions[0], path)
    assert main(["norm", path, "besov:r=0.5,p=inf,q=2"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "certification: enclosed"
    lo, hi = _enclosure_line(lines[2])
    assert lines[0] == f"besov:r=0.5,p=inf,q=2 = {lo!r}" and lo < hi <= 1.02 * lo


def test_norm_prints_the_lp_enclosure_of_a_finite_p(tmp_path, capsys):
    path = str(tmp_path / "f.spectral")
    F = make_corpus(torus(2), 3.0, 1, 3).functions[0]
    save_spectral(F, path)
    for p in ("1", "1.5", "3", "5"):
        assert main(["norm", path, f"Lp:{p}"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        value = lp_norm(F, float(p))  # the value line stays the refined value
        assert lines[0] == f"Lp:{p} = {value!r}" and lines[1] == "certification: refined"
        lo, hi = _enclosure_line(lines[2])
        assert lo < value < hi and lines[3].startswith("grid: ")
    # an even p is exact, with no enclosure line
    assert main(["norm", path, "Lp:4"]) == EXIT_OK
    assert "enclosure" not in capsys.readouterr().out
    # |f|^2 past float range: ||f||_1 is a finite value, whose enclosure
    # then bounds nothing
    path = _write(tmp_path, "big.spectral", BIG)
    assert main(["norm", path, "Lp:1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[2] == "enclosure: [0.0, inf]"


# (file, spec, node cap, certification, prints an enclosure line, prints a grid line)
_NORM_LINES = [
    ("f", "Lp:4", None, "exact", False, True),
    ("f", "besov:r=0.5,p=2,q=1", None, "exact", False, True),
    ("f", "sobolev:r=0.5,p=4", None, "exact", False, True),
    ("f", "tl:r=0.5,p=2,q=2", None, "exact", False, True),
    ("f", "seq:2", None, "exact", False, False),
    ("f", "beurlingR:r=0.5,beta=2", None, "exact", False, False),
    ("dirichlet", "Lp:inf", None, "exact (identity-pinned)", True, False),
    ("dirichlet", "besov:r=0.5,p=inf,q=2", None, "exact (identity-pinned)", True, False),
    ("f", "Lp:inf", None, "enclosed", True, True),
    ("f", "besov:r=0.5,p=inf,q=2", None, "enclosed", True, True),
    ("f", "sobolev:r=0.5,p=inf", None, "enclosed", True, True),
    ("f", "Lp:3", None, "refined", True, True),
    ("f", "besov:r=0.5,p=1,q=2", None, "refined", True, True),
    ("f", "tl:r=0.5,p=2,q=4", None, "refined", True, True),
    ("f", "tl:r=0.5,p=2,q=1", None, "refined", True, True),
    ("f", "sobolev:r=0.5,p=3", None, "refined", True, True),
    ("f", "Lp:inf", 200, "capped", True, True),
    ("f", "besov:r=0.5,p=1,q=2", 20000, "capped", True, True),
    # the zero function is an exact point everywhere, p = inf included
    ("zero", "Lp:inf", None, "exact", False, False),
    ("zero", "sobolev:r=0.5,p=inf", None, "exact", False, False),
    ("zero", "besov:r=0.5,p=inf,q=2", None, "exact", False, False),
    ("zero", "Lp:3", None, "exact", False, False),
    ("zero", "tl:r=0.5,p=2,q=4", None, "exact", False, False),
]


def test_norm_prints_the_enclosure_of_every_refined_value(tmp_path, capsys):
    # Every line of `peterweyl norm`, per certification: the value is
    # norm_info's lo; the enclosure line, norm_enclosure's bounds, stands
    # unless the value is an exact point; the grid line names norm_info's
    # grid where it has one.  A refined or capped value lies within the
    # stop rule of its enclosure.
    functions = {"f": make_corpus(torus(2), 3.0, 1, 3).functions[0],
                 "dirichlet": dirichlet(torus(2), 4.0), "zero": zero_spectral(torus(1))}
    for name, F in functions.items():
        save_spectral(F, str(tmp_path / f"{name}.spectral"))
    for name, text, cap, cert, enclosed, grid in _NORM_LINES:
        F, spec = functions[name], parse_norm_spec(text)
        argv = ["norm", str(tmp_path / f"{name}.spectral"), text]
        assert main(argv + (["--max-nodes", str(cap)] if cap else [])) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        e = norm_info(F, spec, cap)
        want = [f"{text} = {e.lo!r}", f"certification: {e.certified}"]
        if enclosed:
            bound = norm_enclosure(F, spec, cap)
            want.append(f"enclosure: [{bound.lo!r}, {bound.hi!r}]")
            slack = 1.0 + REFINE_STOP
            assert bound.lo <= e.lo * slack and e.lo <= bound.hi * slack, (name, text)
        if grid:
            want.append(f"grid: {e.nodes} nodes (band {e.bandlimit:g})")
        assert lines == want and e.certified == cert, (name, text, lines)
        assert (e.nodes > 0) == grid and (e.lo == e.hi and cert == "exact") != enclosed


def test_norm_of_huge_coefficients_in_range(tmp_path, capsys):
    # each entry squared overflows, but the l^1 sum 2e200 is a finite float,
    # and the overflow of the unscaled squares writes no warning
    path = _write(tmp_path, "big.spectral", BIG)
    assert main(["norm", path, "wiener:1"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:2] == ["wiener:1 = 2e+200", "certification: exact"]
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [["dual", "--group", "su2", "--L", "inf"], ["dual", "--group", "torus:2", "--L", "nan"],
     ["corpus", "--group", "torus:1", "--bandlimit", "1e400", "--count", "1", "--seed", "1"],
     ["verify", "sharpness", "--group", "torus:1", "--L", "2,inf"],
     ["verify", "corollary", "--L", "2,4"],
     ["verify", "sharpness", "--group", "torus:1", "--L", "2,4", "--tol", "exact=nan"],
     ["verify", "sharpness", "--group", "torus:1", "--L", "2,4", "--tol", "bogus=1"],
     ["verify", "nikolskii", "--group", "torus:1", "--count", "1", "--p", "nan"],
     ["verify", "nikolskii", "--group", "torus:1", "--count", "1", "--q", "nan"],
     ["verify", "nikolskii", "--group", "torus:1", "--count", "1", "--p", "5", "--q", "2"],
     ["verify", "nikolskii", "--group", "torus:1", "--count", "1", "--q", "-1"],
     ["verify", "nikolskii", "--group", "torus:1", "--count", "1", "--p", "1e-300"],
     ["verify", "wiener-chain", "--group", "torus:1", "--count", "1", "--beta", "0.001",
      "--max-nodes", "600"],
     # int and float read '_' and any Unicode digit: no number option or list may hold them
     ["dual", "--group", "su2", "--L", "1_0"],
     ["dual", "--group", "torus:\u0662", "--L", "2"],
     ["verify", "sharpness", "--group", "torus:1", "--L", "2,4_0"],
     ["verify", "sharpness", "--group", "torus:1", "--L", "2,\uff14"],
     ["verify", "sharpness", "--group", "torus:1", "--L", "2,4", "--tol", "exact=1_0"],
     ["verify", "sharpness", "--group", "torus:1", "--L", "2,4", "--seed", "\u0667"],
     ["verify", "sharpness", "--group", "torus:1", "--L", "2,4", "--max-nodes", "1_000"],
     ["verify", "nikolskii", "--group", "torus:1", "--count", "1_0"],
     ["corpus", "--group", "torus:1", "--bandlimit", "4_0", "--count", "1", "--seed", "1"],
     # a corpus no run could build
     ["verify", "sharpness", "--group", "torus:1", "--count", "-3", "--profile", "bogus"],
     ["verify", "sharpness", "--group", "torus:1", "--count", "0"],
     ["verify", "sharpness", "--group", "torus:1", "--profile", "bogus"],
     # 'inf' is the only spelling of infinity, and no literal may overflow to it
     ["verify", "nikolskii", "--group", "torus:1", "--count", "1", "--q", "2,1e999"],
     ["verify", "nikolskii", "--group", "torus:1", "--count", "1", "--p", "1,Infinity"],
     ["verify", "sharpness", "--group", "torus:1", "--L", "2,4", "--tol", "exact=Infinity"],
     ["dual", "--group", "\u2003su2", "--L", "2"],
     # a corollary grid that does not increase, and a repeated group
     ["verify", "corollary", "--L", "32,16,8,4"],
     ["verify", "corollary", "--L", "8,8,16"],
     ["verify", "weyl", "--group", "torus:1,torus:1"]],
    ids=" ".join,
)
def test_non_finite_or_short_grids_exit_2(tmp_path, argv, capsys):
    if argv[0] != "dual":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "records, message",
    [
        ("rep 1 1 1 0\nrep 1 1 2 0\n", "duplicate record for rep 1"),
        ("rep 1 1 nan 0\n", "entries must be finite"),
        ("rep 1 1 0 inf\n", "entries must be finite"),
        ("rep 1 1 -inf 0\n", "entries must be finite"),
        ("rep 1 1 1 x\n", "bad number"),
        ("rep 1 0\n", "dimension must be positive"),
    ],
)
def test_norm_rejects_malformed_records_exit_2(tmp_path, records, message, capsys):
    path = _write(tmp_path, "bad.spectral", "specfun v1\ngroup torus:1\n" + records)
    assert main(["norm", path, "seq:2"]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "group, index",
    [("torus:1", "536870913"), ("torus:3", "0,-536870913,0"), ("su2", "536870913"),
     ("torus:2", "1,99999999999999999999"), ("su2", "99999999999999999999")],
)
def test_norm_rejects_rep_index_past_bound_exit_2(tmp_path, group, index, capsys):
    # The packed layout keeps 4<xi>^2 in int64, so |k| and twoL stop at 2^29;
    # a file past the bound is refused even for coefficient-only norms, and
    # an index past int64 too, before it is packed.
    path = _write(tmp_path, "far.spectral", f"specfun v1\ngroup {group}\nrep {index} 1 1 0\n")
    assert main(["norm", path, "wiener:1"]) == EXIT_USAGE
    assert "536870912" in capsys.readouterr().err
    edge = _write(tmp_path, "edge.spectral", "specfun v1\ngroup torus:1\nrep 536870912 1 1 0\n")
    assert main(["norm", edge, "wiener:1"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("wiener:1 = 1.0\n")


def test_corpus_writes_through_atomic_replace(tmp_path, monkeypatch):
    import peterweyl.fourier as fourier

    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append((os.path.dirname(src), os.path.basename(dst)))
        return real_replace(src, dst)

    monkeypatch.setattr(fourier.os, "replace", recording_replace)
    out = tmp_path / "c"
    assert main(["corpus", "--group", "torus:1", "--bandlimit", "3", "--count", "2",
                 "--seed", "1", "--out", str(out)]) == EXIT_OK
    assert replaced == [(str(out), "fn_000.spectral"), (str(out), "fn_001.spectral")]
    assert sorted(os.listdir(out)) == ["fn_000.spectral", "fn_001.spectral"]


def test_written_files_get_the_mode_open_would_give(tmp_path):
    # a new file gets 0o666 less the umask; a rewritten file keeps its mode
    out = tmp_path / "c"
    report = tmp_path / "report.txt"
    report.write_text("old\n")
    report.chmod(0o640)
    umask = os.umask(0o022)
    try:
        assert main(["corpus", "--group", "torus:1", "--bandlimit", "3", "--count", "1",
                     "--seed", "1", "--out", str(out)]) == EXIT_OK
        assert main(["verify", "weyl", "--group", "torus:1", "--out", str(report)]) == EXIT_OK
    finally:
        os.umask(umask)
    assert (out / "fn_000.spectral").stat().st_mode & 0o777 == 0o644
    assert report.stat().st_mode & 0o777 == 0o640
    assert report.read_text() != "old\n"
    assert sorted(os.listdir(tmp_path)) == ["c", "report.txt"]


# Argument values for the CLI fuzz test, (mostly drawn, sometimes drawn):
# small, malformed or non-finite, and huge finite bands, which every command
# must refuse or answer at once; never a count whose grid or listing is
# large.  Every verify run gets a node cap of at most 600, so a suite ends
# after a few small grids.
_FUZZ_NUMBERS = (("1", "2", "2.5", "2,4"),
                 ("0.5", "0", "-1", "nan", "inf", "-inf", "1e400", "x", "", "2,inf", "1,nan",
                  "1e300", "10,20,30,40,1e300", "1e-3"))
_FUZZ_INTS = (("1", "2", "7"), ("0", "-3", "x", "1e3", "99999999999999999999"))
_FUZZ_GROUPS = (("torus:1", "torus:2", "su2", "torus:1,su2"),
                ("torus:0", "torus:4", "torus:x", "so3", ""))
_FUZZ_SPECS = (("Lp:2", "Lp:3", "Lp:inf", "seq:1", "wiener:0.5", "beurling:inf",
                "beurlingR:r=1,beta=2", "besov:r=1,p=2,q=inf", "tl:r=0.5,p=3,q=2"),
               ("Lp:0", "Lp:nan", "Lp:1e400", "tl:r=1,p=inf,q=2", "sobolev:r=nan,p=2", "Lp",
                "x:1", "besov:p=2", "besov:r=1,p=2,q=2,q=3", "", "seq:1e-10", "beurling:0.001",
                "Lp:1e300"))
_FUZZ_OPTIONS = {
    "dual": (("--group", _FUZZ_GROUPS), ("--L", _FUZZ_NUMBERS)),
    "norm": (("--max-nodes", _FUZZ_INTS),),
    "corpus": (("--group", _FUZZ_GROUPS), ("--bandlimit", _FUZZ_NUMBERS),
               ("--count", _FUZZ_INTS), ("--seed", _FUZZ_INTS),
               ("--profile", (("sparse", "smooth_decay"), ("bogus",)))),
    "verify": (("--group", _FUZZ_GROUPS), ("--seed", _FUZZ_INTS), ("--count", _FUZZ_INTS),
               ("--profile", (("sparse",), ("bogus",))), ("--bandlimit", _FUZZ_NUMBERS),
               ("--L", _FUZZ_NUMBERS), ("--p", _FUZZ_NUMBERS), ("--q", _FUZZ_NUMBERS),
               ("--r", _FUZZ_NUMBERS), ("--beta", _FUZZ_NUMBERS),
               ("--tol", (("exact=1e-9", "grid=1e-6"),
                          ("grid=x", "bogus=1", "exact", "exact=nan")))),
    "bogus": (),
}


# Inputs every example reads, relative to the fuzz directory: a valid file
# on two groups, a malformed one and a missing path.
_FUZZ_FILES = ("t1.spectral", "t2.spectral", "bad.spectral", "missing.spectral")


@st.composite
def _cli_argvs(draw):
    def value(choices):
        good, bad = choices
        return draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 3 else good))

    cmd = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [cmd]
    if cmd == "norm":
        argv += [draw(st.sampled_from(_FUZZ_FILES)), value(_FUZZ_SPECS)]
    elif cmd == "verify":
        argv.append(draw(st.sampled_from(SUITES + ("bogus",))))
    for flag, choices in draw(st.permutations(_FUZZ_OPTIONS[cmd])):
        # dual and corpus options are required; leaving one out is a usage error
        if cmd in ("dual", "corpus") and draw(st.integers(0, 7)) < 7 or draw(st.booleans()):
            argv += [flag, value(choices)]
    if cmd == "verify":
        argv += ["--max-nodes", draw(st.sampled_from(("-1", "1", "64", "600")))]
    if cmd in ("verify", "corpus"):
        argv += ["--out", "report.txt" if cmd == "verify" else "corpus"]
    if draw(st.integers(0, 7)) == 7:
        argv.append(draw(st.sampled_from(("--frobnicate", "extra", "-", "--L"))))
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    for name, group in (("t1", torus(1)), ("t2", torus(2))):
        save_spectral(dirichlet(group, 2.0), base / f"{name}.spectral")
    (base / "bad.spectral").write_text("specfun v1\ngroup su2\nrep 1 2 1 0\n")
    return base


# Drawn argvs reach these only by chance, so they are pinned: huge last bands
# on the suites that count the dual up to them, a grid past every FFT length
# (also under a node cap past any array), and roots past float range for
# tiny exponents.
@example(argv=["verify", "weyl", "--group", "torus:2", "--L", "10,20,30,40,1e300",
               "--out", "report.txt"])
@example(argv=["verify", "weyl", "--group", "su2", "--L", "10,20,30,40,1e300",
               "--out", "report.txt"])
@example(argv=["verify", "corollary", "--L", "10,20,30,40,1e300", "--out", "report.txt"])
@example(argv=["norm", "t2.spectral", "Lp:1e300"])
@example(argv=["norm", "t2.spectral", "Lp:inf", "--max-nodes", "64"])
@example(argv=["verify", "nikolskii", "--group", "su2", "--count", "1", "--max-nodes", "600",
               "--out", "report.txt"])
@example(argv=["norm", "t1.spectral", "Lp:1e18", "--max-nodes", "99999999999999999999"])
@example(argv=["norm", "t1.spectral", "seq:1e-10"])
@example(argv=["verify", "wiener-chain", "--group", "torus:1", "--count", "1", "--beta", "1e-3",
               "--max-nodes", "600", "--out", "report.txt"])
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argvs())
def test_cli_fuzz_exits_0_to_3(fuzz_dir, monkeypatch, capsys, argv):
    monkeypatch.chdir(fuzz_dir)
    assert main(argv) in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_RESOURCE)
    capsys.readouterr()
