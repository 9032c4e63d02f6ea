"""Command-line interface: commands, exit codes, report determinism."""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from peterweyl.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)
from peterweyl.fourier import dirichlet, read_spectral, save_spectral
from peterweyl.groups import torus
from peterweyl.verify import SUITES


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
    ["besov:r=nan,p=2,q=2", "besov:r=1e6,p=2,q=2", "besov:r=300,p=2,q=2", "sobolev:r=1e6,p=2"],
)
def test_norm_bad_smoothness_exit_2(two_shell_file, spec, capsys):
    assert main(["norm", two_shell_file, spec]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("spec", ["Lp:3", "Lp:2", "seq:2", "beurling:2",
                                  "besov:r=0.5,p=2,q=1", "tl:r=0.5,p=2,q=2"])
def test_norm_of_huge_coefficients_exit_2(tmp_path, spec, capsys):
    # |f|^p and the coefficient sums leave float range: an error, not "inf ... exact"
    path = _write(tmp_path, "big.spectral", BIG)
    assert main(["norm", path, spec]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "not finite" in captured.err or "float range" in captured.err
    assert "inf" not in captured.out


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_norm_of_huge_coefficients_in_range(tmp_path, capsys):
    # each entry squared overflows, but the l^1 sum 2e200 is a finite float
    path = _write(tmp_path, "big.spectral", BIG)
    assert main(["norm", path, "wiener:1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[:2] == [
        "wiener:1 = 2e+200", "certification: exact"
    ]


@pytest.mark.parametrize(
    "argv",
    [["dual", "--group", "su2", "--L", "inf"], ["dual", "--group", "torus:2", "--L", "nan"],
     ["corpus", "--group", "torus:1", "--bandlimit", "1e400", "--count", "1", "--seed", "1"],
     ["verify", "sharpness", "--group", "torus:1", "--L", "2,inf"],
     ["verify", "corollary", "--L", "2,4"]],
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
# small, malformed or non-finite, never a band or count whose grid or
# listing is large.  Every verify run gets a node cap of at most 600, so a
# suite ends after a few small grids.
_FUZZ_NUMBERS = (("1", "2", "2.5", "2,4"),
                 ("0.5", "0", "-1", "nan", "inf", "-inf", "1e400", "x", "", "2,inf", "1,nan"))
_FUZZ_INTS = (("1", "2", "7"), ("0", "-3", "x", "1e3", "99999999999999999999"))
_FUZZ_GROUPS = (("torus:1", "torus:2", "su2", "torus:1,su2"),
                ("torus:0", "torus:4", "torus:x", "so3", ""))
_FUZZ_SPECS = (("Lp:2", "Lp:3", "Lp:inf", "seq:1", "wiener:0.5", "beurling:inf",
                "beurlingR:r=1,beta=2", "besov:r=1,p=2,q=inf", "tl:r=0.5,p=3,q=2"),
               ("Lp:0", "Lp:nan", "Lp:1e400", "tl:r=1,p=inf,q=2", "sobolev:r=nan,p=2", "Lp",
                "x:1", "besov:p=2", "besov:r=1,p=2,q=2,q=3", ""))
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
               ("--tol", (("exact=1e-9", "grid=1e-6"), ("grid=x", "bogus=1", "exact")))),
    "bogus": (),
}


@st.composite
def _cli_argvs(draw, files, base):
    def value(choices):
        good, bad = choices
        return draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 3 else good))

    cmd = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [cmd]
    if cmd == "norm":
        argv += [draw(st.sampled_from(files)), value(_FUZZ_SPECS)]
    elif cmd == "verify":
        argv.append(draw(st.sampled_from(SUITES + ("bogus",))))
    for flag, choices in draw(st.permutations(_FUZZ_OPTIONS[cmd])):
        # dual and corpus options are required; leaving one out is a usage error
        if cmd in ("dual", "corpus") and draw(st.integers(0, 7)) < 7 or draw(st.booleans()):
            argv += [flag, value(choices)]
    if cmd == "verify":
        argv += ["--max-nodes", draw(st.sampled_from(("-1", "1", "64", "600")))]
    if cmd in ("verify", "corpus"):
        argv += ["--out", os.path.join(base, "report.txt" if cmd == "verify" else "corpus")]
    if draw(st.integers(0, 7)) == 7:
        argv.append(draw(st.sampled_from(("--frobnicate", "extra", "-", "--L"))))
    return argv


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    # Inputs shared by every example: a valid file on two groups, a
    # malformed one and a missing path.
    base = tmp_path_factory.mktemp("fuzz")
    for name, group in (("t1", torus(1)), ("t2", torus(2))):
        save_spectral(dirichlet(group, 2.0), base / f"{name}.spectral")
    (base / "bad.spectral").write_text("specfun v1\ngroup su2\nrep 1 2 1 0\n")
    paths = [str(base / f"{name}.spectral") for name in ("t1", "t2", "bad", "missing")]
    return {"paths": tuple(paths), "base": str(base)}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exits_0_to_3(fuzz_inputs, capsys, data):
    argv = data.draw(_cli_argvs(fuzz_inputs["paths"], fuzz_inputs["base"]))
    assert main(argv) in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_RESOURCE)
    capsys.readouterr()
