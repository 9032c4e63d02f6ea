"""Command-line interface: commands, exit codes, report determinism."""

import os

import pytest

from peterweyl.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)
from peterweyl.fourier import dirichlet, read_spectral, save_spectral
from peterweyl.groups import torus


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
    text = open(out).read()
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


def test_verify_reports_byte_identical(tmp_path):
    args = ["verify", "hausdorff-young", "--group", "torus:1", "--seed", "7",
            "--count", "3"]
    a = str(tmp_path / "a.txt")
    b = str(tmp_path / "b.txt")
    assert main(args + ["--out", a]) == EXIT_OK
    assert main(args + ["--out", b]) == EXIT_OK
    assert open(a, "rb").read() == open(b, "rb").read()


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
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b
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
