"""Command-line interface: subcommands, CSV output, exit codes."""

import csv
import io
import os
import subprocess
import sys

import numpy as np

from bernmass import cli
from bernmass.cli import main
from bernmass.conditioning import kappa_2


def run_to_file(tmp_path, args, name="out.csv"):
    out = tmp_path / name
    rc = main(args + ["--out", str(out)])
    return rc, out.read_text() if out.exists() else None


def test_conditioning_output(tmp_path):
    rc, text = run_to_file(tmp_path, ["conditioning", "--max-degree", "20"])
    assert rc == 0
    lines = text.strip().split("\n")
    assert lines[0] == "n,kappa2,kappam2"
    assert len(lines) == 22
    last = lines[-1].split(",")
    assert last[0] == "20"
    assert last[1] == "269128937220" and float(last[1]) == kappa_2(20) == 269128937220
    assert float(last[2]) == np.sqrt(269128937220.0)


def test_matrix_inverse_two_by_two(tmp_path):
    rc, text = run_to_file(tmp_path, ["matrix", "--n", "1", "--what", "inverse"])
    assert rc == 0
    assert text == "4,-2\n-2,4\n"


def test_matrix_mass(tmp_path):
    rc, text = run_to_file(tmp_path, ["matrix", "--n", "1", "--what", "mass"])
    assert rc == 0
    rows = [line.split(",") for line in text.strip().split("\n")]
    got = np.array([[float(v) for v in row] for row in rows])
    assert np.allclose(got, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-16)


def test_matrix_eigenvalues(tmp_path):
    rc, text = run_to_file(tmp_path, ["matrix", "--n", "2", "--what", "eigenvalues"])
    assert rc == 0
    vals = [float(line) for line in text.strip().split("\n")]
    assert vals == [1 / 3, 1 / 6, 1 / 30]


def test_matrix_q_is_orthogonal(tmp_path):
    rc, text = run_to_file(tmp_path, ["matrix", "--n", "5", "--what", "q"])
    assert rc == 0
    q = np.array([[float(v) for v in line.split(",")] for line in text.strip().split("\n")])
    assert q.shape == (6, 6)
    assert np.max(np.abs(q.T @ q - np.eye(6))) <= 1e-12


def test_matrix_q_is_orthogonal_at_degree_512(tmp_path):
    n = 512
    rc, text = run_to_file(tmp_path, ["matrix", "--n", str(n), "--what", "q"])
    assert rc == 0
    q = np.array([np.array(line.split(","), dtype=float) for line in text.strip().split("\n")])
    assert q.shape == (n + 1, n + 1)
    assert np.max(np.abs(q.T @ q - np.eye(n + 1))) <= 4 * (n + 1) * np.finfo(float).eps


def test_project_degree_zero_all_methods_agree(tmp_path):
    rc, text = run_to_file(tmp_path, ["project", "--func", "f2", "--max-degree", "0"])
    assert rc == 0
    lines = text.strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    row = lines[1].split(",")
    fp = [float(row[header.index(c)]) for c in ("directfp", "DFTfp", "Eigfp", "chofp")]
    assert max(fp) - min(fp) <= 1e-15


def test_project_method_subset(tmp_path):
    rc, text = run_to_file(
        tmp_path, ["project", "--func", "f1", "--max-degree", "2", "--methods", "cho,eig"]
    )
    assert rc == 0
    assert text.split("\n")[0] == "n,Eigfp,chofp,EigPifp,choPifp,Eigerr,choerr,Eigres,chores"


def test_random_seed_reproducible(tmp_path):
    rc1, a = run_to_file(tmp_path, ["random", "--max-degree", "8", "--seed", "42"], "a.csv")
    rc2, b = run_to_file(tmp_path, ["random", "--max-degree", "8", "--seed", "42"], "b.csv")
    assert rc1 == rc2 == 0
    assert a == b
    _, c = run_to_file(tmp_path, ["random", "--max-degree", "8", "--seed", "7"], "c.csv")
    assert a != c


def test_random_past_cholesky_breakdown_exits_zero(tmp_path):
    # cells of a method that fails at a degree are nan; the table is still written
    rc, text = run_to_file(tmp_path, ["random", "--max-degree", "32"])
    assert rc == 0
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert len(lines) == 34
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert rows[10]["choMerr"] != "nan"
    assert all(row["directMerr"] != "nan" and row["EigMerr"] != "nan" for row in rows)
    broke = [row["n"] for row in rows if row["choMerr"] == "nan"]
    assert broke and broke == [row["n"] for row in rows if row["chores"] == "nan"]


def test_matrix_inverse_finite_at_degree_300(tmp_path):
    rc, text = run_to_file(tmp_path, ["matrix", "--n", "300", "--what", "inverse"])
    assert rc == 0
    assert len(text.strip().split("\n")) == 301


def test_stdout_default(capsys):
    rc = main(["conditioning", "--max-degree", "1"])
    assert rc == 0
    captured = capsys.readouterr().out
    assert captured.startswith("n,kappa2,kappam2\n")


def test_usage_errors_exit_two(tmp_path):
    assert main(["bogus"]) == 2
    assert main([]) == 2
    assert main(["matrix", "--n", "1"]) == 2  # missing --what
    assert main(["matrix", "--n", "-2", "--what", "mass"]) == 2
    assert main(["conditioning", "--max-degree", "-1"]) == 2
    assert main(["project", "--func", "f2", "--max-degree", "1", "--methods", "lu"]) == 2


def test_numerical_failures_exit_three(tmp_path, capsys):
    assert main(["matrix", "--n", "600", "--what", "mass"]) == 3
    err = capsys.readouterr().err
    assert "not representable" in err or "degree" in err
    # from n = 512 inverse_matrix refuses its degree by name, before building
    assert main(["matrix", "--n", "512", "--what", "inverse"]) == 3
    assert capsys.readouterr() == ("", "bernmass: closed-form inverse entries overflow double precision at n=512\n")


def test_project_to_degree_300_exits_clean_without_inf():
    # past n = 146 the dft solutions, and past 284 the direct and eig errors,
    # have 2-norms whose squares overflow; every norm is rescaled instead, so
    # no RuntimeWarning (an error under -W error) and no inf cell
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-m", "bernmass.cli", "project", "--func", "f1", "--max-degree", "300"],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    rows = list(csv.DictReader(io.StringIO(out.stdout)))
    assert len(rows) == 301
    inf_cells = [(row["n"], col) for row in rows for col, v in row.items() if v in ("inf", "-inf")]
    assert inf_cells == []


def test_matrix_q_refused_past_the_assembly_limit(tmp_path, capsys):
    out = tmp_path / "q.csv"
    assert main(["matrix", "--n", "582", "--what", "q", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 583
    assert main(["matrix", "--n", "583", "--what", "q"]) == 3
    assert capsys.readouterr() == ("", "bernmass: eigenvector matrix degree n=583 is past the supported limit 582\n")


def test_matrix_eigenvalues_refused_past_the_assembly_limit(tmp_path, capsys):
    # as --what q and mass are: the eigenvalues once ran on to any degree
    out = tmp_path / "lam.csv"
    assert main(["matrix", "--n", "582", "--what", "eigenvalues", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 583
    assert main(["matrix", "--n", "583", "--what", "eigenvalues"]) == 3
    assert capsys.readouterr() == ("", "bernmass: eigenvalues degree n=583 is past the supported limit 582\n")


def test_project_past_the_legendre_binomials_exits_three(monkeypatch, capsys):
    # from n = 1030 some C(n, i) is past double range, but a table past assembly's
    # last degree (582) is refused first, by its typed message, before any work
    from test_experiments import _forbid_table_work

    calls = _forbid_table_work(monkeypatch)
    assert main(["project", "--func", "f1", "--max-degree", "1030"]) == 3
    assert capsys.readouterr() == ("", "bernmass: projection table degree n=1030 is past the supported limit 582\n")
    assert calls == []


def test_random_past_the_assembly_limit_exits_three_before_any_work(monkeypatch, capsys):
    from test_experiments import _forbid_table_work

    calls = _forbid_table_work(monkeypatch)
    assert main(["random", "--max-degree", "583"]) == 3
    assert capsys.readouterr() == ("", "bernmass: random table degree n=583 is past the supported limit 582\n")
    assert calls == []


def test_conditioning_past_its_last_degree_exits_three_before_any_row(monkeypatch, capsys, tmp_path):
    rc, text = run_to_file(tmp_path, ["conditioning", "--max-degree", "514"])
    assert rc == 0 and "inf" not in text and len(text.splitlines()) == 516
    calls = []
    monkeypatch.setattr(cli, "kappa_2", calls.append)
    monkeypatch.setattr(cli, "kappa_m_to_2", calls.append)
    assert main(["conditioning", "--max-degree", "515"]) == 3
    assert capsys.readouterr() == (
        "", "bernmass: condition number C(2n+1, n) overflows double precision at degree n=515\n"
    )
    assert calls == []


def test_project_with_no_method_exits_two(capsys):
    assert main(["project", "--func", "f1", "--methods", ","]) == 2
    assert capsys.readouterr() == ("", "bernmass: --methods needs at least one method\n")
