"""Command line interface: subcommands, artifacts, and exit codes."""

import gc
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from sobemb.cli import EXIT_HARD, EXIT_OK, EXIT_PARTIAL, entry, main
from sobemb.series import DomainRect, Series2D, SineSeries2D


def test_solve_emits_loadable_series(tmp_path):
    out = str(tmp_path / "u.json")
    rc = main(["solve", "--p", "3", "--N", "6", "--out", out])
    assert rc == EXIT_OK
    u = Series2D.from_json(open(out).read())
    assert u.N == 6
    assert abs(u.coeffs.mid()[0, 0]) > 1.0


def test_certify_roundtrip_through_file(tmp_path):
    series = str(tmp_path / "u.json")
    cert = str(tmp_path / "cert.json")
    assert main(["solve", "--p", "3", "--N", "8", "--out", series]) == EXIT_OK
    rc = main(["certify", "--p", "3", "--in", series, "--out", cert])
    assert rc == EXIT_OK
    d = json.loads(open(cert).read())
    assert d["format"] == "sobemb-certificate/5"
    assert d["positive"] is True
    assert float.fromhex(d["r_h1"][1]) < 0.2


@pytest.mark.parametrize("extra", [["--domain", "2x1"], ["--N", "30"], ["--domain", "1x1"]],
                         ids=["domain", "N", "domain-default-value"])
def test_certify_in_takes_domain_and_N_from_the_file(tmp_path, extra):
    """--in fixes the domain and N, so --domain or --N beside it is a usage
    error (exit 2), raised before the file is read: here it does not exist."""
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--p", "3", *extra, "--in", str(tmp_path / "absent.json")])
    assert exc.value.code == 2


def test_certify_without_in_solves_at_N(tmp_path):
    """Without --in, certify solves on --domain at --N, by default the unit
    square at N = 20."""
    cert = tmp_path / "cert.json"
    for extra, dom, n in (([], DomainRect(1.0, 1.0), 20),
                          (["--N", "12", "--domain", "2x1"], DomainRect(2.0, 1.0), 12)):
        assert main(["certify", "--p", "3", *extra, "--out", str(cert)]) == EXIT_OK
        d = json.loads(cert.read_text())
        assert (DomainRect.from_dict(d["domain"]), d["N"]) == (dom, n)


def test_certify_rejects_center_with_even_mode(tmp_path, capsys):
    """A loaded center must be odd-odd, as every positive solution is; one
    nonzero even-mode coefficient is a DomainError, exit code 1."""
    series = str(tmp_path / "u.json")
    assert main(["solve", "--p", "3", "--N", "6", "--out", series]) == EXIT_OK
    u = Series2D.from_json(open(series).read())
    c = u.coeffs.mid()
    c[1, 0] = 1e-3
    with open(series, "w") as f:
        f.write(SineSeries2D(u.domain, c).to_json())
    assert main(["certify", "--p", "3", "--in", series]) == EXIT_HARD
    assert "error: DomainError" in capsys.readouterr().err


def test_certify_rejects_asymmetric_square_center(tmp_path, capsys):
    """On a square the positive solution is symmetric about the diagonal, so
    a loaded unit-square center with c_13 != c_31 is a DomainError, exit 1."""
    series = str(tmp_path / "u.json")
    assert main(["solve", "--p", "3", "--N", "6", "--out", series]) == EXIT_OK
    u = Series2D.from_json(open(series).read())
    c = u.coeffs.mid()
    assert c[0, 2] == c[2, 0] != 0.0
    c[0, 2] *= 1.0 + 1e-12
    with open(series, "w") as f:
        f.write(SineSeries2D(u.domain, c).to_json())
    assert main(["certify", "--p", "3", "--in", series]) == EXIT_HARD
    assert "error: DomainError" in capsys.readouterr().err


def test_certify_rejects_non_square_center(tmp_path, capsys):
    """A certificate of order N takes an N x N center; a 3 x 5 odd-odd
    series is not one, so loading it is a DomainError, exit 1."""
    c = np.zeros((3, 5))
    c[::2, ::2] = [[4.0, 0.1, 0.01], [0.1, 0.01, 0.001]]
    series = str(tmp_path / "u.json")
    with open(series, "w") as f:
        f.write(SineSeries2D(DomainRect(1.0, 1.0), c).to_json())
    assert main(["certify", "--p", "3", "--in", series]) == EXIT_HARD
    assert "error: DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("text, error", [
    (None, "FileNotFoundError"),
    ("not json", "DomainError"),
    ('["sobemb-series/1"]', "DomainError"),
    ('{"format": "sobemb-series/0"}', "DomainError"),
    ('{"format": "sobemb-series/1"}', "DomainError"),
    ('{"format": "sobemb-series/1", "domain": {"L1": "0x1.0p+0", "L2": "0x1.0p+0"}, '
     '"parity": ["sin", "sin"], "shape": [2, 2], "coeffs": [["0x1.0p+0", "0x1.0p+0"]]}',
     "DomainError"),
    ('{"format": "sobemb-series/1", "domain": {"L1": "0x1.0p+0", "L2": "0x1.0p+0"}, '
     '"parity": ["sin", "sin"], "shape": [1, 1], "coeffs": [["inf", "inf"]]}',
     "DomainError"),
    ('{"format": "sobemb-series/1", "domain": {"L1": "0x1.0p+0", "L2": "0x1.0p+0"}, '
     '"parity": ["sin", "sin"], "shape": [1, 1], "coeffs": ["12"]}',
     "DomainError"),
    ('{"format": "sobemb-series/1", "domain": {"L1": "0x1.0p+0", "L2": "0x1.0p+0"}, '
     '"parity": ["sin", "sin"], "shape": [1, 1], "coeffs": [["0x1p+0", "0x1p+0", "0x1p+0"]]}',
     "DomainError"),
], ids=["missing", "not-json", "not-an-object", "unknown-format", "no-domain",
        "too-few-coeffs", "infinite-coeff", "string-coeff", "three-endpoints"])
def test_certify_bad_input_file_is_one_error_line(tmp_path, capsys, text, error):
    """A missing, non-JSON or malformed --in file ends in one `error:` line
    on stderr and exit 1, not a traceback."""
    series = tmp_path / "u.json"
    if text is not None:
        series.write_text(text)
    assert main(["certify", "--p", "3", "--in", str(series)]) == EXIT_HARD
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "c.json"
    assert main(["classical", "--p-list", "4", "--out", str(out)]) == EXIT_HARD
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError: ") and err.count("\n") == 1


def test_enclose_json_and_csv(tmp_path):
    out = str(tmp_path / "report.json")
    rc = main(["enclose", "--p", "3", "--N", "8", "--out", out])
    assert rc == EXIT_OK
    d = json.loads(open(out).read())
    assert d["format"] == "sobemb-report/6"
    assert d["final"] is not None
    csv_out = str(tmp_path / "report.csv")
    rc = main(["enclose", "--p", "3", "--N", "8", "--format", "csv",
               "--out", csv_out])
    assert rc == EXIT_OK
    assert open(csv_out).read().startswith("N,status")
    with pytest.raises(SystemExit) as exc:
        main(["enclose", "--N", "8", "--format", "xml"])
    assert exc.value.code == 2


def test_enclose_plot_data(tmp_path):
    out = str(tmp_path / "r.json")
    rc = main(["enclose", "--p", "3", "--N", "8", "--plot-grid", "8",
               "--out", out])
    assert rc == EXIT_OK
    lines = open(out + ".plot.csv").read().strip().split("\n")
    assert len(lines) == 65


@pytest.mark.parametrize("grid", ["1", "-1", "-8"])
def test_plot_grid_below_two_is_usage_error(grid, monkeypatch, capsys):
    """--plot-grid takes 0 (off) or M >= 2; any other value is a usage error
    before any solve, not a run that silently writes no plot."""
    import sobemb.cli

    def no_run(cfg):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(sobemb.cli, "run_pipeline", no_run)
    with pytest.raises(SystemExit) as exc:
        main(["enclose", "--p", "3", "--N", "8", "--plot-grid", grid])
    assert exc.value.code == 2
    assert "plot grid must be 0 (off) or at least 2" in capsys.readouterr().err


def test_classical_table_command(capsys):
    rc = main(["classical", "--p-list", "3,4,5"])
    assert rc == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["format"] == "sobemb-classical/1"
    assert d["n"] == 2
    assert [row["p"] for row in d["rows"]] == [3, 4, 5]
    for row in d["rows"]:
        assert float(row["corollary_decimal"]) > 0.0


@pytest.mark.parametrize("argv", [
    ["solve", "--tol", "1e-10"],
    ["classical", "--p", "3"],
    ["classical", "--n", "3"],
    ["classical", "--rho", "1000"],
    ["classical", "--rho", "1000", "--unchecked-rho"],
    ["classical", "--unchecked-rho"],
], ids=["solve-tol", "classical-p", "classical-n", "classical-rho",
        "classical-rho-unchecked", "classical-unchecked"])
def test_removed_options_are_usage_errors(argv):
    """A run is a function of p, the rectangle and the N sweep: no solver
    tolerance, no dimension other than 2, no user-supplied lambda_1 bound.
    Options match exactly, so `classical --p` is no prefix of --p-list."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["enclose", "--p", "7", "--N", "4"],
    ["enclose", "--p", "3", "--N", "0"],
    ["enclose", "--p", "3", "--N", ""],
    ["solve", "--p", "6"],
], ids=["p7", "N0", "empty-sweep", "solve-p6"])
def test_invalid_run_inputs_are_typed_errors(argv, capsys):
    assert main(argv) == EXIT_HARD
    assert "error: DomainError" in capsys.readouterr().err


def test_capacity_error_before_large_allocation(tmp_path):
    """p=3, N=176 needs a Newton Jacobian on the 88^2 = 7744 odd-odd modes,
    above MAX_DENSE_ROWS.  Under a 2 GiB address-space cap the row must end
    in a typed CapacityError within 30 s, not in a MemoryError (matrices
    that size peak near 3.5 GB)."""
    import sobemb

    src = os.path.dirname(os.path.dirname(os.path.abspath(sobemb.__file__)))
    # one BLAS thread: per-thread buffers would eat into the address cap
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cap = 2 << 30
    out = tmp_path / "r.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sobemb.cli", "enclose", "--p", "3",
         "--N", "176", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == EXIT_PARTIAL, proc.stderr
    (row,) = json.loads(out.read_text())["rows"]
    assert row["status"] == "CapacityError"
    assert elapsed < 30.0


def test_invalid_domain_argument():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--domain", "banana"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_partial_exit_code_when_certification_fails(capsys):
    # 2 x 1, p=3 at N=8 fails the Kantorovich condition, but the classical
    # upper bounds still give a valid (one-sided) final record -> partial
    # success
    rc = main(["enclose", "--p", "3", "--domain", "2x1", "--N", "8"])
    d = json.loads(capsys.readouterr().out)
    assert [row["status"] for row in d["rows"]] == ["ConditionFailure"]
    assert d["final"] is not None
    assert rc == EXIT_PARTIAL


# certified rows' (lower, upper) pairs, in sweep order, that contradict each
# other or C_4's classical upper bounds on the unit square (both below 0.5)
CONTRADICTIONS = {
    "disjoint-rows": [(0.1, 0.2), (0.25, 0.3)],
    "above-classical": [(0.5, 0.6)],
}


@pytest.mark.parametrize("pairs", CONTRADICTIONS.values(), ids=CONTRADICTIONS)
def test_soundness_violation_ends_the_run(monkeypatch, capsys, pairs):
    """A certified lower bound above an upper bound, another row's or a
    classical one, proves a bug: run_pipeline raises SoundnessViolation, and
    enclose and reproduce exit 1 with one stderr line and no report."""
    import sobemb.pipeline
    from sobemb.errors import SoundnessViolation
    from sobemb.pipeline import RunConfig, run_pipeline

    def patch():  # each run gets the pairs in order, then repeats the last
        it = iter(pairs)
        monkeypatch.setattr(sobemb.pipeline, "enclosure_from_ball",
                            lambda *args, **kwargs: next(it, pairs[-1]))

    patch()
    with pytest.raises(SoundnessViolation):
        run_pipeline(RunConfig(p=3, domain=DomainRect(1.0, 1.0), N=[6, 8]))
    for argv in (["enclose", "--p", "3", "--N", "6,8"], ["reproduce", "--which", "c4"]):
        patch()
        assert main(argv) == EXIT_HARD
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: SoundnessViolation: ") and err.count("\n") == 1


def test_cli_import_loads_no_scipy():
    """The library's runtime needs numpy only: importing the command line in
    a fresh interpreter leaves scipy out of sys.modules."""
    import sobemb

    src = os.path.dirname(os.path.dirname(os.path.abspath(sobemb.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, sobemb.cli; print(sorted(m for m in sys.modules"
         " if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_enclose_starts_no_child_process(tmp_path):
    """An in-process enclose, report included, runs no child process: a
    fresh interpreter ends it with subprocess still out of sys.modules
    (platform.platform() would load it to run `uname -p`)."""
    import sobemb

    src = os.path.dirname(os.path.dirname(os.path.abspath(sobemb.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import json, sys\n"
            "from sobemb.cli import main\n"
            f"rc = main(['enclose', '--p', '3', '--N', '6', '--out', {str(tmp_path / 'r.json')!r}])\n"
            "print(json.dumps([rc, 'subprocess' in sys.modules]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [EXIT_OK, False]
    meta = json.loads((tmp_path / "r.json").read_text())["meta"]
    assert meta["platform"] == "-".join((platform.system(), platform.release(),
                                         platform.machine()))


def test_enclose_loads_no_openssl_or_libmpdec(tmp_path):
    """enclose computes with none of hashlib (its _hashlib loads OpenSSL's
    libcrypto), decimal (libmpdec) or fractions (which imports decimal): a
    run in a fresh interpreter adds none of them to sys.modules beyond what
    `import numpy` loads, which is none of them with numpy 2 (numpy 1
    imports numpy.random, whose seeding imports hashlib).  certify, which
    needs hashlib for the coefficient digest, still writes it."""
    import sobemb

    src = os.path.dirname(os.path.dirname(os.path.abspath(sobemb.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    heavy = ("_hashlib", "hashlib", "_decimal", "decimal", "fractions")
    code = ("import json, sys, numpy\n"
            f"base = [m for m in {heavy!r} if m in sys.modules]\n"
            "from sobemb.cli import main\n"
            f"rc = main(['enclose', '--p', '3', '--N', '6', '--out', {str(tmp_path / 'r.json')!r}])\n"
            f"print(json.dumps([rc, [m for m in {heavy!r} if m in sys.modules and m not in base]]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [EXIT_OK, []]
    cert = tmp_path / "cert.json"
    assert main(["certify", "--p", "3", "--N", "6", "--out", str(cert)]) == EXIT_OK
    assert re.fullmatch("[0-9a-f]{64}", json.loads(cert.read_text())["coefficient_digest"])


def test_entry_freezes_the_import_heap_and_main_does_not(monkeypatch, capsys):
    """The process entry point (console script, `python -m sobemb.cli`)
    freezes the heap the imports built, so the cyclic GC does not walk it
    again, in the run or at interpreter exit; main(argv), which callers use
    in-process, leaves the collector as it is."""
    before = gc.get_freeze_count()
    try:
        assert main(["classical"]) == EXIT_OK
        assert gc.get_freeze_count() == before
        monkeypatch.setattr(sys, "argv", ["sobemb", "classical"])
        assert entry() == EXIT_OK
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
