"""Command line interface: subcommands, artifacts, and exit codes."""

import gc
import hashlib
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

from sobemb import solver
from sobemb.cli import EXIT_HARD, EXIT_OK, EXIT_PARTIAL, entry, main
from sobemb.series import DomainRect, Series2D, SineSeries2D


def test_solve_emits_loadable_series(tmp_path):
    out = str(tmp_path / "u.json")
    rc = main(["solve", "--p", "3", "--N", "6", "--out", out])
    assert rc == EXIT_OK
    k, u = Series2D.from_json(open(out).read())
    assert (k, u.N) == (0, 6)
    assert abs(u.coeffs.mid()[0, 0]) > 1.0


def test_certify_roundtrip_through_file(tmp_path):
    series = str(tmp_path / "u.json")
    cert = str(tmp_path / "cert.json")
    assert main(["solve", "--p", "3", "--N", "8", "--out", series]) == EXIT_OK
    rc = main(["certify", "--p", "3", "--in", series, "--out", cert])
    assert rc == EXIT_OK
    d = json.loads(open(cert).read())
    assert d["format"] == "sobemb-certificate/10"
    assert d["positive"] is True
    assert float.fromhex(d["r_h1"][1]) < 0.2


@pytest.mark.parametrize("domain, p, n", [
    ("1x1", "3", "12"), ("2x1", "3", "12"), ("1e-150x1e-150", "3", "20"),
    ("1e150x1e150", "3", "20"), ("3x3", "4", "16"), ("3x3", "5", "20"),
    ("1e-200x1e-200", "2", "20"),
], ids=["1x1", "2x1", "1e-150x1e-150", "1e150x1e150", "3x3-p4", "3x3-p5", "1e-200x1e-200-p2"])
def test_certificate_matches_the_enclose_row(tmp_path, domain, p, n):
    """`solve` then `certify --in` writes the same rigorous fields, with the
    same values, as the row of that center in the `enclose` report: both
    solve and certify on the reference rectangle R = 2^-k Omega, and the
    file holds the center on R with k, which certify takes as read (the
    certificate's digest is the file's).  So they agree at k = 0, far from
    it (the 1e-150, 1e150 and 1e-200 squares, whose Omega coefficients
    would leave binary64 at p=2), and on 3 x 3 (k = 1) at p = 4 and 5, where
    carrying the center to Omega and back, by 2^(-2k/(p-1)), rounds."""
    series, cert, report = (str(tmp_path / f) for f in ("u.json", "c.json", "r.json"))
    common = ["--p", p, "--domain", domain]
    assert main(["solve", *common, "--N", n, "--out", series]) == EXIT_OK
    assert main(["certify", "--p", p, "--in", series, "--out", cert]) == EXIT_OK
    assert main(["enclose", *common, "--N", n, "--out", report]) == EXIT_OK
    c, r = (json.loads(open(f).read()) for f in (cert, report))
    (row,) = r["rows"]
    rigorous = set(row) - {"N", "status", "lower", "upper", "error"}
    assert row["status"] == "certified" and row["positive"] is True
    assert {k: c[k] for k in rigorous} == {k: row[k] for k in rigorous}
    assert c["k"] == r["k"] and (c["k"] == 0) == (domain in ("1x1", "2x1"))
    k, u = Series2D.from_json(open(series).read())
    digest = hashlib.sha256(u.coeffs.lo.tobytes() + u.coeffs.hi.tobytes()).hexdigest()
    assert (c["coefficient_digest"], DomainRect.from_dict(c["domain"]), c["k"]) == (
        digest, u.domain, k)


@pytest.mark.parametrize("extra", [["--domain", "2x1"], ["--N", "30"], ["--domain", "1x1"]],
                         ids=["domain", "N", "domain-default-value"])
def test_certify_in_takes_domain_and_N_from_the_file(tmp_path, extra):
    """certify takes its center, domain and N from --in, which it requires:
    --domain or --N, beside --in or in place of it, is a usage error (exit
    2) before any file is read or any solve runs.  Here the file does not
    exist."""
    for argv in (extra, [*extra, "--in", str(tmp_path / "absent.json")]):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--p", "3", *argv])
        assert exc.value.code == 2


@pytest.mark.parametrize("domain", ["1x1", "1e-150x1e-150"])
@pytest.mark.parametrize("p", ["0", "1", "6", "7"])
def test_certify_bad_exponent_is_one_error_line(tmp_path, capsys, monkeypatch, domain, p):
    """A p outside 2..5 is one `error: DomainError` line naming p, exit 1,
    before any section work, also for a center whose file records k != 0."""
    from sobemb import certify

    def no_section(u, p):
        raise AssertionError("section work before the exponent check")

    series = str(tmp_path / "u.json")
    assert main(["solve", "--p", "3", "--domain", domain, "--N", "6", "--out", series]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(certify, "_section", no_section)
    assert main(["certify", "--p", p, "--in", series]) == EXIT_HARD
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError: exponent p ") and err.count("\n") == 1
    assert f"got {p}" in err


def test_certify_rejects_center_with_even_mode(tmp_path, capsys):
    """A loaded center must be odd-odd, as every positive solution is; one
    nonzero even-mode coefficient is a DomainError, exit code 1."""
    series = str(tmp_path / "u.json")
    assert main(["solve", "--p", "3", "--N", "6", "--out", series]) == EXIT_OK
    k, u = Series2D.from_json(open(series).read())
    c = u.coeffs.mid()
    c[1, 0] = 1e-3
    with open(series, "w") as f:
        f.write(SineSeries2D(u.domain, c).to_json(k))
    assert main(["certify", "--p", "3", "--in", series]) == EXIT_HARD
    assert "error: DomainError" in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["1x1", "1e-150x1e-150"])
def test_certify_rejects_cosine_series(tmp_path, capsys, domain):
    """A center is a sine series: a loaded series of the cosine basis is a
    DomainError, exit code 1, also in a file that records k != 0."""
    series = str(tmp_path / "u.json")
    assert main(["solve", "--p", "3", "--domain", domain, "--N", "6", "--out", series]) == EXIT_OK
    d = json.loads(open(series).read())
    d["parity"] = ["cos", "cos"]
    with open(series, "w") as f:
        json.dump(d, f)
    assert main(["certify", "--p", "3", "--in", series]) == EXIT_HARD
    assert "error: DomainError" in capsys.readouterr().err


def test_certify_rejects_asymmetric_square_center(tmp_path, capsys):
    """On a square the positive solution is symmetric about the diagonal, so
    a loaded unit-square center with c_13 != c_31 is a DomainError, exit 1."""
    series = str(tmp_path / "u.json")
    assert main(["solve", "--p", "3", "--N", "6", "--out", series]) == EXIT_OK
    k, u = Series2D.from_json(open(series).read())
    c = u.coeffs.mid()
    assert c[0, 2] == c[2, 0] != 0.0
    c[0, 2] *= 1.0 + 1e-12
    with open(series, "w") as f:
        f.write(SineSeries2D(u.domain, c).to_json(k))
    assert main(["certify", "--p", "3", "--in", series]) == EXIT_HARD
    assert "error: DomainError" in capsys.readouterr().err


def test_certify_rejects_non_square_center(tmp_path, capsys):
    """A certificate of order N takes an N x N center; a 3 x 5 odd-odd
    series is not one, so loading it is a DomainError, exit 1."""
    c = np.zeros((3, 5))
    c[::2, ::2] = [[4.0, 0.1, 0.01], [0.1, 0.01, 0.001]]
    series = str(tmp_path / "u.json")
    with open(series, "w") as f:
        f.write(SineSeries2D(DomainRect(1.0, 1.0), c).to_json(0))
    assert main(["certify", "--p", "3", "--in", series]) == EXIT_HARD
    assert "error: DomainError" in capsys.readouterr().err


_UNIT = '"domain": {"L1": "0x1.0p+0", "L2": "0x1.0p+0"}, "k": 0, "parity": ["sin", "sin"], '
_ONE = '"shape": [1, 1], "coeffs": [["0x1.0p+2", "0x1.0p+2"]]}'


@pytest.mark.parametrize("text, error, says", [
    (None, "FileNotFoundError", ""),
    ("not json", "DomainError", ""),
    ('["sobemb-series/2"]', "DomainError", ""),
    ('{"format": "sobemb-series/0"}', "DomainError", ""),
    ('{"format": "sobemb-series/2"}', "DomainError", ""),
    ('{"format": "sobemb-series/2", ' + _UNIT
     + '"shape": [2, 2], "coeffs": [["0x1.0p+0", "0x1.0p+0"]]}', "DomainError", ""),
    ('{"format": "sobemb-series/2", ' + _UNIT + '"shape": [1, 1], "coeffs": [["inf", "inf"]]}',
     "DomainError", ""),
    ('{"format": "sobemb-series/2", ' + _UNIT + '"shape": [1, 1], "coeffs": ["12"]}',
     "DomainError", ""),
    ('{"format": "sobemb-series/2", ' + _UNIT + '"shape": [1, 1], "coeffs": [["0x1p+5000", '
     '"0x1p+5000"]]}', "DomainError", "OverflowError"),
    ('{"format": "sobemb-series/2", ' + _UNIT
     + '"shape": [1, 1], "coeffs": [["0x1p+0", "0x1p+0", "0x1p+0"]]}', "DomainError", ""),
    ('{"format": "sobemb-series/1", "domain": {"L1": "0x1.0p+0", "L2": "0x1.0p+0"}, '
     '"parity": ["sin", "sin"], ' + _ONE, "DomainError",
     "'sobemb-series/1' is not sobemb-series/2; run `sobemb solve` again"),
    ('{"format": "sobemb-series/2", ' + _UNIT.replace('"k": 0', '"k": false') + _ONE,
     "DomainError", "k must be an int, got False"),
    ('{"format": "sobemb-series/2", ' + _UNIT.replace("0x1.0p+0", "0x1.0p+1") + _ONE,
     "DomainError", "is not the reference rectangle of a binary64 rectangle 2^0 times it"),
    ('{"format": "sobemb-series/2", ' + _UNIT.replace('"k": 0', '"k": 1024') + _ONE,
     "DomainError", "binary64 rectangle 2^1024 times it"),
    ('{"format": "sobemb-series/2", ' + _UNIT.replace("0x1.0p+0", "0x1.8p+0").replace(
        '"k": 0', '"k": -1074') + _ONE, "DomainError", "binary64 rectangle 2^-1074 times it"),
], ids=["missing", "not-json", "not-an-object", "unknown-format", "no-domain",
        "too-few-coeffs", "infinite-coeff", "string-coeff", "hex-beyond-binary64", "three-endpoints",
        "series-1", "k-bool", "domain-not-reference", "omega-beyond-binary64", "omega-rounded"])
def test_certify_bad_input_file_is_one_error_line(tmp_path, capsys, text, error, says):
    """A missing, non-JSON or malformed --in file ends in one `error:` line
    on stderr and exit 1, not a traceback.  The file is input from outside
    the program, so each of its facts is checked: a `sobemb-series/1` file,
    which holds the center carried to Omega, is refused by name, and so are
    a hex coefficient beyond binary64, a k that is not an int, a domain that
    is not its own reference rectangle R, and a 2^k R beyond binary64 or
    rounded in it (1.5 x 2^-1074 is no binary64 float)."""
    series = tmp_path / "u.json"
    if text is not None:
        series.write_text(text)
    assert main(["certify", "--p", "3", "--in", str(series)]) == EXIT_HARD
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
    assert says in err


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
    assert d["format"] == "sobemb-report/9"
    assert d["final"] is not None
    csv_out = str(tmp_path / "report.csv")
    rc = main(["enclose", "--p", "3", "--N", "8", "--format", "csv",
               "--out", csv_out])
    assert rc == EXIT_OK
    assert open(csv_out).read().startswith("N,status")
    with pytest.raises(SystemExit) as exc:
        main(["enclose", "--N", "8", "--format", "xml"])
    assert exc.value.code == 2


def test_enclose_certifies_the_elongated_3x1_rectangle_at_p2(tmp_path):
    """Every row of p=2 on 3 x 1 at N = 24, 28, 40 certifies: Newton's stop is
    relative, ||r|| < NEWTON_RTOL ||lambda a||.  A stop scaled to unit area
    stalled at N = 28 with a residual of 1.148e-14 against 1.111e-14, a
    relative residual of 7.0e-17."""
    out = tmp_path / "r.json"
    assert main(["enclose", "--p", "2", "--domain", "3x1", "--N", "24,28,40",
                 "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())["rows"]
    assert [(r["N"], r["status"]) for r in rows] == [(n, "certified") for n in (24, 28, 40)]


def test_enclose_plot_data(tmp_path):
    out = str(tmp_path / "r.json")
    rc = main(["enclose", "--p", "3", "--N", "8", "--plot-grid", "8",
               "--out", out])
    assert rc == EXIT_OK
    lines = open(out + ".plot.csv").read().strip().split("\n")
    assert len(lines) == 65


def test_enclose_plot_data_on_the_run_rectangle(tmp_path):
    """The 1/8 x 1/8 square has k = -3: its rows are certified on the unit
    square, but --plot-grid writes its own coordinates, 1/8 of the unit
    square's, and values, 8 = 2^(-2k/(p-1)) times the unit square's, both
    exactly, since every factor is a power of two."""
    samples = {}
    for side in ("1", "0.125"):
        out = str(tmp_path / f"r{side}.json")
        rc = main(["enclose", "--p", "3", "--domain", f"{side}x{side}", "--N", "8",
                   "--plot-grid", "8", "--out", out])
        assert rc == EXIT_OK
        assert json.loads(open(out).read())["k"] == {"1": 0, "0.125": -3}[side]
        samples[side] = np.loadtxt(out + ".plot.csv", delimiter=",", skiprows=1)
    unit, small = samples["1"], samples["0.125"]
    assert unit.shape == (64, 3)
    assert np.array_equal(small[:, :2], unit[:, :2] / 8.0)
    assert np.array_equal(small[:, 2], unit[:, 2] * 8.0)


def test_plot_grid_that_cannot_carry_the_center_writes_no_file(tmp_path, capsys):
    """On 1e-200 x 1e-200 at p=2 the center certifies on its reference
    rectangle, but carried to the run's rectangle for --plot-grid its
    coefficients, 2^1330 times larger, leave binary64.  enclose carries it
    before it writes anything, so the run exits 1 with that DomainError and
    writes neither the report nor the plot; without --plot-grid it writes
    the report."""
    out = tmp_path / "r.json"
    args = ["enclose", "--p", "2", "--domain", "1e-200x1e-200", "--N", "20", "--out", str(out)]
    assert main([*args, "--plot-grid", "4"]) == EXIT_HARD
    assert "DomainError: the solution on the 1e-200 x 1e-200 rectangle" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(args) == EXIT_OK
    assert json.loads(out.read_text())["rows"][0]["status"] == "certified"
    assert list(tmp_path.iterdir()) == [out]


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
    ["certify", "--p", "3", "--in", "u.json", "--N", "12"],
    ["certify", "--p", "3", "--in", "u.json", "--domain", "2x1"],
], ids=["solve-tol", "classical-p", "classical-n", "classical-rho",
        "classical-rho-unchecked", "classical-unchecked", "certify-N", "certify-domain"])
def test_removed_options_are_usage_errors(argv, capsys):
    """A run is a function of p, the rectangle and the N sweep: no solver
    tolerance, no dimension other than 2, no user-supplied lambda_1 bound,
    and certify takes its center, rectangle and N from its file only.
    Options match exactly, so `classical --p` is no prefix of --p-list."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["enclose", "--p", "7", "--N", "4"],
    ["enclose", "--p", "3", "--N", "0"],
    ["enclose", "--p", "3", "--N", ""],
    ["enclose", "--p", "3", "--N", "10,10"],
    ["solve", "--p", "6"],
    ["solve", "--p", "3", "--domain", "1e-160x1e160", "--N", "6"],
    ["solve", "--p", "3", "--domain", "1e-200x1e200", "--N", "6"],
    ["classical", "--domain", "1e-160x1e160"],
    ["classical", "--domain", "1e-200x1e200"],
    ["enclose", "--p", "3", "--domain", "1e-160x1e160", "--N", "6"],
    ["enclose", "--p", "3", "--domain", "1e-200x1e200", "--N", "6"],
    ["solve", "--p", "3", "--domain", "5e-324x1", "--N", "6"],
    ["enclose", "--p", "3", "--domain", "5e-324x1", "--N", "6"],
    ["classical", "--domain", "5e-324x1"],
    ["solve", "--p", "3", "--domain", "1.7e308x1.5", "--N", "6"],
    ["enclose", "--p", "3", "--domain", "1.7e308x1.5", "--N", "6"],
    ["classical", "--domain", "1.7e308x1.5"],
], ids=["p7", "N0", "empty-sweep", "repeated-N", "solve-p6", "solve-1e-160x1e160",
        "solve-1e-200x1e200",
        "classical-1e-160x1e160", "classical-1e-200x1e200",
        "enclose-1e-160x1e160", "enclose-1e-200x1e200",
        "solve-5e-324x1", "enclose-5e-324x1", "classical-5e-324x1",
        "solve-1.7e308x1.5", "enclose-1.7e308x1.5", "classical-1.7e308x1.5"])
def test_invalid_run_inputs_are_typed_errors(argv, capsys):
    """One `error: DomainError` line and exit 1, with no traceback and no
    RuntimeWarning (an error in this suite): for p outside 2..5, an N below
    1, and a sweep that is empty or repeats an N; and on rectangles whose
    reference rectangle (short side in [1, 2)) has a side beyond binary64
    (1e-160 x 1e160, 1e-200 x 1e200, 5e-324 x 1) or an area beyond it
    (1.7e308 x 1.5, its own reference rectangle), which
    `DomainRect.reference` rejects before any solve or classical bound."""
    assert main(argv) == EXIT_HARD
    err = capsys.readouterr().err
    assert err.startswith("error: DomainError: ") and err.count("\n") == 1


def test_capacity_error_before_large_allocation(tmp_path):
    """p=3, N=176 needs a Newton Jacobian on the 88^2 = 7744 odd-odd modes,
    above MAX_DENSE_ROWS.  Under a 2 GiB address-space cap the row must end
    in a typed CapacityError within 30 s, not in a MemoryError (matrices
    that size peak near 3.5 GB)."""
    import sobemb

    src = os.path.dirname(os.path.dirname(os.path.abspath(sobemb.__file__)))
    # the CLI pins one BLAS thread: per-thread buffers would eat into the
    # address cap
    env = dict(os.environ, PYTHONPATH=src)
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


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
def test_enclose_starts_no_child_process(tmp_path):
    """An in-process enclose, report included, runs no child process: a
    fresh interpreter ends it with subprocess still out of sys.modules
    (platform.platform() would load it to run `uname -p`).  Importing sobemb
    before numpy pins BLAS to one thread whatever OPENBLAS_NUM_THREADS says:
    given 2, the process has one thread after a 300 x 300 GEMM.  The report's
    meta.blas_threads holds the BLAS thread settings the run was given, null
    where unset, and meta.blas_pinned says whether the pin took; it does not
    when numpy was imported first."""
    import sobemb

    src = os.path.dirname(os.path.dirname(os.path.abspath(sobemb.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2")
    enclose = ("from sobemb.cli import main\n"
               "rc = main(['enclose', '--p', '3', '--N', '6', '--out', {!r}])\n")
    code = ("import json, os, sys\n"
            + enclose.format(str(tmp_path / "r.json"))
            + "import numpy\n"
            "a = numpy.ones((300, 300))\n"
            "a @ a\n"
            "print(json.dumps([rc, 'subprocess' in sys.modules,"
            " len(os.listdir('/proc/self/task'))]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [EXIT_OK, False, 1]
    meta = json.loads((tmp_path / "r.json").read_text())["meta"]
    assert meta["platform"] == "-".join((platform.system(), platform.release(),
                                         platform.machine()))
    assert meta["blas_threads"] == {"OPENBLAS_NUM_THREADS": "2",
                                    "OMP_NUM_THREADS": env.get("OMP_NUM_THREADS")}
    assert meta["blas_pinned"] is True

    code = "import numpy\n" + enclose.format(str(tmp_path / "n.json"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    meta = json.loads((tmp_path / "n.json").read_text())["meta"]
    assert meta["blas_threads"]["OPENBLAS_NUM_THREADS"] == "2"
    assert meta["blas_pinned"] is False


# (p, domain, N): the 3x1 sweep's H^-1 defect moved in its last bits with the
# BLAS thread count before sobemb pinned one thread
THREAD_SWEEPS = ((4, (1.0, 1.0), [12, 16, 20]), (4, (2.0, 1.0), [16]),
                 (3, (2.0, 1.0), [12, 20]), (2, (3.0, 1.0), [24, 28, 40]))


def test_canonical_json_does_not_depend_on_blas_threads():
    """Fresh interpreters that differ only in OPENBLAS_NUM_THREADS (and
    OMP_NUM_THREADS alike) = 1, 2 or unset give byte-identical canonical JSON
    on c5, 2x1 p=4 and p=3 and 3x1 p=2."""
    import sobemb

    src = os.path.dirname(os.path.dirname(os.path.abspath(sobemb.__file__)))
    code = ("from sobemb.pipeline import RunConfig, run_pipeline\n"
            "from sobemb.series import DomainRect\n"
            f"for p, sides, N in {THREAD_SWEEPS!r}:\n"
            "    cfg = RunConfig(p=p, domain=DomainRect(*sides), N=N)\n"
            "    print(run_pipeline(cfg).canonical_json())\n")
    outs = []
    for threads in ("1", "2", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = src
        if threads:
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert len(outs[0].splitlines()) == len(THREAD_SWEEPS)
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_enclose_loads_no_openssl_or_libmpdec(tmp_path):
    """enclose computes with none of hashlib (its _hashlib loads OpenSSL's
    libcrypto), decimal (libmpdec), fractions (which imports decimal),
    logging (about 0.6 MB of a numpy process's peak RSS, for one line per
    Newton step that `-v` writes to stderr without it) or dataclasses (which
    imports copy and execs generated source for every method of every
    record: about 5 ms and 0.18 MB of traced allocations for ten records,
    and about 0.3 MB of a C5 sweep's peak RSS): a run in a fresh
    interpreter adds none of them to sys.modules beyond what `import numpy`
    loads, which is none of them with numpy 2 (numpy 1 imports
    numpy.random, whose seeding imports hashlib).  certify, which needs
    hashlib for the coefficient digest, still writes it."""
    import sobemb

    src = os.path.dirname(os.path.dirname(os.path.abspath(sobemb.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    heavy = ("_hashlib", "hashlib", "_decimal", "decimal", "fractions", "logging", "dataclasses")
    code = ("import json, sys, numpy\n"
            f"base = [m for m in {heavy!r} if m in sys.modules]\n"
            "from sobemb.cli import main\n"
            f"rc = main(['enclose', '--p', '3', '--N', '6', '--out', {str(tmp_path / 'r.json')!r}])\n"
            f"print(json.dumps([rc, [m for m in {heavy!r} if m in sys.modules and m not in base]]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [EXIT_OK, []]
    series, cert = tmp_path / "u.json", tmp_path / "cert.json"
    assert main(["solve", "--p", "3", "--N", "6", "--out", str(series)]) == EXIT_OK
    assert main(["certify", "--p", "3", "--in", str(series), "--out", str(cert)]) == EXIT_OK
    assert re.fullmatch("[0-9a-f]{64}", json.loads(cert.read_text())["coefficient_digest"])


def test_verbose_writes_each_newton_step_to_stderr(tmp_path, monkeypatch, capsys):
    """-v writes one `sobemb.solver newton ...` line to stderr per Newton
    step (counted as the GMRES solves, one a step), with the iterations
    numbered from 1 and the residual falling; without -v nothing is written,
    as main sets the solver's switch on every call."""
    monkeypatch.setattr(solver, "VERBOSE", False)
    steps, gmres = [], solver._gmres

    def counted(*args):
        steps.append(len(steps) + 1)
        return gmres(*args)

    monkeypatch.setattr(solver, "_gmres", counted)
    out = str(tmp_path / "r.json")
    assert main(["-v", "enclose", "--p", "3", "--N", "6", "--out", out]) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    pattern = r"sobemb\.solver newton iteration=(\d+) residual=(\S+) step_scale=(\S+)"
    found = [re.fullmatch(pattern, line) for line in lines]
    assert all(found) and len(found) == len(steps) > 0
    assert [int(m[1]) for m in found] == steps
    residuals = [float(m[2]) for m in found]
    assert residuals == sorted(residuals, reverse=True)
    assert all(0.0 < float(m[3]) <= 1.0 for m in found)
    assert main(["enclose", "--p", "3", "--N", "6", "--out", out]) == EXIT_OK
    assert capsys.readouterr().err == "" and not solver.VERBOSE


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
