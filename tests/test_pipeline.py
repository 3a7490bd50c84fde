"""Pipeline orchestration: deterministic reports, serialization round trips,
CSV projections, and report self-validation."""

import itertools
import json
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from sobemb.bounds import corollary_bound, plum_bound
from sobemb import certify
from sobemb.certify import _coupled_gap, certify_ball
from sobemb.errors import DomainError, SoundnessViolation
from sobemb.intervals import PI, Interval, iv_pow_real
from sobemb.ivarray import IArray
from sobemb.pipeline import (
    RunConfig,
    RunRow,
    classical_table,
    emit_plot_data,
    _scaled,
    report_csv,
    run_pipeline,
    validate_report_dict,
)
from sobemb.series import DomainRect, Series2D, lp_norm

from _oracles import default_split_order, intersects

SQ = DomainRect(1.0, 1.0)


def test_runconfig_roundtrip():
    cfg = RunConfig(p=3, domain=SQ, N=[8, 12])
    d = cfg.to_dict()
    assert set(d) == {"p", "domain", "N"}
    assert json.loads(json.dumps(d)) == {"p": 3, "domain": SQ.to_dict(), "N": [8, 12]}


def test_runconfig_accepts_scalar_sweep():
    cfg = RunConfig(p=3, domain=SQ, N=8)
    assert cfg.N == [8]
    assert RunConfig(p=3, domain=SQ, N=(8, 12)).N == [8, 12]


@pytest.mark.parametrize("p, sides, n", [
    (3.0, (1.0, 1.0), [6]), (3, ("1", 1.0), [6]), (3, (1.0, None), [6]),
    (3, (10 ** 400, 1.0), [6]), (3, (1.0, 1.0), [10.7]), (3, (1.0, 1.0), [True]),
    (3, (1.0, 1.0), 12.9), (3, (1.0, 1.0), True), (3, (1.0, 1.0), [10, "20"]),
    (3, (1.0, 1.0), [np.int64(10)]),
], ids=["p-float", "side-str", "side-none", "side-overflow", "N-float-in-list",
        "N-bool-in-list", "N-float", "N-bool", "N-str-in-list", "N-numpy-int"])
def test_construction_rejects_non_numbers(p, sides, n):
    """A library caller's p or N that is not an int (a bool is not one: it
    is not read as N=1, nor a float truncated to an order), or a side that
    is not a finite positive real number, is a DomainError at construction,
    not a TypeError or a different run later."""
    with pytest.raises(DomainError):
        RunConfig(p=p, domain=DomainRect(*sides), N=n)


def test_int_sides_serialize():
    """Sides given as ints are stored as floats, so the report serializes."""
    assert DomainRect(1, 1) == SQ and type(DomainRect(1, 1).L1) is float
    d = json.loads(run_pipeline(RunConfig(3, DomainRect(1, 1), [6])).to_json())
    validate_report_dict(d)
    assert d["config"]["domain"] == {"L1": "0x1.0000000000000p+0", "L2": "0x1.0000000000000p+0"}


def test_pipeline_run_is_deterministic():
    """Two identical runs must produce byte-identical canonical reports."""
    cfg = RunConfig(p=3, domain=SQ, N=[8])
    a = run_pipeline(cfg)
    b = run_pipeline(RunConfig(p=3, domain=SQ, N=[8]))
    assert a.canonical_json() == b.canonical_json()
    assert a.fully_certified
    assert a.final is not None and a.final.lower > 0.0


def test_each_row_releases_its_centers_facts(report_c4, monkeypatch):
    """After the c4 sweep no center of the report holds a derived fact (the
    power chain, potential, coupling terms, split order, norms), and the
    canonical report equals a sweep's that keeps every fact: the release
    changes what is held, never what is reported.  A later reader gets the
    fact again, with the same bits."""
    fresh = run_pipeline(RunConfig(p=3, domain=SQ, N=[10, 20, 30, 34]))
    assert all(not u._facts for u in fresh.solutions.values())
    monkeypatch.setattr(Series2D, "drop_facts", lambda self: None)
    kept = run_pipeline(RunConfig(p=3, domain=SQ, N=[10, 20, 30, 34]))
    assert all(("power", 3) in u._facts for u in kept.solutions.values())
    assert fresh.canonical_json() == kept.canonical_json() == report_c4.canonical_json()
    u, v = fresh.solutions[34], kept.solutions[34]
    assert lp_norm(u, 4) == lp_norm(v, 4)  # computed again on u, kept on v


def test_report_rows_explain_k():
    """Each certified row carries the terms of K as hex floats and ints: the
    block minimum m, tail t, coupling c, the rows of the folded block and
    which of m and t binds, and the Morse index 1; K is 1/s* of them, and the canonical JSON with
    these fields is byte-identical across two runs."""
    a, b = (run_pipeline(RunConfig(p=4, domain=SQ, N=[12])) for _ in range(2))
    assert a.canonical_json() == b.canonical_json()
    row = json.loads(a.canonical_json())["rows"][0]
    ib = row["inverse_bound"]
    assert set(ib) == {"block_min", "tail", "coupling", "block_rows", "binds", "morse_index"}
    assert ib["morse_index"] == 1
    m, t, c = (float.fromhex(ib[k]) for k in ("block_min", "tail", "coupling"))
    assert 0.0 < m < 1.0 and 0.0 < t < 1.0 and c > 0.0
    assert ib["binds"] == ("block" if m <= t else "tail")
    k = Interval(1.0) / Interval(_coupled_gap(m, t, c).lo)
    assert [float.fromhex(x) for x in row["K"]] == [k.lo, k.hi]
    level, nx, _, _, _ = certify._section(a.solutions[12], 4)
    odd = np.arange(1, nx + 1, 2)
    below = DomainRect(1.0, 1.0).lambda_grid(odd, odd).lo < level
    assert ib["block_rows"] == np.count_nonzero(np.triu(below)) == 147


def test_report_rows_explain_positiveness():
    """Each certified row carries its L^q and norm margins as hex floats,
    and the canonical JSON with these fields is byte-identical across two
    runs."""
    a, b = (run_pipeline(RunConfig(p=3, domain=SQ, N=[10])) for _ in range(2))
    assert a.canonical_json() == b.canonical_json()
    row = json.loads(a.canonical_json())["rows"][0]
    assert row["positive"]
    pos = row["positiveness"]
    assert set(pos) == {"lq_margin", "norm_margin"}
    assert float.fromhex(pos["lq_margin"]) > 0.0
    assert float.fromhex(pos["norm_margin"]) > 0.0


def test_report_rows_explain_trial_radius():
    """Each certified row carries the trial radius R of the Lipschitz bound
    as a hex float (R >= r_h1: g holds on the certified ball); the
    certificate carries it too, and the canonical JSON with it is
    byte-identical across two runs."""
    a, b = (run_pipeline(RunConfig(p=3, domain=SQ, N=[10, 20])) for _ in range(2))
    assert a.canonical_json() == b.canonical_json()
    for row, r in zip(json.loads(a.canonical_json())["rows"], a.rows):
        trial = float.fromhex(row["trial_radius"])
        assert trial == r.ball.trial_radius and trial >= float.fromhex(row["r_h1"][1])
    ball = certify_ball(a.solutions[20], 3)
    cert = ball.to_dict()
    assert float.fromhex(cert["trial_radius"]) == ball.trial_radius == a.rows[1].ball.trial_radius


def _leaves(x, key=None):
    """(key, value) for every scalar in a JSON tree, with its nearest key."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _leaves(v, k)
    elif isinstance(x, list):
        for v in x:
            yield from _leaves(v, key)
    else:
        yield key, x


def test_certificate_holds_the_report_row(report_c4):
    """The certificate of the c4 N=10 center holds every rigorous field of
    that report row with the same value, every float in it is a hex string,
    and a row without a ball writes the same keys, as nulls."""
    row = json.loads(report_c4.canonical_json())["rows"][0]
    assert row["N"] == 10 and row["status"] == "certified"
    cert = certify_ball(report_c4.solutions[10], 3).to_dict()
    assert cert["format"] == "sobemb-certificate/10"
    rigorous = set(row) - {"N", "status", "lower", "upper", "error"}
    assert {k: cert[k] for k in rigorous} == {k: row[k] for k in rigorous}
    text = {"format", "coefficient_digest", "binds"}
    for key, value in _leaves(cert):
        assert not isinstance(value, float), key
        if isinstance(value, str) and key not in text:
            float.fromhex(value)
    empty = RunRow(N=10, status="NoConvergence").to_dict()
    assert set(empty) == set(row)
    assert empty["positive"] is False
    assert all(empty[k] is None for k in rigorous - {"positive"})


def _set(path, value):
    """Tamper that sets one field of the report's last row."""
    def tamper(d):
        obj = d["rows"][-1]
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return tamper


@pytest.mark.parametrize("tamper", [
    _set(("K", 0), (0.0).hex()),
    _set(("K", 0), (-1.5).hex()),
    _set(("defect_hm1", 0), (-1e-300).hex()),
    _set(("defect_l2", 0), (-1e-300).hex()),
    _set(("r_h1", 0), (-1e-300).hex()),
    _set(("r_inf", 0), (-1e-300).hex()),
    _set(("K", 1), (1.0).hex()),
    _set(("inverse_bound", "tail"), "not hex"),
    _set(("inverse_bound", "coupling"), None),
    lambda d: d["rows"][-1]["inverse_bound"].pop("block_min"),
    _set(("inverse_bound", "morse_index"), 2),
    _set(("inverse_bound", "morse_index"), True),
    lambda d: d["rows"][-1]["inverse_bound"].pop("morse_index"),
    _set(("trial_radius",), (1e-300).hex()),
    _set(("trial_radius",), "0x1.0p"),
    lambda d: d["rows"][-1].pop("trial_radius"),
    _set(("inverse_bound",), None),
    _set(("positiveness",), None),
    lambda d: d["rows"][-1].pop("positiveness"),
    _set(("positiveness", "lq_margin"), (0.0).hex()),
    _set(("positiveness", "norm_margin"), (-1.0).hex()),
    _set(("positiveness", "norm_margin"), None),
    _set(("lower",), None),
    _set(("upper",), None),
    lambda d: d.pop("final"),
    lambda d: d.update(final=None),
    lambda d: d["rows"][-1].pop("N"),
    _set(("N",), 34.0),
    _set(("neg_sup",), (-1e-300).hex()),
    _set(("neg_sup",), "not hex"),
    _set(("K",), [(1.0).hex()]),
    lambda d: d.pop("rows"),
    lambda d: d.update(rows=None),
    lambda d: d["classical"].append("nothex"),
    lambda d: d["classical"][0].__setitem__(1, ["nothex", (1.0).hex()]),
], ids=["K-zero", "K-negative", "defect_hm1-negative", "defect_l2-negative",
        "r_h1-negative", "r_inf-negative", "K-lo-above-hi", "tail-not-hex",
        "coupling-null", "block_min-missing", "morse_index-two", "morse_index-bool",
        "morse_index-missing", "trial_radius-below-r_h1",
        "trial_radius-not-hex", "trial_radius-missing", "inverse_bound-null",
        "positiveness-null", "positiveness-missing", "lq_margin-zero",
        "norm_margin-negative", "norm_margin-null",
        "lower-null", "upper-null", "final-missing", "final-null", "N-missing",
        "N-float", "neg_sup-negative", "neg_sup-not-hex", "K-one-element",
        "rows-missing", "rows-null", "classical-entry-not-pair", "classical-not-hex"])
def test_validate_report_rejects_tampered_row(report_c4, tamper):
    """Each check of validate_report_dict catches one tampered field of an
    otherwise valid report."""
    d = json.loads(report_c4.to_json())
    validate_report_dict(d)
    tamper(d)
    with pytest.raises(SoundnessViolation):
        validate_report_dict(d)


@pytest.mark.parametrize("report", [[], None], ids=["list", "null"])
def test_validate_report_rejects_a_non_object(report):
    with pytest.raises(SoundnessViolation):
        validate_report_dict(report)


def test_rectangle_run_fails_typed_within_budget():
    """Budget: 30 s wall and 1 GiB of traced allocations.  On 2 x 1 at p=3,
    N=8 the Kantorovich condition fails (2 K^2 delta g = 1.09 on the
    default section, with K = 1.98 on the odd-odd modes); the run
    must report that as a typed status from the odd-odd mode space (about
    0.1 s on a 2-core host), not from an all-modes inverse block (about
    51 s and 3.6 GB peak RSS)."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        report = run_pipeline(RunConfig(p=3, domain=DomainRect(2.0, 1.0), N=[8]))
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 30.0
    assert peak < 2 ** 30
    assert [row.status for row in report.rows] == ["ConditionFailure"]
    assert "1.0861e+00" in report.rows[0].error


def _final(report) -> Interval:
    return Interval(report.final.lower, report.final.upper)


def test_rectangle_certifies_at_default_order_and_transposes():
    """2 x 1, p=3 certifies at N=12 and N=20, on default sections whose
    boxes reach the odd order 41 (about 0.3 s on a 2-core host; budget
    30 s), and at each N the 1 x 2 run, its transpose, gives an
    intersecting final enclosure."""
    for n, split in ((12, 41), (20, 41)):
        t0 = time.perf_counter()
        wide = run_pipeline(RunConfig(p=3, domain=DomainRect(2.0, 1.0), N=[n]))
        assert time.perf_counter() - t0 < 30.0
        (row,) = wide.rows
        assert row.status == "certified"
        assert default_split_order(wide.solutions[n], 3) == split
        assert row.ball.inverse.K.hi < 2.1
        tall = run_pipeline(RunConfig(p=3, domain=DomainRect(1.0, 2.0), N=[n]))
        assert tall.fully_certified
        assert intersects(_final(wide), _final(tall))


@pytest.mark.parametrize("p,t,sweep", [
    (3, 2.0, [10]), (2, 0.25, [40]), (2, 1e-3, [40]), (3, 1e-3, [20]), (3, 1e3, [20]),
    (3, 1e-30, [20]), (3, 1e30, [20]), (3, 1e-150, [20]), (3, 1e150, [20]),
    (2, 2.0 ** -100, [40]), (2, 2.0 ** 100, [40]), (4, 1e-60, [12]), (5, 1e60, [16]),
    (3, 1e-200, [20]), (3, 1e200, [20]),
], ids=["p3-2", "p2-0.25", "p2-1e-3", "p3-1e-3", "p3-1e3", "p3-1e-30", "p3-1e30",
        "p3-1e-150", "p3-1e150", "p2-2^-100", "p2-2^100", "p4-1e-60", "p5-1e60",
        "p3-1e-200", "p3-1e200"])
def test_square_scaling_law(p, t, sweep):
    """C_q(t Omega) = t^{2/q} C_q(Omega) in 2-d, q = p + 1: on the t x t
    square every row certifies, and the final enclosure intersects
    t^{2/q} times the unit square's."""
    scaled, unit = (
        run_pipeline(RunConfig(p=p, domain=DomainRect(side, side), N=sweep))
        for side in (t, 1.0)
    )
    assert scaled.fully_certified and unit.fully_certified
    factor = iv_pow_real(Interval(t), Interval(2.0) / Interval(float(p + 1)))
    assert intersects(_final(scaled), factor * _final(unit))


@pytest.mark.parametrize("t", [2.0 ** -100, 1e-200, 1e200, 1e300],
                         ids=["2^-100", "1e-200", "1e200", "1e300"])
def test_classical_table_scaling_law(t):
    """The classical bounds on the t x t square are the unit square's times
    t^{2/q}, to within 1e-12 relative, at every q, with no overflow beyond
    sides of 1e154; on a rectangle that is its own reference rectangle
    (k = 0) they are the closed forms on it, bit for bit."""
    scaled, unit = (classical_table([3, 4, 5], DomainRect(side, side)) for side in (t, 1.0))
    for a, b in zip(scaled, unit):
        factor = iv_pow_real(Interval(t), Interval(2.0) / Interval(float(a["p"])))
        for tag in ("corollary", "plum"):
            ref = factor * b[tag]
            assert intersects(a[tag], ref)
            assert abs(a[tag].hi - ref.hi) <= 1e-12 * ref.hi
    wide = DomainRect(2.0, 1.0)
    (row,) = classical_table([4], wide)
    assert row["corollary"] == corollary_bound(4.0, wide.measure())
    assert row["plum"] == plum_bound(4.0, wide.lambda1)


def test_classical_table_where_a_sides_square_overflows():
    """On 1.5e154 x 2.5e-154 L1^2 leaves binary64 but lambda_1, about
    1.58e308, does not: lambda_1 encloses the exact value, the reference
    rectangle is 2^511 times it, and the classical bounds are finite.  On a
    rectangle whose sides' squares are normal, lambda_grid keeps the bits of
    the interval arrays PI^2 (i^2/(L1 L1) + j^2/(L2 L2)) for every mode up
    to 101, and lambda_mode is its entry."""
    thin = DomainRect(1.5e154, 2.5e-154)
    lam = thin.lambda1
    with mpmath.workprec(200):
        exact = mpmath.pi ** 2 * (1 / mpmath.mpf(thin.L1) ** 2 + 1 / mpmath.mpf(thin.L2) ** 2)
        assert lam.lo <= exact <= lam.hi
    assert thin.reference() == (-511, DomainRect(1.0055855947456949e308, 1.6759759912428247))
    (row,) = classical_table([4], thin)
    assert all(0.0 < row[tag].lo <= row[tag].hi < float("inf") for tag in ("corollary", "plum"))
    one = Interval(1.0)
    modes = np.arange(1, 102)
    n2 = IArray(modes.astype(np.float64) ** 2)
    for dom in (SQ, DomainRect(2.0, 1.0), DomainRect(1.5, 1.0), DomainRect(3.0, 0.4)):
        ix = n2 / IArray._coerce(one * dom.L1 * dom.L1)
        iy = n2 / IArray._coerce(one * dom.L2 * dom.L2)
        want = (ix.reshape(-1, 1) + iy.reshape(1, -1)) * IArray._coerce(PI * PI)
        lam = dom.lambda_grid(modes, modes)
        assert np.array_equal(lam.lo, want.lo) and np.array_equal(lam.hi, want.hi)
        for i, j in itertools.product((1, 2, 3, 57, 100, 101), repeat=2):
            assert dom.lambda_mode(i, j) == Interval(lam.lo[i - 1, j - 1], lam.hi[i - 1, j - 1])


def test_c6_certifies_within_budget():
    """Budget: 60 s.  p=5, N=20 certifies (about 5 s on a 2-core host): C_6
    lies below both classical bounds and intersects the reference bracket
    [0.3338404215, 0.3339320326]."""
    t0 = time.perf_counter()
    report = run_pipeline(RunConfig(p=5, domain=SQ, N=[20]))
    assert time.perf_counter() - t0 < 60.0
    assert report.fully_certified
    f = report.final
    assert f.sources["upper"] == "extremal"
    assert all(f.upper < iv.lo for _, iv in report.classical)
    assert intersects(_final(report), Interval(0.3338404215, 0.3339320326))


def test_report_structure_and_validation(report_c4):
    d = json.loads(report_c4.to_json())
    assert d["format"] == "sobemb-report/9"
    validate_report_dict(d)  # must not raise
    # corrupting a rigorous field must be caught
    bad = json.loads(report_c4.to_json())
    bad["final"]["lower"], bad["final"]["upper"] = (
        bad["final"]["upper"], bad["final"]["lower"])
    if bad["final"]["lower"] != bad["final"]["upper"]:
        with pytest.raises(SoundnessViolation):
            validate_report_dict(bad)


def test_canonical_json_strips_timing_and_meta(report_c4):
    d = json.loads(report_c4.canonical_json())
    assert "timing" not in d and "meta" not in d
    full = json.loads(report_c4.to_json())
    assert "timing" in full and "meta" in full


def test_report_csv_projection(report_c4):
    text = report_csv(report_c4)
    lines = text.strip().split("\n")
    assert lines[0].startswith("N,status,positive")
    assert len(lines) == 1 + len(report_c4.rows)
    assert all(line.split(",")[1] == "certified" for line in lines[1:])


def test_classical_table_rows():
    table = classical_table([3, 4, 5], SQ)
    assert [row["p"] for row in table] == [3, 4, 5]
    for row in table:
        assert row["corollary"].lo > 0.0
        assert row["plum"].lo > 0.0


def test_emit_plot_data(tmp_path, u_p3_n10):
    path = str(tmp_path / "u.csv")
    emit_plot_data(u_p3_n10, 8, path)
    lines = open(path).read().strip().split("\n")
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 64
    with pytest.raises(ValueError):
        emit_plot_data(u_p3_n10, 1, path)


# -- metamorphic whole runs ------------------------------------------------------


@pytest.mark.parametrize("p", [3, 4])
def test_doubled_square_is_the_unit_square_scaled(p):
    """2 x 2 is 2^1 times its reference rectangle, the unit square, so its
    run certifies the unit square's center: at N=12 its row's rigorous
    fields are the 1 x 1 row's, and its bounds are the 1 x 1 row's carried
    by the scaling law C_q(2 Omega) = 2^(2/q) C_q(Omega), q = p + 1
    (`_scaled`), bit for bit."""
    (small,), (big,) = (run_pipeline(RunConfig(p, DomainRect(s, s), [12])).rows
                        for s in (1.0, 2.0))
    assert small.status == big.status == "certified"
    rigorous = set(small.to_dict()) - {"lower", "upper"}
    assert {f: small.to_dict()[f] for f in rigorous} == {f: big.to_dict()[f] for f in rigorous}
    c = _scaled(Interval(small.lower, small.upper), 1, p + 1)
    assert (big.lower, big.upper) == (c.lo, c.hi)


def test_transposed_rectangle_encloses_the_same_constant():
    """C_q is invariant under swapping the sides, so the final enclosures of
    2 x 1 and 1 x 2 at p=3, N=12 intersect; they are not equal, as their
    centers are transposes only to the solver's tolerance (upper
    0x1.3f931ec8ef371p-2 against ...ef378p-2)."""
    wide, tall = (run_pipeline(RunConfig(3, DomainRect(*sides), [12])).final
                  for sides in ((2.0, 1.0), (1.0, 2.0)))
    assert intersects(Interval(wide.lower, wide.upper), Interval(tall.lower, tall.upper))

