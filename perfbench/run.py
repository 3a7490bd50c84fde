"""End-to-end and per-layer benchmark of ``sobemb enclose`` on reference sweeps.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload c4 --seed 0 --seconds 20 --trace 0

Each workload is one of the unit-square sweeps of ``sobemb reproduce``, run
as a closed loop with one client: one ``sobemb enclose`` child process at a
time, each with BLAS threads pinned, an address-space cap and a wall-clock
timeout, until ``--seconds`` have been measured (at least one sweep).

--trace 0  prints the end-to-end metrics: wall_s, peak_rss_mb, width and
           certified_frac of the sweeps, and setup_s, the median time of
           several fresh ``import sobemb.cli`` interpreters.
--trace 1  runs one traced sweep in one process (perfbench/traced.py) and one
           untraced sweep, and prints the per-layer metrics derived from the
           spans, plus the tracing overhead.

Every sweep passes through the correctness gate (see ``gate``); a sweep that
misses it, crashes, times out or trips the memory cap counts all of its
entries as failed.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import summarize  # noqa: E402


class Workload(NamedTuple):
    p: int
    sweep: tuple  # the sweep of ``sobemb reproduce``
    bracket: tuple  # reference bracket of C_{p+1} from the acceptance tests
    deadline_s: float  # every child of a run ends this long after its start


# 170 s keeps a c4 or c5 run under 3 minutes; a traced c3 run makes two
# sweeps of about 80 s each
WORKLOADS = {
    "c4": Workload(3, (10, 20, 30, 34), (0.28524446071925, 0.28524446071939), 170.0),
    "c3": Workload(2, (40, 56, 72), (0.25712475017617, 0.25712766496560), 300.0),
    "c5": Workload(4, (12, 16, 20), (0.31058015094169, 0.31067136032829), 170.0),
}
MEM_CAP_BYTES = 4 << 30  # RLIMIT_AS of each child
SETUP_IMPORTS = 5
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
ENTRY_QUANTITIES = ("nprime", "delta_hm1", "K", "r_h1", "r_inf")
ENTRY_SLOTS = ("e1", "e2", "e3", "last")
ROW_FIELD = {"delta_hm1": "defect_hm1", "K": "K", "r_h1": "r_h1", "r_inf": "r_inf"}
MISSING = -1.0  # per-entry value of a sweep entry that never computed it

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "width": "1",
    "certified_frac": "1",
}
PER_LAYER = {
    "solver.newton_solve.self_s": "s",
    "solver.newton_solve.calls": "count",
    "series.multiply.self_s": "s",
    "series.multiply.calls": "count",
    "series.multiply.macs": "count",
    "series.power_expand.self_s": "s",
    "series.power_expand.total_s": "s",
    "series.power_expand.calls": "count",
    "series.negative_part_sup.self_s": "s",
    "series.negative_part_sup.calls": "count",
    "series.Series2D.sup_abs_bound.calls": "count",
    "series.Series2D.eval.calls": "count",
    "ivarray.imatmul.self_s": "s",
    "ivarray.imatmul.calls": "count",
    "ivarray.imatmul.gemm_flops": "flop",
    "symeig.eig_enclosures.self_s": "s",
    "symeig.eig_enclosures.total_s": "s",
    "symeig.eigh_s": "s",
    "symeig.blocks": "count",
    "symeig.block_n_max": "count",
    "symeig.block_n3_sum": "count",
    "certify.certify_ball.self_s": "s",
    "certify.certify_ball.total_s": "s",
    "certify.defect_bounds.self_s": "s",
    "certify.defect_bounds.total_s": "s",
    "certify.inverse_bound.self_s": "s",
    "certify.inverse_bound.total_s": "s",
    "certify.linf_radius.self_s": "s",
    "certify.positiveness_certificate.self_s": "s",
    "certify.split_retries": "count",
    "certify.trial_radii": "count",
    **{f"certify.{q}.{slot}": "count" if q == "nprime" else "1"
       for q in ENTRY_QUANTITIES for slot in ENTRY_SLOTS},
    "bounds.lp_norm.self_s": "s",
    "bounds.lp_norm.total_s": "s",
    "bounds.enclosure_from_ball.self_s": "s",
    "pipeline.run_pipeline.self_s": "s",
    "series.rss_raise_mb": "MB",
    "symeig.rss_raise_mb": "MB",
    "certify.rss_raise_mb": "MB",
    "bounds.rss_raise_mb": "MB",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

HOST_PROBE = """
import json, os, platform, numpy, scipy
import sobemb.cli
blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
}))
"""


def sweep_for(workload: str, seed: int) -> list:
    """The sweep of a workload; seed 0 is the reference sweep.

    Any other seed adds 0 or 1 (drawn from the seed) to each N strictly
    between the first and the last.  The first and last N stay: the last N
    sets the width and most of the time (c5 at N=21 instead of 20 is 3.7x
    narrower and 15% slower), and the first is c5's failing entry.
    """
    base = list(WORKLOADS[workload].sweep)
    if seed == 0:
        return base
    rng = random.Random(f"{workload}:{seed}")
    return [base[0]] + [n + rng.randint(0, 1) for n in base[1:-1]] + [base[-1]]


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS)
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))


def launch(cmd: list, deadline: float, log: Path) -> dict:
    """Run one capped child to completion or to the deadline.

    Returns its exit code (None when killed at the deadline), wall seconds
    and peak RSS in MB from wait4.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=out,
                                stderr=subprocess.STDOUT, preexec_fn=_cap_memory)
        killed = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if not killed and time.monotonic() >= deadline:
                    proc.kill()
                    killed = True
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": None if killed else proc.returncode, "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0}


def measure_setup(work: Path, deadline: float) -> tuple:
    """Host record from a warm-up import, then SETUP_IMPORTS timed imports."""
    probe = launch([sys.executable, "-c", HOST_PROBE], deadline, work / "host.log")
    text = (work / "host.log").read_text()
    if probe["exit"] != 0:
        raise RuntimeError(f"cannot import sobemb.cli:\n{text}")
    host = json.loads(text.strip().splitlines()[-1])
    times = [launch([sys.executable, "-c", "import sobemb.cli"], deadline,
                    work / "import.log")["wall_s"]
             for _ in range(SETUP_IMPORTS)]
    return host, times


def run_sweep(workload: str, sweep: list, work: Path, tag: str,
              deadline: float, traced: bool = False) -> dict:
    """One ``sobemb enclose`` child on a sweep; the report is loaded if any."""
    p = WORKLOADS[workload].p
    # one report path for every sweep of a run: the path is part of the
    # report's config, and so of the canonical JSON compared across sweeps
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    trace_path = work / f"{tag}.trace.json"
    args = ["enclose", "--p", str(p), "--N", ",".join(map(str, sweep)),
            "--out", str(report_path)]
    if traced:
        cmd = [sys.executable, str(HERE / "traced.py"), str(trace_path), *args]
    else:
        cmd = [sys.executable, "-m", "sobemb.cli", *args]
    res = launch(cmd, deadline, work / f"{tag}.log")
    res["N"] = sweep
    res["log_tail"] = (work / f"{tag}.log").read_text(errors="replace")[-2000:]
    res["report"] = json.loads(report_path.read_text()) if report_path.exists() else None
    if traced and trace_path.exists():
        res["trace"] = json.loads(trace_path.read_text())
    return res


def canonical(report: dict) -> str:
    """``RunReport.canonical_json()`` rebuilt from the emitted JSON report."""
    d = dict(report)
    d.pop("timing", None)
    d.pop("meta", None)
    return json.dumps(d, sort_keys=True)


def gate(res: dict, workload: str) -> list:
    """Problems with one sweep's outputs; empty when the sweep is correct."""
    from sobemb.errors import SobembError
    from sobemb.pipeline import validate_report_dict

    if res["exit"] is None:
        return ["timed out"]
    rep = res["report"]
    if rep is None:
        return [f"no report (exit {res['exit']}): {res['log_tail'][-300:]}"]
    try:
        validate_report_dict(rep)
    except (SobembError, KeyError, TypeError, ValueError) as exc:
        return [f"validate_report_dict: {exc!r}"]
    problems = []
    statuses = [row["status"] for row in rep["rows"]]
    if [row["N"] for row in rep["rows"]] != res["N"]:
        problems.append("report rows do not match the sweep")
    final = rep.get("final")
    if final is None:
        problems.append("no final enclosure")
    else:
        lo, hi = float.fromhex(final["lower"]), float.fromhex(final["upper"])
        ref_lo, ref_hi = WORKLOADS[workload].bracket
        if not lo <= hi:
            problems.append("final lower > upper")
        if not (lo <= ref_hi and ref_lo <= hi):
            problems.append(f"final [{lo!r}, {hi!r}] misses the reference "
                            f"bracket [{ref_lo!r}, {ref_hi!r}]")
    if all(s == "certified" for s in statuses):
        expected = 0
    elif final is not None or "certified" in statuses:
        expected = 2
    else:
        expected = 1
    if res["exit"] != expected:
        problems.append(f"exit code {res['exit']}, rows imply {expected}")
    return problems


def _certified(res: dict) -> int:
    if res["problems"]:
        return 0
    return sum(row["status"] == "certified" for row in res["report"]["rows"])


def _width(res: dict) -> float:
    f = res["report"]["final"] if res["report"] else None
    if f is None:
        return sys.float_info.max  # no enclosure at all
    return float.fromhex(f["upper"]) - float.fromhex(f["lower"])


def _quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def entry_values(res: dict) -> dict:
    """Per-entry rigorous upper endpoints, keyed '<quantity>.N<n>'."""
    out = {}
    nprime = res.get("trace", {}).get("values", {}).get("certify.nprime", {})
    for row in (res["report"] or {}).get("rows", []):
        n = row["N"]
        if str(n) in nprime:
            out[f"nprime.N{n}"] = nprime[str(n)]
        for q, field in ROW_FIELD.items():
            if row.get(field) is not None:
                out[f"{q}.N{n}"] = float.fromhex(row[field][1])
    return out


def per_layer_metrics(traced: dict, plain: dict) -> dict:
    stats = summarize(traced["trace"]) if traced.get("trace") else {}
    stats["trace.wall_s"] = traced["wall_s"]
    stats["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values = entry_values(traced)
    sweep = traced["N"]
    slots = dict(zip(ENTRY_SLOTS, sweep[:3]), last=sweep[-1])
    for q in ENTRY_QUANTITIES:
        for slot, n in slots.items():
            stats[f"certify.{q}.{slot}"] = values.get(f"{q}.N{n}", MISSING)
    return {name: stats.get(name, 0) for name in PER_LAYER}


def host_record(probe: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, **probe, "mem_cap_bytes": MEM_CAP_BYTES}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    start = time.monotonic()
    deadline = start + WORKLOADS[workload].deadline_s
    sweep = sweep_for(workload, seed)
    probe, setup_times = measure_setup(work, deadline)
    sweeps = []
    if trace:
        sweeps.append(run_sweep(workload, sweep, work, "traced", deadline, traced=True))
        sweeps.append(run_sweep(workload, sweep, work, "plain", deadline))
    else:
        t_measure = time.monotonic()
        while True:
            sweeps.append(run_sweep(workload, sweep, work, f"s{len(sweeps)}", deadline))
            now, last = time.monotonic(), sweeps[-1]["wall_s"]
            if now - t_measure >= seconds or now + 1.5 * last >= deadline:
                break

    sys.path.insert(0, str(SRC))
    for res in sweeps:
        res["problems"] = gate(res, workload)
    canon = {canonical(r["report"]) for r in sweeps if not r["problems"]}
    deterministic = len(canon) <= 1
    attempted = sum(len(r["N"]) for r in sweeps)
    certified = sum(_certified(r) for r in sweeps)
    correct = deterministic and not any(r["problems"] for r in sweeps)
    failed = attempted - certified if correct else attempted

    if trace:
        metrics = per_layer_metrics(sweeps[0], sweeps[1])
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in sweeps),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in sweeps),
            "width": statistics.median(_width(r) for r in sweeps),
            "certified_frac": certified / attempted,
        }
        units = END_TO_END
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace), "N": sweep,
        "host": host_record(probe),
        "deterministic": deterministic,
        "failed_frac": failed / attempted,
        "setup_s": _quartiles(setup_times),
        "wall_s": _quartiles([r["wall_s"] for r in sweeps]),
        "peak_rss_mb": _quartiles([r["rss_mb"] for r in sweeps]),
        "sweeps": [{"exit": r["exit"], "wall_s": r["wall_s"], "rss_mb": r["rss_mb"],
                    "problems": r["problems"],
                    "rows": [(row["N"], row["status"])
                             for row in (r["report"] or {}).get("rows", [])]}
                   for r in sweeps],
        "entries": entry_values(sweeps[0]),
    }
    return {
        "detail": detail,
        "result": {
            "correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through launch(), which kills its child


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sobemb" / "cli.py").is_file():
        print(f"error: no sobemb sources under {SRC}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work = work_root / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps({"detail": out["detail"]}, sort_keys=True))
    for name, m in out["result"]["metrics"].items():
        print(f"{args.workload:>4} {name:<42} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
