"""All three reference sweeps at seed 0, end to end and traced, as one table.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--write FILE]

Runs ``perfbench/run.py`` on c4, c3 and c5 at seed 0: the untraced run, then
the traced run.  Prints every end-to-end metric by name with its unit, plus
failed_frac, and the correctness verdict of each run.
--write stores the results (end-to-end and per-layer metrics, details and
host record) as JSON; perfbench/baseline_seed0.json was made this way.
Exits 1 if any run misses the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ORDER = ("c4", "c3", "c5")


def run_one(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(ln)["detail"] for ln in lines if ln.startswith('{"detail"'))
    return {"detail": detail, "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", type=Path, default=None)
    args = ap.parse_args(argv)

    out = {}
    ok = True
    for w in ORDER:
        out[w] = {"untraced": run_one(w, 0), "traced": run_one(w, 1)}
        for mode, r in out[w].items():
            res = r["result"]
            ok = ok and res["correct"]
            print(f"{w} {mode}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)

    print(f"\n{'metric':<16}{'unit':<7}" + "".join(f"{w:>14}" for w in ORDER))
    names = list(out[ORDER[0]]["untraced"]["result"]["metrics"])
    for name in names + ["failed_frac"]:
        cells = []
        for w in ORDER:
            r = out[w]["untraced"]
            if name == "failed_frac":
                unit, v = "1", r["detail"]["failed_frac"]
            else:
                unit, v = r["result"]["metrics"][name]["unit"], r["result"]["metrics"][name]["value"]
            cells.append(f"{v:>14.6g}")
        print(f"{name:<16}{unit:<7}" + "".join(cells))
    if args.write:
        args.write.write_text(json.dumps({"seed": 0, "runs": out},
                                         indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
