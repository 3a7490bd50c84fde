"""Traced child of the benchmark: one ``sobemb enclose`` run with spans.

Usage: python3 perfbench/traced.py <trace.json> enclose --p P --N ... --out R

Installs the span recorder, runs the CLI in this process with the remaining
arguments, writes the spans to <trace.json> and exits with the CLI's code.
run.py sets PYTHONPATH so that ``sobemb`` resolves to the
checkout's sources.
"""

import json
import sys

from tracer import Recorder


def main(argv) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    import sobemb.cli

    rec = Recorder()
    rec.install()
    code = sobemb.cli.main(cli_args)
    with open(trace_path, "w") as f:
        json.dump(rec.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
