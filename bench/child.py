"""One CLI invocation, timed from inside a fresh interpreter.

Usage: python child.py SPEC_JSON

SPEC_JSON holds `argv` (the CLI arguments), `spawn_ns` (CLOCK_MONOTONIC
read by the parent just before it spawned this process), `trace` (0 or 1)
and `out` (where to write the timing record).  The program under test is
found on PYTHONPATH.  With `trace` set, span wrappers from `spans.py` are
installed on the package after import and before `cli.main` is entered.

The record holds the exit code, `setup_ns` (spawn to entering `cli.main`),
`verdict_ns` (entering `cli.main` to its return, report written) and, when
traced, the span summary.  An exception escaping `cli.main` leaves no record.
"""

import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    from cyclofourier import cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install("cyclofourier")
    enter = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    code = cli.main(spec["argv"])
    done = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    record = {"code": code, "setup_ns": enter - spec["spawn_ns"], "verdict_ns": done - enter}
    if tracer is not None:
        record["trace"] = tracer.summary()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
