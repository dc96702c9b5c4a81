"""Closed-loop benchmark of the cyclofourier CLI.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one CLI invocation at a time, each in a fresh interpreter
(`child.py`), so the `lru_cache`s of the package start cold as they do for
a user.  A *pass* is one run of a workload's invocations in order; passes
repeat until the next one would end after `--seconds`.  Each pass is summed
over its invocations and every metric is the median over passes.

With `--trace 0` the end-to-end metrics are printed:

- `verdict_s`   entering `cli.main` to its return, report written;
- `setup_s`     spawning the process to entering `cli.main`;
- `cpu_s`       user + system CPU of the invocation processes;
- `peak_rss_mb` largest `ru_maxrss` of one invocation, from `os.wait4`;
- `pass_share`  invocations that passed every check / invocations run.

With `--trace 1` one untraced pass runs first, then traced passes with span
wrappers (`spans.py`) installed in the child; the per-layer metrics below
are printed.  A traced report must be byte-identical to the untraced one,
and a span declared for the workload that records no call stops the run
with an error, so that a renamed function never reads as zero time.

An invocation fails when it exits non-zero, when its report has a failed
check, when its bytes differ from the SHA-256 stored in `digests.json`, or,
for an invocation with no stored digest, when its check count differs from
the stored one.  The last line on stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
DIGESTS = BENCH / "digests.json"
RUN_DIR = ROOT / ".bench_run"

# A run must end well inside 180 s whatever the program does.
RUN_LIMIT_S = 160.0


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


CRITERION_SEED = "1729"  # the CLI's default seed

# `diag --n 16` splits over Z/q exactly when 16 divides q - 1.
DIAG_MODULI = [q for q in range(17, 1000, 16) if _is_prime(q)]


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The CLI argv of each invocation of one pass; the seed picks the diag modulus."""
    if workload == "fourier":
        return [["verify", "fourier", "--p", "3", "--max-order", "81"],
                ["verify", "fourier", "--p", "2", "--max-order", "32"],
                ["verify", "fourier", "--p", "5", "--max-order", "25"]]
    if workload == "naturality":
        return [["verify", "iso", "--p", "3", "--max-order", "81", "--natural-max-order", "27"],
                ["verify", "iso", "--p", "2", "--max-order", "64", "--natural-max-order", "8"],
                ["verify", "iso", "--p", "5", "--max-order", "125"]]
    if workload == "criterion":
        # The CLI seed stays fixed: it draws the extra groups, whose sizes
        # (9 or 27 for p = 3, 5 or 25 for p = 5) set the Bareiss work, and
        # over seeds 0-9 that moved verdict_s by 26% of its median (IQR).
        return [["verify", "criterion-oracle", "--p", p, "--r", r, "--samples", n,
                 "--seed", CRITERION_SEED]
                for p, r, n in (("3", "2", "40"), ("5", "1", "10"), ("2", "3", "40"))]
    if workload == "gauss_diag":
        return [["verify", "gauss", "--p", "3", "--max-r", "4"],
                ["verify", "gauss", "--p", "2", "--max-r", "6"],
                ["diag", "--n", "16", "--modulus", str(random.Random(seed).choice(DIAG_MODULI)),
                 "--emit-iso"]]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("fourier", "naturality", "criterion", "gauss_diag")

# Per-layer metrics.  A name is `<prefix>.<field>`; the prefix is a key of
# SPANS (one wrapped function), of CACHES (an lru_cache), a module name
# (the sum over that module's spans) or `report` / `trace`.
SPANS = {
    "exactring.reduce_vector": "exactring.CycloRing.reduce_vector",
    "exactring.mul": "exactring.CycloElem.__mul__",
    "exactring.norm": "exactring.norm",
    "exactring.is_unit": "exactring.is_unit",
    "matrix.determinant": "matrix.determinant",
    "matrix.determinant_expansion": "matrix.determinant_expansion",
    "finab.enumerate_homs": "finab.enumerate_homs",
    "finab.element_index": "finab.element_index",
    "finab.dual_hom": "finab.dual_hom",
    "groupalgebra.evaluate_at_characters": "groupalgebra.evaluate_at_characters",
    "groupalgebra.fourier_transform": "groupalgebra.fourier_transform",
    "groupalgebra.fourier_inversion_report": "groupalgebra.fourier_inversion_report",
    "groupalgebra.transform_matrix": "groupalgebra.transform_matrix",
    "isoverify.naturality_sweep": "isoverify.naturality_sweep",
    "isoverify.invertibility_criterion": "isoverify.invertibility_criterion",
    "isoverify.criterion_vs_determinant": "isoverify.criterion_vs_determinant",
    "chargauss.gauss_sum": "chargauss.gauss_sum",
    "chargauss.check_gauss_identities": "chargauss.check_gauss_identities",
    "diagonalize.vandermonde_iso": "diagonalize.vandermonde_iso",
    "report.to_json": "report.VerifyReport.to_json",
    "cli.main": "cli.main",
}
CACHES = ("exactring.get_ring", "exactring.cyclotomic_polynomial",
          "finab.elements", "finab.pairing_numerators")
LAYERS = ("exactring", "matrix", "finab", "groupalgebra", "isoverify",
          "chargauss", "diagonalize", "report", "cli")

# The spans (and caches) each workload exists to measure; each must record
# at least one call (one lookup) in every traced pass of that workload.
DECLARED = {
    "fourier": ("exactring.reduce_vector", "groupalgebra.evaluate_at_characters",
                "groupalgebra.fourier_transform", "groupalgebra.fourier_inversion_report",
                "finab.pairing_numerators", "report.to_json", "cli.main"),
    "naturality": ("finab.enumerate_homs", "finab.element_index", "finab.dual_hom",
                   "isoverify.naturality_sweep", "groupalgebra.transform_matrix",
                   "matrix.determinant", "report.to_json", "cli.main"),
    "criterion": ("exactring.reduce_vector", "matrix.determinant",
                  "groupalgebra.transform_matrix", "isoverify.invertibility_criterion",
                  "isoverify.criterion_vs_determinant", "report.to_json", "cli.main"),
    "gauss_diag": ("exactring.mul", "exactring.norm", "exactring.is_unit",
                   "chargauss.gauss_sum", "chargauss.check_gauss_identities",
                   "diagonalize.vandermonde_iso", "matrix.determinant_expansion",
                   "exactring.get_ring", "report.to_json", "cli.main"),
}

END_TO_END = {"verdict_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "pass_share": "share"}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for prefix in SPANS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
    units["finab.enumerate_homs.homs"] = "count"
    units["matrix.determinant.n_cubed"] = "count"
    for prefix in CACHES:
        units[f"{prefix}.hit_ratio"] = "share"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["report.checks"] = "count"
    units["trace.verdict_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = _per_layer_units()


# -- one invocation -----------------------------------------------------------


@dataclass
class Outcome:
    argv: list[str]
    code: int | None = None
    setup_s: float = 0.0
    verdict_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    digest: str | None = None
    checks: int = 0
    failure: str | None = None
    trace: dict | None = None


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def check_key(argv: list[str]) -> str:
    """The argv with the seed elided: check counts do not depend on it."""
    out = list(argv)
    if "--seed" in out:
        out[out.index("--seed") + 1] = "*"
    return " ".join(out)


def _check_split(doc: dict, argv: list[str]) -> str | None:
    """Independent check of a `diag --emit-iso` result: (xi^(ij)) for a primitive root xi."""
    n = int(argv[argv.index("--n") + 1])
    m = int(argv[argv.index("--modulus") + 1])
    if doc.get("decision") is not True:
        return "diag: no splitting reported"
    xi = doc.get("witness")
    if not isinstance(xi, int) or pow(xi, n, m) != 1 or any(
            pow(xi, n // q, m) == 1 for q in range(2, n + 1) if n % q == 0 and _is_prime(q)):
        return f"diag: witness {xi!r} is not a primitive {n}-th root mod {m}"
    if doc.get("points") != [pow(xi, i, m) for i in range(n)]:
        return "diag: points are not the powers of the witness"
    if doc.get("matrix") != [[pow(xi, i * j, m) for j in range(n)] for i in range(n)]:
        return "diag: matrix is not the Vandermonde matrix of the witness"
    return None


def verify_report(argv: list[str], code: int | None,
                  report: bytes | None) -> tuple[str | None, int]:
    """Exit code and report contents alone: why the invocation failed, and its check count."""
    if code != 0:
        return f"exit code {code}", 0
    if report is None:
        return "no report written", 0
    try:
        doc = json.loads(report)
    except ValueError:
        return "report is not JSON", 0
    checks = 0
    if argv[0] == "verify":
        if not isinstance(doc, dict) or not isinstance(doc.get("checks"), list):
            return "report has no checks", 0
        checks = len(doc["checks"])
        if doc.get("failed") != 0:
            return f"report has failed={doc.get('failed')!r}", checks
    elif argv[0] == "diag":
        why = _check_split(doc, argv)
        if why is not None:
            return why, 0
    return None, checks


def check_report(argv: list[str], code: int | None, report: bytes | None,
                 digests: dict) -> tuple[str | None, int]:
    """`verify_report`, then the stored digest, or else the stored check count."""
    failure, checks = verify_report(argv, code, report)
    if failure is not None:
        return failure, checks
    want = digests["reports"].get(" ".join(argv))
    if want is not None:
        if hashlib.sha256(report).hexdigest() != want:
            return "report differs from the stored digest", checks
    elif argv[0] == "verify":
        expected = digests["checks"].get(check_key(argv))
        if checks != expected:
            return f"report has {checks} checks, expected {expected}", checks
    return None, checks


class Spawner:
    """Runs child invocations one at a time inside a scratch directory."""

    def __init__(self, run_dir: Path, deadline: float):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # Imports read cached bytecode, as an installed package's do.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0

    def run(self, argv: list[str], trace: bool) -> tuple[Outcome, bytes | None]:
        self.count += 1
        stem = self.run_dir / f"inv{self.count}"
        report, record, log = (stem.with_suffix(s) for s in (".report", ".rec", ".log"))
        outcome = Outcome(argv)
        spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        spec = json.dumps({"argv": argv + ["--output", str(report)], "trace": int(trace),
                           "out": str(record), "spawn_ns": spawn_ns})
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT, 0o644),
                   (os.POSIX_SPAWN_DUP2, 1, 2)]
        pid = os.posix_spawn(sys.executable, [sys.executable, str(CHILD), spec],
                             self.env, file_actions=actions)
        exited = False
        try:
            exited = _wait_ready(pid, self.deadline - time.monotonic())
        finally:
            if not exited:  # past the deadline, or this process is being stopped
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        if not exited:
            outcome.failure = "timed out"
            return outcome, None
        outcome.code = os.waitstatus_to_exitcode(status)
        outcome.cpu_s = usage.ru_utime + usage.ru_stime
        outcome.rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
        data = report.read_bytes() if report.exists() else None
        if data is not None:
            outcome.digest = hashlib.sha256(data).hexdigest()
        if record.exists():
            rec = json.loads(record.read_text(encoding="utf-8"))
            outcome.setup_s = rec["setup_ns"] / 1e9
            outcome.verdict_s = rec["verdict_ns"] / 1e9
            outcome.trace = rec.get("trace")
        else:
            tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
            outcome.failure = f"exit code {outcome.code}, no timing record" + (
                f": {tail[-1]}" if tail else "")
        for path in (report, record, log):
            path.unlink(missing_ok=True)
        return outcome, data


def _wait_ready(pid: int, timeout: float) -> bool:
    """Wait until the child exits or the timeout passes; True if it exited."""
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
        return bool(ready)
    finally:
        os.close(fd)


# -- passes -------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    outcomes: list[Outcome] = field(default_factory=list)

    def total(self, attr: str) -> float:
        return sum(getattr(o, attr) for o in self.outcomes)


def run_pass(spawner: Spawner, argvs: list[list[str]], traced: bool, digests: dict) -> Pass:
    start = time.monotonic()
    p = Pass(0.0)
    for argv in argvs:
        outcome, data = spawner.run(argv, traced)
        if outcome.failure is None:
            outcome.failure, outcome.checks = check_report(argv, outcome.code, data, digests)
        p.outcomes.append(outcome)
        if outcome.failure == "timed out":
            break
    p.wall_s = time.monotonic() - start
    print(f"  {'traced' if traced else 'untraced'} pass: wall {p.wall_s:.2f} s, "
          f"verdict {p.total('verdict_s'):.3f} s", file=sys.stderr)
    return p


def run_passes(spawner: Spawner, argvs, traced: bool, digests: dict,
               until: float) -> list[Pass]:
    """At least one pass; more while the longest pass so far still fits before `until`."""
    passes: list[Pass] = []
    while True:
        p = run_pass(spawner, argvs, traced, digests)
        passes.append(p)
        if len(p.outcomes) < len(argvs):  # timed out
            return passes
        if time.monotonic() + max(q.wall_s for q in passes) > until:
            return passes


# -- metrics ------------------------------------------------------------------


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    outcomes = [o for p in passes for o in p.outcomes]
    return {
        "verdict_s": statistics.median(p.total("verdict_s") for p in passes),
        "setup_s": statistics.median(p.total("setup_s") for p in passes),
        "cpu_s": statistics.median(p.total("cpu_s") for p in passes),
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in p.outcomes) for p in passes),
        "pass_share": sum(o.failure is None for o in outcomes) / len(outcomes),
    }


def pass_layers(p: Pass) -> dict[str, float]:
    """Per-layer values of one traced pass, summed over its invocations."""
    spans: dict[str, list[float]] = {}
    caches: dict[str, list[int]] = {}
    items: dict[str, int] = {}
    counters: dict[str, int] = {}
    for o in p.outcomes:
        if o.trace is None:
            continue
        for name, rec in o.trace["spans"].items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += rec["calls"]
            acc[1] += rec["self_ns"] / 1e9
        for name, rec in o.trace["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += rec["hits"]
            acc[1] += rec["misses"]
        for name, n in o.trace["items"].items():
            items[name] = items.get(name, 0) + n
        for name, n in o.trace["counters"].items():
            counters[name] = counters.get(name, 0) + n
    values: dict[str, float] = {}
    for prefix, span in SPANS.items():
        calls, self_s = spans.get(span, (0, 0.0))
        values[f"{prefix}.calls"] = calls
        values[f"{prefix}.self_s"] = self_s
    values["finab.enumerate_homs.homs"] = items.get(SPANS["finab.enumerate_homs"], 0)
    values["matrix.determinant.n_cubed"] = counters.get("n_cubed", 0)
    for prefix in CACHES:
        hits, misses = caches.get(prefix, (0, 0))
        values[f"{prefix}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        values[f"{prefix}.lookups"] = hits + misses  # for the declared-span check only
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(s for name, (_, s) in spans.items()
                                        if name.split(".", 1)[0] == layer)
    values["report.checks"] = sum(o.checks for o in p.outcomes)
    values["trace.verdict_s"] = p.total("verdict_s")
    return values


def silent_spans(workload: str, values: dict[str, float]) -> list[str]:
    """Declared spans or caches of the workload that recorded nothing in this pass."""
    return [prefix for prefix in DECLARED[workload]
            if values.get(f"{prefix}.calls", values.get(f"{prefix}.lookups")) == 0]


def per_layer(workload: str, untraced: Pass, traced: list[Pass]) -> dict[str, float]:
    per_pass = [pass_layers(p) for p in traced]
    for p, values in zip(traced, per_pass):
        silent = silent_spans(workload, values)
        if silent and all(o.failure is None for o in p.outcomes):
            raise SystemExit(f"declared spans recorded no call on {workload}: "
                             f"{', '.join(silent)}; update bench/run.py")
    out = {name: statistics.median(v[name] for v in per_pass)
           for name in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = out["trace.verdict_s"] - untraced.total("verdict_s")
    return out


# -- the run ------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    digests = load_digests()
    argvs = invocations(workload, seed)
    start = time.monotonic()
    until = start + seconds
    run_dir = RUN_DIR / str(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spawner = Spawner(run_dir, start + RUN_LIMIT_S)
    try:
        spawner.run(["phi", "--n", "1"], trace)  # writes the bytecode cache
        if not trace:
            passes = run_passes(spawner, argvs, False, digests, until)
            metrics = end_to_end(passes)
        else:
            untraced = run_pass(spawner, argvs, False, digests)
            traced = run_passes(spawner, argvs, True, digests, until)
            for p in traced:
                for o, ref in zip(p.outcomes, untraced.outcomes):
                    if o.failure is None and o.digest != ref.digest:
                        o.failure = "traced report differs from the untraced one"
            passes = [untraced] + traced
            metrics = per_layer(workload, untraced, traced)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_DIR.rmdir()  # unless another run is using it
    outcomes = [o for p in passes for o in p.outcomes]
    for o in outcomes:
        if o.failure is not None:
            print(f"  FAILED {' '.join(o.argv)}: {o.failure}", file=sys.stderr)
    failed = sum(o.failure is not None for o in outcomes)
    units = PER_LAYER if trace else END_TO_END
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopping the benchmark unwinds through Spawner.run, which kills the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "cyclofourier" / "cli.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'cyclofourier'})",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
