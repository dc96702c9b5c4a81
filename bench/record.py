"""Regenerate the benchmark's stored reference data from the current program.

Usage (from the repository root):

    python3 bench/record.py digests   # writes bench/digests.json
    python3 bench/record.py layers    # writes bench/record.json

`digests` runs every distinct invocation of every workload (with every
`diag` modulus a seed can pick) once, requires each to pass `run.verify_report`,
and stores the SHA-256 of its report plus the check count of each command
with its seed elided.  Run it only on a commit whose reports are known good:
the digests are what later commits are held to.

`layers` runs one untraced and one traced pass of each workload at seed 0 and
stores the machine, each workload's argv and reason, the per-layer
predictions, and the measured self-time share of each layer.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import run

# Which end-to-end metric each per-layer metric should move, on which
# workload, written down before measuring.
PREDICTIONS = [
    ("exactring.reduce_vector.{calls,self_s}", "verdict_s", ["criterion", "fourier"]),
    ("exactring.mul.{calls,self_s}", "verdict_s", ["gauss_diag"]),
    ("exactring.norm.{calls,self_s}", "verdict_s", ["gauss_diag"]),
    ("exactring.is_unit.calls", None, []),
    ("exactring.get_ring.hit_ratio", None, []),
    ("matrix.determinant.{calls,self_s,n_cubed}", "verdict_s", ["criterion"]),
    ("matrix.determinant_expansion.{calls,self_s}", "verdict_s", ["gauss_diag"]),
    ("finab.enumerate_homs.{homs,self_s}", "verdict_s", ["naturality"]),
    ("finab.element_index.{calls,self_s}", "verdict_s", ["naturality"]),
    ("finab.dual_hom.{calls,self_s}", "verdict_s", ["naturality"]),
    ("finab.pairing_numerators.hit_ratio", "verdict_s, peak_rss_mb", ["fourier"]),
    ("groupalgebra.evaluate_at_characters.{calls,self_s}", "verdict_s", ["fourier"]),
    ("groupalgebra.fourier_transform.{calls,self_s}", "verdict_s", ["fourier"]),
    ("groupalgebra.fourier_inversion_report.self_s", "verdict_s", ["fourier"]),
    ("groupalgebra.transform_matrix.{calls,self_s}", "verdict_s", ["criterion", "naturality"]),
    ("isoverify.naturality_sweep.self_s", "verdict_s", ["naturality"]),
    ("isoverify.invertibility_criterion.{calls,self_s}", "verdict_s", ["criterion"]),
    ("isoverify.criterion_vs_determinant.self_s", "verdict_s", ["criterion"]),
    ("chargauss.gauss_sum.{calls,self_s}", "verdict_s", ["gauss_diag"]),
    ("chargauss.check_gauss_identities.self_s", "verdict_s", ["gauss_diag"]),
    ("diagonalize.vandermonde_iso.self_s", "verdict_s", ["gauss_diag"]),
    ("report.to_json.self_s", "verdict_s, peak_rss_mb", ["gauss_diag"]),
    ("report.checks", None, list(run.WORKLOADS)),
    ("cli.main.self_s", "verdict_s", list(run.WORKLOADS)),
]

# The layer predicted to take the largest self-time share, where one was stated.
PREDICTED_DOMINANT = {"fourier": "groupalgebra", "naturality": "isoverify",
                      "criterion": "matrix", "gauss_diag": None}


def record_digests() -> None:
    argvs = {" ".join(argv): argv for workload in run.WORKLOADS
             for argv in run.invocations(workload, 0)}
    for modulus in run.DIAG_MODULI:
        argv = ["diag", "--n", "16", "--modulus", str(modulus), "--emit-iso"]
        argvs[" ".join(argv)] = argv
    run_dir = run.RUN_DIR / f"record-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    spawner = run.Spawner(run_dir, time.monotonic() + 3600.0)
    reports, checks = {}, {}
    try:
        results = [(key, argv, *spawner.run(argv, False)) for key, argv in sorted(argvs.items())]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for key, argv, outcome, data in results:
        failure, count = outcome.failure, 0
        if failure is None:
            failure, count = run.verify_report(argv, outcome.code, data)
        if failure is not None:
            raise SystemExit(f"{key}: {failure}; not recording")
        reports[key] = hashlib.sha256(data).hexdigest()
        if argv[0] == "verify":
            ck = run.check_key(argv)
            if checks.setdefault(ck, count) != count:
                raise SystemExit(f"{ck}: check count varies with the seed")
        print(f"{outcome.verdict_s:7.2f} s  {key}", file=sys.stderr)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({"reports": reports, "checks": checks}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record_layers() -> None:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    workloads = {}
    for workload in run.WORKLOADS:
        result = run.run(workload, 0, 1.0, True)
        if not result["correct"]:
            raise SystemExit(f"{workload}: {result['failed']} invocations failed")
        m = {name: v["value"] for name, v in result["metrics"].items()}
        total = sum(m[f"{layer}.self_s"] for layer in run.LAYERS)
        shares = {layer: round(m[f"{layer}.self_s"] / total, 4) for layer in run.LAYERS}
        measured = max(shares, key=shares.get)
        predicted = PREDICTED_DOMINANT[workload]
        entry = {
            "why": why[workload],
            "argv_seed_0": [" ".join(a) for a in run.invocations(workload, 0)],
            "predicted_dominant_layer": predicted,
            "measured_dominant_layer": measured,
            "self_share": shares,
            "traced_verdict_s": round(m["trace.verdict_s"], 3),
            "tracing_overhead_s": round(m["trace.overhead_s"], 3),
        }
        if predicted is not None and predicted != measured:
            entry["note"] = (f"measured dominant layer {measured} differs from the "
                             f"predicted {predicted}")
        workloads[workload] = entry
    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "commit": _commit()},
        "predictions": [{"metric": metric, "moves": moves, "workloads": where}
                        for metric, moves, where in PREDICTIONS],
        "workloads": workloads,
    }
    with open(run.BENCH / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    what = sys.argv[1:] or ["digests", "layers"]
    for item in what:
        {"digests": record_digests, "layers": record_layers}[item]()
