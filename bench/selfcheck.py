#!/usr/bin/env python3
"""Checks of the benchmark's own checker, run from the repository root::

    python3 bench/selfcheck.py

1. A deliberately corrupted copy of the stored ``coastal_n1`` seed-0
   reference (one posterior, one raw score and the fitted priors moved by
   1e-9) must make the run report failures and ``correct: false``.
2. Every end-to-end metric in ``BENCHMARK.json`` must be printed with its
   unit by an untraced run, and every per-layer metric by a traced run of
   ``corpus_extract`` seed 0, which must also match its stored reference.
3. A copy of only ``BENCHMARK.json`` and ``bench/`` (no library source) must
   exit non-zero without printing a result.

Exits 0 when all three hold.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import load_reference, save_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _missing(result: dict, specs: list[dict]) -> list[str]:
    metrics = result["metrics"]
    return [
        m["name"]
        for m in specs
        if m["name"] not in metrics or metrics[m["name"]].get("unit") != m["unit"]
    ]


def check_corrupted_reference(tmp: Path) -> list[str]:
    reference = load_reference(BENCH_DIR / "reference" / "coastal_n1" / "seed0.npz")
    for prefix in ("post:", "raw:", "priors:"):
        key = next(k for k in sorted(reference) if k.startswith(prefix))
        reference[key][0] += 1e-9
    corrupted = tmp / "corrupted.npz"
    save_reference(corrupted, reference)
    proc = _run(["--workload", "coastal_n1", "--seed", "0", "--seconds", "3",
                 "--reference", str(corrupted)])
    result = _result(proc)
    problems = []
    if result["correct"] or not result["failed"]:
        problems.append("corrupted reference not caught")
    failures = [line for line in proc.stdout.splitlines() if line.startswith("# FAILED")]
    for prefix in ("post:", "raw:", "priors:"):
        if not any(f"FAILED {prefix}" in line for line in failures):
            problems.append(f"corrupted {prefix} reference entry not caught")
    missing = _missing(result, SPEC["end_to_end"])
    if missing:
        problems.append(f"untraced run lacks end-to-end metrics {missing}")
    return problems


def check_per_layer() -> list[str]:
    result = _result(
        _run(["--workload", "corpus_extract", "--seed", "0", "--seconds", "3", "--trace", "1"])
    )
    problems = [] if result["correct"] else [f"traced run failed {result['failed']} operations"]
    missing = _missing(result, SPEC["per_layer"])
    return problems + ([f"traced run lacks per-layer metrics {missing}"] if missing else [])


def check_bare_directory(tmp: Path) -> list[str]:
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(
        BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("_work", "traces", "__pycache__")
    )
    proc = _run(["--workload", "coastal_n1", "--seed", "0", "--seconds", "3"], cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["benchmark ran without the library source"]
    return []


def main() -> int:
    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "_work") as name:
        tmp = Path(name)
        problems = check_corrupted_reference(tmp) + check_per_layer() + check_bare_directory(tmp)
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print("ok: corrupted reference caught, every metric printed, bare copy refused")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
