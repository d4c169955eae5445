"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every workload passes its output checks, that each run
reports exactly the metrics BENCHMARK.json names, that the per-layer
counts are equal across two traced runs, and that the harness refuses to
run, without printing a result, in a tree that holds only the benchmark.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(root: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        results = {}
        for trace, runs in ((0, 1), (1, 2)):
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            for k in range(runs):
                code, out = run(ROOT, w, trace)
                if code != 0:
                    problems.append(f"{w} trace={trace}: exit {code}")
                    continue
                res = results[trace, k] = result(out)
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"{w} trace={trace}: checks failed: {res}")
                got = {name: m["unit"] for name, m in res["metrics"].items()}
                if got != wanted:
                    problems.append(f"{w} trace={trace}: metrics {sorted(set(got) ^ set(wanted))} differ")
        if (1, 0) in results and (1, 1) in results:
            counts = [
                {n: m["value"] for n, m in results[1, k]["metrics"].items() if m["unit"] == "count"}
                for k in (0, 1)
            ]
            if counts[0] != counts[1]:
                diff = sorted(n for n in counts[0] if counts[0][n] != counts[1].get(n))
                problems.append(f"{w}: per-layer counts differ between traced runs: {diff}")
        print(f"{w}: done", flush=True)

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run(bare, spec["workloads"][0]["name"], 0)
    if code == 0 or out.strip():
        problems.append(f"tree without the program: exit {code}, stdout {out!r}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
