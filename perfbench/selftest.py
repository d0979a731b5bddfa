"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

1. Runs every workload of BENCHMARK.json briefly, plain and traced, and
   checks that each run exits 0, ends with a result line holding exactly
   the contract's keys, emits every metric of BENCHMARK.json with its unit,
   and passes all its checks. The traced run's checks include the one that
   its traced repetitions gave the same outputs as the plain ones.
2. Copies BENCHMARK.json and the benchmark's directories into an empty
   directory and checks that the benchmark exits non-zero there without
   printing a result.

Exits 0 when every check holds. Takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd, spec, workload, trace, seconds=1):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{w['name']} --trace {trace}"
            res = bench(ROOT, spec, w["name"], trace)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {res.returncode}\n{res.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(result)}")
                continue
            wanted = {(m["name"], m["unit"]) for m in spec[group]}
            got = {(k, v["unit"]) for k, v in result["metrics"].items()}
            if wanted != got:
                problems.append(
                    f"{tag}: missing {sorted(wanted - got)}, extra {sorted(got - wanted)}"
                )
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: checks failed: {lines[-2] if len(lines) > 1 else ''}")
            print(f"{tag}: {result['attempted']} checks, {result['failed']} failed", flush=True)

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        res = bench(bare, spec, spec["workloads"][0]["name"], 0)
        if res.returncode == 0 or any(ln.startswith("{") for ln in res.stdout.splitlines()):
            problems.append(f"bare directory: exit {res.returncode}, stdout {res.stdout[-500:]!r}")
        print(f"bare directory: exit {res.returncode}, {res.stderr.strip()}", flush=True)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
