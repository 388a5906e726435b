"""Smoke test of the benchmark itself, on tiny configs (about 10 s).

    python3 perfbench/smoke.py

Checks that:
- every workload, shrunk to a tiny config, emits every metric that
  BENCHMARK.json names, with its unit, untraced and traced, and no operation
  fails;
- an injected fault (the checkpoint truncated before `eval`) raises the fail
  share above 0;
- the runner exits non-zero and prints no result in a directory that holds
  only BENCHMARK.json and the benchmark's files.
Exits 1 if any check fails.
"""

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, run_plan
from workloads import WORKLOADS, quickstart_fd40

TINY = {"data": {"n": 600},
        "train": {"batch_size": 16, "warmup_epochs": 1, "total_epochs": 3, "oracle_epochs": 2}}


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name, workload in WORKLOADS.items():
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_plan(name, workload(0, TINY), 0, 0, bool(trace), spec)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(got == want, f"{name} --trace {trace}: every {kind} metric with its unit")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} --trace {trace}: no operation fails "
                   f"({result['failed']} of {result['attempted']})")
            if result["failed"]:
                print("\n".join(lines))

    plan = quickstart_fd40(0, TINY)
    plan.steps.insert(-1, {"truncate": "runs/fd40/checkpoint.json"})
    result, _ = run_plan("quickstart-fd40", plan, 0, 0, False, spec)
    expect(result["failed"] > 0 and not result["correct"],
           f"truncated checkpoint before eval: fail_share "
           f"{result['failed']}/{result['attempted']} > 0")

    bare = ROOT / ".bench_runs" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:  # other runs still use it
            pass
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode} and no result")

    print(f"{len(failures)} smoke check(s) failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
