"""metalabel benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition of the workload is a fresh
`python3 perfbench/worker.py` process that imports `metalabel` from the
checkout's `src/` and runs the workload's CLI commands through `cli.main`.
Repetitions continue while the next one is expected to end within S seconds.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off. --trace 1 alternates untraced and traced repetitions and reports
the per-layer metrics. Every output is checked. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}; an operation is
one CLI command or one output check. The lines before it print every metric
with its unit, the fail share, each failed check and the machine.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics, percentile  # noqa: E402
from workloads import WORKLOADS, Plan, TrainOut  # noqa: E402

RUN_LIMIT_S = 165.0  # a run must end within 180 s
# one process, one BLAS thread: the load never exceeds nproc and a second
# BLAS thread cannot add scheduling noise on a small shared box
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass
class Rep:
    traced: bool
    ok: bool = False
    setup_s: float = 0.0
    run_s: float = 0.0
    rows: int = 0
    epochs: list[tuple[str, float]] = field(default_factory=list)  # (phase, wall_time)
    test_acc: float = 0.0
    rss_mb: float = 0.0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    fingerprint: str = ""
    layers: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# one repetition


def _check(rep: Rep, name: str, fn) -> object:
    """Run one output check; a raise or a falsy result counts as a failure."""
    try:
        value = fn()
        ok, detail = bool(value), ""
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        value, ok, detail = None, False, f"{type(e).__name__}: {e}"
    rep.checks.append((name, ok, detail))
    return value if ok else None


def _read_summary(path: Path) -> dict:
    with open(path / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    summary.pop("timestamp", None)
    return summary


def _read_metrics(path: Path) -> list[dict]:
    with open(path / "metrics.csv", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_train(rep: Rep, run_dir: Path, out: TrainOut, fp: list) -> dict | None:
    rows = _check(rep, f"{out.out_dir}: metrics.csv has {out.total_epochs} epochs, "
                       f"warm-up first", lambda: _epochs_ok(run_dir, out))
    summary = _check(rep, f"{out.out_dir}: summary.json readable",
                     lambda: _read_summary(run_dir))
    if rows:
        rep.epochs += [(r["phase"], float(r["wall_time"])) for r in rows]
        rep.rows += out.n_train * out.total_epochs
        fp.append([{k: v for k, v in r.items() if k != "wall_time"} for r in rows])
    fp.append(summary)
    return summary


def _epochs_ok(run_dir: Path, out: TrainOut) -> list[dict] | None:
    rows = _read_metrics(run_dir)
    phases = [r["phase"] for r in rows]
    want = ["warmup"] * out.warmup_epochs + ["phase2"] * (out.total_epochs - out.warmup_epochs)
    return rows if phases == want else None


def _expected_eval(run_dir: Path, split: str) -> str:
    summary = _read_summary(run_dir)
    if split == "train":
        row = _read_metrics(run_dir)[summary["selected_epoch"]]
        return f"{float(row['train_acc']):.6f}"
    return f"{summary[split + '_accuracy']:.6f}"


def run_rep(plan: Plan, rep_dir: Path, traced: bool, timeout: float) -> Rep:
    rep = Rep(traced=traced)
    rep_dir.mkdir(parents=True)
    for name, body in plan.files.items():
        (rep_dir / name).write_text(json.dumps(body, indent=2) + "\n", encoding="utf-8")
    worker_plan = {"src": str(ROOT / "src"), "trace": traced, "steps": plan.steps,
                   "spans_out": "spans.json"}
    (rep_dir / "plan.json").write_text(json.dumps(worker_plan), encoding="utf-8")
    commands = [s for s in plan.steps if "argv" in s]

    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "plan.json",
                               "report.json"], cwd=rep_dir, env={**os.environ, **WORKER_ENV},
                              capture_output=True, text=True, timeout=timeout)
        error = proc.stderr.strip()[-400:] if proc.returncode else ""
    except subprocess.TimeoutExpired:
        error = f"worker did not finish within {timeout:.0f} s"
    if error:
        rep.checks += [(f"`metalabel {c['argv'][0]}` exits 0", False, error) for c in commands]
        return rep
    with open(rep_dir / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    steps = report["steps"]
    for step in steps:
        rep.checks.append((f"`metalabel {step['argv'][0]}` exits 0", step["rc"] == 0,
                           step["stderr"].strip()[-400:]))
    first = steps[plan.setup_steps]
    rep.setup_s = first["t0"] - t_spawn
    rep.run_s = steps[-1]["t1"] - first["t0"]
    rep.rss_mb = report["maxrss_kib"] / 1024

    fp: list = [[s["stdout"] for s in steps]]
    accs = []
    for out in plan.trains:
        summary = _check_train(rep, rep_dir / out.out_dir, out, fp)
        if summary:
            accs.append(summary["test_accuracy"])
    for cmd, step in zip(commands, steps):
        if "eval_of" in cmd:
            run_dir, split = cmd["eval_of"]
            _check(rep, f"`eval --split {split}` prints the {run_dir} {split} accuracy",
                   lambda: step["stdout"].strip() == _expected_eval(rep_dir / run_dir, split))
    if plan.sweep_dir:
        sweep_dir = rep_dir / plan.sweep_dir
        cells = _check(rep, f"aggregate.csv has one row per seed {plan.sweep_seeds}",
                       lambda: _aggregate_ok(sweep_dir, plan.sweep_seeds))
        for cell in cells or []:
            out = TrainOut(f"{plan.sweep_dir}/{cell['cell_id']}",
                           plan.sweep_cell.warmup_epochs, plan.sweep_cell.total_epochs,
                           plan.sweep_cell.n_train)
            summary = _check_train(rep, sweep_dir / cell["cell_id"], out, fp)
            if summary:
                accs.append(summary["test_accuracy"])
        fp.append(cells)
    rep.test_acc = statistics.fmean(accs) if accs else 0.0
    rep.fingerprint = hashlib.sha256(
        json.dumps(fp, sort_keys=True).encode()).hexdigest()
    if traced:
        with open(rep_dir / "spans.json", encoding="utf-8") as fh:
            rep.layers = layer_metrics(json.load(fh))
    rep.ok = all(ok for _, ok, _ in rep.checks)
    return rep


def _aggregate_ok(sweep_dir: Path, seeds: list[int]) -> list[dict] | None:
    with open(sweep_dir / "aggregate.csv", newline="", encoding="utf-8") as fh:
        cells = list(csv.DictReader(fh))
    return cells if sorted(int(c["seed"]) for c in cells) == sorted(seeds) else None


# ---------------------------------------------------------------------------
# one benchmark run


def machine_info() -> dict:
    """Versions and settings, from one untimed worker import that also fills
    the checkout's bytecode cache before anything is timed."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--info",
                           str(ROOT / "src")], env={**os.environ, **WORKER_ENV},
                          capture_output=True, text=True, timeout=60, check=True)
    info = json.loads(proc.stdout)
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = git.stdout.strip() or commit
        except OSError:  # no git on this machine
            pass
    info["commit"] = commit
    return info


def run_plan(name: str, plan: Plan, seed: int, seconds: float, trace: bool,
             spec: dict) -> tuple[dict, list[str]]:
    """Repeat `plan` for about `seconds`; return the result object and the
    human-readable lines printed before it."""
    t_start = time.monotonic()
    lines = [f"# machine {json.dumps(machine_info(), sort_keys=True)}"]
    run_dir = ROOT / ".bench_runs" / f"{name}-seed{seed}-pid{os.getpid()}"
    reps: list[Rep] = []
    try:
        t_begin = time.monotonic()
        while True:
            traced = trace and len(reps) % 2 == 1
            left = RUN_LIMIT_S - (time.monotonic() - t_start)
            rep = run_rep(plan, run_dir / f"rep{len(reps)}", traced, left)
            shutil.rmtree(run_dir / f"rep{len(reps)}", ignore_errors=True)
            reps.append(rep)
            elapsed = time.monotonic() - t_begin
            nxt = elapsed / len(reps)
            if time.monotonic() - t_start + nxt > RUN_LIMIT_S:
                break
            if len(reps) >= (2 if trace else 1) and elapsed + nxt > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass

    checks = [c for r in reps for c in r.checks]
    for r in reps[1:]:
        checks.append((f"{'traced' if r.traced else 'untraced'} repetition gives the "
                       f"outputs of the first",
                       bool(r.fingerprint) and r.fingerprint == reps[0].fingerprint, ""))
    failed = sum(not ok for _, ok, _ in checks)

    plain = [r for r in reps if not r.traced and r.ok] or reps
    if trace:
        traced = [r for r in reps if r.traced]
        docs = [r.layers for r in traced if r.layers] or [layer_metrics({"spans": []})]
        values = {k: statistics.median(d[k] for d in docs) for k in docs[0]}
        for phase in ("warmup", "phase2"):
            values[f"harness.{phase}_epoch_s.p50"] = percentile(
                [t for r in plain for p, t in r.epochs if p == phase], 50)
        values["trace.overhead"] = (
            statistics.median(r.run_s for r in traced) / statistics.median(r.run_s for r in plain)
            - 1 if traced and all(r.run_s for r in plain) else 0.0)
        wanted = spec["per_layer"]
    else:
        epochs = [t for r in plain for _, t in r.epochs]
        values = {
            "setup_s": statistics.median(r.setup_s for r in plain),
            "run_s": statistics.median(r.run_s for r in plain),
            "rows_per_s": statistics.median(r.rows / r.run_s if r.run_s else 0.0 for r in plain),
            "epoch_s.p50": percentile(epochs, 50),
            "epoch_s.p80": percentile(epochs, 80),
            "test_acc": plain[0].test_acc,
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    lines.append(f"# workload {name} seed {seed} trace {int(trace)}: {len(reps)} repetitions "
                 f"({sum(r.traced for r in reps)} traced) in {time.monotonic() - t_begin:.1f} s")
    lines += [f"# rep {i}{' traced' if r.traced else ''}: setup_s {r.setup_s:.4f} "
              f"run_s {r.run_s:.4f}" for i, r in enumerate(reps)]
    for k, m in metrics.items():
        lines.append(f"{k} {m['value']:.6g} {m['unit']}")
    lines.append(f"fail_share {failed / len(checks):.4g} share ({failed} of {len(checks)} "
                 f"operations failed)")
    lines += [f"FAILED {n}: {d}" for n, ok, d in checks if not ok]
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "metalabel" / "__init__.py").is_file():
        print(f"error: no metalabel sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    result, lines = run_plan(args.workload, WORKLOADS[args.workload](args.seed), args.seed,
                             args.seconds, bool(args.trace), spec)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
