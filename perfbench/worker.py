"""One benchmark repetition in a fresh interpreter.

    python3 worker.py PLAN.json REPORT.json   run the plan, write a report
    python3 worker.py --info SRC              print the machine and library versions

The plan names the checkout's `src` directory, the `metalabel` commands to run
in order (through `cli.main`, in this process), and whether to trace. Times are
`time.monotonic()` readings, which the parent process can compare with its own.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time


def _import_metalabel(src: str):
    sys.path.insert(0, src)
    import metalabel
    from metalabel import cli
    where = os.path.realpath(metalabel.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"metalabel was imported from {where}, not from {src}")
    return cli


def info(src: str) -> dict:
    _import_metalabel(src)
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def run_plan(plan: dict) -> dict:
    cli = _import_metalabel(plan["src"])
    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    steps = []
    for step in plan["steps"]:
        if "truncate" in step:  # fault injection used by the smoke test
            with open(step["truncate"], "r+b") as fh:
                fh.truncate(os.path.getsize(step["truncate"]) // 2)
            continue
        out, err = io.StringIO(), io.StringIO()
        t0 = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(step["argv"])
            except SystemExit as e:  # argparse rejects bad arguments this way
                rc = e.code if isinstance(e.code, int) else 2
        steps.append({"argv": step["argv"], "rc": rc, "t0": t0, "t1": time.monotonic(),
                      "stdout": out.getvalue(), "stderr": err.getvalue()})
    report = {"steps": steps,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.dump(plan["spans_out"])
    return report


def main(argv: list[str]) -> int:
    if argv[0] == "--info":
        print(json.dumps(info(argv[1])))
        return 0
    plan_path, report_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    report = run_plan(plan)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
