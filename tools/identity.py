"""Check that two source trees of metalabel produce byte-identical outputs.

Usage: python tools/identity.py PARENT_SRC CHANGE_SRC

Each argument is a tree's `src` directory. The same flows run through
`metalabel.cli.main` once per tree, each tree in its own subprocess with
its `src` first on sys.path and its own scratch directory as the working
directory (so every path an output mentions is relative and equal):

- `train` on the default config, `--seed 0 --baseline`
- `train` on tiny configs: uniform noise with `--baseline`; feature-dependent
  noise with `--unlabeled-fraction 0.5`; the `logits` extractor with an adam
  classifier and the entropy term off; a classifier without hidden layers
- `train --resume` from a checkpoint written after epoch 2 (the run resumes
  at epoch 3, in phase 2), then `gen-data` and `eval` of that checkpoint, on
  the written file (whose arrays a tree may read from its sidecar) and on a
  copy of it without the sidecar (which the tree parses)
- `train --resume` from a checkpoint written after epoch 0, in its own
  directory: the run resumes inside warm-up, takes a cross-entropy epoch on
  the restored classifier and builds the extractor and generator from it
- `train --resume` of the `logits` and the no-hidden-layer configs from a
  checkpoint written after epoch 2, each in its own directory: the run
  resumes in phase 2 with the whole classifier, or no layer, as extractor
- a 4-seed `sweep`, at `--jobs 1` and at `--jobs 2`
- `gradcheck --trials 20`
- once both trees have run, `eval` of that checkpoint on another copy of the
  written file, beside which sits the sidecar the *other* tree wrote: a tree
  reads it, or, where its records differ from the ones the tree writes,
  parses the text and writes its own

Every file written, and every call's exit status, stdout and stderr, are
then compared after normalising what is meant to vary between runs: the
`wall_time` column of metrics CSVs is dropped, the `wall_time` values in
checkpoint logs read 0 and the `timestamp` in summaries reads "", and the
dataset sidecars (`.*.parsed`, derived data) are left out. Prints
one line per differing file and exits 1 on any difference, 0 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import fnmatch
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

TINY = {
    "schema_version": 1,
    "seed": 0,
    "data": {"n": 320, "dims": 5, "classes": 2, "center_scale": 4.0,
             "train_frac": 0.75, "meta_frac": 0.125, "test_frac": 0.125},
    "noise": {"kind": "uniform", "ratio": 0.3},
    "model": {"hidden": [6, 4]},
    "train": {"batch_size": 20, "warmup_epochs": 2, "total_epochs": 6,
              "lr_schedule": [[0, 0.01]], "meta_lr": 0.01, "oracle_epochs": 10},
}
CALLS = "calls.json"


def _tiny(noise=None, **train) -> dict:
    cfg = json.loads(json.dumps(TINY))
    cfg["noise"].update(noise or {})
    cfg["train"].update(train)
    return cfg


CONFIGS = {
    "default.json": {"schema_version": 1},
    "uniform.json": _tiny(),
    "fd.json": _tiny({"kind": "feature-dependent", "ratio": 0.4}),
    "logits.json": _tiny(extractor_features="logits", classifier_optimizer="adam",
                         entropy_loss=False),
    "nohidden.json": {**_tiny(), "model": {"hidden": []}},
    "sweep.json": {"schema_version": 1, "grid": {"seed": [0, 1, 2, 3]},
                   "base": {"schema_version": 1, "noise": {"ratio": 0.6}}},
}
FLOWS = [
    ["train", "--config", "default.json", "--out", "default", "--seed", "0", "--baseline"],
    ["train", "--config", "uniform.json", "--out", "uniform", "--baseline"],
    ["train", "--config", "fd.json", "--out", "fd", "--unlabeled-fraction", "0.5"],
    ["train", "--config", "logits.json", "--out", "logits"],
    ["train", "--config", "nohidden.json", "--out", "nohidden"],
    ["train", "--config", "uniform.json", "--out", "resume", "--resume"],
    ["train", "--config", "uniform.json", "--out", "resume-warmup", "--resume"],
    ["train", "--config", "logits.json", "--out", "resume-logits", "--resume"],
    ["train", "--config", "nohidden.json", "--out", "resume-nohidden", "--resume"],
    ["gen-data", "--config", "uniform.json", "--out", "uniform.dsv"],
    ["eval", "--checkpoint", "resume/checkpoint.json", "--dataset", "uniform.dsv"],
    ["eval", "--checkpoint", "resume/checkpoint.json", "--dataset", "unparsed.dsv"],
    ["sweep", "--config", "sweep.json", "--out", "sweep-jobs1"],
    ["sweep", "--config", "sweep.json", "--out", "sweep-jobs2", "--jobs", "2"],
    ["gradcheck", "--trials", "20"],
]
CROSSED = ["eval", "--checkpoint", "resume/checkpoint.json", "--dataset", "crossed.dsv"]
# directory: the config and the epoch the run resumes at
RESUMES = {"resume": ("uniform.json", 3), "resume-warmup": ("uniform.json", 1),
           "resume-logits": ("logits.json", 3), "resume-nohidden": ("nohidden.json", 3)}


class _Stop(Exception):
    pass


def _call(cli, argv: list[str]) -> dict:
    """`cli.main(argv)`'s exit status and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_flows(src: str, work: str) -> None:
    """Run every flow with the package under `src`, inside `work`."""
    sys.path.insert(0, os.path.abspath(src))
    os.chdir(work)
    from metalabel import cli, harness

    for name, cfg in CONFIGS.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)

    for directory, (name, epoch) in RESUMES.items():
        def stop(row, epoch=epoch):
            if row.epoch == epoch:
                raise _Stop

        os.makedirs(directory)
        try:
            harness.run_experiment(harness.TrainConfig.from_dict(CONFIGS[name]),
                                   checkpoint_path=f"{directory}/checkpoint.json",
                                   on_epoch=stop)
        except _Stop:
            pass
    calls = []
    for argv in FLOWS:
        if "unparsed.dsv" in argv:
            shutil.copyfile("uniform.dsv", "unparsed.dsv")  # the text alone
        calls.append(_call(cli, argv))
    with open(CALLS, "w", encoding="utf-8") as fh:
        json.dump(calls, fh, indent=1)


def run_crossed(src: str, work: str, other: str) -> None:
    """The CROSSED eval with the package under `src`, inside `work`, on a
    copy of the file written there beside the sidecar written in `other`;
    its call is appended to the CALLS record."""
    sys.path.insert(0, os.path.abspath(src))
    os.chdir(work)
    from metalabel import cli

    shutil.copyfile("uniform.dsv", "crossed.dsv")
    shutil.copyfile(os.path.join(other, ".uniform.dsv.parsed"), ".crossed.dsv.parsed")
    with open(CALLS, encoding="utf-8") as fh:
        calls = json.load(fh)
    calls.append(_call(cli, CROSSED))
    with open(CALLS, "w", encoding="utf-8") as fh:
        json.dump(calls, fh, indent=1)


def _normalised(path: str) -> list:
    """A file's comparable content, as a list of lines or rows."""
    name = os.path.basename(path)
    if name.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows and "wall_time" in rows[0]:
            drop = rows[0].index("wall_time")
            rows = [r[:drop] + r[drop + 1:] for r in rows]
        return rows
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if name == "checkpoint.json":
        text = re.sub(r'"wall_time": [^,}]+', '"wall_time": 0', text)
    elif name.endswith("summary.json"):
        text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)
    if name == CALLS:
        return json.load(io.StringIO(text))
    return text.split("\n")


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, fs in os.walk(root) for f in fs
            if not fnmatch.fnmatch(f, ".*.parsed")}


def compare(a: str, b: str) -> list[str]:
    """One line per difference between the output trees a and b."""
    fa, fb = _files(a), _files(b)
    diffs = [f"only in parent: {p}" for p in sorted(fa - fb)]
    diffs += [f"only in change: {p}" for p in sorted(fb - fa)]
    for rel in sorted(fa & fb):
        xa, xb = _normalised(os.path.join(a, rel)), _normalised(os.path.join(b, rel))
        if xa == xb:
            continue
        if len(xa) != len(xb):
            diffs.append(f"{rel}: {len(xa)} vs {len(xb)} lines")
            continue
        i, u, v = next((i, u, v) for i, (u, v) in enumerate(zip(xa, xb)) if u != v)
        if isinstance(u, dict):  # a call record
            keys = [k for k in u if u[k] != v.get(k)]
            diffs.append(f"{rel}: `{' '.join(u['argv'])}`: {', '.join(keys)} differ")
        else:
            diffs.append(f"{rel}: line {i + 1} differs: {str(u)[:200]!r} vs {str(v)[:200]!r}")
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--run":
        run_flows(argv[1], argv[2])
        return 0
    if len(argv) == 4 and argv[0] == "--crossed":
        run_crossed(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        works = [os.path.join(tmp, label) for label in ("parent", "change")]
        runs = [["--run", src, work] for src, work in zip(argv, works)]
        runs += [["--crossed", src, work, other]
                 for src, work, other in zip(argv, works, works[::-1])]
        for work in works:
            os.makedirs(work)
        for run in runs:
            done = subprocess.run([sys.executable, os.path.abspath(__file__), *run])
            if done.returncode != 0:
                print(f"the flows failed to run on {run[1]} (exit {done.returncode})")
                return 1
        diffs = compare(*works)
        calls = len(FLOWS) + 1
        files = len(_files(works[0]))
    for line in diffs:
        print(line)
    print(f"{calls} calls, {files} files: "
          + (f"{len(diffs)} differences" if diffs else "identical"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
