"""End-to-end + per-layer benchmark of the reproduction.

    python3 perfbench/run.py --workload paper_quick --seed 0 --seconds 16 --trace 0

Run from the repository root.  Every workload runs in fresh worker
processes (``perfbench/worker.py``) with the run cache off and pointed at
a private temporary directory, no kernel-backend override, and ``src`` on
``PYTHONPATH``.  ``setup_s`` is the median of several fresh-process
set-ups.  Timings are in reference seconds: host seconds rescaled by the
host-speed probe of ``perfbench/hostspeed.py``.  Human-readable lines and
a manifest come first; the last line of standard output is the JSON
result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_quick", "presentation_soak", "mobile_crowd")

#: Fresh-process set-ups timed per run, besides the measuring worker's own.
SETUP_PROBES = 4
#: Whole-run deadline: workers still running then are killed.
DEADLINE_S = 178.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "slice_s.p50": "s", "slice_s.tail": "s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _worker(mode: str, args, env: dict, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if mode == "measure":
        command += ["--trace", str(args.trace)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the deadline") from exc
    if done.returncode != 0:
        raise BenchError(f"{mode} worker exited {done.returncode}:\n"
                         f"{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _reference(workload: str):
    """Seed-0 digests recorded for this workload, if any."""
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle).get(workload)


def judge(workload: str, seed: int, worker: dict) -> dict:
    """Failures per op: the workload's own checks plus, at seed 0, the
    recorded reference digests."""
    failures = dict(worker["failures"])
    reference = _reference(workload) if seed == 0 else None
    if reference is not None:
        # Later repetitions already match rep0 or are failures of their own.
        for op in sorted(set(reference) | set(worker["digests"])):
            if worker["digests"].get(op) != reference.get(op):
                for rep in range(worker["manifest"]["repetitions"]):
                    failures.setdefault(f"rep{rep}/{op}",
                                        "differs from the seed-0 reference")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from a repository checkout",
              file=sys.stderr)
        return 2

    commit = _git_commit()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="runcache-", dir=scratch)
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_CACHE", "REPRO_KERNEL_BACKEND")}
    env.update(REPRO_NO_CACHE="1", REPRO_CACHE_DIR=cache_dir,
               PYTHONPATH=str(ROOT / "src"))
    try:
        # A traced run reports no set-up time, so it spends none on it.
        probes = 0 if args.trace else SETUP_PROBES
        setups = [_worker("setup", args, env, deadline)["setup"]
                  for _ in range(probes)]
        worker = _worker("measure", args, env, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    setups.append(worker["setup"])
    failures = judge(args.workload, args.seed, worker)
    attempted = worker["attempted"]
    slices = worker["slices"]
    metrics = {
        "wall_s": worker["wall_s"],
        "setup_s": statistics.median(s["ref_s"] for s in setups),
        "peak_rss_mb": worker["peak_rss_mb"],
        "slice_s.p50": slices.get("p50"),
        "slice_s.tail": slices.get("tail"),
    }
    correct = not failures and all(v is not None for v in metrics.values())
    manifest = dict(worker["manifest"], commit=commit,
                    setup_samples=setups, rep_walls_s=worker["rep_walls_s"],
                    rep_host_walls_s=worker["rep_host_walls_s"],
                    rep_scales=worker["rep_scales"],
                    slice_samples=slices["count"],
                    slice_tail_percentile=slices.get("tail_percentile"),
                    events=worker["events"])

    print(f"workload {args.workload} seed {args.seed} "
          f"{manifest['repetitions']} x {manifest['length']} "
          f"{manifest['length_unit']}".rstrip())
    for name, value in metrics.items():
        print(f"  {name:<14} {value} {END_TO_END_UNITS[name]}")
    print(f"  slices: {slices['count']} of {manifest['slice_sim_s']} sim s, "
          f"tail = p{slices.get('tail_percentile')}")
    print(f"  ops attempted {attempted} failed {len(failures)} "
          f"fail_share {len(failures) / max(attempted, 1)}")
    for op, why in sorted(failures.items()):
        print(f"  FAILED {op}: {why}")

    result_metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                      for name, value in metrics.items()}
    if args.trace:
        layers = worker["layers"]
        if not layers["identical"]:
            correct = False
            print("  FAILED traced run's outcomes differ from untraced")
        result_metrics = {}
        for name, value in layers["metrics"].items():
            unit = _layer_unit(name)
            result_metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<36} {value} {unit}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": result_metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("rate", "overhead")):
        return "ratio"
    if name.endswith("us_per_event"):
        return "us"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
