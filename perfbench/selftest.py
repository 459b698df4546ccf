"""Self-tests of the benchmark itself, at short length (under a minute).

    python3 perfbench/selftest.py            # run the checks
    python3 perfbench/selftest.py --record   # rewrite reference.json

Checks that one seed gives one outcome (twice in one process, and across
fresh processes), that the slice probe (with and without its sub-steps
and host-speed probes) does not change outcomes, that
different seeds change the soak's and the crowd's inputs, and that the
``paper_quick`` seed offset reaches every experiment that takes a seed.
``--record`` measures every workload at seed 0 through ``run.py``'s
worker and stores its digests as the seed-0 reference.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from repro.experiments import report  # noqa: E402
from repro.experiments.harness import get_experiment, list_experiments  # noqa: E402

#: Cheap experiments for the paper_quick determinism check (well under
#: a second each; the heavy six take about five seconds each).
CHEAP_EXPERIMENTS = ("E10-energy", "E11", "E3", "E4-stale", "E6-recovery")
SHORT = {"presentation_soak": 150.0, "mobile_crowd": 3.0}


def expect(condition: bool, message: str) -> None:
    """A check that also runs under ``python -O``."""
    if not condition:
        raise AssertionError(message)


def _short(name: str, seed: int):
    workload = workloads.build(name, seed)
    if name == "paper_quick":
        workload.plan = [(eid, kw) for eid, kw in workload.plan
                         if eid in CHEAP_EXPERIMENTS]
    else:
        workload.length = SHORT[name]
    return workload


def _digests(name: str, seed: int, sliced: bool = True,
             probed: bool = False) -> dict:
    """Outcome digests of a short run: plain, sliced, or sliced in
    sub-steps with the host-speed probe ticking between them."""
    workload = _short(name, seed)
    probe = workloads.RunProbe(workloads.SLICE_S[name],
                               hostspeed.HostSpeed() if probed else None)
    if sliced:
        probe.install()
    try:
        outcome = workload.run(probe)
    finally:
        probe.uninstall()
    expect(not outcome.failures, f"{name} seed {seed}: {outcome.failures}")
    return outcome.digests


def check_same_seed_same_outcome() -> None:
    for name in WORKLOADS:
        first, second = _digests(name, 0), _digests(name, 0)
        expect(first == second, f"{name}: same seed, different outcome")


def check_probe_does_not_perturb() -> None:
    for name in WORKLOADS:
        plain = _digests(name, 0, sliced=False)
        expect(_digests(name, 0) == plain,
               f"{name}: slicing Simulator.run changed the outcome")
        expect(_digests(name, 0, probed=True) == plain,
               f"{name}: sub-steps and host-speed probes changed the outcome")


def check_seeds_change_inputs() -> None:
    def positions(seed):
        room = workloads.build("mobile_crowd", seed).room
        return [tuple(room.world.position_of(m.address)) for m in room.macs]

    expect(positions(0) != positions(1), "crowd placement ignores the seed")
    for name in ("presentation_soak", "mobile_crowd"):
        expect(_digests(name, 0) != _digests(name, 1),
               f"{name}: seeds 0 and 1 give the same outcome")


def check_quick_seed_offset() -> None:
    seedless = []
    for eid in list_experiments():
        params = inspect.signature(get_experiment(eid)).parameters
        base = workloads.quick_kwargs(eid, 0)
        expect(base == report._QUICK_OVERRIDES.get(eid, {}),
               f"{eid}: seed 0 is not the quick report")
        shifted = workloads.quick_kwargs(eid, 3)
        if "seed" in params:
            want = base.get("seed", params["seed"].default) + 3
            expect(shifted["seed"] == want, f"{eid}: seed not offset")
        if "seeds" in params:
            want = tuple(s + 3 for s in base.get(
                "seeds", params["seeds"].default))
            expect(shifted["seeds"] == want, f"{eid}: seeds not offset")
        if "seed" not in params and "seeds" not in params:
            expect(shifted == base, f"{eid}: seedless yet changed")
            seedless.append(eid)
    print(f"  experiments without a seed: {', '.join(seedless)}")


def check_fresh_processes_agree() -> None:
    """Two fresh worker processes, seed 0, identical digests."""
    for name in ("presentation_soak", "mobile_crowd"):
        runs = [_worker(name, 0, seconds=1)["digests"] for _ in range(2)]
        expect(runs[0] == runs[1], f"{name}: processes disagree")


def _worker(name: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ, REPRO_NO_CACHE="1", PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_CACHE", None)
    env.pop("REPRO_KERNEL_BACKEND", None)
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "measure", "--workload",
         name, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        timeout=300)
    return json.loads(done.stdout.strip().splitlines()[-1])


def record() -> None:
    reference = {}
    for name in WORKLOADS:
        result = _worker(name, 0, seconds=1)
        if result["failures"]:
            raise SystemExit(f"{name}: not recording a failing run: "
                             f"{result['failures']}")
        reference[name] = result["digests"]
        print(f"  recorded {name}: {len(result['digests'])} ops")
    with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true")
    if parser.parse_args().record:
        record()
        return 0
    checks = [check_quick_seed_offset, check_same_seed_same_outcome,
              check_probe_does_not_perturb, check_seeds_change_inputs,
              check_fresh_processes_agree]
    for check in checks:
        print(check.__name__, flush=True)
        check()
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
