"""Per-layer attribution of a cProfile run, and per-layer counters.

Self time is attributed to the *defining* module of every profiled
function, so private handlers the kernel dispatches into (``mac._finish``,
``linkcache._terms``) are billed to their own package, not to the kernel.
Time in Python functions defined outside ``repro`` (stdlib, NumPy) is
billed to the ``repro`` modules that called them, in proportion to the
time each caller spent in them; C functions are not profiled separately
(``builtins=False``), so their time is already in their caller's.  Whatever cannot be traced back to a
``repro`` module (the benchmark's own code, profiler start-up, the
profiler's unattributed overhead) is the ``unattributed`` remainder, so
layer self times plus ``unattributed`` equal the traced wall time.

Packages are those of ``repro.checks.layers.LAYER_MAP``; the LPC fold maps
each onto a layer of the paper's model (device column), with the ``user``
package mapped module by module.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.checks.layers import LAYER_MAP

#: The packages reported by name (every ranked package except the static
#: checker and the CLI, which no workload executes).
PACKAGES = ("kernel", "env", "phys", "net", "discovery", "services", "user",
            "resource", "core", "metrics", "telemetry", "experiments")

LPC_LAYERS = ("environment", "physical", "resource", "abstract",
              "intentional", "substrate")

#: Package -> LPC layer.  ``net`` is the "Net" box of the resource layer
#: (Figure 3); discovery, services and the model-checking core are
#: application logic (abstract layer); the kernel and the measurement and
#: harness packages are the simulation substrate, not part of the model.
LPC_OF_PACKAGE = {
    "env": "environment",
    "phys": "physical",
    "resource": "resource",
    "net": "resource",
    "discovery": "abstract",
    "services": "abstract",
    "core": "abstract",
    "user": "intentional",
    "kernel": "substrate",
    "metrics": "substrate",
    "telemetry": "substrate",
    "experiments": "substrate",
    "checks": "substrate",
    "app": "substrate",
}

#: The user column spans four strata (Figure 1, right column).
LPC_OF_USER_MODULE = {
    "user/physiology": "physical",      # physical user
    "user/population": "resource",      # user faculties across a crowd
    "user/behavior": "resource",        # frustration: "must not be frustrated by"
    "user/mental": "abstract",          # mental models
    "user/goals": "intentional",        # user goals
}

_MARKER = os.sep + os.path.join("src", "repro") + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def module_of(filename: str) -> Optional[str]:
    """``"phys/mac"`` for ``.../src/repro/phys/mac.py``; None outside repro."""
    index = filename.rfind(_MARKER)
    if index < 0 or not filename.endswith(".py"):
        return None
    return filename[index + len(_MARKER):-3].replace(os.sep, "/")


def package_of(module: str) -> str:
    head, sep, _ = module.partition("/")
    package = head if sep else "app"
    if package not in LAYER_MAP:
        raise ValueError(f"module {module!r} is in no ranked package")
    return package


def lpc_of(module: str) -> str:
    return LPC_OF_USER_MODULE.get(module) or LPC_OF_PACKAGE[package_of(module)]


Func = Tuple[str, int, str]


def attribute(stats: Dict[Func, tuple]) -> Dict[str, Any]:
    """Fold ``cProfile.Profile().stats`` into per-module self time and
    cross-package call counts.

    Returns ``{"module_self_s": {module: s}, "calls_in": {package: n}}``.
    """
    modules = {func: module_of(func[0]) for func in stats}
    owners: Dict[Func, Dict[str, float]] = {}

    def owner(func: Func, visiting: set) -> Dict[str, float]:
        """Share of ``func``'s self time owed to each repro module."""
        if func in owners:
            return owners[func]
        module = modules.get(func)
        if module is not None:
            return {module: 1.0}
        if func in visiting or func not in stats:
            return {}
        visiting.add(func)
        callers = stats[func][4]
        total = sum(entry[2] for entry in callers.values())
        share: Dict[str, float] = defaultdict(float)
        if total > 0:
            for caller, entry in callers.items():
                weight = entry[2] / total
                for mod, part in owner(caller, visiting).items():
                    share[mod] += weight * part
        visiting.discard(func)
        owners[func] = dict(share)
        return owners[func]

    module_self: Dict[str, float] = defaultdict(float)
    calls_in: Dict[str, int] = defaultdict(int)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        for mod, part in owner(func, set()).items():
            module_self[mod] += tottime * part
        module = modules[func]
        if module is None:
            continue
        package = package_of(module)
        for caller, entry in callers.items():
            caller_module = modules.get(caller)
            if caller_module is None:
                # Calls from the benchmark itself count as calls in;
                # builtins calling back (sorted keys, map) do not.
                if caller[0].startswith(_BENCH_DIR):
                    calls_in[package] += entry[1]
            elif package_of(caller_module) != package:
                calls_in[package] += entry[1]
    return {"module_self_s": dict(module_self), "calls_in": dict(calls_in)}


def layer_metrics(folded: Dict[str, Any], traced_wall_s: float) -> Dict[str, float]:
    """Per-package and per-LPC-layer self time, calls, and the remainder."""
    package_self: Dict[str, float] = defaultdict(float)
    lpc_self: Dict[str, float] = defaultdict(float)
    for module, seconds in folded["module_self_s"].items():
        package_self[package_of(module)] += seconds
        lpc_self[lpc_of(module)] += seconds
    out: Dict[str, float] = {}
    for package in PACKAGES:
        out[f"{package}.self_s"] = package_self.get(package, 0.0)
        out[f"{package}.calls"] = folded["calls_in"].get(package, 0)
    for layer in LPC_LAYERS:
        out[f"lpc.{layer}.self_s"] = lpc_self.get(layer, 0.0)
    # checks/app time (none expected) is folded into the remainder so the
    # named packages plus ``unattributed`` still sum to the traced wall.
    named = sum(out[f"{package}.self_s"] for package in PACKAGES)
    out["unattributed.self_s"] = traced_wall_s - named
    return out


# ---------------------------------------------------------------------------
# Counters read from public stats objects
# ---------------------------------------------------------------------------

class Collector:
    """Records every medium, MAC, lease table and VNC viewer a workload
    constructs (by wrapping their ``__init__``) and sums their public
    counters whenever :meth:`harvest` is called."""

    def __init__(self) -> None:
        from repro.discovery.leases import LeaseTable
        from repro.phys.mac import CsmaMac, WirelessMedium
        from repro.services.vnc import VNCViewer

        self._classes = {"medium": WirelessMedium, "mac": CsmaMac,
                         "leases": LeaseTable, "viewer": VNCViewer}
        self._live: Dict[str, List[Any]] = {k: [] for k in self._classes}
        self._saved: Dict[str, Any] = {}
        self.totals: Dict[str, float] = defaultdict(float)

    def install(self) -> "Collector":
        for kind, cls in self._classes.items():
            original = cls.__init__
            live = self._live[kind]

            def init(obj, *args, _init=original, _sink=live, **kwargs):
                _init(obj, *args, **kwargs)
                _sink.append(obj)

            self._saved[kind] = original
            cls.__init__ = init
        return self

    def uninstall(self) -> None:
        for kind, original in self._saved.items():
            self._classes[kind].__init__ = original
        self._saved.clear()

    def harvest(self) -> None:
        """Add the counters of everything built so far, then forget it."""
        totals = self.totals
        for medium in self._live["medium"]:
            cache = medium.link_cache.stats()
            totals["linkcache.hits"] += cache["hits"]
            totals["linkcache.misses"] += cache["misses"]
            totals["linkcache.invalidations"] += cache["invalidations"]
            culling = medium.culling_stats()
            totals["grid.rebuilds"] += culling["grid"]["rebuilds"]
            totals["cull.set_builds"] += culling["set_builds"]
            totals["cull.set_reuses"] += culling["set_reuses"]
        for mac in self._live["mac"]:
            for key in ("tx_attempts", "tx_success", "rx_frames", "backoffs"):
                totals[f"mac.{key}"] += mac.stats[key]
        for table in self._live["leases"]:
            totals["leases.renewed"] += table.renewed_count
            totals["leases.expired"] += table.expired_count
        for viewer in self._live["viewer"]:
            totals["frames_displayed"] += viewer.frames_displayed
        for live in self._live.values():
            live.clear()

    def metrics(self) -> Dict[str, float]:
        t = self.totals
        lookups = t["linkcache.hits"] + t["linkcache.misses"]
        probes = t["cull.set_builds"] + t["cull.set_reuses"]
        return {
            "env.linkcache.hit_rate": _ratio(t["linkcache.hits"], lookups),
            "env.linkcache.misses": t["linkcache.misses"],
            "env.linkcache.invalidations": t["linkcache.invalidations"],
            "env.grid.rebuilds": t["grid.rebuilds"],
            "env.cull.set_reuse_rate": _ratio(t["cull.set_reuses"], probes),
            "phys.tx_attempts": t["mac.tx_attempts"],
            "phys.tx_success_rate": _ratio(t["mac.tx_success"],
                                           t["mac.tx_attempts"]),
            "phys.rx_frames": t["mac.rx_frames"],
            "phys.backoffs": t["mac.backoffs"],
            "discovery.leases.renewed": t["leases.renewed"],
            "discovery.leases.expired": t["leases.expired"],
            "services.frames_displayed": t["frames_displayed"],
        }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_experiment_walls(op_wall_s: Dict[str, float],
                         heavy: Iterable[str]) -> Dict[str, float]:
    heavy = tuple(heavy)
    out = {f"experiments.{eid}.wall_s": op_wall_s.get(eid, 0.0)
           for eid in heavy}
    out["experiments.other.wall_s"] = sum(
        wall for eid, wall in op_wall_s.items() if eid not in heavy)
    return out
