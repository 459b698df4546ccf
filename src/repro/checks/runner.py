"""Run the full static pass over a file tree, in parallel.

Per-file work (parse + determinism visitor + import extraction + flow
summary) fans out over a fork-based process pool — the same strategy as
the parallel sweep runner — and the cross-file passes (layer check over
the aggregated import edges, fork-safety flow rules over the module call
graph) run afterwards.  Findings are sorted ``(path, line, col, code)``
so serial and parallel runs produce byte-identical reports.

Incremental mode (``incremental_cache=...``) keys on per-file SHA-256
source digests: a warm run re-parses only files whose digest changed,
plus every file in the changed modules' strongly-connected call-graph
region (a changed module can alter what its SCC peers reach).  The
cross-file passes always rerun over the full summary set — they are
cheap relative to parsing — so warm findings equal a cold run exactly.
"""

from __future__ import annotations

import ast
import hashlib
import json
import multiprocessing
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .baseline import Suppression, apply_baseline, load_baseline
from .callgraph import (
    DEFAULT_FORK_ENTRY_POINTS,
    ModuleSummary,
    build_graph,
    module_sccs,
    summarize_module,
)
from .determinism import check_determinism
from .findings import RULES, Finding
from .flow import run_flow
from .layers import (
    ImportEdge,
    ModuleImports,
    check_layers,
    extract_imports,
    import_graph,
)

CACHE_VERSION = 2


@dataclass
class CheckReport:
    """Aggregated result of one static pass."""

    findings: List[Finding]              # unsuppressed (includes stale)
    suppressed: List[Finding] = field(default_factory=list)
    files: int = 0
    graph: Dict[str, List[str]] = field(default_factory=dict)
    # Files re-parsed this run (all of them on a cold run; the changed
    # SCC region on a warm incremental run) and the cache-hit count.
    analyzed: List[str] = field(default_factory=list)
    cached: int = 0
    # Host-time instrumentation (perf_counter seconds): phase totals
    # under "phases", per-flow-rule splits under "rules".  Reported only
    # in to_json() — the text format carries no timings, so its output
    # stays byte-identical across machines.
    timings: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings

    def format_text(self) -> str:
        lines = [finding.format() for finding in self.findings]
        lines.append(f"checked {self.files} files: "
                     f"{len(self.findings)} finding(s), "
                     f"{len(self.suppressed)} suppressed")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "version": 1,
            "files": self.files,
            "analyzed": len(self.analyzed),
            "cached": self.cached,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "import_graph": self.graph,
            "timings": {
                phase: {name: round(seconds, 6)
                        for name, seconds in sorted(values.items())}
                for phase, values in sorted(self.timings.items())
            },
            "rules": {code: rule.title for code, rule in sorted(RULES.items())},
        }, indent=2)


def discover_files(paths: Sequence[pathlib.Path]) -> List[pathlib.Path]:
    """All ``*.py`` files under ``paths`` (files pass through), sorted."""
    out = []
    for path in paths:
        if path.is_dir():
            out.extend(p for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            out.append(path)
    return sorted(set(out))


def _repro_rel_parts(path: pathlib.Path) -> Optional[Tuple[str, ...]]:
    """Path parts relative to the innermost ``repro`` package dir.

    Files outside a ``repro`` tree get no layer identity (determinism
    rules still apply to them).
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return tuple(parts[i + 1:])
    return None


def _display_path(path: pathlib.Path, base: Optional[pathlib.Path]) -> str:
    if base is not None:
        try:
            return path.resolve().relative_to(base.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def source_digest(path: pathlib.Path) -> str:
    """SHA-256 of a file's bytes — the incremental-mode cache key."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return ""


@dataclass
class FileResult:
    """Everything one file contributes to the pass (picklable)."""

    display: str
    digest: str
    findings: List[Finding] = field(default_factory=list)
    module: Optional[ModuleImports] = None
    summary: Optional[ModuleSummary] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "display": self.display,
            "digest": self.digest,
            "findings": [f.to_dict() for f in self.findings],
            "module": asdict(self.module) if self.module else None,
            "summary": self.summary.to_dict() if self.summary else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FileResult":
        result = cls(display=str(data["display"]),
                     digest=str(data["digest"]))
        result.findings = [Finding(**f) for f in data.get("findings", ())]
        module = data.get("module")
        if module:
            result.module = ModuleImports(
                path=str(module["path"]), package=str(module["package"]),
                edges=[ImportEdge(**edge) for edge in module["edges"]])
        summary = data.get("summary")
        if summary:
            result.summary = ModuleSummary.from_dict(summary)
        return result


def analyze_file(path_base: Tuple[str, Optional[str]]) -> FileResult:
    """Parse one file: determinism findings + imports + flow summary."""
    path = pathlib.Path(path_base[0])
    base = pathlib.Path(path_base[1]) if path_base[1] else None
    display = _display_path(path, base)
    result = FileResult(display=display, digest=source_digest(path))
    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        rule = RULES["LPC001"]
        result.findings = [Finding(path=display, line=exc.lineno or 1,
                                   col=exc.offset or 0, code="LPC001",
                                   message=f"file does not parse: {exc.msg}",
                                   severity=rule.severity, hint=rule.hint)]
        return result
    except OSError as exc:
        rule = RULES["LPC001"]
        result.findings = [Finding(path=display, line=1, col=0,
                                   code="LPC001",
                                   message=f"file is unreadable: {exc}",
                                   severity=rule.severity, hint=rule.hint)]
        return result
    result.findings = check_determinism(display, tree)
    rel_parts = _repro_rel_parts(path)
    if rel_parts:
        result.module = extract_imports(display, rel_parts, tree)
        result.summary = summarize_module(display, rel_parts, tree)
    return result


def _load_cache(cache_path: pathlib.Path,
                base: pathlib.Path) -> Dict[str, FileResult]:
    """Previous per-file results, or empty on any mismatch/corruption."""
    try:
        data = json.loads(cache_path.read_text())
    except (OSError, ValueError):
        return {}
    if (not isinstance(data, dict)
            or data.get("version") != CACHE_VERSION
            or data.get("base") != str(base.resolve())):
        return {}
    cached: Dict[str, FileResult] = {}
    try:
        for display, entry in dict(data.get("files", {})).items():
            cached[str(display)] = FileResult.from_dict(entry)
    except (KeyError, TypeError, ValueError):
        return {}
    return cached


def _write_cache(cache_path: pathlib.Path, base: pathlib.Path,
                 results: Sequence[FileResult]) -> None:
    payload = {
        "version": CACHE_VERSION,
        "base": str(base.resolve()),
        "files": {result.display: result.to_dict() for result in results},
    }
    cache_path.parent.mkdir(parents=True, exist_ok=True)
    cache_path.write_text(json.dumps(payload))


def _stale_region(files: Sequence[Tuple[pathlib.Path, str, str]],
                  cache: Dict[str, FileResult]) -> List[str]:
    """Display paths needing re-analysis: changed files + SCC region.

    The region is computed on the *previous* run's call graph: a changed
    module may alter what its strongly-connected peers reach, so every
    cached module sharing an SCC with a changed module is re-analyzed
    too.  Files unknown to the cache (new) are always stale.
    """
    changed: List[str] = []
    for _path, display, digest in files:
        prior = cache.get(display)
        if prior is None or not digest or prior.digest != digest:
            changed.append(display)
    summaries = {entry.summary.module: entry.summary
                 for entry in cache.values() if entry.summary is not None}
    module_of = {entry.display: entry.summary.module
                 for entry in cache.values() if entry.summary is not None}
    scc_of = module_sccs(build_graph(summaries))
    dirty_sccs = {scc_of[module_of[display]] for display in changed
                  if display in module_of and module_of[display] in scc_of}
    stale = set(changed)
    for display, module in module_of.items():
        if scc_of.get(module) in dirty_sccs:
            stale.add(display)
    current = {display for _path, display, _digest in files}
    return sorted(stale & current)


def run_checks(paths: Sequence[pathlib.Path],
               base: Optional[pathlib.Path] = None,
               baseline: Optional[pathlib.Path] = None,
               jobs: int = 1,
               layer_map: Optional[Dict[str, int]] = None,
               entry_points: Sequence[str] = DEFAULT_FORK_ENTRY_POINTS,
               incremental_cache: Optional[pathlib.Path] = None,
               ) -> CheckReport:
    """The full static pass: determinism + layers + flow + baseline.

    ``base`` anchors finding paths (default: the current directory), so
    the baseline file stays valid wherever the runner is invoked from.
    ``jobs > 1`` forks a process pool for the per-file phase when the
    platform supports fork; results are identical to the serial path.
    ``incremental_cache`` names a JSON cache file: when it exists and
    matches ``base``, only changed files (plus their call-graph SCC
    region) are re-parsed, and it is rewritten with this run's results.
    """
    base = base if base is not None else pathlib.Path.cwd()
    timings: Dict[str, Dict[str, float]] = {"phases": {}, "rules": {}}

    start = time.perf_counter()
    files = [(p, _display_path(p, base), source_digest(p))
             for p in discover_files(paths)]

    cache: Dict[str, FileResult] = {}
    if incremental_cache is not None:
        cache = _load_cache(incremental_cache, base)
    if cache:
        stale = set(_stale_region(files, cache))
    else:
        stale = {display for _path, display, _digest in files}
    work = [(str(path), str(base))
            for path, display, _digest in files if display in stale]
    timings["phases"]["discover"] = time.perf_counter() - start

    start = time.perf_counter()
    fresh: List[FileResult]
    if (jobs > 1 and len(work) > 1
            and "fork" in multiprocessing.get_all_start_methods()):
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=jobs,
                                 mp_context=context) as pool:
            fresh = list(pool.map(analyze_file, work, chunksize=8))
    else:
        fresh = [analyze_file(item) for item in work]
    fresh_by_display = {result.display: result for result in fresh}
    results = [fresh_by_display.get(display) or cache[display]
               for _path, display, _digest in files]
    timings["phases"]["analyze"] = time.perf_counter() - start

    findings: List[Finding] = []
    modules: List[ModuleImports] = []
    summaries: Dict[str, ModuleSummary] = {}
    for result in results:
        findings.extend(result.findings)
        if result.module is not None:
            modules.append(result.module)
        if result.summary is not None:
            summaries[result.summary.module] = result.summary

    start = time.perf_counter()
    findings.extend(check_layers(modules, layer_map))
    timings["phases"]["layers"] = time.perf_counter() - start

    start = time.perf_counter()
    flow_findings, _graph, _reached, rule_timings = run_flow(
        summaries, entry_points)
    findings.extend(flow_findings)
    timings["phases"]["flow"] = time.perf_counter() - start
    timings["rules"].update(rule_timings)

    findings.sort()

    start = time.perf_counter()
    suppressions: List[Suppression] = []
    if baseline is not None and baseline.exists():
        suppressions = load_baseline(baseline)
    kept, suppressed, stale_entries = apply_baseline(findings, suppressions)
    kept.extend(stale_entries)
    kept.sort()
    timings["phases"]["baseline"] = time.perf_counter() - start

    if incremental_cache is not None:
        _write_cache(incremental_cache, base, results)

    return CheckReport(findings=kept, suppressed=suppressed,
                       files=len(files), graph=import_graph(modules),
                       analyzed=sorted(r.display for r in fresh),
                       cached=len(files) - len(fresh),
                       timings=timings)
