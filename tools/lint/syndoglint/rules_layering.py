"""layering.* — #include edges between src/ modules follow the DAG.

LAYER_DEPS mirrors DESIGN.md §3 and the DEPS lists in
src/*/CMakeLists.txt (`layering.deps_drift` fires when a module's
`syndog_add_module(... DEPS syndog::x ...)` set differs from its entry):
  util -> obs/stats/net -> pcap/classify -> detect -> trace -> sim/attack
       -> fault -> core/traceback
obs is the in-process observability layer: it may depend only on util
(it must stay embeddable under every other module), while any module may
depend on it. telemetry is the fleet aggregation backend on top of obs
(sink, syndog-tsf/1 format, rollups); core feeds it via FleetRecorder.
mitigate closes the loop on top of core (alarm edges in, router policers
out); nothing below it may depend on it. campaign is the sharded
parallel DES runner on top of core + sim (per-cell schedulers, mailbox
barriers); like mitigate/ingest, nothing may depend on it.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .model import ERROR, Finding, Rule, register

LAYER_DEPS: Dict[str, Set[str]] = {
    "util": set(),
    "obs": {"util"},
    "stats": {"util"},
    "net": {"util"},
    "pcap": {"net", "util"},
    "classify": {"net", "obs", "util"},
    "detect": {"stats", "util"},
    "trace": {"detect", "net", "stats", "util"},
    "sim": {"net", "obs", "util"},
    "fault": {"net", "sim", "util"},
    "attack": {"util"},
    "traceback": {"util"},
    "telemetry": {"obs", "util"},
    "core": {"classify", "detect", "net", "obs", "sim", "stats",
             "telemetry", "util"},
    "ingest": {"classify", "core", "net", "obs", "pcap", "sim", "util"},
    "mitigate": {"core", "net", "sim", "util"},
    "campaign": {"core", "net", "sim", "util"},
}


def _transitive_deps(deps: Dict[str, Set[str]], module: str) -> Set[str]:
    seen: Set[str] = set()
    stack = list(deps.get(module, ()))
    while stack:
        dep = stack.pop()
        if dep in seen:
            continue
        seen.add(dep)
        stack.extend(deps.get(dep, ()))
    return seen


def _dag_cycle(deps: Dict[str, Set[str]]) -> Optional[List[str]]:
    """Returns a cycle as a module list if the DAG has one, else None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {m: WHITE for m in deps}
    trail: List[str] = []

    def visit(m: str) -> Optional[List[str]]:
        color[m] = GREY
        trail.append(m)
        for dep in sorted(deps.get(m, ())):
            if color.get(dep, WHITE) == GREY:
                return trail[trail.index(dep) :] + [dep]
            if color.get(dep, WHITE) == WHITE:
                cycle = visit(dep)
                if cycle:
                    return cycle
        trail.pop()
        color[m] = BLACK
        return None

    for m in sorted(deps):
        if color[m] == WHITE:
            cycle = visit(m)
            if cycle:
                return cycle
    return None


_ADD_MODULE = re.compile(r"syndog_add_module\s*\(([^)]*)\)")


def _cmake_deps(text: str) -> Optional[Tuple[int, Set[str]]]:
    """(line, syndog:: DEPS) of the module's syndog_add_module() call, or
    None when the file declares no module. The line is the DEPS keyword's,
    or the call's when it lists none; other targets (Threads::Threads) are
    not layers."""
    text = re.sub(r"#[^\n]*", "", text)
    call = _ADD_MODULE.search(text)
    if call is None:
        return None
    args = call.group(1)
    deps_at = re.search(r"\bDEPS\b", args)
    if deps_at is None:
        return text.count("\n", 0, call.start()) + 1, set()
    line = text.count("\n", 0, call.start(1) + deps_at.start()) + 1
    return line, set(re.findall(r"syndog::(\w+)", args[deps_at.end() :]))


def _check_layering(ctx) -> Iterable[Finding]:
    deps = ctx.layer_deps
    cycle = _dag_cycle(deps)
    if cycle:
        yield Finding(
            "tools/lint/syndoglint/rules_layering.py",
            1,
            "layering.cycle",
            "LAYER_DEPS declares a dependency cycle: " + " -> ".join(cycle),
        )

    for module in sorted(ctx.modules_on_disk - set(deps)):
        yield Finding(
            f"src/{module}/CMakeLists.txt",
            1,
            "layering.unregistered",
            f"module '{module}' is not declared in LAYER_DEPS "
            "(tools/lint/syndoglint/rules_layering.py); add it with its "
            "dependencies",
        )

    for module in sorted(ctx.modules_on_disk & set(deps)):
        cmake = f"src/{module}/CMakeLists.txt"
        declared = _cmake_deps(
            (ctx.root / cmake).read_text(encoding="utf-8")
        )
        if declared is not None and declared[1] != deps[module]:
            line, listed = declared
            drift = [f"+{d}" for d in sorted(listed - deps[module])]
            drift += [f"-{d}" for d in sorted(deps[module] - listed)]
            yield Finding(
                cmake,
                line,
                "layering.deps_drift",
                f"module '{module}' CMake DEPS differ from its LAYER_DEPS "
                f"entry ({', '.join(drift)}); change both together",
            )

    for module in sorted(ctx.modules_on_disk & set(deps)):
        allowed = _transitive_deps(deps, module) | {module}
        prefix = f"src/{module}/"
        for sf in ctx.files_under(prefix):
            for lineno, target in sf.includes:
                if target in allowed:
                    continue
                yield Finding(
                    sf.rel,
                    lineno,
                    "layering.violation",
                    f"module '{module}' may not include syndog/{target}/ "
                    f"(allowed: "
                    f"{', '.join(sorted(allowed - {module})) or 'none'})",
                )


_LAYERING_RATIONALE = (
    "The module DAG is what makes the tree refactorable at this pace: a "
    "reverse or lateral include (net -> pcap, detect -> trace) quietly "
    "turns two layers into one and every later split pays for it. The DAG "
    "is mirrored from DESIGN.md §3 and each module's "
    "syndog_add_module(... DEPS ...); transitive deps are allowed. The "
    "map itself is cycle-checked, a module directory missing from "
    "LAYER_DEPS is its own finding, and so is a module whose CMake DEPS "
    "name other syndog:: modules than its LAYER_DEPS entry, so the map "
    "cannot rot."
)

for _rid, _summary in (
    ("layering.violation", "#include edge not in the module DAG"),
    ("layering.cycle", "LAYER_DEPS itself declares a cycle"),
    ("layering.unregistered", "src/ module missing from LAYER_DEPS"),
    ("layering.deps_drift", "CMake DEPS differ from the LAYER_DEPS entry"),
):
    register(
        Rule(
            id=_rid,
            family="layering",
            severity=ERROR,
            summary=_summary,
            rationale=_LAYERING_RATIONALE,
            fix_hint=(
                "Either remove the include (invert the dependency through "
                "a callback/interface in the lower layer) or, if the edge "
                "is genuinely right, add it to LAYER_DEPS, DESIGN.md §3, "
                "and the module's CMake DEPS in the same change."
            ),
            tree_check=_check_layering if _rid == "layering.violation" else None,
            waivable=_rid == "layering.violation",
        )
    )
