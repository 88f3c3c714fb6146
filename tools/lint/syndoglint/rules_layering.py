"""layering.* — #include edges between src/ modules follow the DAG.

Keep LAYER_DEPS in sync with DESIGN.md §3 and the DEPS lists in
src/*/CMakeLists.txt:
  util -> obs/stats/net -> pcap/classify -> detect/trace -> sim/attack
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

from typing import Dict, Iterable, List, Optional, Set

from .model import ERROR, Finding, Rule, register

LAYER_DEPS: Dict[str, Set[str]] = {
    "util": set(),
    "obs": {"util"},
    "stats": {"util"},
    "net": {"util"},
    "pcap": {"net", "util"},
    "classify": {"net", "obs", "util"},
    "detect": {"stats", "util"},
    "trace": {"net", "stats", "util"},
    "sim": {"net", "obs", "util"},
    "fault": {"net", "obs", "sim", "util"},
    "attack": {"util"},
    "traceback": {"util"},
    "telemetry": {"obs", "util"},
    "core": {"classify", "detect", "net", "obs", "sim", "stats",
             "telemetry", "util"},
    "ingest": {"classify", "core", "net", "obs", "pcap", "sim", "util"},
    "mitigate": {"core", "net", "obs", "sim", "telemetry", "util"},
    "campaign": {"core", "net", "obs", "sim", "util"},
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
    "map itself is cycle-checked, and a module directory missing from "
    "LAYER_DEPS is its own finding so the map cannot rot."
)

for _rid, _summary in (
    ("layering.violation", "#include edge not in the module DAG"),
    ("layering.cycle", "LAYER_DEPS itself declares a cycle"),
    ("layering.unregistered", "src/ module missing from LAYER_DEPS"),
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
