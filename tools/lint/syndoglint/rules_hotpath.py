"""hotpath.* — the DES and ingest hot paths stay allocation-free.

PR-4 made the scheduler hot path allocation-free (InlineCallback events,
slot arena, pooled packets) and PR-5 extended the discipline to the ingest
ring. These rules keep it that way: `hotpath.std_function` is the original
PR-2 ban generalized, and `hotpath.allocation` bans heap traffic and
container growth in any file that opts in with the
`// syndog-lint: hotpath-file` marker — so the list of protected files
lives next to the code, not in the linter.
"""

from __future__ import annotations

import re
from typing import Iterable

from .lexer import SourceFile
from .model import ERROR, Finding, Rule, register

# Public-header trees where per-event work must stay allocation-free.
_HOTPATH_INCLUDE_ROOTS = ("src/sim/include/", "src/ingest/include/")

# The one hot-path header that may define std::function seam types: bound
# once at topology wiring time, never constructed per event.
_STD_FUNCTION_OWNERS = frozenset({"src/sim/include/syndog/sim/callbacks.hpp"})

_STD_FUNCTION_RE = re.compile(
    r"\bstd\s*::\s*function\b|#\s*include\s*<functional>"
)


def _std_function_targets(rel: str) -> bool:
    return (
        rel.startswith(_HOTPATH_INCLUDE_ROOTS)
        and rel.endswith(".hpp")
        and rel not in _STD_FUNCTION_OWNERS
    )


def _check_std_function(sf: SourceFile, ctx) -> Iterable[Finding]:
    for lineno, line in enumerate(sf.stripped_lines, start=1):
        if _STD_FUNCTION_RE.search(line):
            yield Finding(
                sf.rel,
                lineno,
                "",
                "std::function allocates per construction; per-event "
                "callbacks use Scheduler::Callback (util::InlineCallback) "
                "or a virtual sink interface; config-time seams live in "
                "syndog/sim/callbacks.hpp",
            )


register(
    Rule(
        id="hotpath.std_function",
        family="hotpath",
        severity=ERROR,
        summary="std::function / <functional> in sim or ingest public headers",
        rationale=(
            "A std::function is constructed per event on the DES hot path — "
            "millions of times per run — and each construction may heap-"
            "allocate. Scheduler::Callback (util::InlineCallback) stores "
            "the callable in place. The one sanctioned std::function home "
            "is syndog/sim/callbacks.hpp: configuration-time bindings wired "
            "once per topology and only invoked per event."
        ),
        fix_hint=(
            "Use Scheduler::Callback / util::InlineCallback for per-event "
            "work or a virtual sink interface for pluggable consumers; "
            "put genuine config-time seams in syndog/sim/callbacks.hpp."
        ),
        targets=_std_function_targets,
        check=_check_std_function,
    )
)


# --------------------------------------------------------------------------
# hotpath.allocation — opt-in per file via `// syndog-lint: hotpath-file`.

_ALLOCATION_PATTERNS = (
    (
        re.compile(r"(?<![\w:])new\b(?!\s*\()"),
        "new-expression heap-allocates",
    ),
    (
        re.compile(r"(?<![\w:.])(?:malloc|calloc|realloc|strdup)\s*\("),
        "malloc-family call heap-allocates",
    ),
    (
        re.compile(r"\bmake_(?:unique|shared)\b"),
        "make_unique/make_shared heap-allocates",
    ),
    (
        re.compile(r"\b(?:push_back|emplace_back|resize|reserve)\s*\("),
        "container growth can reallocate",
    ),
    (
        re.compile(r"\bstd\s*::\s*function\b"),
        "std::function may heap-allocate per construction",
    ),
)


def _hotpath_marked(sf: SourceFile) -> bool:
    return "hotpath-file" in sf.pragmas


def _check_allocation(sf: SourceFile, ctx) -> Iterable[Finding]:
    if not _hotpath_marked(sf):
        return
    for lineno, line in enumerate(sf.stripped_lines, start=1):
        if line.lstrip().startswith("#"):
            continue  # `#include <new>` is not a new-expression
        for pattern, why in _ALLOCATION_PATTERNS:
            if pattern.search(line):
                yield Finding(
                    sf.rel,
                    lineno,
                    "",
                    f"hotpath-file: {why}; hot-path state lives in arenas/"
                    "pools sized up front (construction-time growth may be "
                    "waived with a justification)",
                )


register(
    Rule(
        id="hotpath.allocation",
        family="hotpath",
        severity=ERROR,
        summary=(
            "heap allocation or container growth in a "
            "`// syndog-lint: hotpath-file` marked file"
        ),
        rationale=(
            "The PR-4/PR-5 benchmarks (bench_sim_throughput, "
            "bench_replay_throughput) hold only while the per-event path "
            "performs zero heap traffic; a single push_back that outgrows "
            "its capacity costs more than a hundred events and shows up as "
            "multi-percent regressions. Files that carry the "
            "`// syndog-lint: hotpath-file` marker ban new/malloc/"
            "make_unique/make_shared, growth-prone container calls, and "
            "std::function outright. Placement new (`new (ptr) T`) is "
            "allowed: it constructs without allocating. The runtime twin "
            "of this rule is tests/support/alloc_guard.hpp, which proves "
            "steady-state loops allocation-free with a counting "
            "operator new."
        ),
        fix_hint=(
            "Size arenas/pools at construction and recycle slots "
            "(sim::PacketPool, ingest::SlotRing are the models). "
            "Construction-time growth is waivable: "
            "`// syndog-lint: allow(hotpath.allocation) -- <why setup-only>`."
        ),
        targets=lambda rel: rel.endswith((".hpp", ".h", ".cpp", ".cc", ".cxx")),
        check=_check_allocation,
    )
)
