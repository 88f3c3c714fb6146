"""concurrency.* — threads and shared mutable state live only in seams.

ROADMAP items 1–2 (sharded parallel DES, multi-ring ingest) multiplied
the number of threads in the tree. These rules pin down where that
concurrency may live: thread spawning and mutable namespace-scope state
are confined to sanctioned seams, so every other file stays trivially
data-race-free and the deterministic single-thread reference stays the
semantic ground truth.

The seam list is *file-granular*: src/ingest mixes a threaded datapath
(ShardedReplay's producer + consumers) with purely sequential code
(ReplayEngine, CaptureSource, StubRouter, demux), so a directory-wide
waiver would silently bless a stray thread in the sequential files. Each entry is a path prefix, so a seam
covers its .cpp, its header, and any `_test`/`_seam` corpus siblings.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Optional

from .lexer import IDENT, PUNCT, SourceFile, Token
from .model import ERROR, Finding, Rule, register

# Sanctioned seams (path prefixes). In src/ingest only the files that
# *are* the threading machinery qualify: the sharded replay's
# producer/consumer fan-out and the SPSC ring primitive its handoff rides
# on. The rest of the module (ReplayEngine, CaptureSource, StubRouter,
# AgentDemux) is sequential by contract and patrolled like any other
# code. Likewise src/campaign:
# only runner.cpp (the threaded window loop: cells claimed off one
# counter, one std::barrier whose completion step runs
# exchange_and_advance) spawns threads; there is no runner header, and
# CampaignSim itself is sequential per cell and patrolled. src/util and
# src/telemetry are no seams: util holds no thread, atomic or mutable
# global, and the telemetry sink appends on the producer's thread.
_SEAM_DIRS = (
    "src/ingest/sharded",
    "src/ingest/include/syndog/ingest/sharded",
    "src/ingest/include/syndog/ingest/frame_ring",
    "src/campaign/runner",
)

# Library-ish trees the rules patrol. tests/ is exempt: tests spin threads
# and define counting globals (tests/support/alloc_guard.hpp) to *verify*
# the library's concurrency contracts, and run under TSan in CI.
_TARGET_DIRS = ("src/", "bench/", "examples/")


def _targets(rel: str) -> bool:
    return rel.startswith(_TARGET_DIRS) and not rel.startswith(_SEAM_DIRS)


# --------------------------------------------------------------------------
# concurrency.raw_thread

_THREAD_RE = re.compile(
    r"\bstd\s*::\s*(?:jthread|thread)\b(?!\s*::)"  # std::thread type use
    r"|\bpthread_create\s*\("
    r"|\bstd\s*::\s*async\s*[(<]"
)
_THIS_THREAD_RE = re.compile(r"\bstd\s*::\s*this_thread\b")


def _check_raw_thread(sf: SourceFile, ctx) -> Iterable[Finding]:
    for lineno, line in enumerate(sf.stripped_lines, start=1):
        # std::this_thread::yield/sleep in sanctioned call sites is caught
        # by the same std::thread token; exclude the namespace itself.
        cleaned = _THIS_THREAD_RE.sub("", line)
        if _THREAD_RE.search(cleaned):
            yield Finding(
                sf.rel,
                lineno,
                "",
                "thread spawning lives only in the sanctioned seam files "
                "(src/ingest sharded/frame_ring, src/campaign "
                "runner); route "
                "parallel work through those seams so the deterministic "
                "single-thread reference stays authoritative",
            )


register(
    Rule(
        id="concurrency.raw_thread",
        family="concurrency",
        severity=ERROR,
        summary="std::thread/jthread/async/pthread_create outside sanctioned seams",
        rationale=(
            "Every thread is a place where event order can diverge from the "
            "deterministic reference run. The repo's contract (threaded "
            "ingest must match the single-thread pump exactly; sharded DES "
            "must merge to byte-identical sidecars) is only checkable if "
            "thread creation is confined to seams built for it: "
            "ShardedReplay's producer/consumer fan-out and the campaign "
            "runner. A thread spawned elsewhere "
            "bypasses the barriers, mailboxes, and deterministic-merge "
            "machinery those seams provide."
        ),
        fix_hint=(
            "Move the parallel section behind the sharded replay or the "
            "campaign runner; if a new "
            "seam is genuinely "
            "needed, add its file prefix to the sanctioned list in "
            "rules_concurrency.py in the same PR that adds its "
            "determinism-equivalence test."
        ),
        targets=_targets,
        check=_check_raw_thread,
    )
)


# --------------------------------------------------------------------------
# concurrency.shared_mutable_static
#
# Token-level scope walk. At namespace scope, each declaration either ends
# at `;` or opens a braced body. We classify a declaration as an *object*
# (flaggable) when it is not a function definition/declaration, not a type
# or namespace, not a template, not a using/typedef/friend, and carries no
# const/constexpr/constinit qualifier. Function-local `static` non-const
# objects are flagged too: they are shared across calls and threads all the
# same.

_TYPE_INTRODUCERS = frozenset(
    {"namespace", "class", "struct", "union", "enum", "concept"}
)
_SKIP_INTRODUCERS = frozenset(
    {"using", "typedef", "friend", "template", "extern", "static_assert"}
)
_CONST_QUALIFIERS = frozenset({"const", "constexpr", "constinit"})


def _match_brace(tokens: List[Token], i: int) -> int:
    """Index just past the `}` matching the `{` at `i`."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


# Punctuation that may follow a brace *initializer* mid-declaration
# (member-init lists, aggregate args): the declaration continues past it.
# Anything else after a matched brace group means the group was a body.
_BRACE_CONTINUATIONS = frozenset(
    {",", ")", "]", "=", "{", "+", "-", "*", "/", "."}
)


def _declaration_end(tokens: List[Token], i: int) -> int:
    """Index just past this declaration: past `;`, or past a braced body
    and its optional trailing `;`. Brace-init groups inside the
    declaration (`cusum_(Params{a, b}), k_(c) { ... }`) are skipped, not
    mistaken for the body."""
    while i < len(tokens):
        t = tokens[i].text
        if t == ";":
            return i + 1
        if t == "{":
            i = _match_brace(tokens, i)
            if i < len(tokens) and tokens[i].text == ";":
                return i + 1
            if i < len(tokens) and tokens[i].text in _BRACE_CONTINUATIONS:
                continue  # initializer group; declaration goes on
            return i
        i += 1
    return i


def _is_function_decl(tokens: List[Token], start: int, end: int) -> bool:
    """True when the declaration in [start, end) declares a function: a
    top-level parenthesized parameter list appears before any `=`/`{`.

    `std::atomic<int> x{0};` has no `(`; `Foo y(1);` *does* — the classic
    most-vexing ambiguity. We resolve it the cheap way: a paren group
    counts as a parameter list only if it is empty, starts with a type-ish
    token (`const`, a known keyword, an identifier followed by another
    identifier/`&`/`*`/`<`/`::`), or contains `void`. That classifies
    every real signature in this tree correctly; the corpus selftest pins
    the behavior.
    """
    i = start
    angle = 0
    while i < end:
        t = tokens[i]
        if t.text == "<":
            angle += 1
        elif t.text == ">":
            angle = max(0, angle - 1)
        elif t.text == ">>":
            angle = max(0, angle - 2)
        elif angle == 0:
            if t.text in ("=", "{"):
                return False
            if t.text == "operator":
                return True
            if t.text == "(":
                return _paren_is_param_list(tokens, i, end)
        i += 1
    return False


def _paren_is_param_list(tokens: List[Token], i: int, end: int) -> bool:
    j = i + 1
    if j >= end:
        return False
    first = tokens[j]
    if first.text == ")":
        return True  # empty parameter list
    if first.text in ("void", "const"):
        return True
    if first.kind == IDENT:
        # `Type name`, `Type&`, `Type*`, `ns::Type`, `Type<...>` — a type
        # followed by declarator machinery reads as a parameter; a bare
        # literal/identifier argument (`foo(3)`, `foo(x)`) does not.
        k = j + 1
        while k < end and tokens[k].text in ("::",) :
            k += 2
        if k < end and (
            tokens[k].kind == IDENT or tokens[k].text in ("&", "*", "<")
        ):
            return True
    return False


def _object_name(tokens: List[Token], start: int, end: int) -> Optional[Token]:
    """Best-effort declared-name token for the finding message/line."""
    last_ident: Optional[Token] = None
    angle = 0
    for i in range(start, end):
        t = tokens[i]
        if t.text == "<":
            angle += 1
        elif t.text == ">":
            angle = max(0, angle - 1)
        elif t.text == ">>":
            angle = max(0, angle - 2)
        elif angle == 0:
            if t.text in ("=", "{", "(", ";"):
                break
            if t.kind == IDENT and t.text not in _CONST_QUALIFIERS:
                last_ident = t
    return last_ident


def _scan_scope(
    tokens: List[Token],
    start: int,
    end: int,
    sf: SourceFile,
    in_function: bool,
    findings: List[Finding],
) -> None:
    i = start
    while i < end:
        t = tokens[i]
        if t.text == "namespace":
            # namespace [name] { ... }  (or namespace alias = ...;)
            j = i + 1
            while j < end and tokens[j].text not in ("{", ";", "="):
                j += 1
            if j < end and tokens[j].text == "{":
                close = _match_brace(tokens, j)
                _scan_scope(tokens, j + 1, close - 1, sf, False, findings)
                i = close
            else:
                i = _declaration_end(tokens, i)
            continue
        if t.text in ("class", "struct", "union", "enum", "concept"):
            i = _declaration_end(tokens, i)
            continue
        if t.text in _SKIP_INTRODUCERS:
            i = _declaration_end(tokens, i)
            continue
        if t.text == "#":  # preprocessor fragments tokenized per line
            i += 1
            continue
        # Macro invocations at namespace scope (BENCHMARK(...), TEST(...),
        # registration macros) follow the ALL_CAPS(...) convention; they
        # are not object declarations.
        if (
            t.kind == IDENT
            and t.text.isupper()
            and i + 1 < end
            and tokens[i + 1].text == "("
        ):
            i = _declaration_end(tokens, i)
            continue
        decl_end = _declaration_end(tokens, i)
        qualifiers = {
            tok.text for tok in tokens[i:decl_end] if tok.kind == IDENT
        }
        is_static = "static" in qualifiers
        mutable_decl = (
            not (qualifiers & _CONST_QUALIFIERS)
            and not _is_function_decl(tokens, i, decl_end)
        )
        if mutable_decl and (not in_function or is_static):
            name_tok = _object_name(tokens, i, decl_end)
            if name_tok is not None:
                where = (
                    "function-local static"
                    if in_function
                    else "namespace-scope"
                )
                findings.append(
                    Finding(
                        sf.rel,
                        name_tok.line,
                        "",
                        f"{where} mutable object '{name_tok.text}' is shared "
                        "state outside the sanctioned seam files (src/ingest "
                        "sharded/frame_ring, src/campaign/runner); pass "
                        "state explicitly or move the seam",
                    )
                )
        elif not mutable_decl and _is_function_decl(tokens, i, decl_end):
            # Recurse into the function *body* (the brace group that closes
            # the declaration, not a brace-init in the member-init list)
            # for static locals.
            k = i
            while k < decl_end:
                if tokens[k].text == "{":
                    close = _match_brace(tokens, k)
                    if close >= decl_end - 1:
                        _scan_scope(
                            tokens, k + 1, close - 1, sf, True, findings
                        )
                        break
                    k = close
                else:
                    k += 1
        i = decl_end


def _check_shared_mutable_static(sf: SourceFile, ctx) -> Iterable[Finding]:
    findings: List[Finding] = []
    _scan_scope(sf.tokens, 0, len(sf.tokens), sf, False, findings)
    return findings


register(
    Rule(
        id="concurrency.shared_mutable_static",
        family="concurrency",
        severity=ERROR,
        summary="mutable namespace-scope / static-local state outside seams",
        rationale=(
            "A mutable global or static local is invisible shared state: "
            "two stubs in the sharded DES, or the ingest producer and "
            "consumer, can touch it without any seam mediating — a data "
            "race at worst and hidden cross-run coupling at best. The tree "
            "keeps all such state in the ingest and campaign seam files, "
            "where the threading contracts are tested under TSan. "
            "Constants (const/constexpr/constinit) are fine anywhere."
        ),
        fix_hint=(
            "Pass the state through constructor/function parameters, hang "
            "it off the owning object, or mark it const/constexpr. If it "
            "is genuinely shared across threads, add its file to the seam "
            "list in rules_concurrency.py with an atomic type and a "
            "TSan-covered test."
        ),
        targets=_targets,
        check=_check_shared_mutable_static,
    )
)
