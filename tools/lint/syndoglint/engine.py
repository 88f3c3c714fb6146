"""Analysis driver: lex once, run rules, account for waivers.

Two passes over the tree:

  1. lex every file under the scanned roots, collect the cross-file
     unordered-name pool (determinism.unordered_iteration needs member
     names declared in headers when flagging loops in .cpp files), and
     lex the call-site-only roots (perfbench/) that api.test_only reads
     for callers but no rule lints;
  2. run per-file rules (cache-accelerated) and tree rules, then apply
     waivers centrally and emit the waiver-accounting findings
     (`waiver.missing_justification`, `waiver.unknown_rule`,
     `waiver.unused`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

from .cache import Cache
from .lexer import SourceFile, lex_file
from .model import ERROR, Finding, Rule, WaiverRecord, all_rules, get_rule, register
from .rules_api import CALL_SITE_ROOTS
from .rules_determinism import collect_unordered_names
from .rules_layering import LAYER_DEPS

# Importing a rule module registers its rules; every family must be pulled
# in here so --list-rules/--explain see the full catalog.
from . import rules_concurrency  # noqa: F401
from . import rules_headers  # noqa: F401
from . import rules_hotpath  # noqa: F401

SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc", ".cxx")
SCAN_ROOTS = ("src", "tests", "bench", "examples")

# Waiver meta-rules: registered here because the engine itself emits them.
_WAIVER_RATIONALE = (
    "A waiver is a reviewed exception, not an off switch. Every "
    "`// syndog-lint: allow(...)` must carry an inline justification "
    "(`-- <why>`), must name rules that exist, and must actually suppress "
    "a finding — a stale waiver left behind after the code it excused "
    "changed is itself a finding, so the waiver inventory can only shrink "
    "unless someone argues for a new one in review."
)
for _rid, _summary in (
    (
        "waiver.missing_justification",
        "waiver without an inline `-- <why>` justification",
    ),
    ("waiver.unknown_rule", "waiver names a rule id that does not exist"),
    ("waiver.unused", "waiver suppresses nothing (stale)"),
):
    register(
        Rule(
            id=_rid,
            family="waivers",
            severity=ERROR,
            summary=_summary,
            rationale=_WAIVER_RATIONALE,
            fix_hint=(
                "Write `// syndog-lint: allow(<rule.id>) -- <one-line why>` "
                "on (or `allow-next-line` above) the excused line; delete "
                "waivers that no longer suppress anything."
            ),
            waivable=False,
        )
    )


@dataclass
class TreeContext:
    root: Path
    cxx: str
    jobs: int
    cache: Optional[Cache] = None
    layer_deps: Dict[str, Set[str]] = field(default_factory=lambda: LAYER_DEPS)
    files: Dict[str, SourceFile] = field(default_factory=dict)
    call_site_files: Dict[str, SourceFile] = field(default_factory=dict)
    unordered_names: Set[str] = field(default_factory=set)
    modules_on_disk: Set[str] = field(default_factory=set)

    def files_under(self, prefix: str) -> List[SourceFile]:
        return [
            self.files[rel] for rel in sorted(self.files) if rel.startswith(prefix)
        ]


def discover_files(root: Path, roots: Iterable[str] = SCAN_ROOTS) -> List[Path]:
    paths: List[Path] = []
    for sub in roots:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                paths.append(path)
    return paths


def build_context(
    root: Path, cxx: str, jobs: int, cache: Optional[Cache] = None
) -> TreeContext:
    ctx = TreeContext(root=root, cxx=cxx, jobs=jobs, cache=cache)
    for path in discover_files(root):
        rel = path.relative_to(root).as_posix()
        ctx.files[rel] = lex_file(path, rel)
    for path in discover_files(root, CALL_SITE_ROOTS):
        rel = path.relative_to(root).as_posix()
        ctx.call_site_files[rel] = lex_file(path, rel)
    for sf in ctx.files.values():
        ctx.unordered_names |= collect_unordered_names(sf)
    src = root / "src"
    if src.is_dir():
        ctx.modules_on_disk = {
            p.name
            for p in src.iterdir()
            if p.is_dir() and (p / "CMakeLists.txt").exists()
        }
    return ctx


@dataclass
class RunResult:
    findings: List[Finding] = field(default_factory=list)
    waivers: List[WaiverRecord] = field(default_factory=list)
    checked_families: List[str] = field(default_factory=list)


def _run_fingerprint(ctx: TreeContext, families: Set[str]) -> str:
    from . import __version__

    names = ",".join(sorted(ctx.unordered_names))
    return f"{__version__}|{','.join(sorted(families))}|{names}"


def run(
    ctx: TreeContext,
    families: Set[str],
    account_waivers: bool = True,
) -> RunResult:
    result = RunResult(checked_families=sorted(families))
    rules = [r for r in all_rules() if r.family in families]
    file_rules = [r for r in rules if r.check is not None]
    tree_rules = [r for r in rules if r.tree_check is not None]

    raw_findings: List[Finding] = []
    fingerprint = _run_fingerprint(ctx, families)
    for rel in sorted(ctx.files):
        sf = ctx.files[rel]
        cached = None
        key = None
        if ctx.cache is not None:
            key = ctx.cache.file_key(sf.raw, fingerprint)
            cached = ctx.cache.file_findings(rel, key)
        if cached is not None:
            raw_findings.extend(
                Finding(rel, int(line), str(rule), str(message))
                for line, rule, message in cached
            )
            continue
        produced: List[Finding] = []
        for rule in file_rules:
            if rule.targets is not None and not rule.targets(rel):
                continue
            for finding in rule.check(sf, ctx):
                if not finding.rule:
                    finding.rule = rule.id
                produced.append(finding)
        if ctx.cache is not None and key is not None:
            ctx.cache.store_file_findings(
                rel, key, [[f.line, f.rule, f.message] for f in produced]
            )
        raw_findings.extend(produced)

    for rule in tree_rules:
        for finding in rule.tree_check(ctx):
            if not finding.rule:
                finding.rule = rule.id
            raw_findings.append(finding)

    # -- central waiver application -----------------------------------------
    for finding in raw_findings:
        rule = get_rule(finding.rule)
        sf = ctx.files.get(finding.rel)
        if (
            sf is not None
            and rule is not None
            and rule.waivable
            and (waiver := sf.waiver_for(finding.line, finding.rule))
        ):
            waiver.used_rules.add(finding.rule)
            continue
        result.findings.append(finding)

    # -- waiver accounting ---------------------------------------------------
    if account_waivers:
        complete = {r.family for r in all_rules() if r.family != "waivers"} <= families
        for rel in sorted(ctx.files):
            sf = ctx.files[rel]
            for line in sorted(sf.waivers):
                waiver = sf.waivers[line]
                result.waivers.append(
                    WaiverRecord(
                        rel,
                        waiver.declared_line,
                        sorted(waiver.rules),
                        waiver.justified,
                        sorted(waiver.used_rules),
                    )
                )
                if not waiver.justified:
                    result.findings.append(
                        Finding(
                            rel,
                            waiver.declared_line,
                            "waiver.missing_justification",
                            "waiver has no inline justification; write "
                            "`// syndog-lint: allow(<rule>) -- <why>`",
                        )
                    )
                for rid in sorted(waiver.rules):
                    if rid != "all" and get_rule(rid) is None:
                        result.findings.append(
                            Finding(
                                rel,
                                waiver.declared_line,
                                "waiver.unknown_rule",
                                f"waiver names unknown rule '{rid}'; see "
                                "`syndog_lint --list-rules`",
                            )
                        )
                if complete and not waiver.used_rules:
                    result.findings.append(
                        Finding(
                            rel,
                            waiver.declared_line,
                            "waiver.unused",
                            "waiver suppresses nothing on its target line; "
                            "delete it (stale waivers hide future findings)",
                        )
                    )

    result.findings.sort(key=lambda f: (f.rel, f.line, f.rule))
    return result
