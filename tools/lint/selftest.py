#!/usr/bin/env python3
"""Fixture-corpus selftest for the syndoglint engine (`lint.selftest`).

Lints `testdata/corpus/` — a miniature repository tree — with the real
engine and requires the findings to match the `// EXPECT(rule.id)` /
`// EXPECT-NL(rule.id)` markers embedded in the fixtures exactly: no
missing findings, no extras. On top of the corpus round-trip it pins the
lexer/waiver-parser unit behavior, validates the SARIF 2.1.0 rendering
structurally, exercises the incremental cache (cold -> warm -> edited),
and asserts that every registered rule fires somewhere in the selftest —
so a rule cannot silently rot into a no-op.

Stdlib only, like the linter itself:  python3 tools/lint/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from syndoglint.cache import Cache  # noqa: E402
from syndoglint.cli import main as cli_main  # noqa: E402
from syndoglint.engine import SCAN_ROOTS, TreeContext, build_context, run  # noqa: E402
from syndoglint.lexer import parse_waivers, strip_source, tokenize  # noqa: E402
from syndoglint.model import all_rules  # noqa: E402
from syndoglint.output import render_json, render_sarif  # noqa: E402

CORPUS = Path(__file__).resolve().parent / "testdata" / "corpus"
ALL_FAMILIES = {
    "determinism", "concurrency", "hotpath", "layering", "headers", "api"
}

# Expectations that cannot live as in-file markers (CMakeLists.txt is not
# a lexed source file).
EXTRA_EXPECTED = {
    ("src/orphan/CMakeLists.txt", 1, "layering.unregistered"),
    ("src/mitigate/CMakeLists.txt", 6, "layering.deps_drift"),
}

_MARKER = re.compile(r"EXPECT(-NL)?\(([\w.]+)\)")


def corpus_expectations():
    expected = set(EXTRA_EXPECTED)
    for sub in SCAN_ROOTS:
        base = CORPUS / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".cpp", ".hpp", ".h", ".cc", ".cxx"):
                continue
            rel = path.relative_to(CORPUS).as_posix()
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                for m in _MARKER.finditer(line):
                    target = lineno + (1 if m.group(1) else 0)
                    expected.add((rel, target, m.group(2)))
    return expected


def lint_corpus(root=CORPUS, cache=None, families=ALL_FAMILIES):
    ctx = build_context(root, cxx="c++", jobs=4, cache=cache)
    return run(ctx, set(families))


class CorpusTest(unittest.TestCase):
    """The headline test: engine findings == corpus EXPECT markers."""

    @classmethod
    def setUpClass(cls):
        cls.result = lint_corpus()
        cls.actual = {
            (f.rel, f.line, f.rule) for f in cls.result.findings
        }
        cls.expected = corpus_expectations()

    def test_every_expected_finding_fires(self):
        missing = self.expected - self.actual
        self.assertFalse(
            missing, f"expected findings never fired: {sorted(missing)}"
        )

    def test_no_unexpected_findings(self):
        extra = self.actual - self.expected
        self.assertFalse(
            extra, f"findings without EXPECT markers: {sorted(extra)}"
        )

    def test_corpus_covers_every_corpus_reachable_rule(self):
        """Every rule reachable from a corpus run fires at least once
        (layering.cycle and headers.no_compiler need injected contexts
        and are covered by EngineEdgeTest)."""
        fired = {rule for (_, _, rule) in self.actual}
        reachable = {r.id for r in all_rules()} - {
            "layering.cycle",
            "headers.no_compiler",
        }
        self.assertEqual(reachable - fired, set())

    def test_waiver_inventory_is_accounted(self):
        # 5 waivers in waivers.cpp + the marker-free suppressions must all
        # appear in the inventory with used/justified flags.
        records = {
            (w.rel, w.line): w
            for w in self.result.waivers
            if w.rel.endswith("waivers.cpp")
        }
        self.assertEqual(len(records), 5)
        used = [w for w in records.values() if w.used]
        self.assertEqual(len(used), 4)  # all but the stale one


class ApiTestOnlyTest(unittest.TestCase):
    """api.test_only on the corpus: which fixture functions it reports
    (src/detect/include/syndog/detect/api_surface.hpp), and that the
    call-site-only root (perfbench/) is read but never linted."""

    @classmethod
    def setUpClass(cls):
        cls.result = lint_corpus()
        cls.reported = {
            f.message.split("'")[1]
            for f in cls.result.findings
            if f.rule == "api.test_only"
        }

    def test_positive_fixtures_fire(self):
        self.assertEqual(
            self.reported,
            {
                "syndog::detect::corpus_test_only_free",  # tests-only free
                "CorpusApi::bump",  # tests-only non-const member
                "CorpusApi::unread",  # inline accessor nothing reads
                "CorpusApi::digest",  # out-of-line const, tests only
            },
        )

    def test_negative_fixtures_stay_silent(self):
        for name in (
            "CorpusApi::level",  # inline const accessor a test reads
            "syndog::detect::corpus_perfbench_only",  # perfbench caller
            "syndog::detect::corpus_program_call",  # another src/ module
            "syndog::detect::corpus_waived_fake",  # justified waiver
            "CorpusApi::reset",  # address taken by the program
        ):
            self.assertNotIn(name, self.reported)

    def test_waiver_on_a_deleted_function_is_unused(self):
        unused = {
            (f.rel, f.line)
            for f in self.result.findings
            if f.rule == "waiver.unused"
        }
        self.assertIn(
            ("src/detect/include/syndog/detect/api_surface.hpp", 26), unused
        )

    def test_call_site_roots_are_read_not_linted(self):
        ctx = build_context(CORPUS, cxx="c++", jobs=1)
        self.assertIn("perfbench/api_bench.cpp", ctx.call_site_files)
        self.assertNotIn("perfbench/api_bench.cpp", ctx.files)
        self.assertFalse(
            [f for f in self.result.findings if f.rel.startswith("perfbench/")]
        )


class EngineEdgeTest(unittest.TestCase):
    def test_layer_cycle_detected(self):
        ctx = TreeContext(
            root=CORPUS,
            cxx="c++",
            jobs=1,
            layer_deps={"a": {"b"}, "b": {"a"}},
        )
        result = run(ctx, {"layering"}, account_waivers=False)
        self.assertEqual(
            {f.rule for f in result.findings}, {"layering.cycle"}
        )

    def test_missing_compiler_is_a_finding(self):
        ctx = TreeContext(
            root=CORPUS, cxx="syndog-no-such-compiler", jobs=1
        )
        result = run(ctx, {"headers"}, account_waivers=False)
        self.assertEqual(
            [f.rule for f in result.findings], ["headers.no_compiler"]
        )

    def test_every_registered_rule_fires_somewhere(self):
        fired = {(f.rule) for f in lint_corpus().findings}
        fired |= {"layering.cycle", "headers.no_compiler"}  # edge tests above
        self.assertEqual({r.id for r in all_rules()} - fired, set())


class LexerTest(unittest.TestCase):
    def test_comments_and_literals_are_blanked(self):
        source = (
            'int x = 7; // trailing rand()\n'
            'const char* s = "rand()"; /* block\nspanning */ int y;\n'
        )
        stripped = strip_source(source)
        self.assertNotIn("rand", stripped)
        # line structure intact
        self.assertEqual(stripped.count("\n"), source.count("\n"))
        self.assertIn('""', stripped)  # quotes survive, contents blanked

    def test_raw_string_comment_lookalike_survives(self):
        stripped = strip_source('auto s = R"x(// not a comment)x"; int z;')
        self.assertIn("int z", stripped)
        self.assertNotIn("not a comment", stripped)

    def test_tokenize_skips_preprocessor_lines(self):
        tokens = tokenize(
            "#include <cstdio>\n#define WIDE(a, \\\n  b) a\nint live;\n"
        )
        self.assertEqual(
            [t.text for t in tokens], ["int", "live", ";"]
        )

    def test_digit_separator_is_not_a_char_literal(self):
        tokens = tokenize(strip_source("int a = 1'000'000; int b{2'0};\n"))
        self.assertEqual(
            [t.text for t in tokens if t.text in ("{", "}", ";")],
            [";", "{", "}", ";"],
        )
        stripped = strip_source("char c = u8'}'; int d{0};\n")
        self.assertIn("u8''", stripped)  # a prefixed char literal is blanked
        self.assertIn("int d{0}", stripped)

    def test_brace_depth_tracks(self):
        tokens = tokenize("namespace n {\nint a;\n}\n")
        depth_of = {t.text: t.depth for t in tokens}
        self.assertEqual(depth_of["int"], 1)
        self.assertEqual(depth_of["namespace"], 0)


class WaiverParseTest(unittest.TestCase):
    def test_same_line_and_next_line_targets(self):
        waivers, _ = parse_waivers(
            "int a;  // syndog-lint: allow(rule.a) -- why a\n"
            "// syndog-lint: allow-next-line(rule.b) -- why b\n"
            "int b;\n"
        )
        self.assertEqual(sorted(waivers), [1, 3])
        self.assertEqual(waivers[1].rules, {"rule.a"})
        self.assertEqual(waivers[3].rules, {"rule.b"})
        self.assertEqual(waivers[3].justification, "why b")

    def test_multi_rule_and_justification_stripping(self):
        waivers, _ = parse_waivers(
            "x;  // syndog-lint: allow(r.one, r.two) — em-dash why\n"
        )
        self.assertEqual(waivers[1].rules, {"r.one", "r.two"})
        self.assertEqual(waivers[1].justification, "em-dash why")
        self.assertTrue(waivers[1].justified)

    def test_missing_justification_detected(self):
        waivers, _ = parse_waivers("x;  // syndog-lint: allow(r.one)\n")
        self.assertFalse(waivers[1].justified)

    def test_pragma_parsing(self):
        _, pragmas = parse_waivers(
            "// syndog-lint: hotpath-file -- steady state allocates nothing\n"
        )
        self.assertEqual(pragmas, {"hotpath-file"})


class SarifTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.doc = json.loads(render_sarif(lint_corpus()))

    def test_log_skeleton(self):
        self.assertEqual(self.doc["version"], "2.1.0")
        self.assertIn("sarif-schema-2.1.0.json", self.doc["$schema"])
        self.assertEqual(len(self.doc["runs"]), 1)

    def test_driver_and_rule_metadata(self):
        driver = self.doc["runs"][0]["tool"]["driver"]
        self.assertEqual(driver["name"], "syndog_lint")
        ids = [r["id"] for r in driver["rules"]]
        self.assertEqual(len(ids), len(set(ids)))
        self.assertIn("api.test_only", ids)
        for rule in driver["rules"]:
            self.assertTrue(rule["shortDescription"]["text"])
            self.assertTrue(rule["fullDescription"]["text"])
            self.assertIn(
                rule["defaultConfiguration"]["level"],
                ("error", "warning", "note"),
            )

    def test_results_reference_declared_rules(self):
        rules = self.doc["runs"][0]["tool"]["driver"]["rules"]
        results = self.doc["runs"][0]["results"]
        self.assertTrue(results)
        for res in results:
            self.assertTrue(res["message"]["text"])
            if "ruleIndex" in res:
                self.assertEqual(
                    rules[res["ruleIndex"]]["id"], res["ruleId"]
                )
            loc = res["locations"][0]["physicalLocation"]
            self.assertEqual(
                loc["artifactLocation"]["uriBaseId"], "SRCROOT"
            )
            self.assertFalse(loc["artifactLocation"]["uri"].startswith("/"))
            self.assertGreaterEqual(loc["region"]["startLine"], 1)

    def test_srcroot_base_declared(self):
        self.assertIn(
            "SRCROOT", self.doc["runs"][0]["originalUriBaseIds"]
        )

    def test_json_format_summary(self):
        doc = json.loads(render_json(lint_corpus()))
        self.assertEqual(doc["summary"]["findings"], len(doc["findings"]))
        self.assertEqual(doc["tool"]["name"], "syndog_lint")


class CacheTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="syndog_lint_self_")
        self.root = Path(self._tmp.name) / "corpus"
        shutil.copytree(CORPUS, self.root)
        self.cache_path = Path(self._tmp.name) / "cache.json"

    def tearDown(self):
        self._tmp.cleanup()

    def _run(self):
        cache = Cache(self.cache_path)
        result = lint_corpus(self.root, cache=cache)
        cache.save()
        return result, cache

    def test_warm_run_hits_everything_and_agrees(self):
        cold_result, cold_cache = self._run()
        self.assertEqual(cold_cache.file_hits, 0)
        self.assertGreater(cold_cache.header_misses, 0)

        warm_result, warm_cache = self._run()
        self.assertEqual(warm_cache.file_misses, 0)
        self.assertEqual(warm_cache.header_misses, 0)
        self.assertEqual(warm_cache.header_hit_rate(), 1.0)
        self.assertEqual(
            [f.render() for f in cold_result.findings],
            [f.render() for f in warm_result.findings],
        )

    def test_edited_file_misses_alone(self):
        _, _ = self._run()
        victim = self.root / "src" / "detect" / "determinism_bad.cpp"
        victim.write_text(
            victim.read_text(encoding="utf-8") + "// touched\n",
            encoding="utf-8",
        )
        result, cache = self._run()
        self.assertEqual(cache.file_misses, 1)
        self.assertEqual(cache.header_misses, 0)
        # A comment-only edit changes no findings.
        baseline = corpus_expectations()
        self.assertEqual(
            {(f.rel, f.line, f.rule) for f in result.findings}, baseline
        )

    def test_version_skew_discards_cache(self):
        self._run()
        data = json.loads(self.cache_path.read_text(encoding="utf-8"))
        data["version"] = "0.0.0-stale"
        self.cache_path.write_text(json.dumps(data), encoding="utf-8")
        _, cache = self._run()
        self.assertEqual(cache.file_hits, 0)


class CliTest(unittest.TestCase):
    def test_corpus_run_exits_one_with_findings(self):
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli_main(["--root", str(CORPUS), "--format", "json"])
        self.assertEqual(status, 1)
        doc = json.loads(out.getvalue())
        self.assertGreater(doc["summary"]["findings"], 0)

    def test_explain_and_unknown_rule(self):
        import contextlib
        import io

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(
                cli_main(["--explain", "determinism.unordered_iteration"]), 0
            )
        self.assertIn("sorted_items", out.getvalue())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(cli_main(["--explain", "api.test_only"]), 0)
        self.assertIn("state accessor", out.getvalue())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(cli_main(["--list-rules"]), 0)
        self.assertIn("api.test_only", out.getvalue())
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(cli_main(["--explain", "no.such.rule"]), 2)


if __name__ == "__main__":
    unittest.main(verbosity=2)
