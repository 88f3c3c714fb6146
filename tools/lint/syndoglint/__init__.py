"""syndoglint: the SYN-dog repo-invariant static analysis engine.

A small, stdlib-only analysis framework purpose-built for this tree's two
non-negotiable contracts:

  * determinism — every experiment replays bit-identically from seeds, and
    every `BENCH_*.json` sidecar is byte-identical across runs;
  * hot-path discipline — the DES and ingest hot paths stay allocation-free
    and single-writer outside sanctioned seams.

Layout:

  lexer.py    comment/string/raw-string stripping with exact line mapping,
              a token stream with brace/scope depth, waiver + pragma parsing
  model.py    Finding / Rule dataclasses and the rule registry
  rules_*.py  the rule families (determinism, concurrency, hotpath,
              layering, headers, api)
  engine.py   file iteration, two-pass analysis, waiver accounting
  cache.py    content-hash keyed incremental cache (file pass + header
              compiles)
  output.py   text / json / SARIF 2.1.0 renderers and the --explain catalog
  cli.py      argument parsing and exit-status policy

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

__version__ = "2.1.0"

TOOL_NAME = "syndog_lint"
TOOL_URI = "https://github.com/syndog/syndog/blob/main/docs/STATIC_ANALYSIS.md"
