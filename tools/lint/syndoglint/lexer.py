"""Shared lexer pass: stripping, tokens, scope depth, waivers, pragmas.

Every rule consumes the same `SourceFile` object, built exactly once per
file per run:

  * `stripped_lines` — the source with comments and string/char literal
    *contents* blanked out (quotes preserved), line structure intact, so
    line numbers in findings always refer to the real file. Raw strings
    (`R"delim(...)delim"`) are handled, including multi-line ones.
  * `tokens` — identifier/number/punctuation tokens with (line, brace
    depth) attached; enough structure for scope-sensitive rules without
    pretending to be a C++ parser.
  * `waivers` — parsed `// syndog-lint: allow(...)` annotations, same-line
    and next-line forms, with their justification text.
  * `pragmas` — file-level markers such as `// syndog-lint: hotpath-file`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

# --------------------------------------------------------------------------
# Stripping

_RAW_STRING_OPEN = re.compile(r'R"([^()\\ \t\v\f\n]{0,16})\(')


def _is_digit_separator(text: str, i: int) -> bool:
    """True when the `'` at `i` separates digits (`1'000'000`) rather than
    opening a character literal (`'a'`, `u8'a'`): it sits between two
    alphanumerics inside a token that starts with a digit."""
    if i == 0 or i + 1 >= len(text):
        return False
    if not (text[i - 1].isalnum() and text[i + 1].isalnum()):
        return False
    j = i - 1
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_.'"):
        j -= 1
    return text[j].isdigit()


def strip_source(text: str) -> str:
    """Blanks comments and literal contents while preserving line structure.

    `// ...` and `/* ... */` comments become spaces/newlines; the contents
    of "..." and '...' literals are blanked but the quotes stay (so token
    boundaries survive); raw strings are recognized so a `//` inside one is
    not mistaken for a comment.
    """
    out: List[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif ch == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            end = n if j == -1 else j + 2
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif ch == "R" and _RAW_STRING_OPEN.match(text, i):
            m = _RAW_STRING_OPEN.match(text, i)
            assert m is not None
            closer = ")" + m.group(1) + '"'
            j = text.find(closer, m.end())
            end = n if j == -1 else j + len(closer)
            out.append('""')
            out.append("\n" * text.count("\n", i, end))
            i = end
        elif ch == "'" and _is_digit_separator(text, i):
            out.append(ch)
            i += 1
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            out.append(quote)
            out.append(quote if j < n and text[j] == quote else "")
            out.append("\n" * text.count("\n", i, min(j + 1, n)))
            i = j + 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Tokens

IDENT = "ident"
NUMBER = "number"
PUNCT = "punct"

_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"  # identifier / keyword
    r"|\d[\w.]*"  # number (incl. 0x..., 1.5e3, digit separators)
    r"|::|<<=|>>=|<=>|->\*|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%^&|~!<>=?:;,.(){}\[\]#]"
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    depth: int  # brace depth *before* this token is applied


def tokenize(stripped: str) -> List[Token]:
    """Tokens for scope-sensitive rules. Preprocessor lines (and their
    backslash continuations) are line-based, not declaration-based — they
    carry no `;`/`{` structure — so they are excluded from the stream;
    rules that care about #include/#define text use `stripped_lines`."""
    tokens: List[Token] = []
    depth = 0
    in_directive = False
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        if in_directive or line.lstrip().startswith("#"):
            in_directive = line.rstrip().endswith("\\")
            continue
        for m in _TOKEN_RE.finditer(line):
            text = m.group(0)
            kind = PUNCT
            if text[0].isalpha() or text[0] == "_":
                kind = IDENT
            elif text[0].isdigit():
                kind = NUMBER
            tokens.append(Token(kind, text, lineno, depth))
            if text == "{":
                depth += 1
            elif text == "}":
                depth = max(0, depth - 1)
    return tokens


# --------------------------------------------------------------------------
# Waivers and pragmas

# Same-line: code;  // syndog-lint: allow(rule.a, rule.b) -- why this is ok
# Next-line: // syndog-lint: allow-next-line(rule.a) -- why this is ok
# File-wide pragma: // syndog-lint: hotpath-file [-- note]
_WAIVER_RE = re.compile(
    r"syndog-lint:\s*(allow|allow-next-line)\(([\w.,\s-]+)\)\s*(.*)"
)
_PRAGMA_RE = re.compile(r"syndog-lint:\s*(hotpath-file)\b")
_JUSTIFICATION_STRIP = re.compile(r"^[-—–:\s]+")


@dataclass
class Waiver:
    line: int  # the line whose findings this waiver suppresses
    rules: Set[str]
    justification: str
    declared_line: int  # where the comment physically sits
    used_rules: Set[str] = field(default_factory=set)

    @property
    def justified(self) -> bool:
        return bool(self.justification)


@dataclass
class SourceFile:
    path: Path
    rel: str  # posix path relative to the scan root
    raw: str
    stripped_lines: List[str] = field(default_factory=list)
    tokens: List[Token] = field(default_factory=list)
    waivers: Dict[int, Waiver] = field(default_factory=dict)
    pragmas: Set[str] = field(default_factory=set)
    includes: List[Tuple[int, str]] = field(default_factory=list)  # syndog/<mod>

    @property
    def raw_lines(self) -> List[str]:
        return self.raw.splitlines()

    def waiver_for(self, line: int, rule: str) -> Optional[Waiver]:
        w = self.waivers.get(line)
        if w is not None and (rule in w.rules or "all" in w.rules):
            return w
        return None


_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+["<]syndog/([A-Za-z0-9_]+)/')


def parse_waivers(raw: str) -> Tuple[Dict[int, Waiver], Set[str]]:
    """Scans raw comment text for waivers and file pragmas."""
    waivers: Dict[int, Waiver] = {}
    pragmas: Set[str] = set()
    for lineno, line in enumerate(raw.splitlines(), start=1):
        comment = line.find("//")
        if comment == -1:
            continue
        body = line[comment + 2 :]
        pm = _PRAGMA_RE.search(body)
        if pm:
            pragmas.add(pm.group(1))
        wm = _WAIVER_RE.search(body)
        if not wm:
            continue
        target = lineno + 1 if wm.group(1) == "allow-next-line" else lineno
        rules = {item.strip() for item in wm.group(2).split(",") if item.strip()}
        justification = _JUSTIFICATION_STRIP.sub("", wm.group(3)).strip()
        existing = waivers.get(target)
        if existing is not None:
            existing.rules |= rules
            if justification and not existing.justification:
                existing.justification = justification
        else:
            waivers[target] = Waiver(target, rules, justification, lineno)
    return waivers, pragmas


def lex_file(path: Path, rel: str, raw: Optional[str] = None) -> SourceFile:
    if raw is None:
        raw = path.read_text(encoding="utf-8", errors="replace")
    sf = SourceFile(path=path, rel=rel, raw=raw)
    stripped = strip_source(raw)
    sf.stripped_lines = stripped.splitlines()
    sf.tokens = tokenize(stripped)
    sf.waivers, sf.pragmas = parse_waivers(raw)
    for lineno, line in enumerate(raw.splitlines(), start=1):
        m = _INCLUDE_RE.match(line)
        if m:
            sf.includes.append((lineno, m.group(1)))
    return sf
