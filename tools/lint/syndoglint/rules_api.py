"""api.* — a public function exists because the program calls it.

The design aim says code the detection path does not use is deleted, not
maintained. A function declared in a `src/**/include` header that nothing
calls, or that only tests/ calls, is code kept alive by its own tests:
it costs review, lint and sanitizer time and proves nothing about the
program. `api.test_only` finds such functions by name.

The rule is a token-level cross reference, not a C++ front end:

  1. every public header is walked with a scope stack (namespace, class,
     other) and each function declared at namespace or class scope is
     recorded with its scope, line, and three flags: const-qualified,
     takes no argument, and has its body in the header;
  2. every file under src/, tests/, bench/ and examples/, plus the
     call-site-only roots (perfbench/), is scanned for uses of those
     names: `name(`, `name<...>(` and `&name` outside a declarator.
     A declarator is a name whose preceding token, past any `A::B::`
     qualifier, is a type word, `>`, `*` or `&`, and whose `)` is
     followed (past cv/ref qualifiers and `noexcept`) by `{`, `;`, `:`
     or `= 0/default/delete`: the function's own declarations and
     definitions, and local variables, never count as uses;
  3. a declared function with no use outside tests/ is a finding, unless
     it is a state accessor: a const, no-argument member with its body
     in the header that a test reads.

Uses are matched by name alone, so two classes' `reset()` share their
callers. The rule can therefore miss a test-only function whose name
the program calls on another type, but it does not report a function
the program calls (short of a macro-only or implicit call: operators,
constructors and destructors are never recorded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .lexer import IDENT, SourceFile, Token
from .model import ERROR, Finding, Rule, register

# Roots read for call sites only: they are not linted (perfbench's span
# timer reads steady_clock by design), but the program code they compile
# against is not dead.
CALL_SITE_ROOTS = ("perfbench",)

_TEST_DIR = "tests/"

_TYPE_KEYWORDS = frozenset(
    {
        "auto", "bool", "char", "char8_t", "char16_t", "char32_t", "double",
        "float", "int", "long", "short", "signed", "unsigned", "void",
        "wchar_t",
    }
)

# Keywords other than type names: none of them names a function, and none
# can sit right before a declared function's name.
_KEYWORDS = frozenset(
    {
        "alignas", "alignof", "and", "and_eq", "asm", "bitand", "bitor",
        "break", "case", "catch", "class", "co_await", "co_return",
        "co_yield", "compl", "concept", "const", "const_cast", "consteval",
        "constexpr", "constinit", "continue", "decltype", "default",
        "defined", "delete", "do", "dynamic_cast", "else", "enum",
        "explicit", "export", "extern", "false", "final", "for", "friend",
        "goto", "if", "inline", "mutable", "namespace", "new", "noexcept",
        "not", "not_eq", "nullptr", "operator", "or", "or_eq", "override",
        "private", "protected", "public", "register", "reinterpret_cast",
        "requires", "return", "sizeof", "static", "static_assert",
        "static_cast", "struct", "switch", "template", "this",
        "thread_local", "throw", "true", "try", "typedef", "typeid",
        "typename", "union", "using", "virtual", "volatile", "while",
        "xor", "xor_eq",
    }
)

_DECL_SPECIFIERS = frozenset(
    {
        "class", "const", "consteval", "constexpr", "constinit", "enum",
        "explicit", "extern", "friend", "inline", "mutable", "static",
        "struct", "template", "thread_local", "typename", "union",
        "virtual", "volatile",
    }
)

_TYPE_TAIL_PUNCT = frozenset({">", ">>", "*", "&", "&&"})
_TRAILING_QUALIFIERS = frozenset(
    {"const", "volatile", "&", "&&", "override", "final", "mutable"}
)


def _match(tokens: List[Token], i: int, open_: str, close: str) -> int:
    """Index of the token closing the bracket at `i` (len(tokens) if
    unbalanced)."""
    depth = 0
    for j in range(i, len(tokens)):
        text = tokens[j].text
        if text == open_:
            depth += 1
        elif text == close:
            depth -= 1
            if depth == 0:
                return j
    return len(tokens)


def _qualifier_start(tokens: List[Token], i: int) -> int:
    """Start of the `A::B::` (or `::`) qualifier chain ending before
    tokens[i]; `i` itself when the name is unqualified."""
    j = i
    while j >= 2 and tokens[j - 1].text == "::":
        if tokens[j - 2].kind == IDENT:
            j -= 2
        elif tokens[j - 2].text == ">":  # Class<T>::
            depth, k = 0, j - 2
            while k > 0:
                depth += {">": 1, "<": -1}.get(tokens[k].text, 0)
                if depth == 0:
                    break
                k -= 1
            if k == 0 or tokens[k - 1].kind != IDENT:
                break
            j = k - 1
        else:
            break
    if j >= 1 and tokens[j - 1].text == "::":
        j -= 1
    return j


def _typeish(tok: Token) -> bool:
    if tok.kind == IDENT:
        return tok.text in _TYPE_KEYWORDS or tok.text not in _KEYWORDS
    return tok.text in _TYPE_TAIL_PUNCT


def _declaration_head(tokens: List[Token], start: int) -> bool:
    """True when the tokens from the statement's start up to `start` can
    be a declaration's specifiers and type: identifiers other than
    expression keywords, `::`, `*`, `&`, `[[...]]` and template argument
    lists. `z_ > threshold()` or `x = a * f()` is an expression."""
    depth = 0  # template-argument depth, walking backwards
    for k in range(start - 1, -1, -1):
        text = tokens[k].text
        if text in (";", "{", "}"):
            return depth == 0
        if text == ">":
            depth += 1
        elif text == ">>":
            depth += 2
        elif text == "<":
            depth -= 1
            if depth < 0:
                return False
        elif depth:
            continue
        elif text == ":":  # access specifier
            return True
        elif tokens[k].kind == IDENT:
            if text in _KEYWORDS and text not in _DECL_SPECIFIERS:
                return False
        elif text not in ("::", "*", "&", "&&", "[", "]"):
            return False
    return depth == 0


@dataclass
class _Declarator:
    params: List[Token]
    const: bool
    body_open: Optional[int]  # index of the body's `{`, None if `;`-ended
    qualifier: List[str]  # explicit `A::B::` names before the declared name
    deleted: bool = False


def _declarator(tokens: List[Token], i: int) -> Optional[_Declarator]:
    """The declaration or definition whose name is tokens[i] (followed by
    `(`), or None when tokens[i] is a use."""
    start = _qualifier_start(tokens, i)
    if (
        start == 0
        or not _typeish(tokens[start - 1])
        or not _declaration_head(tokens, start)
    ):
        return None
    n = len(tokens)
    close = _match(tokens, i + 1, "(", ")")
    k = close + 1
    const = False
    while k < n:
        text = tokens[k].text
        if text in _TRAILING_QUALIFIERS:
            const = const or text == "const"
            k += 1
        elif text == "noexcept":
            k += 1
            if k < n and tokens[k].text == "(":
                k = _match(tokens, k, "(", ")") + 1
        elif text == "->":  # trailing return type
            k += 1
            while k < n and tokens[k].text not in ("{", ";", "="):
                k += 1
        else:
            break
    if k >= n:
        return None
    term = tokens[k].text
    qualifier = [t.text for t in tokens[start:i] if t.kind == IDENT]
    params = tokens[i + 2 : close]
    if term == ";":
        return _Declarator(params, const, None, qualifier)
    if term == "{":
        return _Declarator(params, const, k, qualifier)
    if term == ":":  # constructor initializer list
        while k < n and tokens[k].text != "{":
            k += 1
        return _Declarator(params, const, k if k < n else None, qualifier)
    if (
        term == "="
        and k + 1 < n
        and tokens[k + 1].text in ("0", "default", "delete")
    ):
        return _Declarator(
            params, const, None, qualifier, tokens[k + 1].text == "delete"
        )
    return None


# --------------------------------------------------------------------------
# Pass 1: the public API


@dataclass
class ApiFunction:
    rel: str  # the declaring header
    line: int  # first declaration's line (where findings and waivers sit)
    scope: str  # enclosing class (members) or namespace (free functions)
    name: str
    member: bool
    accessor: bool  # every declaration: const, no argument, body in header

    @property
    def qualified(self) -> str:
        return f"{self.scope}::{self.name}" if self.scope else self.name


def _brace_kind(head: List[Token]) -> Tuple[str, str]:
    """Classifies the `{` ending the statement head `head` as a
    ('namespace', name), ('class', name) or ('other', '') scope."""
    texts = [t.text for t in head]
    if "namespace" in texts:
        at = texts.index("namespace")
        return "namespace", "".join(texts[at + 1 :])
    if "enum" in texts:
        return "other", ""
    angle = nest = 0  # template-argument and ()/[] depth
    for idx, text in enumerate(texts):
        if text in ("(", "["):
            nest += 1
        elif text in (")", "]"):
            nest -= 1
        elif nest:
            continue
        elif text == "<":
            angle += 1
        elif text == ">":
            angle -= 1
        elif text == ">>":
            angle -= 2
        elif text == "=":
            return "other", ""
        elif angle == 0 and text in ("class", "struct", "union"):
            inner = 0  # skip alignas(...) and [[attributes]]
            for tok in head[idx + 1 :]:
                if tok.text in ("(", "["):
                    inner += 1
                elif tok.text in (")", "]"):
                    inner -= 1
                elif (
                    not inner
                    and tok.kind == IDENT
                    and tok.text not in _KEYWORDS
                ):
                    return "class", tok.text
            return "other", ""
    return "other", ""


def _no_args(params: List[Token]) -> bool:
    return not params or [t.text for t in params] == ["void"]


def collect_api(sf: SourceFile) -> List[ApiFunction]:
    """Functions declared at namespace or class scope of a public header,
    one entry per (scope, name) in first-declaration order."""
    tokens = sf.tokens
    n = len(tokens)
    scopes: List[Tuple[str, str]] = []
    found: Dict[Tuple[str, str], ApiFunction] = {}
    head = 0  # first token of the current statement
    i = 0
    while i < n:
        tok = tokens[i]
        text = tok.text
        if text == "{":
            scopes.append(_brace_kind(tokens[head:i]))
            i += 1
            head = i
            continue
        if text == "}":
            if scopes:
                scopes.pop()
            i += 1
            head = i
            continue
        if text == ";":
            i += 1
            head = i
            continue
        if (
            text in ("public", "private", "protected")
            and i + 1 < n
            and tokens[i + 1].text == ":"
        ):
            i += 2
            head = i
            continue
        kind, name = scopes[-1] if scopes else ("namespace", "")
        if (
            kind != "other"
            and tok.kind == IDENT
            and tok.text not in _KEYWORDS
            and tok.text not in _TYPE_KEYWORDS
            and i + 1 < n
            and tokens[i + 1].text == "("
            and i > 0
            and tokens[i - 1].text not in ("~", "operator")
        ):
            decl = _declarator(tokens, i)
            if decl is not None and not decl.deleted:
                owner = decl.qualifier[-1] if decl.qualifier else (
                    name if kind == "class" else ""
                )
                member = kind == "class" or any(
                    f.scope == owner and f.member for f in found.values()
                )
                if tok.text != owner and not (
                    decl.body_open is None and decl.qualifier
                ):
                    scope = owner if member else "::".join(
                        s for k, s in scopes if k == "namespace" and s
                    )
                    accessor = (
                        member
                        and decl.const
                        and _no_args(decl.params)
                        and decl.body_open is not None
                    )
                    key = (scope, tok.text)
                    entry = found.get(key)
                    if entry is None:
                        found[key] = ApiFunction(
                            sf.rel, tok.line, scope, tok.text, member, accessor
                        )
                    elif decl.qualifier and decl.body_open is not None:
                        # Out-of-class definition later in the header: the
                        # in-class declaration's flags hold, now with a body.
                        entry.accessor = (
                            entry.member
                            and decl.const
                            and _no_args(decl.params)
                        )
                    else:
                        entry.accessor = entry.accessor and accessor
                if decl.body_open is not None:
                    i = _match(tokens, decl.body_open, "{", "}") + 1
                    head = i
                    continue
        i += 1
    return list(found.values())


# --------------------------------------------------------------------------
# Pass 2: uses


def _is_use(tokens: List[Token], i: int, free: bool) -> bool:
    n = len(tokens)
    nxt = tokens[i + 1].text if i + 1 < n else ""
    if nxt == "(":
        return _declarator(tokens, i) is None
    if nxt == "<":
        close = i + 1
        depth = 0
        for j in range(i + 1, min(n, i + 64)):
            text = tokens[j].text
            if text == "<":
                depth += 1
            elif text in (">", ">>"):
                depth -= 1 if text == ">" else 2
                if depth <= 0:
                    close = j
                    break
            elif text in (";", "{", "}"):
                return False
        return close + 1 < n and tokens[close + 1].text == "("
    # `&name` / `&Class::name`: a unary `&` (not `Type& name`) takes the
    # function's address.
    start = _qualifier_start(tokens, i)
    if start == 0:
        return False
    prev = tokens[start - 1].text
    if prev == "&":
        return start >= 2 and not _typeish(tokens[start - 2])
    # A free function passed by name (`std::sort(a, b, less)`). Members
    # cannot be, and a same-named variable must not hide a dead member.
    return (
        free
        and prev in ("(", ",", "=", "{", "return")
        and nxt in (")", ",", ";", "}")
    )


def count_uses(
    files: Iterable[SourceFile], api: Iterable[ApiFunction]
) -> Dict[str, Tuple[int, int]]:
    """name -> (program uses, test uses) over `files`."""
    api = list(api)
    free = {f.name for f in api if not f.member}
    counts: Dict[str, List[int]] = {f.name: [0, 0] for f in api}
    for sf in files:
        slot = 1 if sf.rel.startswith(_TEST_DIR) else 0
        tokens = sf.tokens
        for i, tok in enumerate(tokens):
            if (
                tok.kind == IDENT
                and tok.text in counts
                and _is_use(tokens, i, tok.text in free)
            ):
                counts[tok.text][slot] += 1
    return {name: (c[0], c[1]) for name, c in counts.items()}


def _is_public_header(rel: str) -> bool:
    return rel.startswith("src/") and "/include/" in rel and rel.endswith(".hpp")


def _check_test_only(ctx) -> Iterable[Finding]:
    api: List[ApiFunction] = []
    for sf in ctx.files_under("src/"):
        if _is_public_header(sf.rel):
            api.extend(collect_api(sf))
    files = list(ctx.files.values()) + list(ctx.call_site_files.values())
    uses = count_uses(files, api)
    for fn in api:
        program, tests = uses[fn.name]
        if program or (tests and fn.accessor):
            continue
        if tests:
            message = (
                f"'{fn.qualified}' is called only from tests/ ({tests} "
                "use(s)); delete it with the tests that exercise it, make "
                "those tests call the program function it wraps, or waive "
                "it as a fake, fixture or reference path with `-- why`"
            )
        else:
            message = (
                f"nothing calls '{fn.qualified}' (src/, bench/, examples/, "
                "perfbench/ or tests/); delete it"
            )
        yield Finding(fn.rel, fn.line, "api.test_only", message)


register(
    Rule(
        id="api.test_only",
        family="api",
        severity=ERROR,
        summary=(
            "public function that nothing calls, or that only tests/ calls"
        ),
        rationale=(
            "A function declared in a src/**/include header is the "
            "program's surface. If no file in src/ (other than its own "
            "declarations and definitions), bench/, examples/ or "
            "perfbench/ calls it, the detection path does not use it: a "
            "test that exercises it pins code nothing runs, and a "
            "wrapper kept for tests hides which function the program "
            "really calls. Callers are matched by name over a token "
            "stream, so same-named functions share their callers. A "
            "const, no-argument member with its body in the header that "
            "a test reads is a state accessor, the way tests observe the "
            "program, and is exempt; an accessor nothing reads, or an "
            "out-of-line const computation only tests call, is not."
        ),
        fix_hint=(
            "Delete the function and the tests that only it needs; point "
            "tests of a thin wrapper at the program function it wraps; "
            "keep a fake, fixture builder or reference path that tests "
            "use to check other code with "
            "`// syndog-lint: allow-next-line(api.test_only) -- <why>` "
            "above its declaration."
        ),
        tree_check=_check_test_only,
    )
)
