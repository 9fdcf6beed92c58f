#!/usr/bin/env python3
"""Report header-declared functions that nothing calls.

Scans every `src/**/*.hpp` for member and free function declarations,
then looks for a use of each name anywhere in `src/`, `tests/`,
`bench/` and `examples/` (.hpp and .cpp). A use is any occurrence of
the name that is not itself a declaration or an out-of-line
definition: a call, an address taken (`&Cls::fn`), a `using`
declaration. Names are matched without their class, so two classes
sharing a method name shield each other; the scan can miss dead code
but does not report live code, except for the allowlisted patterns
below that the regexes misread.

Usage:  python3 tools/uncalled_api.py

Prints every uncalled name, allowlisted ones with their reason, and
exits 1 when a name outside the allowlist has no use, 0 otherwise.
"""

import pathlib
import re
import sys

SCAN_DIRS = ("src", "tests", "bench", "examples")

# Known false positives of the regexes below: name -> why it is not
# dead code. A name belongs here only when a build proves it is used;
# an entry whose name the scan no longer reports fails the run, so the
# list cannot go stale. Empty today. Patterns that would land here:
# - a header-inline RAII local such as `std::lock_guard<M> lock(mu_);`,
#   which reads as a declaration of a function `lock`;
# - a function reached only through token pasting in a macro.
# Qualified calls such as `return HandlerResult::resched(c);` are
# recognised as calls and need no entry.
ALLOWLIST = {
}

KEYWORDS = {
    "alignas", "alignof", "and", "case", "catch", "co_await", "co_return",
    "co_yield", "decltype", "delete", "do", "else", "for", "if", "new",
    "noexcept", "not", "operator", "or", "requires", "return", "sizeof",
    "static_assert", "switch", "throw", "typeid", "using", "while",
}

TOKEN = re.compile(r"[A-Za-z_]\w*|::|->|&&|\|\||\S")


def strip_code(text):
    """Blank out comments, string/char literals and preprocessor lines,
    keeping offsets and newlines so positions still map to lines."""
    out = []
    i, n = 0, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if at_line_start and c == "#":
            j = text.find("\n", i)
            while j > 0 and text[j - 1] == "\\":  # continued directive
                j = text.find("\n", j + 1)
            j = n if j < 0 else j
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:j]))
            i = j
            continue
        if c == "\n":
            at_line_start = True
            out.append(c)
            i += 1
            continue
        if not c.isspace():
            at_line_start = False
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join("\n" if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'" and not (c == "'" and i > 0 and text[i - 1].isalnum()):
            # A ' right after a digit or letter is a digit separator.
            raw = c == '"' and re.search(r'R$', text[max(0, i - 3):i])
            if raw:
                m = re.match(r'"([^(]*)\(', text[i:])
                end = text.find(")" + m.group(1) + '"', i) if m else -1
                j = n if end < 0 else end + len(m.group(1)) + 2
            else:
                j = i + 1
                while j < n and text[j] != c:
                    j += 2 if text[j] == "\\" else 1
                j = min(j + 1, n)
            out.append(c + " " * max(0, j - i - 2) + c if j - i >= 2 else c)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def tokens(code):
    return [(m.group(), m.start()) for m in TOKEN.finditer(code)]


def is_ident(tok):
    return tok[0].isalpha() or tok[0] == "_"


def is_declaration(toks, k):
    """True when toks[k] (a name followed by `(`) is a declaration or an
    out-of-line definition rather than a use."""
    j = k - 1
    while j >= 1 and toks[j][0] == "::" and is_ident(toks[j - 1][0]):
        j -= 2  # skip the qualifier: Cls::fn, ns::Cls::fn
    if j >= 0 and toks[j][0] == "::":
        return False  # ::fn( — a call to a global
    # `T* fn(` / `T& fn(`: the sigil hugs the type. `a * fn(` and
    # `a & fn(` are expressions.
    while (j >= 1 and toks[j][0] in ("*", "&", "&&")
           and toks[j - 1][1] + len(toks[j - 1][0]) == toks[j][1]):
        j -= 1
    if j < 0 or toks[j][0] in ("*", "&", "&&"):
        return False
    prev = toks[j][0]
    if prev == ">":
        return True  # std::vector<T> fn(
    return is_ident(prev) and prev not in KEYWORDS


def main():
    root = pathlib.Path(__file__).resolve().parent.parent

    files = sorted(p for d in SCAN_DIRS for p in (root / d).rglob("*")
                   if p.suffix in (".hpp", ".cpp"))
    parsed = {p: tokens(strip_code(p.read_text())) for p in files}

    types = set()
    for toks in parsed.values():
        for k in range(len(toks) - 1):
            if toks[k][0] in ("class", "struct", "enum", "union") and is_ident(toks[k + 1][0]):
                types.add(toks[k + 1][0])

    declared = {}  # name -> [(file, offset)] of its header declarations
    used = set()
    for p, toks in parsed.items():
        for k, (tok, off) in enumerate(toks):
            if not is_ident(tok) or tok in KEYWORDS:
                continue
            call = k + 1 < len(toks) and toks[k + 1][0] == "("
            if call and is_declaration(toks, k):
                if (p.suffix == ".hpp" and p.is_relative_to(root / "src")
                        and tok not in types
                        and not (k > 0 and toks[k - 1][0] == "~")):
                    declared.setdefault(tok, []).append((p, off))
            else:
                used.add(tok)

    dead = sorted((p, off, name) for name, sites in declared.items()
                  if name not in used for p, off in sites)
    failed = False
    for p, off, name in dead:
        line = p.read_text().count("\n", 0, off) + 1
        where = f"{p.relative_to(root)}:{line}"
        if name in ALLOWLIST:
            print(f"{where}: {name} (allowlisted: {ALLOWLIST[name]})")
            continue
        failed = True
        print(f"{where}: {name} has no caller")
    stale = sorted(set(ALLOWLIST) - {name for _, _, name in dead})
    for name in stale:
        print(f"allowlist entry {name} is used now; remove it")
    if failed or stale:
        return 1
    print(f"uncalled_api: {len(declared)} header-declared names, "
          f"none uncalled outside the allowlist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
