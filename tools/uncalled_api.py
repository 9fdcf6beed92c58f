#!/usr/bin/env python3
"""Report header-declared functions that nothing calls, and option
fields that nothing sets.

Functions: scans every `src/**/*.hpp` for member and free function
declarations,
then looks for a use of each name anywhere in `src/`, `tests/`,
`bench/` and `examples/` (.hpp and .cpp). A use is a call (`fn(`,
`fn<T>(`), an address taken (`&fn`, `&Cls::fn`) or a `using`
declaration. Any other occurrence does not count, so a field, local
variable or parameter that shares a method's name does not hide the
dead method. Names are matched without their class, so two classes
sharing a method name still shield each other; the scan can miss dead
code but does not report live code, except for the allowlisted
patterns below that the regexes misread (a function passed by bare
name as a callback would be one).

Options: scans every struct in `src/**/*.hpp` whose name ends in
`Config`, `Rates` or `Params` for its data members, then looks in the
same four directories for an assignment to each name: `.f = v`, a
compound `.f += v`, a nested `.f.x = v`, or `.f.assign(` /
`.f.push_back(` (which also covers `.f.x.assign(`). A designated
initializer `{.f = v}` counts. A field no file sets holds its default
on every run, so it belongs in a named constant instead. Names are
matched without their struct, as for functions.

Usage:  python3 tools/uncalled_api.py

Prints every uncalled function and unset field, allowlisted functions
with their reason, and exits 1 when anything outside the allowlist is
reported, 0 otherwise.
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

OPTION_STRUCT = re.compile(r"(Config|Rates|Params)$")
ASSIGN_OPS = {"+", "-", "*", "/", "%", "&", "|", "^"}  # before a `=`
CONTAINER_SETTERS = {"assign", "push_back"}
NOT_FIELDS = {"using", "static", "friend", "enum", "struct", "class",
              "template", "typedef"}


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


def closes_template(toks, k):
    """Index just past the `>` matching the `<` at toks[k], or -1 when
    the statement ends first (then the `<` is a comparison)."""
    depth = 0
    for j in range(k, len(toks)):
        t = toks[j][0]
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t in (";", "{", "}"):
            return -1
    return -1


def is_use(toks, k):
    """True when toks[k] is called (`name(`, `name<...>(`), has its
    address taken (`&name`, `&Cls::name`), or is named in a `using`.
    Any other occurrence — a field, local or parameter of the same
    name — is not a use of a function."""
    nxt = toks[k + 1][0] if k + 1 < len(toks) else ""
    if nxt == "(":
        return True
    if nxt == "<":
        j = closes_template(toks, k + 1)
        if 0 <= j < len(toks) and toks[j][0] == "(":
            return True
    j = k - 1
    while j >= 1 and toks[j][0] == "::" and is_ident(toks[j - 1][0]):
        j -= 2  # skip the qualifier: Cls::fn, ns::Cls::fn
    if j >= 0 and toks[j][0] == "::":
        j -= 1  # ::fn
    if j < 0:
        return False
    if toks[j][0] == "using":
        return True
    if toks[j][0] != "&":
        return False
    # Unary & takes an address; after an operand it is a bitwise and.
    prev = toks[j - 1][0] if j >= 1 else ""
    binary = prev in (")", "]") or (prev[:1].isalnum() or prev[:1] == "_"
                                    ) and prev not in KEYWORDS
    return not binary


def declarator_end(stmt):
    """Index of the first `=`, `{`, `(` or `[` outside template angle
    brackets and parentheses in a member statement, or len(stmt)."""
    angle = paren = 0
    for i, (t, _) in enumerate(stmt):
        if paren == 0 and t == "<":
            angle += 1
        elif paren == 0 and t == ">" and angle:
            angle -= 1
        elif paren == 0 and angle == 0 and t in ("=", "{", "(", "["):
            return i
        elif t == "(":
            paren += 1
        elif t == ")":
            paren -= 1
    return len(stmt)


def option_fields(toks):
    """(name, offset) of every data member of a struct whose name ends
    in Config, Rates or Params. Nested types, `using`, static members
    and member functions are skipped."""
    fields = []
    k = 0
    while k + 2 < len(toks):
        if not (toks[k][0] in ("struct", "class")
                and OPTION_STRUCT.search(toks[k + 1][0])
                and toks[k + 2][0] == "{"):
            k += 1
            continue
        depth, k, stmt = 1, k + 3, []
        while k < len(toks) and depth > 0:
            t = toks[k][0]
            depth += (t == "{") - (t == "}")
            if depth == 1 and t == ";":
                end = declarator_end(stmt)
                skip = (end == 0 or stmt[0][0] in NOT_FIELDS
                        or (end < len(stmt) and stmt[end][0] == "("))
                if not skip and is_ident(stmt[end - 1][0]):
                    fields.append(stmt[end - 1])
                stmt = []
            elif depth == 1 and t == "}":
                # A closed brace initializer continues the statement; a
                # closed function body ends it.
                stmt.append(toks[k])
                end = declarator_end(stmt)
                if end < len(stmt) and stmt[end][0] == "(":
                    stmt = []
            elif depth == 1 and t == ":" and len(stmt) == 1:
                stmt = []  # public: / private: / protected:
            elif depth == 1 or (depth == 2 and t == "{"):
                stmt.append(toks[k])
            k += 1
    return fields


def assigned_names(toks):
    """Names set through a member access: `.f = v`, `.f += v`,
    `.f.x = v`, `.f.assign(` or `.f.push_back(`."""
    names = set()
    for k in range(1, len(toks) - 1):
        if toks[k - 1][0] != "." or not is_ident(toks[k][0]):
            continue
        j, last = k + 1, toks[k][0]
        while (j + 1 < len(toks) and toks[j][0] == "."
               and is_ident(toks[j + 1][0])):
            last = toks[j + 1][0]
            j += 2
        if j >= len(toks):
            continue
        t, off = toks[j]
        nxt = toks[j + 1] if j + 1 < len(toks) else ("", -1)
        glued = nxt[0] == "=" and nxt[1] == off + 1
        if ((t == "=" and not glued) or (t in ASSIGN_OPS and glued)
                or (t == "(" and j > k + 1 and last in CONTAINER_SETTERS)):
            names.add(toks[k][0])
    return names


def unset_options(root, parsed):
    """[(file, offset, name)] of option fields no scanned file sets,
    and the number of option fields declared."""
    declared = [(p, off, name) for p, toks in parsed.items()
                if p.suffix == ".hpp" and p.is_relative_to(root / "src")
                for name, off in option_fields(toks)]
    assigned = set()
    for toks in parsed.values():
        assigned |= assigned_names(toks)
    return [d for d in declared if d[2] not in assigned], len(declared)


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
            elif is_use(toks, k):
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

    unset, fields = unset_options(root, parsed)
    for p, off, name in sorted(unset):
        line = p.read_text().count("\n", 0, off) + 1
        print(f"{p.relative_to(root)}:{line}: option field {name} is "
              f"never set; make it a named constant")
    if failed or stale or unset:
        return 1
    print(f"uncalled_api: {len(declared)} header-declared names, "
          f"none uncalled outside the allowlist; {fields} option "
          f"fields, every one set somewhere")
    return 0


if __name__ == "__main__":
    sys.exit(main())
