#!/usr/bin/env python3
"""Every public function of the library crates has a caller.

Scans the non-test part of each `.rs` file under `crates/*/src` (the lines
before its first `#[cfg(test)]`), skipping the offline shims and the
binaries (`crates/hyperq`, every `main.rs`), and lists each `pub fn` whose
name no program mentions.  A caller is any mention of the name in the
non-test code of `crates/`, `src/`, `examples/` or `benchmark/src`;
comments, string literals, `pub use` re-exports and `fn` definitions do
not count.  It is a name search: a name shared with another function
counts as called.

A public function that only tests call belongs in the test, unless it
states one of the paper's definitions or theorems that a test checks, or
it is an instrument a test reads.  Those are listed in
`scripts/api_allow.txt`, one per line: the defining file, the function's
name and the reason, separated by whitespace.  Exits non-zero, listing
each violation, when:

  * a `pub fn` has no caller and no allow-list entry;
  * an allow-list entry is stale: its function is gone from that file,
    or it now has a caller, so the entry should go.

Run from anywhere:

    python3 scripts/check_api.py
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW = ROOT / "scripts" / "api_allow.txt"
CALLER_DIRS = ("crates", "src", "examples", "benchmark/src")
SKIPPED = ("crates/shims/", "crates/hyperq/")

# Comments, then string and char literals: blanked before any name search.
# Lifetimes (`'a`) are left alone because a char literal needs its close
# quote within one (possibly escaped) character.
LEXEMES = re.compile(
    r"//[^\n]*"
    r"|/\*.*?\*/"
    r'|\bb?r(#*)".*?"\1'
    r'|b?"(?:\\.|[^"\\])*"'
    r"|b?'(?:\\.|\\u\{[0-9a-fA-F]+\}|[^'\\\n])'",
    re.S,
)
PUB_USE = re.compile(r"\bpub(?:\([^)]*\))?\s+use\b[^;]*;", re.S)
FN_DEF = re.compile(r"\bfn\s+(r#)?\w+")
PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+)?fn\s+(\w+)", re.M)


def non_test(path: Path) -> str:
    text = path.read_text()
    cut = text.find("#[cfg(test)]")
    return text if cut < 0 else text[:cut]


def code(path: Path) -> str:
    """The non-test part of `path` with comments and literals blanked."""
    return LEXEMES.sub(lambda m: " " if m.group(0).startswith("/") else '""', non_test(path))


def rel(path: Path) -> str:
    return path.relative_to(ROOT).as_posix()


def library_files() -> list[Path]:
    files = []
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")):
        name = rel(path)
        if name.startswith(SKIPPED) or path.name == "main.rs":
            continue
        files.append(path)
    return files


def caller_text() -> str:
    """Every caller's code, with re-exports and definitions taken out."""
    parts = []
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).glob("**/*.rs")):
            name = rel(path)
            if "/tests/" in name or name.startswith(("crates/shims/", "benchmark/target")):
                continue
            parts.append(FN_DEF.sub("fn", PUB_USE.sub(";", code(path))))
    return "\n".join(parts)


def uncalled(callers: str) -> dict[tuple[str, str], bool]:
    """Every library `pub fn`, keyed by (file, name): True when uncalled."""
    found = {}
    for path in library_files():
        for name in PUB_FN.findall(code(path)):
            mentioned = re.search(r"\b%s\b" % re.escape(name), callers)
            found[(rel(path), name)] = mentioned is None
    return found


def load_allow() -> list[tuple[int, str, str, str]]:
    entries = []
    for lineno, line in enumerate(ALLOW.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        reason = parts[2] if len(parts) == 3 else ""
        entries.append((lineno, parts[0], parts[1] if len(parts) > 1 else "", reason))
    return entries


def check() -> list[str]:
    functions = uncalled(caller_text())
    errors: list[str] = []
    allowed = set()
    for lineno, path, name, reason in load_allow():
        where = f"{rel(ALLOW)}:{lineno}"
        if not reason:
            errors.append(f"{where}: `{path} {name}` gives no reason")
        if (path, name) not in functions:
            errors.append(f"{where}: stale, no `pub fn {name}` in {path}")
        elif not functions[(path, name)]:
            errors.append(f"{where}: stale, `{name}` now has a caller")
        allowed.add((path, name))
    for (path, name), lonely in sorted(functions.items()):
        if lonely and (path, name) not in allowed:
            errors.append(f"{path}: `pub fn {name}` has no caller outside tests")
    return errors


def main() -> int:
    errors = check()
    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        print(
            f"check_api: {len(errors)} violation(s). Delete the function with its "
            f"tests, or list it in {rel(ALLOW)} with its reason.",
            file=sys.stderr,
        )
        return 1
    print(f"check_api: every library pub fn has a caller or one of {len(load_allow())} listed reasons")
    return 0


if __name__ == "__main__":
    sys.exit(main())
