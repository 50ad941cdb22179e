#!/usr/bin/env python3
"""Export sweep: find `val`s in lib/*/*.mli that nothing outside their module uses.

A `val` exported by lib/<lib>/<mod>.mli counts as referenced when its name
appears, outside comments, in another .ml file under
lib/, bin/, bench/, examples/, perfbench/ or test/ that either names the
module (the token <Mod> occurs in it) or sits in the same library
directory.  A reference only from test/ makes the export test-only.

The sweep is a token match, not a type checker: it undercounts dead code
(a common name such as `create` used for another module's value counts
as a reference, and so does a word inside a string literal, such as a
JSON key or a printed label), but an export it reports as unreferenced
has no caller.

  python3 tools/exports.py              # summary per module
  python3 tools/exports.py --list       # also name each unreferenced / test-only export
  python3 tools/exports.py --check      # exit 1 if any export is referenced nowhere

Run from the repository root (or pass --root).
"""

import argparse
import os
import re
import sys

SOURCE_DIRS = ("lib", "bin", "bench", "examples", "perfbench", "test")

TOKEN = re.compile(
    r"""
      (?P<copen>\(\*)
    | (?P<cclose>\*\))
    | (?P<str>"(?:[^"\\]|\\.)*")
    | (?P<qstr>\{(?P<qid>[a-z_]*)\|.*?\|(?P=qid)\})
    | (?P<chr>'(?:\\(?:[\\'"ntbr\ ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])')
    | (?P<id>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.X | re.S,
)
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def tokens(text):
    """Identifiers outside comments, in order; the words of a string literal
    count.  Strings are still lexed whole so that a "(*" inside one opens
    no comment."""
    out = []
    depth = 0
    for m in TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "copen":
            depth += 1
        elif kind == "cclose":
            if depth > 0:
                depth -= 1
        elif depth > 0:
            continue
        elif kind == "id":
            out.append(m.group("id"))
        elif kind in ("str", "qstr"):
            out.extend(IDENT.findall(m.group(kind)))
    return out


def vals(toks):
    """Names declared by `val name` in an interface's token stream."""
    return [toks[i + 1] for i in range(len(toks) - 1) if toks[i] == "val"]


def scan(root):
    """Tokenize every source file once: {path: (directory, set of ids)} for
    .ml files, and [(lib, module, mli path, [vals])] for lib/*/*.mli."""
    mls = {}
    mlis = []
    for top in SOURCE_DIRS:
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "_")))
            for fn in sorted(filenames):
                if not fn.endswith((".ml", ".mli")):
                    continue
                path = os.path.join(dirpath, fn)
                with open(path, encoding="utf-8") as f:
                    toks = tokens(f.read())
                rel = os.path.relpath(path, root)
                if fn.endswith(".ml"):
                    mls[rel] = (os.path.dirname(rel), set(toks))
                elif top == "lib":
                    lib = os.path.basename(dirpath)
                    mod = fn[:-4].capitalize()
                    mlis.append((lib, mod, rel, vals(toks)))
    return mls, mlis


def classify(mls, mlis):
    """[(lib, module, name, status)] with status referenced | test-only | unreferenced."""
    rows = []
    for lib, mod, mli, names in mlis:
        own_dir = os.path.dirname(mli)
        own_ml = mli[:-1]
        # The files that can reach this module by name.
        readers = [
            (path, ids)
            for path, (d, ids) in mls.items()
            if path != own_ml and (d == own_dir or mod in ids)
        ]
        for name in names:
            users = [path for path, ids in readers if name in ids]
            if not users:
                status = "unreferenced"
            elif all(p.startswith("test" + os.sep) for p in users):
                status = "test-only"
            else:
                status = "referenced"
            rows.append((lib, mod, name, status))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", help="repository root (default: .)")
    ap.add_argument("--list", action="store_true", help="name each unreferenced and test-only export")
    ap.add_argument("--check", action="store_true", help="exit 1 if any export is referenced nowhere")
    args = ap.parse_args()

    mls, mlis = scan(args.root)
    rows = classify(mls, mlis)

    per_mod = {}
    for lib, mod, name, status in rows:
        c = per_mod.setdefault((lib, mod), {"referenced": 0, "test-only": 0, "unreferenced": 0})
        c[status] += 1
    print(f"{'module':<32} {'exports':>7} {'unref':>6} {'test':>5}")
    for (lib, mod), c in sorted(per_mod.items()):
        total = sum(c.values())
        print(f"{lib + '.' + mod:<32} {total:>7} {c['unreferenced']:>6} {c['test-only']:>5}")
    unref = [r for r in rows if r[3] == "unreferenced"]
    test_only = [r for r in rows if r[3] == "test-only"]
    print(f"total: {len(rows)} exports, {len(unref)} referenced nowhere, {len(test_only)} only from test/")
    if args.list:
        for lib, mod, name, status in unref + test_only:
            print(f"{status:<13} {lib}.{mod}.{name}")
    if args.check and unref:
        for lib, mod, name, _ in unref:
            print(f"error: {lib}/{mod.lower()}.mli exports `{name}`, which nothing outside {mod} uses",
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
