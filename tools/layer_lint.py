#!/usr/bin/env python3
"""Layer lint: enforce the declared module-dependency DAG over src/.

Builds the quoted-#include graph of every .h/.cc under src/ and checks
it against tools/layers.json, which declares — per module (= first
directory component under src/) — the set of other modules that module
may include from. See tools/README.md for the rules.

Checks
  1. layers.json itself must be a DAG (a cycle in the *declaration* is
     rejected even before any source file is read).
  2. Every module directory under src/ must be declared, and every
     declared module must exist.
  3. A file may only include (a) its own module, (b) modules listed for
     its module in layers.json.
  4. Includes of .cc files are always rejected (no reaching into
     another translation unit's internals).
  5. Every declared dependency must be used by some #include, so
     layers.json is exactly the include graph and cannot go stale.

layers.json is the only way to permit an edge: there are no in-file
waivers.

Exit status: 0 clean, 1 violations, 2 usage/config error.
"""

import json
import os
import re
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')

SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")


def strip_block_comments(text):
    """Blank out /* ... */ spans, preserving newlines so line numbers
    survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                end = n
            else:
                end += 2
            out.append("".join(c if c == "\n" else " "
                               for c in text[i:end]))
            i = end
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def check_dag(modules):
    """Return a cycle (list of module names) in the declared graph, or
    None when it is acyclic."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {m: WHITE for m in modules}
    stack = []

    def visit(m):
        color[m] = GREY
        stack.append(m)
        for dep in modules[m]:
            if dep not in modules:
                continue  # reported separately
            if color[dep] == GREY:
                return stack[stack.index(dep):] + [dep]
            if color[dep] == WHITE:
                cyc = visit(dep)
                if cyc:
                    return cyc
        stack.pop()
        color[m] = BLACK
        return None

    for m in modules:
        if color[m] == WHITE:
            cyc = visit(m)
            if cyc:
                return cyc
    return None


def module_of(relpath):
    """src-relative path -> module name, or None for files at the
    src/ root (none exist today; flagged if one appears)."""
    parts = relpath.replace(os.sep, "/").split("/")
    return parts[0] if len(parts) > 1 else None


def lint_file(path, relpath, modules, used, violations):
    mod = module_of(relpath)
    if mod is None:
        violations.append((relpath, 0,
                           "file sits at the src/ root; move it into a "
                           "module directory"))
        return
    if mod not in modules:
        violations.append((relpath, 0,
                           "module '%s' is not declared in "
                           "tools/layers.json" % mod))
        return
    allowed = set(modules[mod]) | {mod}

    with open(path, encoding="utf-8", errors="replace") as f:
        text = strip_block_comments(f.read())

    for ln, line in enumerate(text.split("\n"), 1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        target = m.group(1)
        if target.endswith((".cc", ".cpp")):
            violations.append(
                (relpath, ln,
                 "includes translation-unit internals '%s'" % target))
            continue
        tmod = target.replace(os.sep, "/").split("/")[0]
        if tmod not in modules:
            # Quoted include that is not one of our modules (e.g. a
            # vendored header); out of scope for the layer check.
            continue
        if tmod in allowed:
            used.add((mod, tmod))
            continue
        violations.append(
            (relpath, ln,
             "module '%s' may not include from '%s' "
             "(layers.json deps: %s)" %
             (mod, tmod, ", ".join(sorted(modules[mod])) or "none")))


def main(argv):
    if len(argv) != 3:
        print("usage: layer_lint.py <src-dir> <layers.json>",
              file=sys.stderr)
        return 2
    src_dir, layers_path = argv[1], argv[2]
    try:
        with open(layers_path, encoding="utf-8") as f:
            modules = json.load(f)["modules"]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        print("layer-lint: cannot load %s: %s" % (layers_path, e),
              file=sys.stderr)
        return 2

    cycle = check_dag(modules)
    if cycle:
        print("layer-lint: layers.json declares a cycle: %s"
              % " -> ".join(cycle), file=sys.stderr)
        return 2

    present = set()
    used = set()  # (module, dependency) edges some #include uses
    violations = []
    for root, dirs, files in os.walk(src_dir):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(SOURCE_EXTS):
                continue
            path = os.path.join(root, name)
            relpath = os.path.relpath(path, src_dir)
            mod = module_of(relpath)
            if mod:
                present.add(mod)
            lint_file(path, relpath, modules, used, violations)

    for mod in sorted(set(modules) - present):
        violations.append(
            ("tools/layers.json", 0,
             "declared module '%s' has no sources under src/" % mod))
    for mod in sorted(set(modules) & present):
        for dep in sorted(modules[mod]):
            if (mod, dep) not in used:
                violations.append(
                    ("tools/layers.json", 0,
                     "module '%s' declares a dependency on '%s' that "
                     "no #include uses" % (mod, dep)))

    for relpath, ln, msg in violations:
        where = "%s:%d" % (relpath, ln) if ln else relpath
        print("%s: %s" % (where, msg))
    if violations:
        print("layer-lint: %d violation(s)" % len(violations),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
