#!/usr/bin/env python3
"""Unit tests for tools/layer_lint.py.

Builds miniature src/ trees plus a layers declaration in a temp dir
and asserts the DAG checks, include checks, stale declarations, and
exit codes. Registered as the `layer_lint_selftest` ctest.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import layer_lint  # noqa: E402


class LayerLintTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)
        self.src = self.root / "src"
        self.src.mkdir()

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, relpath, text):
        path = self.src / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    def layers(self, modules):
        path = self.root / "layers.json"
        path.write_text(json.dumps({"modules": modules}),
                        encoding="utf-8")
        return path

    def run_lint(self, modules):
        layers = self.layers(modules)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = layer_lint.main(
                ["layer_lint.py", str(self.src), str(layers)])
        return rc, out.getvalue(), err.getvalue()

    # ---- DAG validation -----------------------------------------------

    def test_clean_tree_passes(self):
        self.write("util/log.h", "#pragma once\n")
        self.write("sim/des.h", '#include "util/log.h"\n')
        rc, out, _ = self.run_lint({"util": [], "sim": ["util"]})
        self.assertEqual(rc, 0, out)

    def test_cycle_in_declaration_is_config_error(self):
        self.write("a/a.h", "")
        self.write("b/b.h", "")
        rc, _, err = self.run_lint({"a": ["b"], "b": ["a"]})
        self.assertEqual(rc, 2)
        self.assertIn("cycle", err)

    def test_self_cycle_rejected(self):
        self.write("a/a.h", "")
        rc, _, err = self.run_lint({"a": ["a"]})
        self.assertEqual(rc, 2)
        self.assertIn("cycle", err)

    # ---- include checks -----------------------------------------------

    def test_upward_include_rejected(self):
        self.write("util/log.h", '#include "sim/des.h"\n')
        self.write("sim/des.h", "")
        rc, out, _ = self.run_lint({"util": [], "sim": ["util"]})
        self.assertEqual(rc, 1)
        self.assertIn("util/log.h:1", out)
        self.assertIn("may not include from 'sim'", out)

    def test_same_module_include_allowed(self):
        self.write("util/a.h", '#include "util/b.h"\n')
        self.write("util/b.h", "")
        rc, out, _ = self.run_lint({"util": []})
        self.assertEqual(rc, 0, out)

    def test_transitive_dep_is_not_implicit(self):
        # core may use sim, sim may use util; core -> util still needs
        # its own declared edge.
        self.write("util/log.h", "")
        self.write("sim/des.h", "")
        self.write("core/engine.h", '#include "util/log.h"\n')
        rc, out, _ = self.run_lint(
            {"util": [], "sim": ["util"], "core": ["sim"]})
        self.assertEqual(rc, 1)
        self.assertIn("may not include from 'util'", out)

    def test_cc_include_rejected_even_within_module(self):
        self.write("sim/a.cc", '#include "sim/b.cc"\n')
        self.write("sim/b.cc", "")
        rc, out, _ = self.run_lint({"sim": []})
        self.assertEqual(rc, 1)
        self.assertIn("translation-unit internals", out)

    def test_system_and_foreign_includes_ignored(self):
        self.write("util/log.h",
                   "#include <vector>\n"
                   '#include "third_party/fmt.h"\n')
        rc, out, _ = self.run_lint({"util": []})
        self.assertEqual(rc, 0, out)

    def test_include_in_block_comment_ignored(self):
        self.write("util/log.h",
                   '/*\n#include "sim/des.h"\n*/\n')
        self.write("sim/des.h", '#include "util/log.h"\n')
        rc, out, _ = self.run_lint({"util": [], "sim": ["util"]})
        self.assertEqual(rc, 0, out)

    def test_undeclared_module_flagged(self):
        self.write("rogue/x.h", "")
        rc, out, _ = self.run_lint({"util": []})
        self.assertEqual(rc, 1)
        self.assertIn("not declared", out)

    def test_declared_module_without_sources_flagged(self):
        self.write("util/log.h", "")
        rc, out, _ = self.run_lint({"util": [], "ghost": []})
        self.assertEqual(rc, 1)
        self.assertIn("ghost", out)
        self.assertIn("no sources", out)

    def test_allow_comment_does_not_suppress(self):
        # layers.json is the only way to permit an edge.
        self.write("util/log.h",
                   '#include "sim/des.h"  // layer-lint: allow(sim)\n'
                   "// layer-lint: allow(core)\n"
                   '#include "core/engine.h"\n')
        self.write("sim/des.h", '#include "util/log.h"\n')
        self.write("core/engine.h", '#include "util/log.h"\n')
        rc, out, _ = self.run_lint(
            {"util": [], "sim": ["util"], "core": ["util"]})
        self.assertEqual(rc, 1)
        self.assertIn("may not include from 'sim'", out)
        self.assertIn("may not include from 'core'", out)

    def test_unused_declared_dependency_flagged(self):
        # layers.json must be exactly the include graph.
        self.write("util/log.h", "")
        self.write("hw/cpu.h", '#include "util/log.h"\n')
        self.write("sim/des.h", '#include "util/log.h"\n')
        rc, out, _ = self.run_lint(
            {"util": [], "hw": ["util"], "sim": ["util", "hw"]})
        self.assertEqual(rc, 1)
        self.assertEqual(
            out, "tools/layers.json: module 'sim' declares a dependency "
                 "on 'hw' that no #include uses\n")

    # ---- usage / config errors ----------------------------------------

    def test_missing_layers_file_is_config_error(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = layer_lint.main(
                ["layer_lint.py", str(self.src),
                 str(self.root / "nope.json")])
        self.assertEqual(rc, 2)

    def test_bad_usage(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = layer_lint.main(["layer_lint.py"])
        self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
