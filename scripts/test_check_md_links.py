#!/usr/bin/env python3
"""Unit tests for scripts/check_md_links.py; no build needed.

    python3 scripts/test_check_md_links.py

Each test writes a throwaway repository (one source file and a
docs/ page pointing into it) and runs the checker's main() on it.
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check_md_links  # noqa: E402

SOURCE = "// header\nint answer();\n"


def check(source, doc):
    """(exit code, stdout + stderr) of the checker over a repository
    holding src/lib.hh = @p source and docs/page.md = @p doc."""
    with tempfile.TemporaryDirectory() as root:
        Path(root, "src").mkdir()
        Path(root, "docs").mkdir()
        Path(root, "src/lib.hh").write_text(source)
        Path(root, "docs/page.md").write_text(doc)
        Path(root, "README.md").write_text("# readme\n")
        out = io.StringIO()
        argv = sys.argv
        sys.argv = ["check_md_links.py", root]
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                code = check_md_links.main()
        finally:
            sys.argv = argv
        return code, out.getvalue()


class PointerSymbols(unittest.TestCase):
    def test_symbol_on_the_pointed_line_passes(self):
        code, out = check(SOURCE, "`answer` (`src/lib.hh:2:answer`)\n")
        self.assertEqual(code, 0, out)
        self.assertIn("1 pointers (1 naming a symbol) OK", out)

    def test_symbol_moved_down_one_line_fails_until_repointed(self):
        moved = "// header\n// a new comment\nint answer();\n"
        code, out = check(moved, "`src/lib.hh:2:answer`\n")
        self.assertEqual(code, 1)
        self.assertIn("docs/page.md:1: 'answer' is not on line 2; "
                      "it is on line 3: src/lib.hh:2:answer", out)
        # A bare line pointer cannot tell that the code moved.
        self.assertEqual(check(moved, "`src/lib.hh:2`\n")[0], 0)
        code, out = check(moved, "`src/lib.hh:3:answer`\n")
        self.assertEqual(code, 0, out)

    def test_symbol_must_match_a_whole_word(self):
        code, _ = check(SOURCE, "`src/lib.hh:2:answe`\n")
        self.assertEqual(code, 1)

    def test_symbol_may_sit_anywhere_in_a_range(self):
        self.assertEqual(check(SOURCE, "`src/lib.hh:1-2:answer`\n")[0], 0)
        self.assertEqual(check(SOURCE, "`src/lib.hh:1,2:answer`\n")[0], 1)

    def test_line_past_the_end_still_fails(self):
        code, out = check(SOURCE, "`src/lib.hh:9:answer`\n")
        self.assertEqual(code, 1)
        self.assertIn("runs past the end (2 lines)", out)


if __name__ == "__main__":
    unittest.main()
