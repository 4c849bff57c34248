"""Self-test of the line counter on a small module with known counts.

Run from the repository root with ``python3 -m pytest tools``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import loc  # noqa: E402

MODULE = '''"""A module docstring
over two lines."""

import math  # a comment after code

# a comment alone


class Box:
    """One line."""

    size = 2

    def area(self):
        """Two
        lines."""
        text = """a string,
        not a docstring"""
        return math.pi * self.size, text
'''


def test_counts_lines_and_code_lines():
    # code: the import, the class, size, def, text's two lines, return
    assert loc.count(MODULE) == (19, 7)


def test_every_source_file_is_counted(capsys):
    assert loc.main() == 0
    rows = capsys.readouterr().out.splitlines()
    files = [r.split()[-1] for r in rows[1:-1]]
    assert files == sorted(f for f in os.listdir(loc.SRC) if f.endswith(".py"))
    lines, code = map(int, rows[-1].split()[:2])
    assert 0 < code < lines
