"""tools/code_size.py's line counts on fixed sources; no subprocess runs."""

import ast
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_size", Path(__file__).resolve().parent.parent / "tools" / "code_size.py")
code_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_size)

SOURCE = '''"""A module docstring
over two lines."""

# a comment-only line
import os


class Box:
    """A class docstring."""

    def area(self, w,
             h):
        """A function docstring
        over two lines."""
        # a comment-only line in a body
        return (w *
                h)  # a trailing comment


async def later():
    """An async function docstring."""
    text = """a string that is no docstring,
    over two lines"""
    return text
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import; class; def over two lines; return over two lines; async def;
    # the assigned string over two lines; return
    assert code_size.code_lines(SOURCE) == 10
    assert code_size.docstring_lines(ast.parse(SOURCE)) == {1, 2, 9, 13, 14, 21}


def test_code_lines_of_trivial_sources():
    assert code_size.code_lines("") == 0
    assert code_size.code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0
    assert code_size.code_lines("x = 1\n") == 1


def test_main_prints_one_row_per_module_and_the_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    monkeypatch.setattr(code_size, "PACKAGE", tmp_path)
    code_size.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "lines", "code"], ["a.py", "24", "10"], ["b.py", "2", "1"],
                    ["total", "26", "11"]]
