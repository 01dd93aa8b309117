"""``tools/sloc.py``, the counter behind the code-line figures of ``src/``."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "sloc", Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
)
sloc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sloc)

_SOURCE = '''"""Module docstring,
over two lines."""

# a comment line

import math


def f(a, b):
    """Function docstring."""

    total = max(a,
                b,
                math.pi)  # a call split over 3 lines
    "a string statement, not a docstring"
    return total
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(_SOURCE, encoding="utf-8")
    # import, def, the 3 lines of the call, the string statement, return
    assert sloc.code_lines(path) == 7


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(_SOURCE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n# note\ny = [x,\n     x]\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    sloc.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "     3  a.py",
        "     7  b.py",
        "    10  total",
    ]


def test_main_prints_the_delta_of_two_package_dirs(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "a.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (new / "a.py").write_text("x = 1\n", encoding="utf-8")
    (old / "b.py").write_text(_SOURCE, encoding="utf-8")
    (new / "b.py").write_text(_SOURCE, encoding="utf-8")
    (new / "c.py").write_text("z = 3\n", encoding="utf-8")
    sloc.main([str(old), str(new)])
    assert capsys.readouterr().out.splitlines() == [
        "     2      1     -1  a.py",
        "     7      7     +0  b.py",
        "     0      1     +1  c.py",
        "     9      9     +0  total",
    ]
