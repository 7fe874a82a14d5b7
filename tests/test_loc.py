"""tools/loc.py on a toy module: every line in exactly one of code,
docstring, comment and blank."""
import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "loc", Path(__file__).resolve().parent.parent / "tools" / "loc.py")
loc = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(loc)

SOURCE = '''\
"""A module docstring
over two lines."""
import os

# a comment
def f(x):
    """A function docstring.

    Its blank line is docstring."""
    s = """a string
# not a comment"""  # a trailing comment
    return (x,
            s)
'''


def test_split_of_a_toy_module():
    # code: 3, 6, 10, 11, 12, 13; docstring: 1-2, 7-9; comment: 5;
    # blank: 4
    assert loc.split(SOURCE) == {"code": 6, "docstring": 5, "comment": 1, "blank": 1}


def test_main_sums_a_directory(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub" / "b.py").write_text(SOURCE)
    (tmp_path / "c.txt").write_text("not python\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"{tmp_path}: 12 code, 10 docstring, 2 comment, 2 blank, 26 in all\n")
