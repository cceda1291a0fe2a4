import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a multi-line string
        that is not a docstring"""
        return text


def g():
    return os.sep
'''


def test_code_lines_skip_comments_blanks_and_docstrings():
    # import, class, def f, the two string lines, return, def g, return
    assert code_lines.code_lines(SOURCE) == 8


def test_code_lines_prints_each_module_and_the_totals(capsys, tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    code_lines.main(["code_lines.py", str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "code", "raw"], ["a", "8", "19"], ["b", "1", "2"],
                    ["total", "9", "21"]]
