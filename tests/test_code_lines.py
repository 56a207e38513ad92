"""scripts/code_lines.py: the rules of the code-line count."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a comment on a code line


# a comment alone
class Shape:
    """A class docstring."""

    sides = 4

    def area(self, width,
             height):
        """A function docstring
        over two lines."""
        text = """a string that
        is code, not a docstring"""
        return (width
                * height)
'''


def test_the_rules_on_a_small_source():
    # import; class; sides; the def's two lines; the text's two lines; the return's two
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 9, 15, 16}
    assert code_lines.code_lines(SOURCE) == 9


def test_the_package_count_is_the_sum_of_its_modules(capsys, tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n\ny = [\n    2]\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["a.py", "9"], ["b.py", "3"], ["total", "12"]]
