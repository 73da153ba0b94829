"""tools/loc.py: raw lines and code lines of the sources under a tree."""

import importlib.util
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SAMPLE = textwrap.dedent('''\
    """A module docstring
    of two lines."""

    # A comment-only line.
    X = 1  # a trailing comment


    class A:
        """Its docstring."""

        def f(self):
            \'\'\'Its docstring,

            with a blank line.\'\'\'
            text = """a string that is
            no docstring"""
            return text
    ''')


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # X = 1, class A, def f, the two lines of text and the return.
    assert loc.count(SAMPLE) == (17, 6)


def test_a_string_after_the_first_statement_is_code():
    assert loc.count('x = 1\n"""not a docstring"""\n') == (2, 2)


def test_main_sums_the_files_under_a_tree(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text("y = 2\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "%s: 19 raw lines, 7 code lines\n" % tmp_path
