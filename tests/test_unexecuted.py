"""The statement spans that tests/unexecuted.py matches traced lines against."""

from unexecuted import statement_spans

SOURCE = '''"""Module docstring."""
import os


@decorator
def f(x):
    """Function docstring."""
    global y
    if x:
        return (1,
                2)
    try:
        y = 1
    except ValueError:
        y = 2
    finally:
        y = 3
    return 4
'''


def test_statement_spans():
    # docstrings and global are left out; a decorated def starts at its
    # decorator; a compound statement spans its body
    assert statement_spans(SOURCE) == [(2, 2), (5, 18), (9, 11), (10, 11), (12, 17),
                                       (13, 13), (15, 15), (17, 17), (18, 18)]
