"""The ``>>>`` examples of README.md, run as doctests so that the README
cannot drift from the package it documents."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_pass():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 1
    assert result.failed == 0
