"""The package and the scripts parse as the oldest Python that
pyproject.toml promises, so newer syntax fails here and not on a user's
interpreter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "arithsim").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py")
)


def oldest_python():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_the_oldest_python_is_3_10():
    assert oldest_python() == (3, 10)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_source_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=oldest_python())
