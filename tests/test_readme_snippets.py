"""The README's code must run: every fenced ``python`` block is executed.

A snippet that calls a removed constructor keyword (or any other retired
API) fails here instead of misleading the next reader.
"""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md[python block {index}]", "exec"), {})
