"""The README's library quick start runs as written."""
import re
from pathlib import Path

import numpy as np

from precboot import RngSpec
from precboot.simulate import DgpSpec, generate

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block(text: str) -> str:
    """The first python block after the "Library quick start" heading."""
    after = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", after, re.S).group(1)


def test_quick_start_block_is_found():
    text = ("## Library quick start\n\nprose\n```sh\nno\n```\n"
            "```python\nx = 1\n```\n```python\ny = 2\n```\n")
    assert quick_start_block(text) == "x = 1\n"


def test_library_quick_start_runs(tmp_path, monkeypatch):
    values = generate(DgpSpec("A", 8, 0.3, 120, RngSpec(21, "readme"))).values
    np.savetxt(tmp_path / "data.csv", values, delimiter=",")
    monkeypatch.chdir(tmp_path)
    exec(compile(quick_start_block(README.read_text()), str(README), "exec"),
         {"__name__": "readme_quick_start"})
