import re
from pathlib import Path

import numpy as np

from reference import write_csv

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    """The first python block under "## Library" runs as written, on a
    data.csv of 500 uniform rows with three attributes."""
    library = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    write_csv("data.csv", np.random.default_rng(0).uniform(size=(500, 3)))
    exec(block, {})
