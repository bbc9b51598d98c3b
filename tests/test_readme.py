"""The README's library quick start must run as written, and its API list
must match ``anysipp.__all__``."""

import re
from pathlib import Path

import anysipp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    names = re.search(r"from anysipp import (.+)", code).group(1).split(", ")
    assert set(names) <= set(anysipp.__all__)
    exec(compile(code, str(README), "exec"), {})


def test_readme_api_list_matches_all():
    text = README.read_text()
    section = text[text.index("`anysipp.__all__` holds"):text.index("Internals such as")]
    listed = set(re.findall(r"`(\w+)`", section))
    assert listed == set(anysipp.__all__)
