"""The README's library quick start must run as written, its API list must
match ``anysipp.__all__``, and its CLI section must name exactly the CLI's
options."""

import re
from pathlib import Path

import anysipp
from anysipp.cli import build_parser

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


def test_readme_cli_flags_match_parser():
    text = README.read_text()
    section = text[text.index("## CLI"):text.index("## Tests")]
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    options = {
        opt for action in build_parser()._actions for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert listed == options
