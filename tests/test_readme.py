"""The README's code and schema version stay true to the package."""

import re
from pathlib import Path

from nakai_forge.exprio import SCHEMA_VERSION

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", _section("Library"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_schema_version_is_current():
    versions = re.findall(r"schema version (\d+)", README.read_text(encoding="utf-8"))
    assert versions
    assert {int(v) for v in versions} == {SCHEMA_VERSION}
