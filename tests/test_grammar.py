"""Every Python file of the repo parses under the oldest Python that
``requires-python`` in pyproject.toml admits.

``ast.parse`` with ``feature_version`` checks grammar only: a call to a
library API newer than that version still passes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_under_the_oldest_supported_python():
    spec = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    oldest = tuple(int(n) for n in spec.groups())
    paths = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert {p.relative_to(ROOT).parts[0] for p in paths} == {"src", "tests", "bench"}
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=oldest)
        except SyntaxError as e:
            failures.append(f"{path.relative_to(ROOT)}:{e.lineno}: {e.msg}")
    assert not failures, f"not Python {oldest[0]}.{oldest[1]} grammar:\n" + "\n".join(failures)
