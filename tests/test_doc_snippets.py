"""Every ``>>>`` snippet in the markdown docs must run and match.

CI also runs ``pytest --doctest-glob='*.md' docs README.md`` directly;
this module keeps the same guarantee inside the default test run, so a
doc edit cannot silently break a printed value.
"""

from __future__ import annotations

import doctest
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

PAGES = sorted(
    page
    for page in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
    if ">>>" in page.read_text()
)


def test_the_doctested_pages_are_the_expected_ones():
    names = {page.name for page in PAGES}
    assert {"README.md", "api_tour.md", "serving.md", "caching.md",
            "error_metrics.md", "adder_zoo.md"} <= names


@pytest.mark.parametrize("page", PAGES, ids=lambda page: page.name)
def test_markdown_examples_execute(page):
    failures, tests = doctest.testfile(
        str(page),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert tests > 0, f"{page.name} advertises >>> but doctest found none"
    assert failures == 0
