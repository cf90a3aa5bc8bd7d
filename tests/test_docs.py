"""The README documents the package surface."""

import re
from pathlib import Path

import oscluster

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_every_public_name_is_in_the_readme():
    missing = [name for name in oscluster.__all__ if not re.search(rf"`{name}\b", README)]
    assert missing == []
