"""The package's public surface is what README documents."""

import re
from pathlib import Path

import admmcert


def test_all_matches_readme_key_entry_points():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("Key entry points:", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"`(\w+)`", paragraph)
    assert len(documented) == len(set(documented))
    assert sorted(admmcert.__all__) == sorted(documented)
    assert all(hasattr(admmcert, name) for name in admmcert.__all__)
