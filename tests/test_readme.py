"""README.md against the public API."""

import pathlib
import re

import dgocp

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_names_every_public_name():
    missing = [name for name in dgocp.__all__ if f"`{name}" not in README]
    assert not missing, f"README.md does not name {missing}"


def test_readme_names_no_removed_trace_api():
    # DGFunction.jumps() replaced the per-node traces and jump
    assert re.findall(r"trace_(?:right|left)|\.jump\(", README) == []
