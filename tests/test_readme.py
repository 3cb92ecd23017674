"""README.md against the public API."""

import dataclasses
import pathlib
import re

import dgocp

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_names_every_public_name():
    missing = [name for name in dgocp.__all__ if f"`{name}" not in README]
    assert not missing, f"README.md does not name {missing}"


def test_readme_names_every_problem_field():
    # a renamed OCProblem field cannot leave the README's field list stale
    missing = [f.name for f in dataclasses.fields(dgocp.OCProblem) if f"`{f.name}`" not in README]
    assert not missing, f"README.md does not name the OCProblem fields {missing}"


def test_readme_python_blocks_run():
    # the minimal run, against the API as it is
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.S | re.M)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_names_no_removed_trace_api():
    # DGFunction.jumps() replaced the per-node traces and jump
    assert re.findall(r"trace_(?:right|left)|\.jump\(", README) == []
