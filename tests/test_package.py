"""The package's public names, checked against README."""

import importlib
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import qdigits

README = (Path(__file__).parents[1] / "README.md").read_text()


def readme_section(title):
    return re.search(rf"^## {title}\n(.*?)(?=^## |\Z)", README, re.M | re.S).group(1)


def readme_api():
    """(name, module) for each row of README's "Library API" table."""
    return re.findall(r"^\| `(\w+)` \| `(qdigits\.\w+)` \|", readme_section("Library API"), re.M)


def readme_moved():
    """(name, module) for each name README lists as moved off the top level."""
    return [
        (name, module)
        for module, names in re.findall(
            r"^- `(qdigits\.\w+)`: (.*)$", readme_section("Library API"), re.M
        )
        for name in re.findall(r"`(\w+)`", names)
    ]


def test_exports_resolve_once():
    assert len(qdigits.__all__) == len(set(qdigits.__all__))
    for name in qdigits.__all__:
        assert hasattr(qdigits, name), name


def test_all_is_readme_api():
    api = readme_api()
    assert qdigits.__all__ == [name for name, _ in api]
    for name, module in api:
        assert getattr(importlib.import_module(module), name) is getattr(qdigits, name), name


def test_moved_names_import_from_their_submodule():
    moved = readme_moved()
    assert len(moved) == len(set(moved)) == 39
    for name, module in moved:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
        assert not hasattr(qdigits, name), name


def test_removed_names_stay_gone():
    assert "Regime" not in qdigits.__all__
    assert not hasattr(qdigits, "Regime")
    assert not hasattr(qdigits.QParam, "from_a")
    assert not hasattr(qdigits.takagi, "nearest_int_dist")
    assert not hasattr(qdigits.digitsum, "partial_sum_prefix_scaled")
    assert not hasattr(qdigits.digitsum, "partial_sum_progression_scaled")


def test_readme_library_example():
    (code,) = re.findall(r"^```python\n(.*?)^```", readme_section("Library example"), re.M | re.S)
    namespace = {}
    exec(code, namespace)
    assert namespace["td_generalized"](5, namespace["p"]) == Fraction(39, 64)
    distances = namespace["bridge"].sup_distances
    assert len(distances) == 3
    assert all(a > b for a, b in zip(distances, distances[1:]))


def test_import_skips_dataclasses_and_inspect():
    # the record classes are built without dataclasses, which imports inspect
    src = str(Path(__file__).parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import qdigits;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
