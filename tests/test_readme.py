"""README names only what exists: every code name it backticks that points
into the package resolves, and every repository path it names is there."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import jjcavity

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = {m.name: importlib.import_module(f"jjcavity.{m.name}") for m in pkgutil.iter_modules(jjcavity.__path__)}


def readme_names(text: str) -> set[str]:
    """Backticked dotted names outside the fenced code blocks."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    return {n for n in re.findall(r"`([^`\n]+)`", text) if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", n)}


def unresolved(name: str) -> bool:
    """True when `name` points into the package but names nothing there: a
    `module.name` on a submodule, a dotted name on a package attribute (such
    as a class attribute), a `_private` name or an UPPER_CASE constant of
    some submodule.  Any other name is not checked."""
    head, *rest = name.split(".")
    if head == "jjcavity" or head in SUBMODULES or (rest and hasattr(jjcavity, head)):
        obj = jjcavity if head == "jjcavity" else SUBMODULES.get(head) or getattr(jjcavity, head)
        for part in rest:
            if not hasattr(obj, part):
                return True
            obj = getattr(obj, part)
        return False
    if not rest and re.fullmatch(r"_[a-z]\w*|[A-Z][A-Z0-9]*(_[A-Z0-9]+)+", head):
        return not any(hasattr(m, head) for m in SUBMODULES.values())
    return False


def test_names_resolve():
    names = readme_names((ROOT / "README.md").read_text())
    assert {"stability._spectra", "sweep._debug_logger", "IMAG_AXIS_REL_TOL", "jjcavity.sweep"} <= names
    assert sorted(n for n in names if unresolved(n)) == []


@pytest.mark.parametrize("name", ["PhysicalParams.replace", "stability.StateSpace.take", "_validated",
                                  "STEP_BLOCK", "jjcavity.sweep"])
def test_existing_name_resolves(name):
    assert not unresolved(name)


@pytest.mark.parametrize("name", ["stability._spectrum", "sweep.find_thresholds", "PhysicalParams.replaced",
                                  "_verdict", "HINF_MAX_ITERS", "jjcavity.sweeps"])
def test_renamed_name_is_caught(name):
    assert unresolved(name)


def test_paths_exist():
    text = (ROOT / "README.md").read_text()
    paths = {p.rstrip(".") for p in re.findall(r"\b(?:src|tools|tests|bench)/[\w./-]*\w", text)}
    assert {"src/jjcavity", "tools/codelines.py"} <= paths
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []
