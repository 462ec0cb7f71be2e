"""The package's public surface, and every use of it outside the package.

The demos, the benchmark and the tools import coherentlab names that no
package test runs.  They are read here with ``ast``, not run, so deleting
or renaming a name fails this test instead of silently breaking a demo
or the benchmark tracer's ``TRACED`` list.
"""

import ast
import importlib
from pathlib import Path

import pytest

import coherentlab

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(p for d in ("demos", "perfbench", "tools") for p in (ROOT / d).glob("*.py"))


def _resolves(dotted: str) -> bool:
    """Whether a dotted name such as ``coherentlab.states.amplitude`` exists."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


def _chain(node):
    """``a.b.c`` as ["a", "b", "c"] for an attribute chain rooted at a name, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return [node.id, *reversed(attrs)] if isinstance(node, ast.Name) else None


def coherentlab_names(source: str) -> set[str]:
    """Every dotted coherentlab name that a module imports or reads an attribute of."""
    tree = ast.parse(source)
    bound = {}  # local name -> the coherentlab module it is bound to
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "coherentlab":
                    names.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["coherentlab"] = "coherentlab"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "coherentlab":
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in bound:
            names.add(".".join([bound[chain[0]], *chain[1:]]))
    return names


def test_every_exported_name_resolves():
    missing = [name for name in coherentlab.__all__ if not hasattr(coherentlab, name)]
    assert missing == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_coherentlab_name_a_script_uses_exists(path):
    missing = sorted(n for n in coherentlab_names(path.read_text()) if not _resolves(n))
    assert missing == []


def test_every_traced_call_exists():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (traced,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED"]
    assert len(traced) > 10
    missing = [f"{m}.{a}" for m, a in traced if not _resolves(f"coherentlab.{m}.{a}")]
    assert missing == []


def test_the_reader_finds_a_deleted_name():
    source = (
        "import coherentlab as cl\n"
        "import coherentlab.landscape\n"
        "from coherentlab import v_value, displaced_state\n"
        "from coherentlab.modes import ModeBasis\n"
        "cl.ModeBasis.bracket\n"
        "coherentlab.landscape._amp_terms(None, None)\n"
    )
    names = coherentlab_names(source)
    assert {"coherentlab.v_value", "coherentlab.modes.ModeBasis",
            "coherentlab.landscape"} <= names
    assert sorted(n for n in names if not _resolves(n)) == [
        "coherentlab.ModeBasis.bracket",
        "coherentlab.displaced_state",
        "coherentlab.landscape._amp_terms",
    ]
