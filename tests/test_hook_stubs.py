"""Imports kept only as perfbench hook sites.

A `# noqa: F401` import in the package keeps a name importable at a lookup
site that perfbench/spans.py replaces with a timing wrapper. Each such name
that its module never reads must be one of those sites, so the stubs are
listed in one place and go away with the hooks that need them.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chanceflow"


def _unread_noqa_imports(path: Path) -> set:
    """Names bound by a `# noqa: F401` import in path that the module never loads."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if not any("# noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in loaded:
                unread.add(name)
    return unread


def test_unread_noqa_imports_are_perfbench_hook_sites(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    sites = {site for hook in spans.LAYER_HOOKS for site in hook.sites}
    stubs = {f"chanceflow.{path.stem}:{name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for name in _unread_noqa_imports(path)}
    assert stubs, "no hook-site imports left: delete this test"
    assert stubs <= sites, f"unread imports that no perfbench hook needs: {sorted(stubs - sites)}"
