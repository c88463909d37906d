"""Every top-level name in the package is used somewhere.

Each module-level `def`, `class` and assignment target in `src/shapeinv`
(dunders exempt) must be mentioned, as a whole word, somewhere in `src`,
`tests` or `perfbench` outside the statements that define it.  A name that
nothing mentions is dead code: delete it or use it.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shapeinv"
SEARCHED = ("src", "tests", "perfbench")
WORD = re.compile(r"[A-Za-z_]\w*")


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level definition; a
    function or class counts as defined on its `def`/`class` line only."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node.lineno, node.end_lineno


def test_every_top_level_name_is_used():
    mentions = Counter()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            mentions.update(WORD.findall(path.read_text()))
    defined = {}             # name -> its modules and mentions in definitions
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for name, first, last in _definitions(ast.parse(text)):
            if name.startswith("__") and name.endswith("__"):
                continue
            own = WORD.findall("\n".join(lines[first - 1:last])).count(name)
            modules, count = defined.get(name, ((), 0))
            defined[name] = (modules + (path.stem,), count + own)
    unused = sorted(f"{'/'.join(modules)}.{name}"
                    for name, (modules, own) in defined.items()
                    if mentions[name] <= own)
    assert not unused, "defined but never used: " + ", ".join(unused)
