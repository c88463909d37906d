"""Every top-level name in the package is used, every setting is set,
every default is used, no module reaches into another's private names, and
no package or test module imports a name it does not use.

Only the program counts as a user: `src` and `perfbench` (`USERS`), never
`tests`.  Each module-level `def`, `class` and assignment target in
`src/shapeinv` (dunders exempt) must be mentioned, as a whole word, there,
outside the statements that define it; a suite check function is used by
its `@_check(...)` declaration.  A name that nothing mentions is dead code,
and a name that only the tests mention is test code: delete it, use it, or
move it into the tests.  Each defaulted parameter of a module-level
function or method must be passed by some call there, and omitted by some
other: a default that only the tests omit is one to make required, and a
parameter that only the tests pass is one to delete.  A call counts for a
function of the module it names, through a module attribute, an import or
a module-level alias; a method call, or a call that names no module,
counts for every callee of its name.  Each method and annotated field of a
package class must be reached as an attribute (`.name`) there too.  A
`_`-prefixed name belongs to its module: no other package module imports
it or reads it as an attribute.  An imported name must be read in the
module that imports it, or listed in that module's `__all__`.  A report's
verdict comes from one rule, in `verify.IdentityReport`, and a report is
built once: no package module assigns a report's field (`passed` or a
slot) outside that record's constructor or changes its `data`, and no
construction of a report passes a literal number as its residual.
"""
import ast
import re
from collections import Counter
from pathlib import Path

from shapeinv.verify import IdentityReport

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shapeinv"
USERS = ("src", "perfbench")  # where a name, member or setting counts as used
MODULES = frozenset(path.stem for path in PACKAGE.glob("*.py"))
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


def _declared_checks(tree: ast.Module) -> set:
    """Functions declared as suite checks by an `@_check(...)` line: the
    suite's registry reaches each one by its name, so that line is its
    use."""
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Call)
                    and getattr(d.func, "id", None) == "_check"
                    for d in node.decorator_list)}


def test_every_top_level_name_is_used():
    mentions = Counter()
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            mentions.update(WORD.findall(path.read_text()))
    defined = {}             # name -> its modules and mentions in definitions
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        declared = _declared_checks(tree)
        for name, first, last in _definitions(tree):
            if (name.startswith("__") and name.endswith("__")) or name in declared:
                continue
            own = WORD.findall("\n".join(lines[first - 1:last])).count(name)
            modules, count = defined.get(name, ((), 0))
            defined[name] = (modules + (path.stem,), count + own)
    unused = sorted(f"{'/'.join(modules)}.{name}"
                    for name, (modules, own) in defined.items()
                    if mentions[name] <= own)
    assert not unused, "defined but never used: " + ", ".join(unused)


def test_every_class_member_is_reached():
    """A method or a field that no `.name` in the program reaches is dead,
    or test code: a hook left on a table type after its last caller went,
    say.  Dunders are exempt; the language calls them."""
    attributes = set()
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            attributes.update(re.findall(r"\.([A-Za-z_]\w*)", path.read_text()))
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif (isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name)):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")) \
                        and name not in attributes:
                    unreached.append(f"{path.stem}.{cls.name}.{name}")
    assert not unreached, "class members never reached: " + ", ".join(unreached)


def _defaulted_parameters(tree: ast.Module):
    """(label, callee name, parameter, call position or None) for each
    defaulted parameter of a module-level function or method.  A method's
    `self` or `cls` takes no call position, and `__init__` is called by
    class name."""
    functions = [(node, node.name, node.name, 0) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in node.decorator_list)
                    callee = cls.name if node.name == "__init__" else node.name
                    functions.append((node, f"{cls.name}.{node.name}", callee,
                                      0 if static else 1))
    for node, label, callee, bound in functions:
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index in range(first, len(positional)):
            yield label, callee, positional[index].arg, index - bound
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield label, callee, param.arg, None


def _package_module(node: ast.ImportFrom):
    """The package module a from-import reads: its stem, "" for the
    package itself, None for anything outside the package."""
    if node.level:
        return node.module or ""
    if node.module == "shapeinv":
        return ""
    if node.module and node.module.startswith("shapeinv."):
        return node.module.partition(".")[2]
    return None


def _bindings(tree: ast.Module, stem=None) -> dict:
    """local name -> (module, name) that it stands for: (module, None) for
    a package module itself, (None, name) for a name the package itself
    re-exports.  Package from-imports anywhere in the file, the
    module-level definitions of package module `stem`, and module-level
    aliases such as `_P = DiffOp.from_expr` are bound."""
    names = {}
    for node in ast.walk(tree):
        source = (_package_module(node) if isinstance(node, ast.ImportFrom)
                  else None)
        if source is None:
            continue
        for alias in node.names:
            if source == "":
                target = ((alias.name, None) if alias.name in MODULES
                          else (None, alias.name))
            else:
                target = (source, alias.name)
            names[alias.asname or alias.name] = target
    for node in tree.body:
        if stem is not None and isinstance(node, (ast.FunctionDef,
                                                  ast.ClassDef)):
            names[node.name] = (stem, node.name)
        elif isinstance(node, ast.Assign) and isinstance(
                node.value, (ast.Name, ast.Attribute)):
            target = _callee(node.value, names)
            for name in node.targets:
                if isinstance(name, ast.Name) and target is not None:
                    names[name.id] = target
    return names


def _callee(func: ast.expr, names: dict):
    """(module or None, name) of what a call calls: the module is known
    when the call names it, through a bound name or a module attribute; a
    method call, or any other attribute call, is matched by name alone."""
    if isinstance(func, ast.Name):
        return names.get(func.id, (None, func.id))
    if isinstance(func, ast.Attribute):
        owner = (names.get(func.value.id)
                 if isinstance(func.value, ast.Name) else None)
        if owner is not None and owner[1] is None:
            return owner[0], func.attr
        return None, func.attr
    return None


def _calls():
    """callee name -> [(module or None, call)] for each call in the
    program, where call is (keywords passed, positional count), or None for
    a call with *args or **kwargs, which may pass anything."""
    calls = {}
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            names = _bindings(tree, path.stem if path.parent == PACKAGE
                              else None)
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                target = _callee(call.func, names)
                if target is None:
                    continue
                module, name = target
                starred = (any(isinstance(a, ast.Starred) for a in call.args)
                           or any(k.arg is None for k in call.keywords))
                calls.setdefault(name, []).append((module, (
                    None if starred else
                    ({k.arg for k in call.keywords}, len(call.args)))))
    return calls


def _defaults_failing(rule):
    """'<module>.<label>(<param>=)' for each defaulted parameter whose calls
    in the program fail `rule(passes)`: the calls are those of the callee's
    name that name its module or no module, and `passes` holds
    one flag per call, True when the call passes the parameter by keyword
    or by position, False when it omits it, None when it goes through
    *args or **kwargs."""
    calls = _calls()
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for label, callee, param, position in _defaulted_parameters(
                ast.parse(path.read_text())):
            passes = [None if call is None else
                      param in call[0] or (position is not None
                                           and call[1] > position)
                      for module, call in calls.get(callee, [])
                      if module in (None, path.stem)]
            if not rule(passes):
                found.append(f"{path.stem}.{label}({param}=)")
    return sorted(found)


def test_every_defaulted_parameter_is_set_somewhere():
    """A parameter with a default that no call in the program passes, by
    keyword or by position, is a setting nothing sets: delete it.  A call
    that names no module counts for every callee of its name."""
    unset = _defaults_failing(lambda passes: any(p is not False
                                                 for p in passes))
    assert not unset, "defaulted but never set: " + ", ".join(unset)


def test_every_default_is_used_somewhere():
    """A parameter with a default that every call in the program passes is
    a default nothing uses: make it required.  Calls are matched as above;
    a call through *args or **kwargs counts as one that omits it."""
    unused = _defaults_failing(lambda passes: any(p is not True
                                                  for p in passes))
    assert not unused, "default never used: " + ", ".join(unused)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _private_reads(stem: str, tree: ast.Module):
    """'<stem> imports|reads <module>.<name>' for each `_`-prefixed name of
    another package module that this module imports or reads."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    bound = set()            # local names bound to package modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None and alias.name in modules:
                    bound.add(alias.asname or alias.name)
                elif node.module is not None and _private(alias.name):
                    yield f"{stem} imports {node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound and _private(node.attr)):
            yield f"{stem} reads {node.value.id}.{node.attr}"


def test_no_module_reads_another_modules_private_names():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _private_reads(path.stem, ast.parse(path.read_text()))
    assert not found, "private names read across modules: " + ", ".join(found)


def _unused_imports(tree: ast.Module):
    """Each name a module imports and never reads; a name that the
    module's `__all__` lists is read by whoever imports it from there."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return [name for name in imported if name not in read]


def _unused_imports_in(directory: Path) -> list:
    return [f"{path.stem}.{name}" for path in sorted(directory.glob("*.py"))
            for name in _unused_imports(ast.parse(path.read_text()))]


def _literal_number(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float, complex)))


# a report's fields, and the methods that change a dict in place
REPORT_FIELDS = frozenset(IdentityReport.__slots__) | {"passed"}
DICT_UPDATES = frozenset(("update", "setdefault", "pop", "popitem", "clear"))


def _verdicts_by_hand(stem: str, tree: ast.Module):
    """'<stem>:<line> ...' for each assignment to a report field, or store
    or delete into one (`x.data[k] = v`), outside `IdentityReport.__init__`;
    for each in-place update of a `.data`; and for each `IdentityReport(...)`
    whose residual (its second argument, `max_abs`) is a literal number."""
    constructor = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "IdentityReport":
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    constructor.update(map(id, ast.walk(node)))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                             ast.Delete)):
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete))
                       else [node.target])
            for sub in (s for t in targets for s in ast.walk(t)):
                if (isinstance(sub, ast.Attribute)
                        and sub.attr in REPORT_FIELDS
                        and id(sub) not in constructor):
                    yield f"{stem}:{node.lineno} assigns .{sub.attr}"
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in DICT_UPDATES
              and getattr(node.func.value, "attr", None) == "data"):
            yield f"{stem}:{node.lineno} updates .data"
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", getattr(node.func, "attr", None))
              == "IdentityReport"):
            residual = [k.value for k in node.keywords if k.arg == "max_abs"]
            residual += node.args[1:2]
            if any(map(_literal_number, residual)):
                yield f"{stem}:{node.lineno} passes a literal residual"


def test_a_verdict_comes_from_the_one_rule():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _verdicts_by_hand(path.stem, ast.parse(path.read_text()))
    assert not found, "verdicts set by hand: " + ", ".join(found)


def test_no_test_module_imports_a_name_it_does_not_use():
    found = _unused_imports_in(ROOT / "tests")
    assert not found, "imported but never used: " + ", ".join(found)


def test_no_package_module_imports_a_name_it_does_not_use():
    found = _unused_imports_in(PACKAGE)
    assert not found, "imported but never used: " + ", ".join(found)
