"""Source rules for the package, checked on its syntax trees.

Every import is used, and one function, ``ctf.write_file``, is the only
code that opens a file for writing.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cuenet"
MODULES = sorted(PACKAGE.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
# (module, function) allowed to open files for writing
WRITER = ("ctf.py", "write_file")


def own_nodes(scope):
    """The nodes of ``scope`` outside any function nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source):
    """Names an import binds that nothing in the import's scope reads."""
    module = ast.parse(source)
    unused = []
    for scope in [module] + [node for node in ast.walk(module)
                             if isinstance(node, FUNCTIONS)]:
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name)}
        for node in own_nodes(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(unused)]


def opens_for_writing(node):
    """Whether ``node`` opens a file for writing or reaches for
    ``tempfile``."""
    if isinstance(node, ast.Import):
        return any(alias.name == "tempfile" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module == "tempfile"
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        owner = func.value.id if isinstance(func.value, ast.Name) else None
        if (owner, func.attr) == ("os", "open") \
                or func.attr in ("write_bytes", "write_text"):
            return True
        if (owner, func.attr) != ("io", "open"):
            return False
    elif not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wxa+"))
    return True  # a mode computed at run time may write


def writers(source, module_name):
    """Where code other than :data:`WRITER` opens a file for writing."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if opens_for_writing(child) \
                    and (module_name, function) != WRITER:
                found.append(f"line {child.lineno} in {function}")
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def test_every_import_is_used():
    unused = [f"{path.name} {where}" for path in MODULES
              for where in unused_imports(path.read_text())]
    assert unused == []


def test_only_write_file_opens_files_for_writing():
    found = [f"{path.name} {where}" for path in MODULES
             for where in writers(path.read_text(), path.name)]
    assert found == []


def test_the_checks_see_what_they_look_for():
    source = '''
import os
import tempfile
from json import dumps, loads


def a():
    import sys
    open(p, "wb")
    open(p, mode="a")
    open(p, m)
    os.open(p, 0)
    q.write_text("")
    return loads(open(p).read())


def write_file():
    open(p, "r+b")
'''
    assert unused_imports(source) == ["line 3: tempfile", "line 4: dumps",
                                      "line 8: sys"]
    assert writers(source, "x.py") == [
        "line 3 in <module>", "line 9 in a", "line 10 in a",
        "line 11 in a", "line 12 in a", "line 13 in a",
        "line 18 in write_file"]
    assert writers(source, "ctf.py")[-1] == "line 13 in a"
