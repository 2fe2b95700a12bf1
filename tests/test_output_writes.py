"""Every file the package writes goes through ``data.atomic_open``, so a run
killed part way never leaves a half-written output under its final name.

Reads the syntax tree of each module under ``src/moofair`` and fails on a
call that opens a file for writing anywhere else: builtin ``open`` with a
mode other than reading, ``os.open``, a ``Path.write_*``, or a numpy saver
handed a path instead of a file ``atomic_open`` yielded. The lock file is the
one exception: it is opened in place to hold a kernel lock, and a rename
would swap the locked file for another.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "moofair"
ALLOWED = {"data.atomic_open", "cli.OutputLock.__enter__"}
NUMPY_SAVERS = {"save", "savez", "savez_compressed", "savetxt", "tofile"}


def _writes(tree, module):
    """(enclosing definition, line) of every call that writes a file."""
    found = []

    def visit(node, scope, handles):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if isinstance(node, ast.With):
            handles = handles | {item.optional_vars.id for item in node.items
                                 if isinstance(item.context_expr, ast.Call)
                                 and getattr(item.context_expr.func, "id", None) == "atomic_open"
                                 and isinstance(item.optional_vars, ast.Name)}
        if isinstance(node, ast.Call) and _is_write(node, handles):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, handles)

    visit(tree, module, frozenset())
    return found


def _is_write(call, handles):
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else next(
            (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
        return not (isinstance(mode, ast.Constant) and set(mode.value) <= set("rbt"))
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "open" and getattr(func.value, "id", None) == "os":
        return True
    if func.attr in ("write_text", "write_bytes"):
        return True
    if func.attr in NUMPY_SAVERS:
        target = call.args[0] if call.args else None
        return not (isinstance(target, ast.Name) and target.id in handles)
    return False


def test_outputs_are_written_atomically():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, line in _writes(ast.parse(path.read_text()), path.stem):
            if scope not in ALLOWED:
                offenders.append(f"{path.name}:{line} in {scope}")
    assert offenders == []


def test_check_sees_writes():
    code = ("import os\nimport numpy as np\n"
            "def f(path, arr):\n"
            "    open(path, 'w')\n    open(path)\n    open(path, mode='ab')\n"
            "    os.open(path, os.O_WRONLY)\n    np.savez(path, a=arr)\n"
            "    with atomic_open(path, 'wb') as fh:\n        np.savez(fh, a=arr)\n")
    assert [line for _, line in _writes(ast.parse(code), "m")] == [4, 6, 7, 8]
