"""Every public function, class and method of the package is used by the
program itself: another definition under ``src/moofair``, the benchmark in
``perfbench`` or a CLI dispatch. A public name that only tests call is a
second implementation the program never runs, so it fails here.

Uses are read from the syntax tree (names, attribute loads and imports), so
a word in a comment or docstring does not count as one. A use inside the
definition itself (recursion) does not count either.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "moofair"
PROGRAM_FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Pareto-stationarity certificate: ROADMAP item 1 reports it in run telemetry.
# The complement lists: training no longer reads them, but the benchmark's
# traced run wraps them by name; they go when it stops (ROADMAP).
UNUSED_ALLOWED = {"solver.pareto_stationary", "data.InteractionDataset.train_complement_lists"}


def public_definitions():
    """(module.qualified name, file, definition node) of each public name."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield (f"{path.stem}.{node.name}.{item.name}", item.name,
                               path, item)


def uses():
    """(name, file, line) of every name load, attribute load and import."""
    found = []
    for path in PROGRAM_FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.append((node.attr, path, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                found.extend((alias.name, path, node.lineno) for alias in node.names)
    return found


def test_every_public_name_is_used_by_the_program():
    all_uses = uses()
    unused = []
    for qualified, name, path, node in public_definitions():
        used = any(
            use_name == name
            and not (use_path == path and node.lineno <= line <= node.end_lineno)
            for use_name, use_path, line in all_uses
        )
        if not used and qualified not in UNUSED_ALLOWED:
            unused.append(qualified)
    assert unused == []


def test_check_sees_definitions_and_uses():
    names = {qualified for qualified, _, _, _ in public_definitions()}
    assert {"objectives.CandidateContext", "model.FactorModel.flatten",
            "solver.pareto_stationary"} <= names
    assert UNUSED_ALLOWED <= names
    assert ("cmd_prepare", PACKAGE / "cli.py") in {(n, p) for n, p, _ in uses()}
