"""Every module under ``src/rare``, ``tests`` and ``tools`` uses each name it
imports, and every definition in ``src/rare`` has a caller outside the tests.
Every module, the benchmark's included, parses as Python 3.10, the oldest
version ``pyproject.toml`` allows.

No linter ships with the project, so the sources are parsed with ``ast``. A
name counts as used when it appears anywhere in its module, including inside
a quoted annotation. ``rare/__init__.py`` imports only to re-export, and a
``from __future__`` import binds no name, so both are skipped.
"""

import ast
from pathlib import Path

import pytest

from rare import errors

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = [path for path in sorted((ROOT / "src" / "rare").glob("*.py"))
           if path.name != "__init__.py"]
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted(
    (ROOT / "tools").glob("*.py"))
# the package, the benchmark and the tools; the tests do not count as callers
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("**/*.py")) + sorted(
    (ROOT / "tools").glob("**/*.py"))


OLDEST_PYTHON = (3, 10)  # pyproject.toml: requires-python = ">=3.10"


@pytest.mark.parametrize("path", MODULES + sorted((ROOT / "perfbench").glob("**/*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_on_the_oldest_supported_python(path):
    ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=OLDEST_PYTHON)


def test_syntax_newer_than_the_oldest_supported_python_is_refused():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=OLDEST_PYTHON)


def imported_names(tree: ast.Module):
    """``(name, line)`` for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree)
              if name not in used]
    assert unused == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom typing import Any, Callable\n"
                     "def f(x: 'Callable[[], int]') -> None:\n    pass\n")
    used = used_names(tree)
    assert [name for name, _ in imported_names(tree) if name not in used] == ["os", "Any"]


def definitions(tree: ast.Module):
    """``(qualified name, name)`` for each top-level function and class and
    each method of a top-level class that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def referenced_names(tree: ast.Module) -> set[str]:
    """Names, attributes, and strings that are identifiers: ``perfbench``
    names the functions it wraps in strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def action_prompt_spellings(tree: ast.Module):
    """Lines that render an action template or spell out the action stop
    sequence, both of which only ``rare.actions`` may do."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "render" and node.args
                and isinstance(node.args[0], ast.Attribute)
                and isinstance(node.args[0].value, ast.Name)
                and node.args[0].value.id == "ActionKind"):
            yield node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "### Instruction" in node.value):
            yield node.lineno


def test_action_requests_are_built_only_in_actions():
    found = [f"{path.name}:{line}"
             for path in PACKAGE if path.name != "actions.py"
             for line in action_prompt_spellings(ast.parse(path.read_text("utf-8")))]
    assert found == []


def test_an_action_prompt_spelling_is_found():
    tree = ast.parse("p = prompts.render(ActionKind.A2, question=q)\n"
                     "s = ('### Instruction',)\nok = prompts.render(kind)\n"
                     "f'{x}### Instruction'\n")
    assert sorted(action_prompt_spellings(tree)) == [1, 2, 4]


def validators(tree: ast.Module):
    """Functions and methods named ``validate`` or ``validate_*``: a value
    checks its invariants when it is built, so no caller has to remember to."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node.name == "validate" or node.name.startswith("validate_")):
            yield node.name, node.lineno


def test_no_separate_validator():
    found = [f"{path.name}:{line} {name}" for path in PACKAGE
             for name, line in validators(ast.parse(path.read_text("utf-8")))]
    assert found == []


def test_a_separate_validator_is_found():
    tree = ast.parse("def validate_question(q):\n    pass\n"
                     "class C:\n    def validate(self):\n        pass\n"
                     "    def validated(self):\n        pass\n"
                     "def revalidate():\n    pass\n")
    assert list(validators(tree)) == [("validate_question", 1), ("validate", 4)]


VALIDATION_ERRORS = {name for name, obj in vars(errors).items()
                     if isinstance(obj, type) and issubclass(obj, errors.ValidationError)}
# where input enters: a constructor, a record decoder (also ``*_from_record``)
# or loader, or an entry point that checks its arguments
CHECKS_INPUT = {"__init__", "__post_init__", "text_of", "_unique_keys", "from_dir",
                "from_env", "load_index", "run_eval", "apply_preset", "build_index", "search"}


def checks_input(function: str | None) -> bool:
    return function in CHECKS_INPUT or (function or "").endswith("_from_record")


def validation_raises(node: ast.AST, function: str | None = None):
    """``(innermost enclosing function, line)`` for each raise of
    ``ValidationError`` or a subclass: a value is checked where it enters the
    program, and a function that only the program calls trusts its caller."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from validation_raises(child, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            if name in VALIDATION_ERRORS:
                yield function, child.lineno
        yield from validation_raises(child, function)


def test_validation_errors_are_raised_only_where_input_enters():
    found = [f"{path.name}:{line} {function}" for path in PACKAGE
             for function, line in validation_raises(ast.parse(path.read_text("utf-8")))
             if not checks_input(function)]
    assert found == []


def test_a_validation_raise_past_the_entry_is_found():
    tree = ast.parse("def uct(c):\n    if c <= 0:\n        raise ValidationError('c')\n"
                     "class Q:\n    def __post_init__(self):\n        raise CorpusError('x')\n"
                     "def question_from_record(r):\n    def bad():\n"
                     "        raise errors.DatasetError\n    raise ValidationError('r')\n"
                     "raise ValidationError\n"
                     "def f():\n    raise NoViableChildError('not a validation error')\n")
    raises = list(validation_raises(tree))
    assert raises == [("uct", 3), ("__post_init__", 6), ("bad", 9),
                      ("question_from_record", 10), (None, 11)]
    assert [(f, line) for f, line in raises if not checks_input(f)] == [
        ("uct", 3), ("bad", 9), (None, 11)]


def test_every_definition_has_a_caller():
    referenced = set()
    for path in CALLERS:
        referenced |= referenced_names(ast.parse(path.read_text("utf-8"), filename=str(path)))
    uncalled = [
        f"{path.stem}.{qualified}"
        for path in PACKAGE
        for qualified, name in definitions(ast.parse(path.read_text("utf-8")))
        if name not in referenced
    ]
    assert uncalled == []


def test_an_uncalled_definition_is_found():
    tree = ast.parse("class C:\n    def __init__(self):\n        self.m()\n"
                     "    def m(self):\n        pass\n    def n(self):\n        pass\n"
                     "def f():\n    return C\n")
    referenced = referenced_names(tree)
    assert [q for q, name in definitions(tree) if name not in referenced] == ["C.n", "f"]
