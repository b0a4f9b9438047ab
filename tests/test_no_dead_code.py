"""Every definition in the package is used by the package, a script or the benchmark.

A module-level function, class or assigned name (`__all__` excepted), or a
non-dunder method, defined in src/groupwalk/*.py must occur as an identifier at least twice (its
definition plus one use) across src/groupwalk (without __init__.py, whose
re-exports are not uses), scripts/ and perfbench/. Identifiers are read
from the AST: names, attributes, imported names and definitions, plus
string constants equal to a name, since perfbench/tracer.py wraps functions
by name. Words inside other strings, such as an error message, do not
count. Tests do not count: code only a test reaches is dead weight, unless
it is a test oracle listed below.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groupwalk"

# test oracles kept on purpose, one reason each
ALLOWED = {
    "GSet.is_symmetric": "the criterion-1 invariant: every stage's support is symmetric",
    "SparseMeasure.from_text": "the reader for measure.txt, used to round-trip artifacts",
    "empirical_pair_law": "the one check of the sampler against convolve (pair law vs nu * nu)",
}


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path.name, node.name, node.name
            targets = node.targets if isinstance(node, ast.Assign) else []
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(name, ast.Name) and name.id != "__all__":
                        yield path.name, name.id, name.id
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    is_def = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    if is_def and not (item.name.startswith("__") and item.name.endswith("__")):
                        yield path.name, f"{node.name}.{item.name}", item.name


def _identifiers(node):
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1]
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        yield node.value


def _identifier_counts() -> Counter:
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "scripts").glob("*.py")
    files += (ROOT / "perfbench").glob("*.py")
    return Counter(
        name
        for p in files
        for node in ast.walk(ast.parse(p.read_text()))
        for name in _identifiers(node)
    )


def test_every_definition_has_a_use():
    counts = _identifier_counts()
    unused = [
        f"{module}: {qualname}"
        for module, qualname, name in _definitions()
        if qualname not in ALLOWED and counts[name] < 2
    ]
    assert not unused, "defined but never used outside tests: " + ", ".join(unused)


def test_allowlist_names_real_definitions():
    defined = {qualname for _, qualname, _ in _definitions()}
    assert set(ALLOWED) <= defined
