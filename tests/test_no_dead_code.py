"""Every definition in the package is used by the package, a script or the benchmark.

A module-level function, class or assigned name (`__all__` excepted), or a
non-dunder method, defined in src/groupwalk/*.py must have at least one use
across src/groupwalk (without __init__.py, whose re-exports are not uses),
scripts/ and perfbench/. Uses are identifiers read from the AST: names,
attributes, imported names and definitions, plus string constants equal to
a name, since perfbench/tracer.py wraps functions by name. Words inside
other strings, such as an error message, do not count. An identifier inside
the body of a definition of the same name does not count, so a function
reached only by its own recursion, or a method reached only by an override
calling it, is unused. A method counts only through an attribute access or
a string constant: a bare name is a local or a module-level function. Tests
do not count: code only a test reaches is dead weight, unless it is a test
oracle listed below.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "groupwalk"

# test oracles kept on purpose, one reason each
ALLOWED = {
    "AlphaSchedule.sample_k": (
        "the scalar oracle _oracle_hit_times and test_harmonic_sampler_tail_law "
        "check the vector sampler against"
    ),
    "GSet.is_symmetric": "the criterion-1 invariant: every stage's support is symmetric",
    "SparseMeasure.from_text": "the reader for measure.txt, used to round-trip artifacts",
    "empirical_pair_law": "the one check of the sampler against convolve (pair law vs nu * nu)",
}


def _definitions():
    """(module path, qualname, name, node) of every checked definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.name, node.name, node
            targets = node.targets if isinstance(node, ast.Assign) else []
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(name, ast.Name) and name.id != "__all__":
                        yield path, name.id, name.id, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    is_def = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    if is_def and not (item.name.startswith("__") and item.name.endswith("__")):
                        yield path, f"{node.name}.{item.name}", item.name, item


def _identifiers(node):
    """(identifier, whether it is an attribute or a string constant) of one AST node."""
    if isinstance(node, ast.Name):
        yield node.id, False
    elif isinstance(node, ast.Attribute):
        yield node.attr, True
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1], False
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name, False
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        yield node.value, True


def _use_counts(definitions) -> tuple[Counter, Counter]:
    """Uses of each name outside the bodies of its definitions: (all, attribute or string only)."""
    spans = defaultdict(list)
    for path, _, name, node in definitions:
        spans[name].append((path, node.lineno, node.end_lineno))
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "scripts").glob("*.py")
    files += (ROOT / "perfbench").glob("*.py")
    uses, attribute_uses = Counter(), Counter()
    for p in files:
        for node in ast.walk(ast.parse(p.read_text())):
            for name, by_attribute in _identifiers(node):
                if not any(p == q and a <= node.lineno <= b for q, a, b in spans[name]):
                    uses[name] += 1
                    attribute_uses[name] += by_attribute
    return uses, attribute_uses


def test_every_definition_has_a_use():
    definitions = list(_definitions())
    uses, attribute_uses = _use_counts(definitions)
    unused = [
        f"{path.name}: {qualname}"
        for path, qualname, name, _ in definitions
        if qualname not in ALLOWED and (attribute_uses if "." in qualname else uses)[name] < 1
    ]
    assert not unused, "defined but never used outside tests: " + ", ".join(unused)


def test_allowlist_names_real_definitions():
    defined = {qualname for _, qualname, _, _ in _definitions()}
    assert set(ALLOWED) <= defined
