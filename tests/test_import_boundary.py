"""The oracle/production line, as import statements.

The paper-literal ground constructions (``repro.normal``, the grounder, the
ground fixpoint / well-founded / stable engines) are the reference semantics
and the test oracle.  Production packages — sessions, serving, durability,
observability, the linter, the semi-naive engine — never import them, at
any nesting depth, and the runtime packages reach ``repro.core`` through
one sanctioned crossing only."""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

ORACLE = (
    "repro.normal", "repro.engine.grounding", "repro.engine.fixpoint",
    "repro.engine.wellfounded", "repro.engine.stable",
)
PRODUCTION = ("db", "serve", "durable", "obs", "lint", "engine/seminaive")
RUNTIME = ("db", "serve", "durable", "obs")

#: The only ``repro.core`` imports the runtime packages may make, each with
#: the reason it is allowed.
CORE_ALLOWED = {
    # The recompute mode's evaluator *is* the Figure-1 procedure: recursion
    # through aggregation and name-open rules no binder closes are outside
    # the register machine's class and need its ground fallback.
    ("db/modes.py", "repro.core.modular"),
}


def _import_statements(package):
    """``(file, names)`` for every ``import``/``from`` statement under
    ``package``, function- and class-level ones included.  ``names`` are the
    dotted modules the statement names, outermost first: ``from a import b``
    names ``a`` and ``a.b`` (``b`` may be a module)."""
    for path in sorted((ROOT / package).rglob("*.py")):
        relative = path.relative_to(ROOT)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:  # relative: resolve against the file's package
                    package_parts = ("repro",) + relative.parts[:-node.level]
                    module = ".".join(package_parts + ((module,) if module else ()))
                names = [module] + ["%s.%s" % (module, alias.name) for alias in node.names]
            else:
                continue
            yield relative.as_posix(), names


def _under(name, prefix):
    return name == prefix or name.startswith(prefix + ".")


def test_production_packages_never_import_the_oracle():
    offenders = [
        (file, name)
        for package in PRODUCTION for file, names in _import_statements(package)
        for name in names if any(_under(name, oracle) for oracle in ORACLE)]
    assert offenders == []


def test_runtime_packages_cross_into_core_exactly_once():
    crossings = []
    for package in RUNTIME:
        for file, names in _import_statements(package):
            core = [name for name in names if _under(name, "repro.core")]
            if core:
                crossings.append((file, core[0]))
    assert crossings == sorted(CORE_ALLOWED)
