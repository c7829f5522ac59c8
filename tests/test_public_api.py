"""Every public function and class of ``sgnn`` is used outside the tests.

A public module-level name must be named (as an identifier, or as a string
literal such as a ``getattr`` key) somewhere in ``src/``, ``demos/`` or
``benchmark/`` besides its own definition; ``test_*`` files do not count.
"""

import ast
import io
import os
import tokenize
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "sgnn")

# test-only on purpose: the exact oracles a linear-filter duality-gap and
# convergence check is to be built on (ROADMAP item 2)
ALLOWED = {
    "enumerate_cost": "exact expected cost by enumeration, oracle for ROADMAP item 2",
    "enumerate_moments": "exact output moments by enumeration, oracle for ROADMAP item 2",
    "primal_suboptimality_probe": "the xi proxy of the convergence radius, ROADMAP item 2",
}


def _sources():
    for top in ("src", "demos", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d not in ("__pycache__", "out")]
            for name in filenames:
                if name.endswith(".py") and not name.startswith("test_"):
                    yield os.path.join(dirpath, name)


def _name_counts() -> Counter:
    """Identifier tokens, and string literals that are identifiers, over all sources."""
    counts = Counter()
    for path in _sources():
        with open(path) as f:
            tokens = tokenize.generate_tokens(io.StringIO(f.read()).readline)
            for tok in tokens:
                if tok.type == tokenize.NAME:
                    counts[tok.string] += 1
                elif tok.type == tokenize.STRING:
                    try:
                        value = ast.literal_eval(tok.string)
                    except (ValueError, SyntaxError):
                        continue
                    if isinstance(value, str) and value.isidentifier():
                        counts[value] += 1
    return counts


def _public_definitions():
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name)) as f:
            tree = ast.parse(f.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield name, node.name


def test_no_public_name_is_used_only_by_tests():
    counts = _name_counts()
    unused = [f"{module}: {name}" for module, name in _public_definitions()
              if counts[name] <= 1 and name not in ALLOWED]
    assert not unused, "public names only tests use: " + ", ".join(unused)


def test_every_allowed_name_still_exists_and_is_otherwise_unused():
    counts = _name_counts()
    defined = {name for _, name in _public_definitions()}
    assert set(ALLOWED) <= defined
    assert all(counts[name] == 1 for name in ALLOWED)


def test_every_module_level_import_is_used():
    unused = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(PACKAGE, name)) as f:
            tree = ast.parse(f.read())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, "unused imports: " + ", ".join(unused)



def _artifact_calls(module, node, where=None):
    """(module, enclosing function) of every ``csv`` import and every
    ``json.dump``/``json.dumps`` (or ``from json import dump``) under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _artifact_calls(module, child, child.name)
            continue
        if isinstance(child, ast.Import) and any(a.name == "csv" for a in child.names) \
                or isinstance(child, ast.ImportFrom) and child.module == "csv":
            yield "csv", module, where
        if isinstance(child, ast.Attribute) and child.attr in ("dump", "dumps") \
                and isinstance(child.value, ast.Name) and child.value.id == "json" \
                or isinstance(child, ast.ImportFrom) and child.module == "json":
            yield "json.dump", module, where
        yield from _artifact_calls(module, child, where)


def test_artifacts_are_written_only_through_util():
    """``csv`` is imported only by ``util``; JSON is dumped only by the
    artifact writer and by the compact checkpoints."""
    found = set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as f:
                found |= set(_artifact_calls(name, ast.parse(f.read())))
    assert {(m, w) for kind, m, w in found if kind == "csv"} <= {("util.py", None)}
    assert {(m, w) for kind, m, w in found if kind == "json.dump"} == \
        {("util.py", "write_json"), ("model.py", "save_params")}
