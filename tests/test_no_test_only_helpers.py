"""Every top-level function and class of the library, and every method of
its classes, dunders aside, has a caller in the library or the benchmark: a
helper that only a test calls is dead code that the tests keep alive, and a
private helper that nothing calls is dead code outright.

A name counts as used where a module outside the definition itself reads
it, imports it or spells it as a string (the benchmark looks its traced
functions up by name). A method or property counts as used only where
something reads it as an attribute, or where the benchmark spells it as a
string (it patches `Tensor.backward` by name): a bare variable of the same
name is not a use of it.

Some names live only because the benchmark reads them. BENCHMARK_ONLY pins
that list: a name joins it or leaves it, by losing its last library caller
or gaining one, only with an edit here.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "xpr").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
USERS = LIBRARY + BENCHMARK

#: what only the benchmark keeps alive
BENCHMARK_ONLY = {"Tensor", "backend_name", "backward", "cols", "entries",
                  "geometric_similarity", "make_query", "recall_at_k",
                  "semantic_overlap"}


def _names(tree):
    """(name, line, how) of every name a module reads, imports or spells,
    with how it does: "name", "attribute", "import" or "string"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, "name"
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, "attribute"
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, "import"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, "string"


def unused_names(users=USERS):
    """`file:line name` of each definition that no module of `users` uses."""
    uses = {path: list(_names(ast.parse(path.read_text()))) for path in users}
    unused = []
    for path in LIBRARY:
        top = ast.parse(path.read_text()).body
        methods = [m for c in top if isinstance(c, ast.ClassDef) for m in c.body]
        for node in top + methods:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            method = node in methods
            if not any(name == node.name and (user != path or line not in own)
                       and (not method or how == "attribute"
                            or (how == "string" and user in BENCHMARK))
                       for user, names in uses.items()
                       for name, line, how in names):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_public_helper_has_a_library_caller():
    assert unused_names() == []


def test_benchmark_only_names_are_the_pinned_ones():
    only = {entry.split()[-1] for entry in unused_names(LIBRARY)}
    assert only == BENCHMARK_ONLY
