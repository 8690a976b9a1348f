"""Code hygiene of ``src/veflow``: no unused import, no public name or method
that nothing in ``src/`` or the benchmark calls, no dataclass field that
nothing reads, no parameter that a module-level private function never reads,
no private name imported from another module, and no lattice array of
``Grid`` sliced by hand.  Test oracles live in the test suite
(``tests/helpers.py``), so nothing is exempt.

Parsed with the standard library's ``ast``; ``__init__.py`` is skipped because
its imports are the package's exports, not uses.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "veflow").glob("*.py") if p.name != "__init__.py")
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
SPANS = ROOT / "perfbench" / "spans.py"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree: ast.AST) -> set:
    """Names a module looks up: bare names, attributes, and identifier strings
    (the benchmark patches functions by their string name)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return used


def _attributes(tree: ast.AST) -> Counter:
    """How often a module looks up each name as an attribute, ``x.name``."""
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _attribute_lookups() -> Counter:
    """How often the modules and the benchmark together look up each attribute."""
    lookups = Counter()
    for path in MODULES + BENCHMARK:
        lookups += _attributes(_tree(path))
    return lookups


def _patched_attributes() -> set:
    """Attribute names in the benchmark tracer's ``TARGETS`` table, each entry
    a (module or "module:Class", attribute, span name) triple."""
    for node in _tree(SPANS).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return {attribute for _, attribute, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py defines no TARGETS")


def _imports(tree: ast.Module):
    """(bound name, line) of every import that binds a name, except __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".", 1)[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _loaded_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def _public_methods(tree: ast.Module):
    """(class name, definition) of every public method and property of a class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield node.name, item


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        loaded = _loaded_names(tree)
        unused += [
            f"{path.name}:{line}: {name}" for name, line in _imports(tree) if name not in loaded
        ]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_every_public_name_has_a_caller():
    """A public function or class is called from another module, from its own
    module outside its definition, or from the benchmark."""
    trees = {path: _tree(path) for path in MODULES}
    benchmark = set()
    for path in BENCHMARK:
        benchmark |= _used_names(_tree(path))
    uncalled = []
    for path, tree in trees.items():
        others = set(benchmark)
        for other, other_tree in trees.items():
            if other != path:
                others |= _used_names(other_tree)
        for definition in _public_definitions(tree):
            own = set()
            for node in tree.body:
                if node is not definition:
                    own |= _used_names(node)
            if definition.name not in others | own:
                uncalled.append(f"{path.name}:{definition.lineno}: {definition.name}")
    assert not uncalled, "public names that no module or benchmark calls:\n" + "\n".join(uncalled)


def test_every_public_method_has_a_user():
    """A public method or property is looked up as an attribute (``x.name``)
    somewhere in a module or the benchmark outside its own definition, or
    patched by the benchmark's tracer.  A bare name or a string equal to the
    method's name is no use of it: a local variable ``axes`` or the keyword
    ``"axes"`` calls no ``Grid.axes``.  Nor is a lookup inside the method
    itself: ``FlowState.zero`` calling ``ScalarField.zero`` is no caller of
    ``FlowState.zero``."""
    patched = _patched_attributes()
    lookups = _attribute_lookups()
    unused = [
        f"{path.name}:{method.lineno}: {cls}.{method.name}"
        for path in MODULES
        for cls, method in _public_methods(_tree(path))
        if method.name not in patched
        and lookups[method.name] <= _attributes(method)[method.name]
    ]
    assert not unused, "public methods that no module or benchmark uses:\n" + "\n".join(unused)


def _dataclass_fields(tree: ast.Module):
    """(class name, field name, line) of every annotated field of a ``@dataclass``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno


def test_every_dataclass_field_has_a_reader():
    """Each field of a dataclass is looked up as an attribute (``x.name``)
    somewhere in a module or the benchmark, the name-based count of the
    methods rule: a field that is only ever passed to the constructor holds a
    value that no one reads."""
    lookups = _attribute_lookups()
    unread = [
        f"{path.name}:{line}: {cls}.{name}"
        for path in MODULES
        for cls, name, line in _dataclass_fields(_tree(path))
        if not lookups[name]
    ]
    assert not unread, "dataclass fields that no module or benchmark reads:\n" + "\n".join(unread)


def test_private_functions_read_every_parameter():
    """A module-level private function reads each of its parameters.  Public
    functions are left out, as their signatures are what callers outside the
    package, the benchmark among them, are written against, and so are nested
    helpers, which may share one signature with their siblings."""
    unread = []
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef) and _is_private(node.name):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                          *filter(None, (args.vararg, args.kwarg))]
                read = {
                    n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                unread += [f"{path.name}:{node.lineno}: {node.name}({a.arg})"
                           for a in params if a.arg not in read]
    assert not unread, "parameters that a private function never reads:\n" + "\n".join(unread)


def _is_private(name: str) -> bool:
    """One leading underscore; a dunder such as ``__version__`` is not private."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_private_names_stay_in_their_module():
    """No module of the package, ``__init__.py`` included, imports a private
    name from another veflow module: a value two modules share has a public
    name in the module that owns it."""
    crossing = []
    for path in sorted((ROOT / "src" / "veflow").glob("*.py")):
        for node in ast.walk(_tree(path)):
            own = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "veflow"
            )
            if own:
                source = "." * node.level + (node.module or "")
                crossing += [
                    f"{path.name}:{node.lineno}: {alias.name} from {source}"
                    for alias in node.names
                    if _is_private(alias.name)
                ]
    assert not crossing, "private names imported across modules:\n" + "\n".join(crossing)


LATTICE = {"xi", "xi_mag", "laplacian_symbol", "unit_xi", "dealias_mask", "distinct_radii"}


def _lattice_slices(tree: ast.Module):
    """Lines that subscript a ``Grid`` lattice attribute, or an element of one
    (``grid.distinct_radii[1]``), with an index that holds a slice."""
    lines = set()
    for node in ast.walk(tree):
        chain, base = [], node
        while isinstance(base, ast.Subscript):
            chain.append(base.slice)
            base = base.value
        if isinstance(base, ast.Attribute) and base.attr in LATTICE:
            if any(isinstance(part, ast.Slice) for index in chain for part in ast.walk(index)):
                lines.add(node.lineno)
    return sorted(lines)


def test_no_module_slices_a_lattice_array():
    """The grid builds every lattice array on the kz >= 0 half, the one layout
    its readers use, so no module cuts the half out of one by hand."""
    sliced = [
        f"{path.name}:{line}"
        for path in sorted((ROOT / "src" / "veflow").glob("*.py"))
        for line in _lattice_slices(_tree(path))
    ]
    assert not sliced, "lattice arrays sliced:\n" + "\n".join(sliced)
