"""No library module imports a name it never reads, defines a private
helper that nothing in the package reads, imports scipy or orjson when
it is imported, validates again triangles that another mesh already holds,
freezes a constructor's array by hand, checks a fingerprint's format
outside ``_files._fingerprint``, names a file it reads in a message of its
own rather than through ``_files.reading``, range-checks eigenvector
indices outside ``spectral._rows``, or gives a library operation a second
home (a partial sum outside ``spectral.decode``, a descriptor built outside
``build_descriptor``); the CLI imports no private name of the package."""

import ast
import re
from pathlib import Path

import pytest

import spectral_deform as sd

SRC = Path(sd.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that no expression in it reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        # the package re-exports what it imports
        if path.name != "__init__.py":
            names = _unused_imports(ast.parse(path.read_text(), str(path)))
            if names:
                unused[path.name] = names
    assert unused == {}


def test_no_private_helper_is_dead():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in read
    )
    assert dead == []


def _import_time(tree: ast.Module, package: str) -> list[int]:
    """Lines of imports of ``package`` that run when the module is imported:
    those outside function bodies and outside ``if TYPE_CHECKING:``."""
    lines = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING"
        ):
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            names = []
        if any(n == package or n.startswith(package + ".") for n in names):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return lines


def _modules_importing_at_import_time(package: str) -> dict[str, list[int]]:
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _import_time(ast.parse(path.read_text(), str(path)), package)
        if lines:
            found[path.name] = lines
    return found


def test_no_module_imports_scipy_when_imported():
    # importing scipy.sparse alone takes about 70 ms; the stages that never
    # solve or validate (descriptor, filter, cluster) must not pay for it
    assert _modules_importing_at_import_time("scipy") == {}


def test_no_module_imports_orjson_when_imported():
    # importing orjson takes 6-13 ms (it pulls in json and zoneinfo):
    # only a stage that writes a float table pays it, never the import of
    # the package that perfbench's setup_s times
    assert _modules_importing_at_import_time("orjson") == {}


@pytest.mark.parametrize("source, lines", [
    ("import orjson", [1]),
    ("import numpy\nfrom orjson import dumps", [2]),
    ("try:\n    import orjson.x\nexcept ImportError:\n    pass", [2]),
    ("def f():\n    import orjson", []),
    ("if TYPE_CHECKING:\n    import orjson\nelse:\n    import orjson", [4]),
    ("import orjsonx\nfrom . import orjson", []),
])
def test_an_import_time_import_is_found(source, lines):
    assert _import_time(ast.parse(source), "orjson") == lines


def _revalidated_triangles(node, where=None):
    """Enclosing functions of ``TriangleMesh(x, y.triangles)`` calls: they
    build and validate a mesh from triangles that ``y`` has validated."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    called = ast.unparse(node.func).split(".")[-1] if isinstance(node, ast.Call) else None
    if called == "TriangleMesh":
        given = node.args[1:2] + [k.value for k in node.keywords if k.arg == "triangles"]
        if any(isinstance(a, ast.Attribute) and a.attr == "triangles" for a in given):
            yield where
    for child in ast.iter_child_nodes(node):
        yield from _revalidated_triangles(child, where)


def test_no_module_validates_known_triangles_again():
    # a state or a reconstruction takes its base's triangles through
    # base.with_vertices(coords), which checks only the shape
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found |= {f"{path.name}:{where}" for where in _revalidated_triangles(tree)}
    assert found == set()


def _private_package_imports(tree: ast.Module) -> list[str]:
    """Underscore-prefixed names imported from the package (relative
    imports, or absolute ones of ``spectral_deform``)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "spectral_deform"
        ):
            found += [a.name for a in node.names
                      if a.name.startswith("_") and not a.name.startswith("__")]
    return sorted(found)


def test_cli_imports_no_private_name():
    # each stage is one public library call, so the CLI needs no helper
    # that a library caller could not reach
    path = SRC / "cli.py"
    assert _private_package_imports(ast.parse(path.read_text(), str(path))) == []


def _hand_frozen(tree: ast.Module) -> list[str]:
    """``Class.__post_init__:function`` for each ``ascontiguousarray`` or
    ``setflags`` call inside a ``__post_init__``."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                found += [f"{cls.name}.__post_init__:{node.func.attr}"
                          for node in ast.walk(fn)
                          if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Attribute)
                          and node.func.attr in ("ascontiguousarray", "setflags")]
    return found


def test_every_constructor_stores_its_arrays_through_frozen():
    # one ownership rule: a constructor copies a writable array it would
    # share and never makes its caller's array read-only (_files._frozen)
    found = {}
    for path in sorted(SRC.glob("*.py")):
        calls = _hand_frozen(ast.parse(path.read_text(), str(path)))
        if calls:
            found[path.name] = calls
    assert found == {}


def _fingerprint_fields(tree: ast.Module) -> dict[str, bool]:
    """For each class with a ``basis_fingerprint`` field: whether its
    ``__post_init__`` stores the field as ``_fingerprint`` of its value."""
    stored = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or not any(
            isinstance(n, ast.AnnAssign) and ast.unparse(n.target) == "basis_fingerprint"
            for n in cls.body
        ):
            continue
        stored[cls.name] = any(
            ast.unparse(node) == "object.__setattr__(self, 'basis_fingerprint', "
                                 "_fingerprint(self.basis_fingerprint))"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
            for node in ast.walk(fn)
        )
    return stored


def test_every_constructor_stores_its_fingerprint_through_fingerprint():
    # one format rule (_files._fingerprint) for every fingerprint a file carries
    stored = {}
    for path in sorted(SRC.glob("*.py")):
        stored |= _fingerprint_fields(ast.parse(path.read_text(), str(path)))
    assert set(stored) == {"SpectralCoefficients", "CoefficientStack",
                           "DeformationDescriptor"}
    assert all(stored.values()), stored


def test_only_files_holds_a_hex_digest_pattern():
    # a character class of hex digits, such as [0-9a-f] or [a-fA-F0-9]
    hex_class = re.compile(r"\[[^\]]*(a-f|A-F)[^\]]*\]")
    found = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and hex_class.search(node.value)
    }
    assert found == {"_files.py"}


def _raises_formatting_path(tree: ast.Module) -> list[int]:
    """Lines of ``raise`` statements whose exception formats a name ``path``
    into an f-string."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and node.exc is not None
        for value in ast.walk(node.exc)
        if isinstance(value, ast.FormattedValue)
        and any(isinstance(n, ast.Name) and n.id == "path" for n in ast.walk(value))
    })


def _reading_functions(tree: ast.Module) -> set[str]:
    """``[Class.]function`` names whose body holds a ``with reading(...)``."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                if any(isinstance(w, ast.With) and any(
                        isinstance(item.context_expr, ast.Call)
                        and ast.unparse(item.context_expr.func) == "reading"
                        for item in w.items) for w in ast.walk(child)):
                    found.add(prefix + child.name)

    visit(tree, "")
    return found


def test_every_loader_names_its_file_through_reading():
    # one reading rule: a loader's problem reaches its caller as
    # "<kind> <path>: <type>: <problem>", worded in one place (_files.reading)
    formatted, loaders = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = _raises_formatting_path(tree)
        if lines and path.name != "_files.py":
            formatted[path.name] = lines
        loaders |= {f"{path.stem}.{name}" for name in _reading_functions(tree)}
    assert formatted == {}
    assert loaders == {"mesh.load_mesh", "bundle.load_bundle",
                       "descriptor.DeformationDescriptor.load",
                       "spectral.SpectralCoefficients.load_csv",
                       "spectral.SpectralBasis.load"}


def _m_range_checks(tree: ast.Module) -> set[str]:
    """Names of the functions holding a comparison of an array's ``.min()`` or
    ``.max()`` with an M: a name ``m``, an attribute ``.m`` or a ``.shape[1]``."""
    def is_m(node):
        return (isinstance(node, ast.Name) and node.id == "m"
                or isinstance(node, ast.Attribute) and node.attr == "m"
                or ast.unparse(node).endswith(".shape[1]"))

    def is_extremum(node):
        return (isinstance(node, ast.Call) and not node.args and not node.keywords
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("min", "max"))

    return {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Compare)
        and any(is_extremum(a) for a in [node.left, *node.comparators])
        and any(is_m(a) for a in [node.left, *node.comparators])
    }


def test_one_rule_checks_eigenvector_indices():
    # the decodes, the reconstruction error, descriptors and similarity scores
    # hold an index in [0, M) through spectral._rows, so none clips an index
    # or words the range check its own way
    checks, callers, clipped = set(), set(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        checks |= {f"{path.stem}.{name}" for name in _m_range_checks(tree)}
        callers |= {f"{path.stem}.{fn.name}" for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef)
                    and any(isinstance(n, ast.Call) and ast.unparse(n.func) == "_rows"
                            for n in ast.walk(fn))}
        clipped += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.keyword) and node.arg == "mode"
                    and isinstance(node.value, ast.Constant) and node.value.value == "clip"]
    assert checks == {"spectral._rows"}
    assert callers == {"spectral.decode", "spectral.reconstruct_geometry",
                       "spectral._truncation_rms", "descriptor.complete_descriptor",
                       "retrieval._scores"}
    assert clipped == []


def test_one_home_per_library_operation():
    # the partial sum is spectral.decode, a descriptor is built by
    # build_descriptor (tune_threshold only picks its threshold), and the
    # cluster features are one slice of the first m triples
    functions = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        functions += [(f"{path.stem}.{fn.name}", list(ast.walk(fn)))
                      for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    products = {name for name, nodes in functions
                if any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
                       and isinstance(n.left, ast.Subscript)
                       and ast.unparse(n.left.value).endswith("eigenvectors")
                       for n in nodes)}
    assert products == {"spectral.decode"}
    nodes = dict(functions)
    assert "descriptor._augmented" not in nodes
    assert any(isinstance(n, ast.Call) and ast.unparse(n.func) == "build_descriptor"
               for n in nodes["descriptor.tune_threshold"])
    assert sum(isinstance(n, ast.Subscript) and ast.unparse(n.value) == "values"
               for n in nodes["retrieval.cluster_coefficients"]) == 1
