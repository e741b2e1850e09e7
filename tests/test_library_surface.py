"""The library defines only what the program uses.

Parses ``src/adawavenet/*.py``, ``scripts/*.py`` and ``perfbench/*.py`` (read
only) and requires every module-level function or class, and every
non-dunder method, defined in the library to be referenced somewhere in those
files outside its own definition: as a name, an attribute, a string or an
import. Tests do not count, so a helper that only tests call fails here.

The check goes by name alone: a definition whose name is shared with a used
definition (a second class's ``parameters`` method, say) is not caught. An
attribute of numpy (``np.tanh``, ``np.sqrt``) is not a use of the library's
definition of the same name.

A second check requires every library parameter that has a default to be
passed, by keyword or by position, at some call in those files: a default
that no program call overrides is a constant. Calls are matched by the
called name, and ``__init__`` by its class's name.

A third check requires every parameter of every library function, method
and lambda to be read in its body, a method's ``self`` aside: a parameter
that nothing reads is a knob that does nothing.

A fourth check requires every exception class the library defines to be one
that ``cli.main`` turns into an exit code.
"""
import ast
import builtins
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "adawavenet").glob("*.py"))
PROGRAM = (LIBRARY + sorted((ROOT / "scripts").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py")))

# definitions kept although nothing in the program refers to them
ALLOWED = {
    "tsum",             # the loss reducer of the criterion-1 gradient battery
    "_Parser.error",    # called by argparse
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
NUMPY = {"np", "numpy"}   # names that numpy is imported as


def definitions(tree):
    """(qualified name, node) of the module-level functions and classes and
    of their non-dunder methods."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def references(node, inside=()):
    """(name, ids of the enclosing definitions) of every name, attribute,
    string constant and imported name under node."""
    if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
        inside = inside + (id(node),)
    if isinstance(node, ast.Name):
        yield node.id, inside
    elif isinstance(node, ast.Attribute):
        if not (isinstance(node.value, ast.Name) and node.value.id in NUMPY):
            yield node.attr, inside
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value, inside
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1], inside
        if node.asname:
            yield node.asname, inside
    for child in ast.iter_child_nodes(node):
        yield from references(child, inside)


def unused_definitions():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in PROGRAM}
    refs = {}
    for tree in trees.values():
        for name, inside in references(tree):
            refs.setdefault(name, []).append(set(inside))
    unused = []
    for path in LIBRARY:
        for qualname, node in definitions(trees[path]):
            if not any(id(node) not in inside for inside in refs.get(node.name, [])):
                unused.append(qualname)
    return unused


def test_every_library_definition_is_used_by_the_program():
    """Exactly the ALLOWED definitions are unused, so a stale entry fails too."""
    assert sorted(unused_definitions()) == sorted(ALLOWED)


def test_library_has_no_assert_statement():
    """Invariants raise exceptions: `python -O` strips every assert."""
    asserts = [f"{path.name}:{node.lineno}" for path in LIBRARY
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Assert)]
    assert asserts == []


# parameters with a default that no program call passes
DEFAULT_ALLOWED = {
    "main.argv",        # None reads sys.argv; the console script passes nothing
}


def call_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def defaulted_parameters(tree):
    """(qualified name, call name, positional index or None, parameter name)
    of every parameter with a default of the module-level functions and of
    the methods, ``__init__`` included. A method's positions leave out
    ``self``, and ``__init__`` is called by its class's name."""
    functions = [(node.name, node, node.name, 0) for node in tree.body
                 if isinstance(node, FUNCTIONS)]
    methods = [(f"{node.name}.{item.name}", item,
                node.name if item.name == "__init__" else item.name, 1)
               for node in tree.body if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, FUNCTIONS)]
    for qualname, node, called_as, skip in functions + methods:
        positional = node.args.posonlyargs + node.args.args
        first_default = len(positional) - len(node.args.defaults)
        for i, arg in enumerate(positional[first_default:], first_default):
            yield qualname, called_as, i - skip, arg.arg
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield qualname, called_as, None, arg.arg


def passes(call, position, name):
    """Whether the call passes the parameter at ``position`` (None: keyword
    only) or named ``name``; a ``*args`` or ``**kwargs`` passes anything."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unpassed_defaults():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in PROGRAM}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(call_name(node), []).append(node)
    return [f"{qualname}.{name}" for path in LIBRARY
            for qualname, called_as, position, name in defaulted_parameters(trees[path])
            if not any(passes(c, position, name) for c in calls.get(called_as, []))]


def test_every_parameter_with_a_default_is_passed_by_the_program():
    """A default that no program call overrides is a constant: exactly the
    DEFAULT_ALLOWED parameters are never passed, so a stale entry fails too."""
    assert sorted(unpassed_defaults()) == sorted(DEFAULT_ALLOWED)


# parameters that a signature requires although the body does not read them
UNREAD_ALLOWED = {
    "_spent.g",             # stands in for a backward closure, which takes g
    "no_grad.__exit__.exc",  # the context-manager protocol passes the exception
}


def parameters_and_reads(tree):
    """(qualified name, parameter names, names read in the body) of every
    function, method and lambda; a lambda is named ``<lambda>`` after its
    enclosing definition. A method's first parameter is left out."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS + (ast.Lambda,)):
                name = child.name if isinstance(child, FUNCTIONS) else "<lambda>"
                args = child.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                if isinstance(node, ast.ClassDef):
                    params = params[1:]
                body = child.body if isinstance(child, FUNCTIONS) else [child.body]
                reads = {n.id for stmt in body for n in ast.walk(stmt)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                yield prefix + name, params, reads
                yield from walk(child, prefix + name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def unread_parameters():
    return [f"{qualname}.{param}" for path in LIBRARY
            for qualname, params, reads in parameters_and_reads(
                ast.parse(path.read_text(encoding="utf-8"), str(path)))
            for param in params if param not in reads]


def test_every_parameter_is_read():
    """Exactly the UNREAD_ALLOWED parameters go unread, so a stale entry
    fails too."""
    assert sorted(unread_parameters()) == sorted(UNREAD_ALLOWED)


def exit_code_exceptions():
    """The exception types named by the except clauses of ``cli.main``."""
    cli = importlib.import_module("adawavenet.cli")
    tree = ast.parse(inspect.getsource(cli.main))
    names = [node.id for handler in ast.walk(tree)
             if isinstance(handler, ast.ExceptHandler)
             for node in ast.walk(handler.type) if isinstance(node, ast.Name)]
    return tuple(getattr(cli, name, None) or getattr(builtins, name)
                 for name in names)


def library_exceptions():
    """Every exception class defined in a library module."""
    modules = [importlib.import_module("adawavenet" if path.stem == "__init__"
                                       else f"adawavenet.{path.stem}")
               for path in LIBRARY]
    return [obj for mod in modules for obj in vars(mod).values()
            if inspect.isclass(obj) and issubclass(obj, BaseException)
            and obj.__module__ == mod.__name__]


def test_every_library_exception_has_an_exit_code():
    """A library error that ``cli.main`` does not map ends the CLI in a
    traceback instead of exit 1, 2 or 3 with one line."""
    mapped = exit_code_exceptions()
    assert {t.__name__ for t in mapped} >= {"UsageError", "ConfigError",
                                            "DataError", "NumericalError",
                                            "TensorError"}
    assert [e.__name__ for e in library_exceptions()
            if not issubclass(e, mapped)] == []
