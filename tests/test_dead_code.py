"""Every module-level name and class member of the package is used
outside the tests.

A function, class or constant whose name starts with one underscore must
be read somewhere in src/papr_lab other than its own definition: in its
module, or in another through `from .mod import _name` or `mod._name`.  A
public name may also be read by scripts/ or by perfbench/'s non-test
modules, the package's other users.  A method or property of a class in
src/papr_lab, other than a dunder, must have its name loaded as an
attribute (`x.name`) somewhere in src/ or those users.  Code that only
tests run belongs in the tests (tests/oracles.py) or nowhere.  ALLOWED
lists the exceptions, each with its reason.
"""
import ast
import importlib.util
from pathlib import Path

import papr_lab

SRC = Path(papr_lab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
# the package's users besides src/ itself, which may read its public names
USERS = sorted([*ROOT.glob("scripts/*.py"),
                *(path for path in ROOT.glob("perfbench/*.py")
                  if not path.name.startswith("test_"))])

# (module, name) or (module, "Class.member") -> why nothing in src/, or
# for a public name or a member nothing in src/ or USERS, needs to read it
ALLOWED = {
    ("papr_lab.fec.rs", "rs_encode"):
        "criterion 1 (tests/test_acceptance.py, kept as written) encodes "
        "RS(25,16) messages with it",
    ("papr_lab.fec.rs", "rs_decode"):
        "criterion 1 (tests/test_acceptance.py, kept as written) decodes "
        "RS(25,16) words with it",
    ("papr_lab.fec.crs", "codeword_density"):
        "criterion 3 (tests/test_acceptance.py, kept as written) measures "
        "the CRS constraint with it",
    ("papr_lab.fec.rs", "RsFrameLayout.p_lower"):
        "criterion 2 (tests/test_acceptance.py, kept as written) checks "
        "the CRS layout's p against it",
    ("papr_lab.fec.rs", "RsFrameLayout.p_upper"):
        "criterion 2 (tests/test_acceptance.py, kept as written) checks "
        "the CRS layout's p against it",
}


def _module_name(path):
    parts = path.relative_to(
        SRC.parent if path.is_relative_to(SRC) else ROOT).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _is_public(name):
    return not name.startswith("_")


def _defined(stmt):
    """The module-level names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)}


def _is_module(name):
    path = SRC.parent.joinpath(*name.split("."))
    return path.is_dir() or path.with_suffix(".py").exists()


def _bindings(path, tree):
    """Local name -> the module it names, or the (module, name) it is, for
    every `from ... import` of a module."""
    package = _module_name(path.parent / "__init__.py")
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package)
            for alias in node.names:
                target = f"{base}.{alias.name}"
                bound[alias.asname or alias.name] = (
                    target if _is_module(target) else (base, alias.name))
    return bound


def _definitions_and_reads(paths):
    """({(module, name) defined at module level}, {(module, name) read
    outside its own definition}) of the modules at paths."""
    defined, reads = set(), set()
    for path in paths:
        module = _module_name(path)
        tree = ast.parse(path.read_text())
        bound = _bindings(path, tree)
        for stmt in tree.body:
            own = _defined(stmt)
            defined |= {(module, n) for n in own}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    ref = bound.get(node.id, (module, node.id))
                    if isinstance(ref, tuple) and not (
                            ref[0] == module and ref[1] in own):
                        reads.add(ref)
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and isinstance(bound.get(node.value.id), str)):
                    reads.add((bound[node.value.id], node.attr))
    return defined, reads


def _unread():
    """{(module, name)} of the private names nothing in src/ reads and the
    public names nothing in src/ or USERS reads."""
    defined, reads = _definitions_and_reads(sorted(SRC.rglob("*.py")))
    used = reads | _definitions_and_reads(USERS)[1]
    return ({(m, n) for m, n in defined if _is_private(n)} - reads
            | {(m, n) for m, n in defined if _is_public(n)} - used)


def _unread_members():
    """{(module, "Class.member")} of the methods and properties of the
    classes in src/ whose name no attribute load in src/ or USERS reads."""
    members, loaded = set(), set()
    for path in [*sorted(SRC.rglob("*.py")), *USERS]:
        tree = ast.parse(path.read_text())
        loaded |= {node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load)}
        if path.is_relative_to(SRC):
            members |= {(_module_name(path), f"{cls.name}.{stmt.name}")
                        for cls in tree.body if isinstance(cls, ast.ClassDef)
                        for stmt in cls.body
                        if isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                        and not stmt.name.startswith("__")}
    return {(m, member) for m, member in members
            if member.split(".")[1] not in loaded}


def test_every_private_name_is_read_in_src():
    unused = sorted({(m, n) for m, n in _unread() - ALLOWED.keys()
                     if _is_private(n)})
    assert not unused, f"private names nothing in src/ reads: {unused}"


def test_every_public_name_is_read_outside_the_tests():
    unused = sorted({(m, n) for m, n in _unread() - ALLOWED.keys()
                     if _is_public(n)})
    assert not unused, (f"public names nothing in src/, scripts/ or "
                        f"perfbench/ reads: {unused}")


def test_every_class_member_is_read_outside_the_tests():
    unused = sorted(_unread_members() - ALLOWED.keys())
    assert not unused, (f"methods and properties nothing in src/, scripts/ "
                        f"or perfbench/ reads: {unused}")


def test_allow_list_is_current():
    """Each allowed name still exists and is still unread."""
    assert ALLOWED.keys() <= _unread() | _unread_members()
