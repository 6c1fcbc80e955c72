"""Cache-policy guard over the package source, with the standard library only.

Data derived from a frozen object is kept in the object's __dict__ by one
decorator, core._derived. This fails when another package function writes
to a __dict__ or uses functools.cached_property (which writes one), and when functools.cache or lru_cache memoizes anything but
the helpers keyed by tuples, ints or nothing. A cache keyed on a ring would
keep every ring it saw alive (a 196 MB tensor at rank 295), and a lookup by
an equal but distinct ring compares the whole tensors (FusionRing.__eq__).
"""

import ast
from pathlib import Path

import fusionring

SOURCES = sorted(Path(fusionring.__file__).parent.glob("*.py"))
DICT_WRITERS = ["core._derived"]
MEMOIZED = ["catalog._entries", "core._Group", "premodular._element_index",
            "spectral._sqrt_prime_fractions"]
MEMOIZERS = {"cache", "lru_cache"}
MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _scopes(module: str, tree):
    """(module.name, node) of each top-level def or class of tree, then
    (module, tree)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
    yield module, tree


def _is_dict(node) -> bool:
    """node is x.__dict__ or vars(x)."""
    return ((isinstance(node, ast.Attribute) and node.attr == "__dict__")
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "vars"))


def _writes_dict(node) -> bool:
    if ((isinstance(node, ast.Name) and node.id == "cached_property")
            or (isinstance(node, ast.Attribute) and node.attr == "cached_property")):
        return True
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return _is_dict(node.value)
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return node.attr == "__dict__"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS and _is_dict(node.func.value))


def dict_writers(module: str, tree) -> list:
    """'scope line N' for each write to a __dict__ in tree: an item stored
    or deleted, a mutating method called, or the attribute itself bound,
    on x.__dict__ or vars(x), and each use of cached_property. scope is the top-level def or class holding
    it (see _scopes), the module outside them."""
    out, seen = [], set()
    for scope, node in _scopes(module, tree):
        for sub in ast.walk(node):
            if id(sub) not in seen and _writes_dict(sub):
                out.append(f"{scope} line {sub.lineno}")
            seen.add(id(sub))
    return out


def _memoizer(node) -> bool:
    """node names functools.cache or lru_cache, bare or as an attribute."""
    return ((isinstance(node, ast.Name) and node.id in MEMOIZERS)
            or (isinstance(node, ast.Attribute) and node.attr in MEMOIZERS))


def memoized(module: str, tree) -> list:
    """module.name of each def or class in tree that a cache or lru_cache
    decorates, and 'module line N' for each other use of either."""
    out, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                if _memoizer(dec.func if isinstance(dec, ast.Call) else dec):
                    out.append(f"{module}.{node.name}")
                    decorators |= {id(sub) for sub in ast.walk(dec)}
    out += [f"{module} line {node.lineno}" for node in ast.walk(tree)
            if _memoizer(node) and id(node) not in decorators]
    return out


def _trees():
    return {p.stem: ast.parse(p.read_text()) for p in SOURCES}


def test_only_derived_writes_a_dict():
    found = [line for module, tree in _trees().items() for line in dict_writers(module, tree)]
    assert [line for line in found if line.split(" line ")[0] not in DICT_WRITERS] == []


def test_memoized_only_by_tuple_or_nothing():
    found = [name for module, tree in _trees().items() for name in memoized(module, tree)]
    assert [name for name in found if name not in MEMOIZED] == []


def test_guard_catches_dict_writes():
    tree = ast.parse("def _derived(fn):\n    def c(o):\n        o.__dict__[1] = 2\n"
                     "    return c\n"
                     "class R:\n    def f(self):\n        vars(self)['k'] = 1\n"
                     "    def g(self):\n        self.__dict__.update(k=1)\n"
                     "    def h(self):\n        return self.__dict__['k'], vars(self).get('k')\n"
                     "def e(o):\n    del o.__dict__['k']\n"
                     "object.__dict__ = {}\n")
    assert dict_writers("m", tree) == ["m._derived line 3", "m.R line 7", "m.R line 9",
                                       "m.e line 13", "m line 14"]


def test_guard_catches_memoizers():
    tree = ast.parse("import functools\nfrom functools import cache, lru_cache\n"
                     "@functools.lru_cache(maxsize=4)\ndef a(t):\n    pass\n"
                     "@cache\ndef b():\n    pass\n"
                     "class K:\n    @lru_cache\n    def c(self):\n        pass\n"
                     "@functools.cached_property\ndef d(self):\n    pass\n"
                     "e = functools.cache(len)\n")
    assert memoized("m", tree) == ["m.a", "m.b", "m.c", "m line 16"]


def test_guard_catches_cached_property():
    tree = ast.parse("import functools\nfrom functools import cached_property\n"
                     "class R:\n    @functools.cached_property\n    def a(self):\n"
                     "        pass\n    @cached_property\n    def b(self):\n        pass\n"
                     "c = functools.cached_property(len)\n")
    assert dict_writers("m", tree) == ["m.R line 4", "m.R line 7", "m line 10"]
