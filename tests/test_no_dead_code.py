"""Every function, method and class in the package has a caller in the
package: a definition whose name appears nowhere else in `src/satd_forge`
(as a name, an attribute or an imported name) is code the pipeline does
not use, and belongs in the tests or nowhere.

Every parameter with a default is passed by some call in the package or
the benchmark: a default that every call leaves in place is a setting
nothing sets, and the parameter is a constant or a branch no command
reaches."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "satd_forge"
# the code whose calls count: the package and the benchmark, its own tests included
CALLERS = (PACKAGE, ROOT / "perfbench")

# definition (module, qualified name) -> why nothing in the package names it
EXEMPT = {("cli", "_Parser.error"): "argparse calls the parser's error hook"}


def definitions_and_names(package: Path):
    """((module, qualified name, name) of every definition, every name used)."""
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [(tree, "")]
        while scopes:
            node, prefix = scopes.pop()
            for child in ast.iter_child_nodes(node):
                inner = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{prefix}{child.name}"
                    defined.append((path.stem, inner, child.name))
                    inner += "."
                elif isinstance(child, ast.Name):
                    used.add(child.id)
                elif isinstance(child, ast.Attribute):
                    used.add(child.attr)
                elif isinstance(child, ast.alias):
                    used.add(child.name.split(".")[-1])
                scopes.append((child, inner))
    return defined, used


def dead_definitions(package: Path) -> list[str]:
    defined, used = definitions_and_names(package)
    return sorted(
        f"{module}.{qualified}"
        for module, qualified, name in defined
        if name not in used
        and not (name.startswith("__") and name.endswith("__"))
        and (module, qualified) not in EXEMPT
    )


def defaulted_parameters(package: Path):
    """(qualified name, the name a call uses, parameter, its position in a
    call or None when it is keyword-only) of every parameter with a
    default. A call names a method by its own name and `__init__` by its
    class's name; neither passes `self` or `cls`."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = [(tree, "", None)]  # (node, qualified prefix, enclosing class name)
        while scopes:
            node, prefix, owner = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    scopes.append((child, f"{prefix}{child.name}.", child.name))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualified = f"{path.stem}.{prefix}{child.name}"
                    called_as = owner if child.name == "__init__" else child.name
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                    bound = 1 if owner is not None and not static else 0
                    args = child.args
                    positional = args.posonlyargs + args.args
                    for k in range(len(positional) - len(args.defaults), len(positional)):
                        found.append((qualified, called_as, positional[k].arg, k - bound))
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            found.append((qualified, called_as, arg.arg, None))
                    scopes.append((child, f"{prefix}{child.name}.", None))
                else:
                    scopes.append((child, prefix, owner))
    return found


def call_sites(roots) -> dict[str, list[tuple[int, set[str], bool, bool]]]:
    """Called name -> (positional arguments, keyword names, whether it
    passes *args, whether it passes **kwargs) of every call under `roots`."""
    sites = defaultdict(list)
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                starred = [isinstance(a, ast.Starred) for a in node.args]
                sites[name].append((
                    starred.count(False),
                    {k.arg for k in node.keywords if k.arg is not None},
                    any(starred),
                    any(k.arg is None for k in node.keywords),
                ))
    return sites


def unused_parameters(package: Path, roots) -> list[str]:
    sites = call_sites(roots)

    def passed(called_as, name, position):
        for n_positional, keywords, star, double_star in sites.get(called_as, ()):
            if name in keywords or double_star:
                return True
            if position is not None and (star or position < n_positional):
                return True
        return False

    return sorted(
        f"{qualified}({name})"
        for qualified, called_as, name, position in defaulted_parameters(package)
        if not passed(called_as, name, position)
    )


def test_every_definition_is_named_elsewhere_in_the_package():
    assert dead_definitions(PACKAGE) == []


def test_every_defaulted_parameter_is_passed_somewhere():
    assert unused_parameters(PACKAGE, CALLERS) == []


def test_finds_an_unused_definition(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def __init__(self): self.used()\n"
        "    def used(self): return helper\n"
        "    def unused(self): pass\n"
        "def helper(): pass\n"
    )
    (tmp_path / "n.py").write_text("from .m import A\n")
    assert dead_definitions(tmp_path) == ["m.A.unused"]


def test_finds_an_unused_parameter(tmp_path):
    (tmp_path / "m.py").write_text(
        "class A:\n"
        "    def __init__(self, x, y=1): pass\n"
        "    def f(self, a, b=2, *, c=3): pass\n"
        "    @staticmethod\n"
        "    def s(p, q=0): pass\n"
        "def g(u, v=0, w=0): pass\n"
        "def t(a=0, *, b=0): pass\n"
        "def k(a=0, *, b=0): pass\n"
    )
    (tmp_path / "n.py").write_text(
        "from .m import A, g, k, t\n"
        "A(0, 2).f(1, c=4)\n"  # y by position, b never
        "A.s(1)\n"
        "g(1, w=2)\n"
        "def star(*args): return t(*args)\n"  # *args passes every positional parameter
        "def double(**kw): return k(**kw)\n"  # **kwargs every keyword
    )
    assert unused_parameters(tmp_path, [tmp_path]) == ["m.A.f(b)", "m.A.s(q)", "m.g(v)", "m.t(b)"]
