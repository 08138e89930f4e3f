"""Every function, method and class in the package has a caller in the
package: a definition whose name appears nowhere else in `src/satd_forge`
(as a name, an attribute or an imported name) is code the pipeline does
not use, and belongs in the tests or nowhere."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "satd_forge"

# called from outside the package's own code: argparse calls the parser's error hook
EXEMPT = {("cli", "_Parser.error")}


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


def test_every_definition_is_named_elsewhere_in_the_package():
    assert dead_definitions(PACKAGE) == []


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
