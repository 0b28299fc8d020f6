"""Every public function, method and property in ``src/weylnet`` has a caller,
and every field of a public dataclass has a reader.

A public name outside ``cli.py`` stays when the package itself, a demo or
``perfbench/`` uses it, the README names it, the acceptance tests use it,
or it is one of the paper results below that only the tests check.
Functions match as a name or attribute use; methods and properties match
as an attribute use (``.name`` or ``.name(``).  A field stays only when
those same files read it as an attribute (``x.field``), or it is one of
the results below that only the tests check; a README word is no reader.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylnet"

#: paper results that only the tests call
PAPER_RESULTS = {
    "basis.eigenvalue_power_target",
    "basis.structure_constant",
    "basis.weyl_commutator",
    "basis.weyl_det",
    "basis.weyl_eigenvalues",
    "basis.weyl_power",
    "basis.word_closure_reaches_all",
    "cat.CatProfile.y_total",
    "cat.completeness_residual",
    "cluster.reduced_entropy",
    "coherence.CoherenceVector.symmetry_residual",
    "collective.family_operators",
    "collective.foerster_eigensystem",
    "commuting.commute_check",
    "symmetry.permutation_operator",
}

#: result fields that only the tests read
RESULT_FIELDS = {
    "cluster.ProductTestResult.partition",
    "commuting.CommonEigenstate.completion",
    "commuting.CommonEigenstate.pure_cluster_count",
    "symmetry.SuperselectionReport.operator_count",
}


def public_surface():
    """(qualified name, attribute-only) of every public function, method and property."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                out.append((f"{module}.{node.name}", False))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out += [(f"{module}.{node.name}.{item.name}", True) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def dataclass_fields():
    """Qualified name of every field of a public dataclass."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                out += [f"{path.stem}.{node.name}.{item.target.id}" for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return out


def uses(paths):
    """(names, attributes) that the Python files use; an attribute counts when it is read.

    Imports count, and so does a string that is a dotted name such as
    ``"io.state_to_json"``, the way ``perfbench`` lists the functions it times.
    """
    names, attrs = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and re.fullmatch(r"\w+(\.\w+)+", node.value):
                names.add(node.value.rsplit(".", 1)[1])
    return names, attrs


SURFACE = public_surface()
FIELDS = dataclass_fields()
CALLERS = uses([*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                *(ROOT / "perfbench").rglob("*.py"), ROOT / "tests" / "test_acceptance.py"])
README = (ROOT / "README.md").read_text()


@pytest.mark.parametrize("qualname,method", SURFACE, ids=[q for q, _ in SURFACE])
def test_public_name_has_a_caller(qualname, method):
    name = qualname.rsplit(".", 1)[1]
    names, attrs = CALLERS
    used = name in attrs or (not method and name in names)
    named = re.search(rf"\b{re.escape(name)}\b", README) is not None
    assert used or named or qualname in PAPER_RESULTS, (
        f"{qualname} has no caller outside the tests: delete it, move it to "
        "tests/oracles.py, or list it as a paper result")


def test_paper_results_exist():
    assert PAPER_RESULTS <= {q for q, _ in SURFACE}


@pytest.mark.parametrize("qualname", FIELDS)
def test_result_field_is_read(qualname):
    assert qualname.rsplit(".", 1)[1] in CALLERS[1] or qualname in RESULT_FIELDS, (
        f"{qualname} is never read outside the tests: delete it, or list it as a result the tests check")


def test_result_fields_exist():
    assert RESULT_FIELDS <= set(FIELDS)


def test_cli_imports_no_private_io_name():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "io"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
