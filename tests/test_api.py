"""The public surface: what `import bernmass` exposes and loads, and the README's tour."""

import ast
import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bernmass
from bernmass.oracle import hankel_inverse_exact

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bernmass"


def test_import_loads_neither_oracle_nor_fractions():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, bernmass; print('bernmass.oracle' in sys.modules, 'fractions' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def test_hankel_inverse_exact_is_the_oracles_alone():
    # the dense integer inverse is a cross-check form: no production module defines it
    modules = [importlib.import_module(f"bernmass.{p.stem}") for p in PACKAGE.glob("*.py") if p.stem != "oracle"]
    assert [m.__name__ for m in modules if hasattr(m, "hankel_inverse_exact")] == []
    assert "hankel_inverse_exact" not in bernmass.__all__
    assert hankel_inverse_exact.__module__ == "bernmass.oracle"


def test_no_production_module_imports_the_oracle():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "oracle.py")
    assert len(modules) >= 10
    for path in modules:
        assert all(name.split(".")[-1] != "oracle" for name in _imported_modules(path)), path.name


def test_every_production_definition_is_public_or_used():
    # a top-level function or class that production code names nowhere outside
    # its own body is dead, or a test-only helper that belongs in the oracle;
    # docstrings and __all__ entries are strings, so they do not count
    defined, used = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "oracle.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            defined.add(owner)
            nodes = list(ast.walk(stmt))
            refs = {n.id for n in nodes if isinstance(n, ast.Name)}
            used |= (refs | {n.attr for n in nodes if isinstance(n, ast.Attribute)}) - {owner}
    defined.discard(None)
    assert len(defined) >= 60
    unused = defined - used - set(bernmass.__all__)
    assert not unused, sorted(unused)


def test_public_names_resolve():
    assert len(bernmass.__all__) == len(set(bernmass.__all__)) == 45
    for name in bernmass.__all__:
        assert hasattr(bernmass, name), name


def test_public_names_cover_the_benchmark():
    used = set()
    for path in (ROOT / "bench").glob("*.py"):
        used.update(re.findall(r"\bbm\.([A-Za-z_]\w*)", path.read_text()))
    assert len(used) >= 16
    assert used <= set(bernmass.__all__), sorted(used - set(bernmass.__all__))


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = readme[readme.index("## Quick tour") :]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue()


@pytest.mark.parametrize(
    "builder",
    [
        bernmass.mass_matrix,
        bernmass.structured_inverse,
        bernmass.build_q,
        bernmass.eigenvalues,
        bernmass.inverse_matrix,
        bernmass.kappa_2,
        bernmass.kappa_m_to_2,
        bernmass.run_random,
        bernmass.condition_table,
        pytest.param(lambda n: bernmass.run_projection("f1", n), id="run_projection"),
    ],
    ids=lambda f: f.__name__,
)
def test_negative_degree_refused(builder):
    for n in (-1, -7):
        with pytest.raises(ValueError) as info:
            builder(n)
        assert type(info.value) is ValueError and str(info.value) == "degree must be nonnegative"


@pytest.mark.parametrize(
    "call",
    [
        lambda n: bernmass.reference_solution(n, []),
        hankel_inverse_exact,
        lambda n: bernmass.basis_values(n, [0.0, 0.5, 1.0]),
    ],
    ids=["reference_solution", "hankel_inverse_exact", "basis_values"],
)
def test_negative_degree_refused_by_the_exact_routes_and_the_basis(call):
    for n in (-1, -7):
        with pytest.raises(ValueError) as info:
            call(n)
        assert type(info.value) is ValueError and str(info.value) == "degree must be nonnegative"
