import ast
import subprocess
import sys
from pathlib import Path

import orderone

REPO = Path(__file__).resolve().parent.parent


def test_library_has_no_assert_statements():
    """Result checks must raise; `python -O` strips assert statements."""
    found = []
    for path in sorted(Path(orderone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_benchmark_tracer_installs():
    """Every function the benchmark tracer wraps still exists and still has an
    import site, so a refactor that drops one fails here, not in the benchmark."""
    code = 'import sys; sys.path[:0] = ["perfbench", "src"]; import tracer; tracer.install(tracer.Tracer())'
    res = subprocess.run([sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_geometry_defines_no_dense_power_sum_table():
    """The profile and the pair screen read power sums mod p through the sparse
    reader alone; the dense table is the tests' oracle, not a second library route."""
    tree = ast.parse((Path(orderone.__file__).parent / "geometry.py").read_text())
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {t.id for t in targets if isinstance(t, ast.Name)}
    assert "_power_sums_at" in defined
    assert defined.isdisjoint({"_power_sum_table", "_BLOCK"})
