import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ["verify_all.py", "reproduce_tables.py", "precompute_records.py"]


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_loads_outside_the_repo(name, tmp_path):
    """Each script finds the package next to it, whatever the working directory."""
    code = (
        "import runpy, sys\n"
        f"runpy.run_path({str(ROOT / 'scripts' / name)!r}, run_name='x')\n"
        "print(sys.modules['orderone'].__file__)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve().parent == ROOT / "src" / "orderone"
