"""The package as a user meets it: imported and run as ``python -m anysipp``
in a fresh interpreter that finds the library in ``src`` and nothing of the
test process (whose numpy, for one, the library must not need)."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python(*args, cwd=ROOT):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_library_imports_only_the_standard_library():
    proc = _python("-c", (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import anysipp, anysipp.cli\n"
        "print(json.dumps(sorted({name.split('.')[0] for name in set(sys.modules) - before})))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "anysipp" in loaded
    third_party = [name for name in loaded
                   if name != "anysipp" and name not in sys.stdlib_module_names
                   and not (name.startswith("__") and name.endswith("__"))]
    assert third_party == []


def test_python_m_anysipp_plans_a_generated_instance(tmp_path):
    map_path = tmp_path / "empty8.map"
    map_path.write_text("type octile\nheight 8\nwidth 8\nmap\n" + "........\n" * 8)
    proc = _python("-m", "anysipp", "--map", str(map_path), "--generate", "separated",
                   "--agents", "3", "--mode", "both", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[1] for line in lines[:2]] == ["aa", "cardinal"]
    assert all("success=True" in line for line in lines[:2])
    summary = json.loads("\n".join(lines[2:]))
    assert {mode: s["success_rate"] for mode, s in summary["per_mode"].items()} == {
        "aa": 1.0, "cardinal": 1.0}
