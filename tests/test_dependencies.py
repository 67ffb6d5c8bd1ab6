import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# imports every qsymlab module but `__main__`, which runs the CLI, and prints
# the top-level packages outside the standard library that the imports added
_IMPORT_ALL = """
import importlib, json, pkgutil, sys
before = {name.partition(".")[0] for name in sys.modules}
import qsymlab
for info in pkgutil.walk_packages(qsymlab.__path__, "qsymlab."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)
added = {name.partition(".")[0] for name in sys.modules} - before
print(json.dumps(sorted(added - set(sys.stdlib_module_names))))
"""


def test_runtime_imports_are_numpy_only():
    # a fresh interpreter: this suite's own imports (pytest, hypothesis) are not loaded
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == ["numpy", "qsymlab"]
