"""Importing the package pulls in no test-only dependency.

scipy, mpmath, hypothesis and pytest serve the tests alone; importing
``scipy.special`` alone costs more than importing ``fabcr`` and
``fabcr.cli`` together.
"""

import json
import os
import subprocess
import sys

import fabcr

_PROBE = """
import importlib, json, pkgutil, sys
import fabcr, fabcr.cli
names = sorted(m.name for m in pkgutil.walk_packages(fabcr.__path__, "fabcr."))
for name in names:
    importlib.import_module(name)
print(json.dumps({"modules": names, "loaded": sorted(sys.modules)}))
"""

TEST_ONLY = ("scipy", "mpmath", "hypothesis", "pytest")


def test_package_imports_no_test_only_dependency():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fabcr.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    probe = json.loads(out)
    assert "fabcr.cli" in probe["modules"] and "fabcr._core" in probe["modules"]
    leaked = [m for m in probe["loaded"] if m.split(".")[0] in TEST_ONLY]
    assert leaked == []
