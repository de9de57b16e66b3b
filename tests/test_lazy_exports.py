"""Every name a package resolves on first use (``repro._exports``) resolves,
and to the object its defining module holds.

Each package is checked in a fresh process, so every name goes through the
package's ``__getattr__`` rather than a value an earlier import cached."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

LAZY_PACKAGES = ("repro", "repro.engine", "repro.core", "repro.core.magic",
                 "repro.obs")

_CHECK = """
import importlib, json, sys, types

package = sys.argv[1]
star = {}
exec("from %s import *" % package, star)
module = importlib.import_module(package)

from repro.core.magic.adornment import FREE
from repro.obs.metrics import COUNT_BUCKETS, NULL_METRIC

#: The exported values that are neither classes nor functions, from their
#: defining modules.
constants = {"FREE": FREE, "COUNT_BUCKETS": COUNT_BUCKETS,
             "NULL_METRIC": NULL_METRIC}
wrong = []
for name in module.__all__:
    value = getattr(module, name)
    if name not in star or star[name] is not value:
        wrong.append([name, "star import"])
    if isinstance(value, (type, types.FunctionType)):
        if getattr(sys.modules[value.__module__], name, None) is not value:
            wrong.append([name, value.__module__])
    elif name != "__version__" and constants.get(name) is not value:
        wrong.append([name, "constant"])
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_is_its_defining_modules_object(package):
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
    completed = subprocess.run(
        [sys.executable, "-W", "error", "-c", _CHECK, package], env=env,
        capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_an_unknown_name_is_an_attribute_error(package):
    module = importlib.import_module(package)
    assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec("from %s import no_such_name" % package, {})
