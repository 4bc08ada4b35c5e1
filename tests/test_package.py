import os
import subprocess
import sys
from pathlib import Path

import primepairs


def test_star_import_resolves_every_exported_name():
    # a name in __all__ that the package does not define fails the import
    namespace = {}
    exec("from primepairs import *", namespace)
    assert len(set(primepairs.__all__)) == len(primepairs.__all__)
    for name in primepairs.__all__:
        assert namespace[name] is getattr(primepairs, name), name


def test_importing_the_cli_leaves_hashlib_unloaded():
    # hashlib maps OpenSSL (about 3.5 MB of RSS); config_hash imports it
    # at its one use, so the transforms of a verb run without it.  numpy
    # is imported first: numpy.random imports secrets, and so hashlib, and
    # numpy < 2 imports numpy.random on its own import
    src = str(Path(primepairs.__file__).resolve().parents[1])
    code = (
        "import sys, numpy; before = set(sys.modules); import primepairs.cli; "
        "print(sorted({'hashlib', '_hashlib'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
