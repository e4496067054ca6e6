"""Cold-import guard: ``import partlab`` loads the counting and series layers
only, and the identity layer loads on first use.

Each check runs in a fresh interpreter, since this test process has long
since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import partlab

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules that only the identity layer needs, and one that no layer needs.
HEAVY = ("partlab.identities", "concurrent.futures", "dataclasses")


def run_fresh(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_counting_and_series_leave_the_identity_layer_unloaded():
    got = run_fresh(f"""
import sys
import partlab
partlab.count_enum("s", 0)
partlab.gf_family("d_e", None, 10)
cold = [name for name in {HEAVY!r} if name in sys.modules]
verify = partlab.verify
loaded = "partlab.identities" in sys.modules
same = verify is partlab.identities.verify
import json
print(json.dumps({{"cold": cold, "loaded": loaded, "same": same}}))
""")
    assert got == {"cold": [], "loaded": True, "same": True}


def test_every_export_resolves_from_a_fresh_import():
    got = run_fresh("""
import json
import partlab
names = {}
exec("from partlab import *", names)
unbound = [name for name in partlab.__all__ if name not in names]
unresolved = [name for name in partlab.__all__ if getattr(partlab, name) is not names[name]]
undir = [name for name in partlab.__all__ if name not in dir(partlab)]
try:
    partlab.nope
    missing = "no error"
except AttributeError as err:
    missing = str(err)
print(json.dumps({"unbound": unbound, "unresolved": unresolved, "undir": undir, "nope": missing}))
""")
    assert got == {"unbound": [], "unresolved": [], "undir": [],
                   "nope": "module 'partlab' has no attribute 'nope'"}


def test_lazy_exports_are_the_identity_layer_names():
    from partlab import identities

    for name in ("IdentityReport", "IdentitySpec", "list_identities", "verify", "verify_cells"):
        assert getattr(partlab, name) is getattr(identities, name)
    assert partlab.identities is identities


@pytest.mark.parametrize("argv", [["table", "s", "0", "3"], ["map", "glaisher", "--t", "2", "4,2"]])
def test_cli_commands_that_verify_nothing_leave_the_identity_layer_unloaded(argv):
    got = run_fresh(f"""
import contextlib, io, json, sys
from partlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
loaded = [name for name in ("partlab.identities", "concurrent.futures") if name in sys.modules]
print(json.dumps({{"code": code, "loaded": loaded}}))
""")
    assert got == {"code": 0, "loaded": []}


@pytest.mark.parametrize("argv", [["table", "s", "0", "3"], ["map", "glaisher", "--t", "2", "4,2"],
                                  ["verify", "I1"], ["selftest", "--only", "1"]])
def test_no_cli_command_loads_dataclasses(argv):
    # Every record is a NamedTuple.  Only dataclasses is asserted: some
    # interpreter builds load inspect for reasons of their own.
    got = run_fresh(f"""
import contextlib, io, json, sys
from partlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps({{"code": code, "dataclasses": "dataclasses" in sys.modules}}))
""")
    assert got == {"code": 0, "dataclasses": False}
