"""Start-up cost: importing leeyang loads numpy only; scipy loads with a lattice domain.

Each check runs a cold interpreter with this checkout's ``src/`` first on
``PYTHONPATH``, so it holds for an uninstalled checkout too.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cold(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    out = run_cold("import leeyang, leeyang.cli, sys\n"
                   "print(leeyang.__file__)\n"
                   "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    path, loaded = out.splitlines()
    assert Path(path).resolve().parent == (SRC / "leeyang").resolve()
    assert loaded == "[]"


def test_lattice_domain_loads_scipy_on_demand():
    out = run_cold("import numpy as np, sys\n"
                   "from leeyang.gmc import LatticeDomain\n"
                   "d = LatticeDomain.disk(4)\n"
                   "C, G = d.cholesky(), d.green_matrix()\n"
                   "assert np.allclose(C @ C.T @ G, np.eye(d.n_interior))\n"
                   "print('scipy.sparse.linalg' in sys.modules and 'scipy.linalg' in sys.modules)")
    assert out.strip() == "True"
