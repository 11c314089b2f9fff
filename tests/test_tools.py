"""The repository's tools run from any working directory."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_output_digest_imports_its_own_tree(tmp_path):
    # run from another directory with PYTHONPATH unset, the digest tool finds
    # the src/ beside it; a decoy normfit first on PYTHONPATH is not imported
    decoy = tmp_path / "decoy" / "normfit"
    decoy.mkdir(parents=True)
    (decoy / "__init__.py").write_text("raise ImportError('decoy normfit imported')\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for pythonpath in (None, str(decoy.parent)):
        if pythonpath is not None:
            env["PYTHONPATH"] = pythonpath
        done = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"), "--help"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert "--degenerate" in done.stdout


def test_output_digest_degenerate_run(tmp_path):
    # the digest that gates byte-identity claims runs to its one summary line
    # from another directory with PYTHONPATH unset
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py"),
                           "--degenerate"], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert re.fullmatch(r"[0-9a-f]{32}  15 cases", done.stdout.strip()), done.stdout
