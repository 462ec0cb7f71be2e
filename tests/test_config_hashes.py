"""Same bits: hashes of the sample configs' artifacts and of the demos' stdout,
made in a child process held to numpy's baseline dispatch and OpenBLAS's
Prescott kernel, since the host's SIMD kernels move some bytes.  A change that
moves a byte regenerates the listing, under the same pin, in the same diff:

    PYTHONPATH=src python tests/test_config_hashes.py > tests/data/config_hashes.txt
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from coherentlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
LISTING = ROOT / "tests" / "data" / "config_hashes.txt"
PIN = {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
       "OPENBLAS_CORETYPE": "Prescott"}


def _hashes(path: Path) -> list[str]:
    """Run a sample config through the CLI with ``--out out``, or a demo as a script, in a
    fresh temporary cwd: a line per file the run writes, then one for its stdout."""
    stdout, cwd = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(stdout):
        os.chdir(tmp)
        if path.suffix == ".py":
            runpy.run_path(str(path), run_name="__main__")
        else:
            args = [json.loads(path.read_text())["experiment"], "--config", str(path)]
            assert main([*args, "--out", "out"]) == 0, f"{path.name} exited nonzero"
        os.chdir(cwd)
        files = {out.name: out.read_bytes()
                 for out in sorted(Path(tmp).rglob("*")) if out.is_file()}
    files["stdout"] = stdout.getvalue().encode()
    return [f"{path.name} {name} {hashlib.sha256(data).hexdigest()}"
            for name, data in files.items()]


def listing() -> list[str]:
    """Each sample config run once, then each demo; under the pin only."""
    on = [target for target in __cpu_dispatch__ if __cpu_features__[target]]
    assert not on, f"numpy still dispatches to {on}: add them to NPY_DISABLE_CPU_FEATURES"
    paths = sorted(ROOT.glob("configs/*.json")) + sorted(ROOT.glob("demos/*.py"))
    return [line for path in paths for line in _hashes(path)]


def pinned_listing() -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PIN)
    child = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", __file__, "--pinned"],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()


@pytest.mark.skipif(platform.machine() != "x86_64", reason="the listing records x86-64 kernels")
def test_pinned_listing_matches_the_committed_one():
    assert pinned_listing() == LISTING.read_text().splitlines()


if __name__ == "__main__":
    print("\n".join(listing() if sys.argv[1:] == ["--pinned"] else pinned_listing()))
