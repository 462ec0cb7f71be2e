"""Hash every artifact of the sample configs and what every demo prints.

Runs each ``configs/*.json`` through ``coherentlab.cli.main``, once with
``--workers 1`` and once with ``--workers 2``, and prints one
``config workers file sha256`` line per artifact, ``config_resolved.json``
included.  Then runs each demo in ``DEMOS`` with its stdout captured and
prints one ``demo - stdout sha256`` line for what it prints.  The demos
write no files; one that did would get a ``demo - file sha256`` line per
file.  Each run works in a fresh temporary directory, the CLI with the
relative ``--out out``, so the output directory the config echo records
does not depend on where the temporary directory is.

A refactor keeps the artifacts byte-identical when the output of this
script is the same before and after it:

    python tools/config_hashes.py > before.txt
    # ... change the code ...
    python tools/config_hashes.py --check before.txt

``--check FILE`` compares the listing with a saved one, prints only the
lines that differ (``-`` saved, ``+`` now) and exits 1 on any difference,
0 when the two are identical.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import functools
import hashlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coherentlab.cli import main as cli_main  # noqa: E402

WORKERS = (1, 2)
OUT = "out"
DEMOS = tuple(sorted(path.name for path in (ROOT / "demos").glob("*.py")))


def _hashes(run) -> list[str]:
    """``file sha256`` of every file that ``run()`` writes, with a fresh temporary cwd."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            run()
        finally:
            os.chdir(cwd)
        return [f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
                for path in sorted(Path(tmp).rglob("*")) if path.is_file()]


def _run_cli(args) -> None:
    code = cli_main(args)
    if code != 0:
        raise SystemExit(f"{' '.join(args)} exited {code}")


def config_hashes() -> list[str]:
    lines = []
    for config in sorted((ROOT / "configs").glob("*.json")):
        experiment = json.loads(config.read_text())["experiment"]
        for workers in WORKERS:
            args = [experiment, "--config", str(config), "--out", OUT, "--workers", str(workers)]
            lines += [f"{config.name} {workers} {entry}"
                      for entry in _hashes(functools.partial(_run_cli, args))]
    for demo in DEMOS:
        run = functools.partial(runpy.run_path, str(ROOT / "demos" / demo), run_name="__main__")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            files = _hashes(run)
        files.append(f"stdout {hashlib.sha256(stdout.getvalue().encode()).hexdigest()}")
        lines += [f"{demo} - {entry}" for entry in files]
    return lines


def main(argv=None) -> int:
    """Print the listing, or with ``--check FILE`` print only its differences from FILE."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with a saved listing; exit 1 if any line differs")
    args = parser.parse_args(argv)
    lines = config_hashes()
    if args.check is None:
        print("\n".join(lines))
        return 0
    saved = Path(args.check).read_text().splitlines()
    diff = [line for line in difflib.unified_diff(saved, lines, lineterm="", n=0)
            if not line.startswith(("---", "+++", "@@"))]
    if diff:
        print("\n".join(diff))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
