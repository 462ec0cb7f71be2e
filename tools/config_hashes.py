"""Hash every artifact that the sample configs produce.

Runs each ``configs/*.json`` through ``coherentlab.cli.main``, once with
``--workers 1`` and once with ``--workers 2``, and prints one
``config workers file sha256`` line per artifact, ``config_resolved.json``
included.  Each run works in a fresh temporary directory with the
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
import difflib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coherentlab.cli import main as cli_main  # noqa: E402

WORKERS = (1, 2)
OUT = "out"


def config_hashes() -> list[str]:
    lines = []
    cwd = os.getcwd()
    for config in sorted((ROOT / "configs").glob("*.json")):
        experiment = json.loads(config.read_text())["experiment"]
        for workers in WORKERS:
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                try:
                    code = cli_main([experiment, "--config", str(config), "--out", OUT,
                                     "--workers", str(workers)])
                finally:
                    os.chdir(cwd)
                if code != 0:
                    raise SystemExit(f"{config.name} --workers {workers} exited {code}")
                for path in sorted((Path(tmp) / OUT).iterdir()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    lines.append(f"{config.name} {workers} {path.name} {digest}")
    return lines


def listing_main(description: str, listing, argv=None) -> int:
    """Print ``listing()``, or with ``--check FILE`` print only its differences from FILE."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--check", metavar="FILE",
                        help="compare with a saved listing; exit 1 if any line differs")
    args = parser.parse_args(argv)
    lines = listing()
    if args.check is None:
        print("\n".join(lines))
        return 0
    saved = Path(args.check).read_text().splitlines()
    diff = [line for line in difflib.unified_diff(saved, lines, lineterm="", n=0)
            if not line.startswith(("---", "+++", "@@"))]
    if diff:
        print("\n".join(diff))
    return 1 if diff else 0


def main(argv=None) -> int:
    return listing_main("Hash the artifacts of every sample config.", config_hashes, argv)


if __name__ == "__main__":
    sys.exit(main())
