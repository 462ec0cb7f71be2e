"""List the exit code of every single-leaf replacement the config fuzzer draws from.

``tests/test_config_fuzz.py`` replaces one leaf of a small valid config
with one value of its ``POOL`` (or removes it) and samples from
``CASES x POOL``.  This script runs every pair through the fuzzer's own
runner and prints one ``base path value code`` line per pair, where
``path`` joins the keys and indices with ``/`` and ``value`` is the
replacement as compact JSON (``MISSING`` for a removed key).

A change that moves where an input rule is checked keeps every exit
code when the output is the same before and after it:

    python tools/exit_codes.py > before.txt
    # ... change the code ...
    python tools/exit_codes.py --check before.txt

``--check FILE`` prints only the lines that differ (``-`` saved, ``+``
now) and exits 1 on any difference, 0 when the two are identical.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

from config_hashes import listing_main  # noqa: E402


def _load_fuzz():
    spec = importlib.util.spec_from_file_location("test_config_fuzz",
                                                  ROOT / "tests" / "test_config_fuzz.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fuzz = _load_fuzz()


def _label(value) -> str:
    return "MISSING" if value is fuzz.MISSING else json.dumps(value, separators=(",", ":"))


def exit_codes() -> list[str]:
    lines = []
    for name, path in fuzz.CASES:
        base = fuzz.BASES[name]
        for value in fuzz.POOL:
            code, _ = fuzz._run(fuzz._replaced(base, path, value), base["experiment"])
            lines.append(f"{name} {'/'.join(map(str, path))} {_label(value)} {code}")
    return lines


def main(argv=None) -> int:
    return listing_main("List the exit code of every single-leaf config replacement.",
                        exit_codes, argv)


if __name__ == "__main__":
    sys.exit(main())
