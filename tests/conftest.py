import sys
from pathlib import Path

from hypothesis.internal.conjecture import providers

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis 6.155 seeds its draws with the literals of every local module
# loaded (the library's included), so a float added to src/, or perfbench
# imported first, would change what each derandomized property checks.  An
# empty local pool makes a property's examples depend on its own source
# only; the global pool, fixed by the Hypothesis version, stays.
if not callable(getattr(providers, "_get_local_constants", None)):
    raise RuntimeError(
        "hypothesis.internal.conjecture.providers._get_local_constants is gone: "
        "the local-constant pool of this Hypothesis version needs pinning another way"
    )
_NO_LOCAL_CONSTANTS = providers.Constants()
providers._get_local_constants = lambda: _NO_LOCAL_CONSTANTS
