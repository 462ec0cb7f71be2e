"""Outside-in span tracer for the coherentlab package.

The tracer wraps public functions of the package from the outside: it
replaces every module-level binding of a traced function (the defining
module, the package namespace, and every module that re-imported it)
with a wrapper that records one span per call.  A class is traced through
its ``__init__``, so ``isinstance`` checks keep working.

Spans live in memory as flat arrays (name, start, end, parent, root) and
are written out only by :meth:`Tracer.write`, after the measured run.
Per-name totals are kept as the spans close:

* ``calls`` and ``total_ns`` (wall time of the span),
* ``self_ns``: the span's time minus the time of its child spans,
* ``leaf_calls`` / ``leaf_ns``: calls that opened no child span (for
  ``selection.find_local_maxima`` this is a maxima-cache hit).

Spans nest on a per-thread stack, so a traced call made from a worker
thread cannot corrupt the self time of the main thread's spans.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from time import perf_counter_ns

#: Traced calls, as (module, attribute) in the coherentlab package.
TRACED = (
    ("cli", "main"),
    ("config", "resolve_config"),
    ("ring", "survival_curve"),
    ("ring", "classical_survival"),
    ("reporting", "write_csv"),
    ("reporting", "write_json"),
    ("reporting", "svg_line_plot"),
    ("borngeo", "sweep_transition_prob"),
    ("borngeo", "sample_phi"),
    ("borngeo", "theta_from_norms"),
    ("borngeo", "is_blocked"),
    ("selection", "run_sequence"),
    ("selection", "find_local_maxima"),
    ("selection", "select_and_collapse"),
    ("selection", "blocked_select"),
    ("landscape", "ascent_starts"),
    ("landscape", "ascend"),
    ("landscape", "v_value_grad_hess"),
    ("landscape", "v_at"),
    ("states", "SuperposedState"),
    ("states", "evolve_free"),
    ("states", "amplitude"),
    ("currents", "displacement_from_current"),
    ("currents", "current_j"),
)

PACKAGE = "coherentlab"


class Tracer:
    """Records spans of the traced calls while installed."""

    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attr in TRACED]
        n = len(self.names)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.leaf_calls = [0] * n
        self.leaf_ns = [0] * n
        #: Sum of M^2 over SuperposedState constructions (Gram entries built).
        self.gram_entries = 0
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_root = array("q")
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._removed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name_id: int, fn, count_gram: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            idx = len(tracer.span_start)
            if stack:
                parent = stack[-1]
                tracer.span_parent.append(parent[0])
                root = parent[3]
            else:
                tracer.span_parent.append(-1)
                root = idx
            tracer.span_root.append(root)
            tracer.span_name.append(name_id)
            tracer.span_end.append(0)
            frame = [idx, 0, 0, root]  # span index, child ns, child count, root
            stack.append(frame)
            t0 = perf_counter_ns()
            tracer.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
                if count_gram:
                    m = args[0].n_components
                    tracer.gram_entries += m * m
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                tracer.span_end[idx] = t1
                dur = t1 - t0
                tracer.calls[name_id] += 1
                tracer.total_ns[name_id] += dur
                tracer.self_ns[name_id] += dur - frame[1]
                if frame[2] == 0:
                    tracer.leaf_calls[name_id] += 1
                    tracer.leaf_ns[name_id] += dur
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += 1

        return traced

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Replace every module-level binding of each traced call."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name_id, (mod, attr) in enumerate(TRACED):
            home = sys.modules[f"{PACKAGE}.{mod}"]
            original = getattr(home, attr)
            if isinstance(original, type):
                init = original.__dict__["__init__"]
                self._patch(original, "__init__", init, self._wrap(name_id, init, count_gram=True))
                continue
            wrapper = self._wrap(name_id, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._removed = self._patches
        self._patches = []

    def bindings_restored(self) -> bool:
        """Whether every binding the last install replaced is the original again."""
        return all(vars(owner).get(key) is original for owner, key, original in self._removed)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading ---------------------------------------------------------

    def stat(self, name: str) -> dict:
        """calls, total_ms, self_ms, leaf_calls and leaf_ms of one traced name."""
        i = self.names.index(name)
        return {
            "calls": self.calls[i],
            "total_ms": self.total_ns[i] / 1e6,
            "self_ms": self.self_ns[i] / 1e6,
            "leaf_calls": self.leaf_calls[i],
            "leaf_ms": self.leaf_ns[i] / 1e6,
        }

    def write(self, path) -> None:
        """Write every span kept in memory to a compressed .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            root=np.frombuffer(self.span_root, dtype=np.int64),
        )
