"""Spans recorded around the calls one layer of the program makes into the
next, by rebinding those module attributes while a traced pass runs.

A span is [name, start, end, parent, attrs]; spans stay in memory and are
written out once, when the run ends. A target attribute that does not exist
(say, a solver without a phase-1 LP) is skipped, so its layer reads zero.
"""

import contextlib
import importlib
import json
import time

import qptrim

# module, attribute path: the boundaries between the program's layers
TARGETS = (
    ("closedloop", "qp_solve"),
    ("closedloop", "trim_single"),
    ("closedloop", "trim_multi"),
    ("closedloop", "OfflineDataset.nearest"),
    ("qpsolver", "lp_solve"),
    ("trim", "check_sample"),
    ("mpqp", "MpQp.active_set"),
    ("mpc", "lp_solve"),
    ("mpc", "max_invariant_set"),
    ("lipschitz", "glc"),
    ("lipschitz", "lp_solve"),
    ("lifted", "milp_solve"),
    ("lifted", "lp_solve"),
    ("milp", "lp_solve"),
)

# fields of a returned value worth keeping on the span
RESULT_FIELDS = ("iterations", "nodes")


def _resolve(module, path):
    """(owner, attribute name) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(f"qptrim.{module}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Span recorder for one process; nesting follows the call stack."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """A span opened by the benchmark itself, around a public API call."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            for field in RESULT_FIELDS:
                value = getattr(out, field, None)
                if isinstance(value, int):
                    rec[4] = {field: value}
            return out

        return traced

    @contextlib.contextmanager
    def attached(self):
        """Rebind every target that exists to a span-recording wrapper, and
        the package's re-export of it, then restore them all."""
        undo = []
        try:
            for module, path in TARGETS:
                found = _resolve(module, path)
                if found is None:
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{module}.{path}", original)
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, original))
                if getattr(qptrim, attr, None) is original:
                    setattr(qptrim, attr, wrapper)
                    undo.append((qptrim, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "attrs": attrs}) + "\n")


class NullTracer:
    """Stands in for a Tracer in untraced passes: records nothing."""

    @contextlib.contextmanager
    def span(self, name, **attrs):
        yield None

    @contextlib.contextmanager
    def attached(self):
        yield self
