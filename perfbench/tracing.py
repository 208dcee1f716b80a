"""Spans around opfactor's public functions and methods, from outside.

`Tracer.install()` replaces each entry of TARGETS with a wrapper that
records one span per call: name, start, end, parent span and request id.
Spans live in flat in-memory arrays until `write()` saves them after the
run.  Nothing under src/ is touched; the wrappers sit on the classes and
modules of the already imported package.

A span's self time is its duration minus the durations of its direct
children, so each layer's `_ms` metric counts only work done in that
layer's own code.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, owner class or None for a module function, attribute)
TARGETS = (
    ("opfactor.parsing", None, "parse_element"),
    ("opfactor.parsing", None, "parse_operator"),
    ("opfactor.parsing", None, "operator_to_json"),
    ("opfactor.factorization", "KernelContext", "__init__"),
    ("opfactor.factorization", "KernelContext", "factorize"),
    ("opfactor.factorization", "KernelContext", "hat_coefficients"),
    ("opfactor.ncmatrix", "NCMatrix", "inverse"),
    ("opfactor.ncmatrix", "NCMatrix", "__mul__"),
    ("opfactor.operators", "Operator", "compose"),
    ("opfactor.operators", "Operator", "apply"),
    ("opfactor.operators", "Operator", "__eq__"),
    ("opfactor.quaternion", "Quaternion", "__mul__"),
    ("opfactor.quaternion", "Quaternion", "inverse"),
    ("opfactor.ratfunc", "RationalFunction", "__init__"),
    ("opfactor.poly", "Poly", "gcd"),
    ("opfactor.poly", "Poly", "__divmod__"),
    ("opfactor.poly", "Poly", "__mul__"),
    ("opfactor.groupring", "GroupRingC5Element", "__mul__"),
    ("opfactor.groupring", "GroupRingC5Element", "inverse"),
)


class Tracer:
    def __init__(self):
        self.names = []
        self.name = array("H")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.request_id = -1
        self.gcd_useful = 0  # Poly.gcd results of degree > 0

    def _wrap(self, name, fn, on_result=None):
        nid = len(self.names)
        self.names.append(name)
        spans_name, parent, request = self.name, self.parent, self.request
        start, end, stack = self.start, self.end, self.stack

        def traced(*args, **kwargs):
            idx = len(spans_name)
            spans_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_useful_gcd(self, g):
        if g.degree > 0:
            self.gcd_useful += 1

    def wrap_request(self, fn):
        """A top-level span per request, so glue code shows as self time."""
        return self._wrap("request", fn)

    def install(self):
        for module, owner, attr in TARGETS:
            name = "%s.%s" % (owner, attr) if owner else attr
            if owner is None:
                original = getattr(sys.modules[module], attr)
                traced = self._wrap(name, original)
                # rebind every reference the package holds, e.g. the
                # names re-exported by opfactor/__init__.py and cli.py
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "opfactor":
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, traced)
                continue
            cls = getattr(sys.modules[module], owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                hook = self._count_useful_gcd if name == "Poly.gcd" else None
                setattr(cls, attr, staticmethod(self._wrap(name, raw.__func__, hook)))
            else:
                setattr(cls, attr, self._wrap(name, raw))

    def totals(self):
        """Per span name: calls and self time in seconds."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        for idx in range(n):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        for idx in range(n):
            name = self.names[self.name[idx]]
            calls[name] += 1
            self_s[name] += self.end[idx] - self.start[idx] - child[idx]
        return calls, self_s

    def write(self, path):
        """JSON lines: a header naming the fields, then one span a line,
        [span, name, start_s, end_s, parent_span, request]; parent -1 is
        a root span, times are perf_counter seconds."""
        with open(path, "w") as out:
            out.write(json.dumps({"fields": ["span", "name", "start_s", "end_s", "parent", "request"]}) + "\n")
            for idx in range(len(self.name)):
                out.write(
                    '[%d, "%s", %.9f, %.9f, %d, %d]\n'
                    % (
                        idx,
                        self.names[self.name[idx]],
                        self.start[idx],
                        self.end[idx],
                        self.parent[idx],
                        self.request[idx],
                    )
                )
