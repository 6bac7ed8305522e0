"""Spans around the calls into the package's public functions, recorded from
outside the package.

``Tracer.install`` replaces every public function of the traced modules, in
every ``sdpembed`` namespace that holds a reference to it (``cli`` imports
``check_optimality`` and ``extend_point`` by name), with a wrapper that
records a span: name, start, end, the enclosing span, and the current phase.
``uninstall`` puts the originals back, so an untraced operation runs the
package exactly as shipped.  A few probes also keep counts that a call
returns, such as solver iterations or the certificate verdict.
"""

import functools
import importlib
import inspect
import sys
import time

MODULES = ("kernels", "solver", "embedding", "certificate", "extension", "dataio", "pipeline", "cli")

PROBES = {
    "solver.solve": lambda st: {"iterations": st.iterations, "converged": int(st.converged)},
    "embedding.factor_to_embedding": lambda emb: {"rank": emb.rank},
    "certificate.check_optimality": lambda rep: {
        "slackness": rep.slackness_residual,
        "least_eigenvalue": float(rep.least_eigenvalues[0]),
        "certified": int(rep.is_certified),
    },
    "extension.extend_point": lambda p: {"degenerate": int(p.degenerate)},
}


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, phase, probe dict]
        self.spans = []
        self._stack = []
        self._phase = None
        self._saved = []

    def begin_phase(self, name):
        self._phase = name

    def _wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
                    self._phase, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span[5] = probe(result)
            return result

        return traced

    def install(self):
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"sdpembed.{short}")
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "sdpembed" and not modname.startswith("sdpembed."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved = []

    def summary(self):
        """Per phase and function name: calls, inclusive seconds, self seconds
        (inclusive minus the spans directly under it), top-level seconds, and
        the probe values of every call."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        phases = {}
        for i, (name, start, end, parent, phase, info) in enumerate(self.spans):
            ph = phases.setdefault(phase, {"calls": {}, "incl": {}, "self": {}, "top": {}, "info": {}})
            ph["calls"][name] = ph["calls"].get(name, 0) + 1
            ph["incl"][name] = ph["incl"].get(name, 0.0) + (end - start)
            ph["self"][name] = ph["self"].get(name, 0.0) + (end - start - children[i])
            if parent < 0:
                ph["top"][name] = ph["top"].get(name, 0.0) + (end - start)
            if info is not None:
                values = ph["info"].setdefault(name, {})
                for key, value in info.items():
                    values.setdefault(key, []).append(value)
        return phases
