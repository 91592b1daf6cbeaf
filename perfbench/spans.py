"""Span tracing installed from outside the package.

``Tracer.install()`` wraps every public function defined in the traced
fockworks modules, plus ``FockState.__init__`` and the expansion kernel
reached through ``fockworks._backend.kernels``, and rebinds each wrapper
at every place the original is bound inside ``fockworks.*`` (for example
``protocols`` imports ``apply_unitary`` and ``measure_modes`` by name).
``uninstall()`` puts the originals back.

Spans are aggregated in memory per name: call count and self time (span
time minus the time of the spans it encloses). Counters record
deterministic work at the same boundaries.
"""

import functools
import sys
import time
import types
from collections import Counter, defaultdict

TRACED_MODULES = ("fock", "optics", "measure", "protocols", "costs")


class Tracer:
    def __init__(self):
        self.count = Counter()
        self.self_time = defaultdict(float)
        self.counters = Counter()
        self.sampled = False  # set by the runner while a sampled trajectory runs
        self._child = []  # time spent in child spans, one slot per open span
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Return ``fn`` timed as span ``name``; ``after(tracer, args, result)``
        runs outside the span and may replace the result."""
        child = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                if child:
                    child[-1] += elapsed
                self.count[name] += 1
                self.self_time[name] += elapsed - inner
            if after is not None:
                result = after(self, args, result)
            return result

        return span

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` in every fockworks module."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fockworks" or mod_name.startswith("fockworks.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        import fockworks  # noqa: F401  (loads every traced module)
        from fockworks import _backend, fock

        for short in TRACED_MODULES:
            mod = sys.modules[f"fockworks.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                self._rebind(fn, self.wrap(name, fn, AFTER.get(name)))
        init = fock.FockState.__init__
        self._set(fock.FockState, "__init__", self.wrap("fock.construct", init, _after_construct))
        expand = _backend.kernels.expand_basis_state
        self._rebind(expand, self.wrap("optics.expand", expand))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


# -- counters recorded beside the spans -----------------------------------------


def _after_construct(tracer, args, result):
    tracer.counters["fock.construct.terms"] += len(args[0]._amp)
    return result


def _after_apply_unitary(tracer, args, result):
    tracer.counters["optics.apply_unitary.terms_in"] += args[0].term_count()
    tracer.counters["optics.apply_unitary.terms_out"] += result.term_count()
    return result


def _after_measure_modes(tracer, args, result):
    tracer.counters["measure.measure_modes.terms_in"] += args[0].term_count()
    tracer.counters["measure.measure_modes.branches"] += len(result)
    if tracer.sampled:
        tracer.counters["measure.sampled_branches"] += len(result)
    return result


def _after_make_trial(tracer, args, trial):
    """Time every draw of the returned trial callable as ``costs.trial``."""
    return tracer.wrap("costs.trial", trial)


AFTER = {
    "optics.apply_unitary": _after_apply_unitary,
    "measure.measure_modes": _after_measure_modes,
    "costs.make_trial": _after_make_trial,
}


def layer_metrics(tracer, samples):
    """Per-layer metric values from a finished traced pass.

    ``samples`` is the number of sampled outcomes (trajectories) drawn.
    """
    c, s, n = tracer.count, tracer.self_time, tracer.counters
    out = {}
    for span in ("fock.construct", "fock.phase_on_mode", "measure.measure_modes",
                 "optics.apply_unitary", "optics.expand", "optics.transition_amplitude",
                 "protocols.teleport_tn", "protocols.csign_teleported",
                 "costs.make_trial", "costs.monte_carlo", "costs.trial"):
        out[f"{span}.count"] = c[span]
        out[f"{span}.self_s"] = s[span]
    for counter in ("fock.construct.terms", "measure.measure_modes.terms_in",
                    "measure.measure_modes.branches", "optics.apply_unitary.terms_in",
                    "optics.apply_unitary.terms_out"):
        out[counter] = n[counter]
    out["measure.branches_per_sample"] = n["measure.sampled_branches"] / samples if samples else 0.0
    terms_in = n["optics.apply_unitary.terms_in"]
    out["optics.expand.reuse_ratio"] = 1 - c["optics.expand"] / terms_in if terms_in else 0.0
    for short in TRACED_MODULES:
        out[f"layer.{short}.self_s"] = sum(
            t for name, t in s.items() if name.split(".")[0] == short)
    return out
