"""Spans around the public functions of each rmtlab module, from outside.

The wrappers replace module attributes such as `rmtlab.critical.make_scaling`.
Calls inside the package look those names up in the module at call time, so
internal calls are traced too. Names bound by `from .x import y` live in the
importing module as well and are wrapped there under the owner's span name.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

TRACED = {
    "potential": ("make_eynard",),
    "equilibrium": ("solve", "phi"),
    "critical": ("make_scaling", "find_xstar_nt", "detect_singular"),
    "orthopoly": ("build_recurrence", "quadrature_support", "kernel_matrix", "kernel_diagonal"),
    "experiments": (
        "recurrence_for",
        "rescaled_kernel",
        "expected_count",
        "convergence_sweep",
        "best_single_index",
        "lambda_fit",
    ),
    "gue": ("gue_kernel_grid", "psi_matrix", "hermite_cauchy", "gue_kernel", "gue_kernel_sum", "hermite"),
    "cli": ("run",),
    "serialize": ("csv_text",),
}

# (module holding the name, name) -> span name of the function it is bound to
ALIASES = {("cli", "csv_text"): "serialize.csv_text"}


class Tracer:
    """Per-span call counts, self time, failures by RmtlabError kind, and
    counts of each caller > callee pair.

    A span's self time is its duration minus the durations of the spans it
    encloses. Spans are recorded only while `active` is true, so checks that
    call the program afterwards do not count.
    """

    def __init__(self, error_type):
        self.error_type = error_type
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.failed: defaultdict = defaultdict(Counter)
        self.nested: Counter = Counter()
        self.nodes = 0
        self.degrees = 0
        self._open: list[list] = []  # [span name, seconds of enclosed spans]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if self._open:
                self.nested[f"{self._open[-1][0]}>{name}"] += 1
            start = time.perf_counter()
            self._open.append([name, 0.0])
            try:
                result = fn(*args, **kwargs)
            except self.error_type as exc:
                self.failed[name][exc.kind] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                self.self_s[name] += duration - self._open.pop()[1]
                self.calls[name] += 1
                if self._open:
                    self._open[-1][1] += duration
            if name == "orthopoly.build_recurrence":
                self.nodes += len(result.rule.nodes)
                self.degrees += result.N
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every traced function of the package's submodules."""
        originals = {}
        for module_name, names in TRACED.items():
            module = getattr(package, module_name)
            for name in names:
                span = f"{module_name}.{name}"
                originals[span] = getattr(module, name)
                setattr(module, name, self.wrap(span, originals[span]))
        for (module_name, name), span in ALIASES.items():
            setattr(getattr(package, module_name), name, self.wrap(span, originals[span]))

    def stats(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "failed": {name: dict(kinds) for name, kinds in self.failed.items()},
            "nested": dict(self.nested),
            "nodes": self.nodes,
            "degrees": self.degrees,
        }
