"""Spans around millscf's public entry points, installed from outside the package.

install() swaps each traced function for a recording wrapper wherever a
loaded millscf module holds a reference to it, so the copies made by
`from .cf import eval_backward` are covered too, and returns an undo
callable.  Spans are kept in memory as aggregates, not one record per call
(a traced `maxerr` makes about a million calls): per span name the call
count, inclusive time and self time (inclusive minus the traced children),
per parent -> child edge the call count, and exact work counters
(levels folded, oracle arguments seen before, calls of the tail constants).

The wrappers add about a microsecond per call, so the timing metrics come
from untraced passes and the traced ones give proportions and counts.
"""

import dataclasses
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

ORACLE = "reference.reference_mills"
ORACLE_BANDS = ("x_lt_1", "x_1_4", "x_ge_4")   # x < 1, 1 <= x < 4, x >= 4
SCAN = "gauss.scan_max_delta"
GAMMA_FORMS = ("laguerre", "cf_l1", "winitzki_cf", "reduce_s", "bounds_s01")
CLI_COMMANDS = ("maxerr", "table", "figure", "verify")


def _oracle_band(x):
    return ORACLE_BANDS[0] if x < 1.0 else ORACLE_BANDS[1] if x < 4.0 else ORACLE_BANDS[2]


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)
        self.counts = defaultdict(int)
        self.oracle_in_scan_s = 0.0
        self._stack = []          # [name, time of traced children]
        self._scan_depth = 0
        self._oracle_seen = set()

    def wrap(self, name, fn, observe=None):
        """fn with a span named `name`; observe(args, kwargs) may rename it."""
        stack = self._stack

        def traced(*args, **kwargs):
            label = name if observe is None else observe(args, kwargs)
            parent = stack[-1][0] if stack else "<root>"
            frame = [label, 0.0]
            stack.append(frame)
            if label == SCAN:
                self._scan_depth += 1
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                if label == SCAN:
                    self._scan_depth -= 1
                elif self._scan_depth and label.startswith(ORACLE):
                    self.oracle_in_scan_s += dt
                if stack:
                    stack[-1][1] += dt
                self.calls[label] += 1
                self.total_s[label] += dt
                self.self_s[label] += dt - frame[1]
                self.edges[(parent, label)] += 1

        return traced

    # observers: exact counters taken from the arguments

    def _levels(self, name):
        def observe(args, kwargs):
            self.counts[name + ".levels"] += args[2] if len(args) > 2 else kwargs["n"]
            return name
        return observe

    def _oracle(self, args, kwargs):
        x = float(args[0])
        if x in self._oracle_seen:
            self.counts[ORACLE + ".reused"] += 1
        else:
            self._oracle_seen.add(x)
        return f"{ORACLE}.{_oracle_band(x)}"

    def _counted(self, name, fn):
        """fn counting its calls without a span: cheaper, for count-only metrics."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spec_factory(self, factory):
        counts = self.counts

        def make(*args, **kwargs):
            spec = factory(*args, **kwargs)
            a = spec.a

            def counted_a(k, x):
                counts["gamma.levels"] += 1
                return a(k, x)

            return dataclasses.replace(spec, a=counted_a)

        return make

    def _family_factory(self, factory):
        def make(*args, **kwargs):
            fam = factory(*args, **kwargs)
            return dataclasses.replace(fam, value=self.wrap("tails.value", fam.value))
        return make

    def install(self):
        """Wrap the traced entry points in every loaded millscf module."""
        from millscf import cf, cli, gamma, gauss, reference, tails, verify

        swaps = {}

        def span(module, attr, name, observe=None):
            fn = getattr(module, attr)
            swaps[id(fn)] = (fn, self.wrap(name, fn, observe))

        span(cf, "eval_backward", "cf.eval_backward", self._levels("cf.eval_backward"))
        span(cf, "forward_recurrence", "cf.forward_recurrence",
             self._levels("cf.forward_recurrence"))
        span(tails, "get_family", "tails.get_family")
        for attr in ("mod_constants", "beta0"):   # inside tails.value's self time
            fn = getattr(tails, attr)
            swaps[id(fn)] = (fn, self._counted(f"tails.{attr}.calls", fn))
        for attr in ("mills", "delta", "scan_max_delta"):
            span(gauss, attr, "gauss." + attr)
        span(reference, "reference_mills", ORACLE, self._oracle)
        for attr in GAMMA_FORMS:
            span(gamma, attr, "gamma." + attr)
        for attr in ("l1_spec", "laguerre_spec", "lower_spec", "winitzki_spec"):
            fn = getattr(gamma, attr)
            swaps[id(fn)] = (fn, self._spec_factory(fn))
        for cmd in CLI_COMMANDS:
            span(cli, "run_" + cmd, "cli." + cmd)

        undo = []
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "millscf"]:
            for attr, val in list(vars(mod).items()):
                hit = swaps.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    undo.append((vars(mod), attr, val))
        for key, fn in list(tails.FAMILIES.items()):
            tails.FAMILIES[key] = self._family_factory(fn)
            undo.append((tails.FAMILIES, key, fn))
        for key, fn in list(verify.SUITES.items()):
            verify.SUITES[key] = self.wrap(f"verify.{key}", fn)
            undo.append((verify.SUITES, key, fn))

        def uninstall():
            for table, key, original in reversed(undo):
                table[key] = original

        return uninstall

    def summary(self):
        """JSON-ready aggregates: spans, parent links and counters."""
        spans = {name: {"calls": self.calls[name], "s": self.total_s[name],
                        "self_s": self.self_s[name]} for name in self.calls}
        edges = [[p, c, n] for (p, c), n in sorted(self.edges.items())]
        return {"spans": spans, "edges": edges, "counts": dict(self.counts),
                "oracle_in_scan_s": self.oracle_in_scan_s}
