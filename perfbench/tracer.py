"""Span tracer that wraps qsv's public functions from outside the package.

Each wrapped call records a span (id, parent id, operation, name, start,
end) and adds to per-name call counts and self time.  Self time is the
span's duration minus the time covered by its child spans, so summing
self time over every name accounts for each traced instant exactly once.
The tracer's own bookkeeping after a span closes is charged to neither
the span nor its parent; it shows only in the traced wall time.

Modules bind each other's functions with ``from ... import``, so
``install`` rebinds every attribute of every ``qsv`` module that refers
to a wrapped function, not only the defining one.  Methods are wrapped
on their class.
"""

from __future__ import annotations

import collections
import json
import sys
import time

#: (module, attribute, span name).  Several attributes may share one span
#: name: the figures then cover all of them.
FUNCTIONS = (
    ("exact", "series_mul_many", "exact.mul_many"),
    ("exact", "series_mul", "exact.mul"),
    ("exact", "series_mul_binomial", "exact.binomial"),
    ("exact", "series_div_binomial", "exact.binomial"),
    ("exact", "series_inv", "exact.inv"),
    ("qkernel", "poch_finite", "qkernel.poch_finite"),
    ("qkernel", "poch_finite_inv", "qkernel.poch_finite"),
    ("qkernel", "poch_infinite", "qkernel.poch_infinite"),
    ("qkernel", "poch_infinite_inv", "qkernel.poch_infinite"),
    ("qkernel", "theta_series", "qkernel.theta"),
    ("qkernel", "theta_product", "qkernel.theta"),
    ("engine", "eval_exact", "engine.eval_exact"),
    ("engine", "eval_numeric", "engine.eval_numeric"),
    ("numeric", "qpoch_inf_numeric", "numeric.qpoch_inf"),
    ("numeric", "qpoch_finite_numeric", "numeric.qpoch_finite"),
    ("numeric", "qpoch_complex_index", "numeric.qpoch_complex_index"),
    ("numeric", "theta_psi_numeric", "numeric.theta"),
    ("numeric", "theta_phi_minus_numeric", "numeric.theta"),
    ("numeric", "cpow", "numeric.cpow"),
    ("numeric", "sum_with_tail_bound", "numeric.sum"),
    ("verifier", "default_exact_grid", "verifier.grid"),
    ("verifier", "default_numeric_grid", "verifier.grid"),
    ("verifier", "_admissible_exact", "verifier.probe"),
    ("verifier", "numeric_constraints_ok", "verifier.probe"),
    ("verifier", "verify", "verifier.verify"),
    ("verifier", "verify_record", "verifier.verify_record"),
    ("verifier", "derive_check", "verifier.derive"),
    ("dsl", "parse_catalog", "dsl.parse"),
    ("expr", "canon", "expr.canon"),
    ("expr", "substitute", "expr.substitute"),
)

#: (module, class, method, span name)
METHODS = (
    ("intpoly", "IntPoly", "eval", "intpoly.eval"),
    ("intpoly", "IntPoly", "eval_int", "intpoly.eval_int"),
)

#: (module, class, method, counter): counted, not timed, because they
#: recurse through every node of an expression
COUNTED_METHODS = (
    ("engine", "ExactEvaluator", "val_lb", "engine.val_lb_calls"),
    ("engine", "ExactEvaluator", "monomial", "engine.monomial_calls"),
)

#: span name -> names of the spans whose calls of it it is part of:
#: ``eval_int`` is ``eval`` plus an integrality check
ABSORBED = {"intpoly.eval": ("intpoly.eval_int",)}

#: the span under which every traced call of one benchmark operation runs
OP_SPAN = "bench.op"

#: the numeric summand closure handed to ``sum_with_tail_bound``; timed as
#: engine work so that ``numeric.sum`` keeps only the stopping loop
TERM_SPAN = "engine.numeric_term"

SPAN_CAP = 200_000


def _coeff_bits(series) -> int:
    best = 0
    for c in series.coeffs:
        bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        if bits > best:
            best = bits
    return best


class Tracer:
    """In-memory spans and per-name aggregates for one process."""

    def __init__(self):
        self.calls = collections.Counter()
        self.self_s = collections.defaultdict(float)
        self.incl_s = collections.defaultdict(float)
        self.counters = collections.Counter()
        self.spans = []
        self.dropped = 0
        self.op = -1
        self._stack = []
        self._next_id = 0
        self._patched = []

    # -- spans ----------------------------------------------------------------

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` recording one span per call.  A call made directly
        under a span of the same name (recursion), or of a name listed in
        ABSORBED, is part of that span and not a new one."""
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        skip = (name,) + ABSORBED.get(name, ())

        def traced(*args, **kwargs):
            if stack and stack[-1][0] in skip:
                return fn(*args, **kwargs)
            start = clock()
            frame = [name, start, 0.0, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, clock(), start)
                if stack:
                    stack[-1][2] += clock() - start
                raise
            tracer._close(frame, clock(), start)
            if observe is not None:
                observe(args, result)
            if stack:
                stack[-1][2] += clock() - start
            return result

        return traced

    def _close(self, frame, end, start):
        stack = self._stack
        stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.self_s[name] += end - start - frame[2]
        self.incl_s[name] += end - start
        parent = stack[-1] if stack else None
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[3], parent[3] if parent else None,
                               self.op, name, start, end))
        else:
            self.dropped += 1

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (used for operations)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every target in the ``qsv`` package, at every binding site."""
        import qsv.verifier  # noqa: F401  (loads every traced module)

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "qsv" or name.startswith("qsv.")}
        for module, attr, name in FUNCTIONS:
            original = getattr(mods["qsv." + module], attr)
            wrapped = self.wrap(name, self._prepare(attr, original),
                                self._observer(attr))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        for module, cls_name, method, name in METHODS:
            cls = getattr(mods["qsv." + module], cls_name)
            self._patch(cls, method, self.wrap(name, vars(cls)[method]))
        for module, cls_name, method, counter in COUNTED_METHODS:
            cls = getattr(mods["qsv." + module], cls_name)
            self._patch(cls, method, self._count(counter, vars(cls)[method]))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _count(self, counter, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _prepare(self, attr, fn):
        """Argument-side counters, taken inside the span."""
        counters = self.counters
        if attr == "series_mul":
            def prepared(f, g):
                n = min(f.order, g.order)
                counters["exact.conv_ops"] += n * (n + 1) // 2
                return fn(f, g)
            return prepared
        if attr == "series_mul_many":
            def prepared(factors):
                factors = list(factors)
                if factors:
                    n = min(f.order for f in factors)
                    counters["exact.conv_ops"] += (
                        (len(factors) - 1) * n * (n + 1) // 2)
                return fn(factors)
            return prepared
        if attr == "sum_with_tail_bound":
            term = self.wrap(TERM_SPAN, lambda term_fn, k: term_fn(k))

            def prepared(term_fn, *args, **kwargs):
                return fn(lambda k: term(term_fn, k), *args, **kwargs)
            return prepared
        return fn

    def _observer(self, attr):
        """Result-side counters, taken after the span has closed."""
        counters = self.counters
        if attr in ("series_mul", "series_mul_many", "series_inv"):
            def observe(args, result):
                bits = _coeff_bits(result)
                if bits > counters["exact.coeff_bits_max"]:
                    counters["exact.coeff_bits_max"] = bits
            return observe
        if attr in ("default_exact_grid", "default_numeric_grid"):
            def observe(args, result):
                counters["verifier.grid_points"] += len(result)
            return observe
        if attr in ("_admissible_exact", "numeric_constraints_ok"):
            # a probe of a grid candidate; verify() calls the numeric one too
            def observe(args, result):
                if self._stack and self._stack[-1][0] == "verifier.grid":
                    counters["verifier.grid_probes"] += 1
                    counters["verifier.grid_accepted"] += bool(result)
            return observe
        if attr == "parse_catalog":
            def observe(args, result):
                counters["dsl.records"] += len(result)
            return observe
        return None

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counters": dict(self.counters),
            "spans": len(self.spans),
            "dropped": self.dropped,
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                       "dropped": self.dropped, "spans": self.spans}, fh)
