"""Spans and counters recorded from outside the program.

``Tracer.install`` wraps public entry points of each qdissect layer,
patched in the namespace that calls them (a module attribute that callers
look up at call time, or a class attribute for methods).  Each call
becomes a span ``[id, parent, name, start, end]`` kept in memory; counts
of work done are taken at the same boundaries and are exact, so two
traced runs of one input must agree on every one of them.  Nothing is
written until the caller asks for the spans.
"""

from __future__ import annotations

import time
from collections import Counter

LAYERS = ("cli", "verification", "theta", "products", "series", "bivariate",
          "combinatorics")

def _magnitude(coeffs) -> int:
    return max(max(coeffs), -min(coeffs)) if coeffs else 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so that each call records a span named ``name``.

        ``before(*args)`` runs ahead of the span and its result is passed
        to ``after(result, state, *args)``, which runs once the span ended,
        so counting costs fall outside the measured call.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            rec = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after:
                after(result, state, *args, **kwargs)
            return result

        return wrapper

    def patch(self, owner, attr, name=None, before=None, after=None, wrap=None):
        """Replace ``owner.attr`` by a traced wrapper; absent entry points
        are skipped, so a refactored program still runs traced."""
        if not hasattr(owner, attr):
            return
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        new = wrap(original) if wrap else self.span(name, original, before, after)
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def install(self):
        """Wrap the entry points of every layer below the CLI."""
        from qdissect import (bivariate, combinatorics, products, series,
                              theta, verification)

        c = self.counts
        QSeries = series.QSeries

        def mul_before(a, b):
            p = min(len(a.coeffs), len(b.coeffs))
            c["series.mul.calls"] += 1
            if p < getattr(series, "_PACKED_CUTOFF", 0):
                c["series.mul.schoolbook_calls"] += 1
            elif p:
                # digit width of the Kronecker packing at this call
                bits = (_magnitude(a.coeffs[:p]).bit_length()
                        + _magnitude(b.coeffs[:p]).bit_length() + p.bit_length() + 2)
                c["series.mul.packed_bytes"] += 2 * p * ((bits + 7) // 8)

        def count(name, measure=None):
            def after(result, state, *args, **kwargs):
                c[name + ".calls"] += 1
                if measure:
                    c[name + ".coeffs"] += measure(result)
            return after

        def built(result, state, *args, **kwargs):
            c["products.expand_univariate.calls"] += 1
            c["verification.coeffs_built"] += len(result.coeffs)

        def bivariate_terms(result, state, *args, **kwargs):
            c["products.expand_bivariate.calls"] += 1
            c["bivariate.terms"] += sum(len(row) for row in result.rows)

        def buckets_built(result, state, *args, **kwargs):
            c["verification.coeffs_built"] += sum(len(b.coeffs) for b in result)

        def compared(result, state, a, b, n, modulus=None):
            c["verification.coeffs_read"] += 2 * (n if result.equal else result.index + 1)

        def reads(original):
            def getitem(self, n):
                c["verification.coeffs_read"] += 1
                return original(self, n)
            return getitem

        spans = self.spans

        def build_before(*args, **kwargs):
            return len(spans)  # id the build span is about to get

        def build_after(result, sid, *args, **kwargs):
            # a call that reached a child span expanded a series: a miss
            c["theta.build.calls"] += 1
            if len(spans) > sid + 1:
                c["theta.build.misses"] += 1
                c["theta.build.coeffs"] += len(result.coeffs)

        def vectors(result, state, *args, **kwargs):
            c["combinatorics.vectors"] += len(result)

        self.patch(QSeries, "__mul__", "series.mul", before=mul_before)
        self.patch(QSeries, "inverse", "series.inverse",
                   after=count("series.inverse", lambda r: len(r.coeffs)))
        self.patch(QSeries, "__getitem__", wrap=reads)
        self.patch(products, "pochhammer_series", "series.pochhammer",
                   after=count("series.pochhammer", lambda r: len(r.coeffs)))
        self.patch(theta, "equal_upto", "series.equal_upto", after=compared)
        self.patch(theta, "expand_univariate", "products.expand_univariate", after=built)
        self.patch(combinatorics, "expand_bivariate", "products.expand_bivariate",
                   after=bivariate_terms)
        self.patch(bivariate.BivariateSeries, "residue_buckets",
                   "bivariate.residue_buckets", after=buckets_built)
        self.patch(theta, "build", "theta.build", before=build_before, after=build_after)
        self.patch(theta, "evaluate", "theta.evaluate")
        self.patch(theta, "verify_entry", "theta.verify_entry")
        self.patch(combinatorics, "statistic_distribution",
                   "combinatorics.statistic_distribution",
                   after=count("combinatorics.statistic_distribution"))
        self.patch(combinatorics, "enumerate_vectors", "combinatorics.enumerate_vectors",
                   after=vectors)
        # run_suite's own code is its identity loop: everything else it
        # does goes through the check functions wrapped below
        self.patch(verification, "run_suite", "verification.identity")
        self.patch(verification, "check_congruence", "verification.congruence")
        self.patch(verification, "check_equidistribution",
                   "verification.equidistribution")
        self.patch(verification, "check_relation_chl", "verification.relation")
        self.patch(verification, "_check_parity_weighted", "verification.relation")
        self.patch(verification, "check_oracle_agreement", "verification.oracle")
        self.patch(verification, "check_table_v4_n3", "verification.table")

    def self_times(self) -> Counter:
        """Self time per span name: duration minus that of direct children."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for sid, _, name, start, end in self.spans:
            out[name] += end - start - child[sid]
        return out

    def covered(self) -> float:
        """Total duration of top-level spans."""
        return sum(end - start for _, parent, _, start, end in self.spans
                   if parent < 0)
