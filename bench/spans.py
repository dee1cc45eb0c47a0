"""Outside-in spans and counters around the public functions of `rinehart`.

`Tracer.install` replaces each wrapped name at every module that binds it
(`from .linalg import cohomology_dims` makes a separate binding in each
importing module) and each wrapped method on its class, aliases included.
`Tracer.restore` puts every original back.  Nothing under `src/` knows about
the tracer.

A span is `[name, parent index, start, end]`; spans stay in memory until the
pass ends.  A span's self time is its duration minus the durations of its
child spans.  A layer's time is the inclusive time of its outermost spans,
so a method that calls itself is not counted twice.

Counters that count distinct inputs are scoped to one command.  They key a
KahlerForm by its content and a cochain by `id()` while holding a reference
to every cochain seen, so no id is reused while it is a key.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

from rinehart import cli, cochain, homology, linalg, pbwext, poisson, poly, quasimod, uea


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}
        self._held: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------------

    def install(self):
        self._wrap(linalg, "cohomology_dims", before=self._slice_stats)
        # linalg's own calls are the ranks inside cohomology_dims; only the
        # kernel searches in homology and uea count as kernel time
        self._wrap(linalg, "kernel_and_rank", before=self._matrix_stats,
                   only=(homology, uea))
        self._wrap(linalg.ComplexSlice, "check_complex")
        self._wrap(homology, "homology_slice")
        self._wrap(homology, "cyclic_slice")
        self._wrap(homology, "poisson_boundary", timed=False,
                   before=lambda w: self._distinct("homology.poisson_boundary", _form_key(w)))
        self._wrap(homology, "euler_contraction_check")
        self._wrap(poisson, "cochain_slice")
        self._wrap(poisson, "poisson_differential", timed=False)
        self._wrap(poisson.Multivector, "evaluate")
        self._wrap(quasimod, "quasi_axiom_check",
                   after=lambda report: self.counts.update({"quasimod.law_trials": report.trials}))
        self._wrap(quasimod, "ce_cohomology")
        self._wrap(cochain.TableCochain, "eval_monos", timed=False,
                   before=self._eval_key)
        self._wrap(cochain, "cochain_equal")
        self._wrap(uea.UEAElement, "__mul__", before=self._mul_sides)
        self._wrap(pbwext, "verify_identity_tower")
        self._wrap(poly.Polynomial, "__mul__", timed=False)
        self._wrap(poly.Polynomial, "__add__", timed=False)
        self._wrap(cli, "_load_algebra")
        self._wrap(cli.ReportTable, "render")

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr, timed=True, before=None, after=None, only=None):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            name = f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
            targets = [owner]
        else:
            original = getattr(owner, attr)
            name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
            targets = only or [m for n, m in sys.modules.items()
                               if n == "rinehart" or n.startswith("rinehart.")]
        wrapper = self._wrapper(name, original, timed, before, after)
        for target in targets:
            for binding, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, binding, original))
                    setattr(target, binding, wrapper)

    def _wrapper(self, name, fn, timed, before, after):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        if not timed:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if before is not None:
                    before(*args, **kwargs)
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if before is not None:
                    before(*args, **kwargs)
                record = [name, stack[-1] if stack else -1, clock(), 0.0]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[3] = clock()
                    stack.pop()
                if after is not None:
                    after(result)
                return result

        return functools.wraps(fn)(wrapper)

    @contextlib.contextmanager
    def command(self):
        """Root span of one command; distinct-input counters reset after it."""
        record = ["command", -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
            self._seen.clear()
            self._held.clear()

    # -- counters -------------------------------------------------------------

    def _distinct(self, name, key):
        seen = self._seen.setdefault(name, set())
        if key not in seen:
            seen.add(key)
            self.counts[name + ".distinct"] += 1

    def _eval_key(self, phi, exps):
        self._held.setdefault(id(phi), phi)
        self._distinct("cochain.TableCochain.eval_monos", (id(phi), exps))

    def _mul_sides(self, a, b):
        if isinstance(b, uea.UEAElement) and (_is_scalar(a) or _is_scalar(b)):
            self.counts["uea.scalar_side"] += 1

    def _matrix_stats(self, m):
        self.counts["linalg.nnz"] += len(m.entries)
        self.maxima["linalg.max_dim"] = max(self.maxima["linalg.max_dim"], m.nrows, m.ncols)
        bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in m.entries.values()), default=0)
        self.maxima["linalg.max_entry_bits"] = max(self.maxima["linalg.max_entry_bits"], bits)

    def _slice_stats(self, slice_):
        self.counts["linalg.slices"] += 1
        for d in slice_.diffs:
            self._matrix_stats(d)
        self.maxima["linalg.max_dim"] = max(self.maxima["linalg.max_dim"],
                                            *slice_.dimensions())

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric; a layer the pass never entered reads 0."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        outer: Counter = Counter()
        for i, (name, parent, start, end) in enumerate(spans):
            own[name] += end - start - child[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][1]
            if parent < 0:
                outer[name] += end - start
        c, m = self.counts, self.maxima
        return {
            "linalg.rank_s": own["linalg.cohomology_dims"],
            "linalg.check_s": outer["linalg.ComplexSlice.check_complex"],
            "linalg.kernel_s": outer["linalg.kernel_and_rank"],
            "linalg.slices": c["linalg.slices"],
            "linalg.nnz": c["linalg.nnz"],
            "linalg.max_dim": m["linalg.max_dim"],
            "linalg.max_entry_bits": m["linalg.max_entry_bits"],
            "homology.slice_s": outer["homology.homology_slice"] + outer["homology.cyclic_slice"],
            "homology.boundary_calls": c["homology.poisson_boundary"],
            "homology.boundary_distinct": c["homology.poisson_boundary.distinct"],
            "homology.boundary_reuse": _ratio(c["homology.poisson_boundary"],
                                              c["homology.poisson_boundary.distinct"]),
            "homology.euler_s": outer["homology.euler_contraction_check"],
            "poisson.slice_s": outer["poisson.cochain_slice"],
            "poisson.differential_calls": c["poisson.poisson_differential"],
            "poisson.evaluate_calls": c["poisson.Multivector.evaluate"],
            "poisson.evaluate_s": outer["poisson.Multivector.evaluate"],
            "quasimod.laws_s": outer["quasimod.quasi_axiom_check"],
            "quasimod.law_trials": c["quasimod.law_trials"],
            "quasimod.ce_s": outer["quasimod.ce_cohomology"],
            "cochain.eval_calls": c["cochain.TableCochain.eval_monos"],
            "cochain.eval_distinct": c["cochain.TableCochain.eval_monos.distinct"],
            "cochain.eval_reuse": _ratio(c["cochain.TableCochain.eval_monos"],
                                         c["cochain.TableCochain.eval_monos.distinct"]),
            "cochain.equal_s": outer["cochain.cochain_equal"],
            "uea.mul_calls": c["uea.UEAElement.__mul__"],
            "uea.mul_s": outer["uea.UEAElement.__mul__"],
            "uea.scalar_side_frac": _ratio(c["uea.scalar_side"], c["uea.UEAElement.__mul__"]),
            "pbwext.tower_s": outer["pbwext.verify_identity_tower"],
            "poly.mul_calls": c["poly.Polynomial.__mul__"],
            "poly.add_calls": c["poly.Polynomial.__add__"],
            "cli.load_s": outer["cli._load_algebra"],
            "cli.render_s": outer["cli.ReportTable.render"],
        }

    def write_spans(self, path):
        """One JSON array per line: name, parent line (-1 for a root), start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _form_key(w):
    return w.degree, tuple(sorted(
        (legs, tuple(sorted(c.terms.items()))) for legs, c in w.terms.items()
    ))


def _is_scalar(u) -> bool:
    return all(not any(exp) for exp in u.terms)


def _ratio(num, den) -> float:
    return num / den if den else 0.0
