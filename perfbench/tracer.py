"""Outside-in tracing: wrap named library functions without editing them.

Each traced name is `<module>.<function>` or `<module>.<Class>.<method>`
inside the gquadforms package.  A wrapper replaces the function object
everywhere a gquadforms module holds it: the home module, and every module
that imported it by name (`from .funcfield import hilbert_symbol`), so
calls through any of those names are seen.  Methods live on their class,
which every importer shares, so rebinding the class attribute suffices.

SPANS record (name, start, end, parent) per call and give calls, inclusive
seconds and self seconds.  COUNTS only count calls: they sit on the hottest
kernels, where a span per call would cost more than the work it times.
"""

import sys
import time

# The attribute actually wrapped, where it differs from the metric name.
_ATTR = {"mul": "__mul__", "divmod": "__divmod__", "built": "__init__"}

SPANS = (
    # counterexample: the tensor stage and its blocking path
    "construct.counterexample_pipeline",
    "construct.bundle",
    "construct.tensor_pair",
    "linalg.PolyMat.to_mat",
    "linalg.PolyMat.mul",
    "hermitian.counterexample_element",
    "hermitian.QuaternionPairShape.local_record",
    "jsonio.dump_json",
    # qf_equiv: Hasse-Minkowski, places and symbols
    "quadform.equivalent_global",
    "quadform.invariants_report",
    "quadform.QuadForm.hasse_invariant",
    "linalg.symmetric_diagonalize",
    "funcfield.Poly.factor",
    "funcfield.hilbert_symbol",
    # hp_check: endomorphism algebras and certified radicals
    "grpalg.hp_verdict",
    "grpalg.is_projective",
    "grpalg.endomorphism_algebra",
    "grpalg.EndAlgebra.verify_closure",
    "grpalg.jacobson_radical",
    "grpalg.certify_radical",
    "grpalg.decompose_components",
    "grpalg.decompose_components_plain",
    "algebra.Algebra.from_matrices",
    "algebra.quotient_algebra",
    "linalg.Mat.mul",
    "linalg.Mat.rref",
    "linalg.KSpan.add",
    "linalg.KSpan.contains",
    # input parsing, shared by qf_equiv and hp_check
    "jsonio.load_json",
    "jsonio.quadform_from_json",
    "jsonio.gmodule_from_json",
)

COUNTS = (
    "funcfield.RatFunc.built",
    "funcfield.Poly.mul",
    "funcfield.Poly.divmod",
    "funcfield.Poly.gcd",
)


class Tracer:
    """Spans and counts of one traced process; `install` wraps the library."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {name: 0 for name in COUNTS}
        self._stack = []

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every SPANS and COUNTS name in the imported gquadforms modules."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "gquadforms"]
        for names, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for name in names:
                mod_name, *path = name.split(".")
                home = sys.modules[f"gquadforms.{mod_name}"]
                if len(path) == 1:
                    fn = getattr(home, path[0])
                    wrapped = make(name, fn)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                setattr(m, attr, wrapped)
                else:
                    cls = getattr(home, path[0])
                    attr = _ATTR.get(path[1], path[1])
                    raw = vars(cls)[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(make(name, raw.__func__)))
                    else:
                        setattr(cls, attr, make(name, raw))

    def summary(self):
        """{name: {calls, s, self_s}} for spans and {name: calls} for counts.

        `s` sums only the outermost span of each name, so recursion is not
        counted twice; `self_s` is a span's time minus its traced children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in SPANS}
        for i, (name, start, end, parent) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child_time[i]
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                row["s"] += end - start
        return out, dict(self.counts)
