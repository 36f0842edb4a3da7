"""The one-quaternion construction: a dimension-8 module over C_3^3 whose
endomorphism ring modulo its radical is the opposite quaternion algebra,
and the invariant form whose induced involution is the canonical one.

This is the positive regime: the verdict machinery certifies that the
sufficient criterion holds for this module (its only component is
symplectic).
"""

from gquadforms import Quaternion, RatFunc, hp_verdict, jacobson_radical
from gquadforms.construct import bundle

p = 3
H = Quaternion(RatFunc.from_int(p, -1), RatFunc.t(p))
print(f"quaternion H = ({H.a}, {H.b}), ramified at {[str(v) for v in H.ramification_set()]}")

b = bundle(H)
print(f"\nmodule dimension: {b.module.dim}")
print(f"generator actions: {sorted(b.module.action)}")
print(f"dim End(N) = {b.end_algebra.dim}, dim radical = {b.radical.dim}")
print(f"quotient dimension: {b.quotient_involution.algebra.dim} (the opposite quaternion)")
print(f"quotient involution kind: {b.quotient_involution.kind()}")

print("\nalpha (the skew Gram block):")
for row in b.alpha.rows:
    print("   ", [str(e) for e in row])

print("\nconstruction checks:", b.checks)

verdict = hp_verdict(b.module, b.form)
print(f"\ncriterion verdict: {verdict['verdict']} via {verdict['path']}")
print(f"components: {verdict['evidence']['components']}")
