"""The full two-quaternion counterexample: a pair of G x G-invariant forms
on the same 64-dimensional module that are equivalent over every
completion of F_3(t) but not over F_3(t) itself -- while their underlying
plain quadratic forms are globally equivalent, so the failure is carried
entirely by the group action.

Takes about 7 s on 2 CPUs; every identity is recomputed exactly and the
report is byte-deterministic.
"""

from gquadforms import Quaternion, RatFunc
from gquadforms.construct import counterexample_pipeline, report_to_json

p = 3
H1 = Quaternion(RatFunc.from_int(p, -1), RatFunc.t(p))
H2 = Quaternion(RatFunc.from_int(p, -1), RatFunc.from_string(p, "t^2+2"))

report = counterexample_pipeline(H1, H2)

print("ramification:", report["ramification"])
print("dimensions:", report["dimensions"])
print()
print("local table (records of [u] vs [1]):")
for row in report["local_table"]:
    print(f"  {row['place']:>10}: equal = {row['equal']}  ({row['record_u']['shape']}, rank {row['record_u']['rank']})")
print()
print("global certificate:")
for key, val in report["global_certificate"].items():
    print(f"  {key}: {val}")
print()
print("G-verdict:", report["g_verdict"])
print("plain quadratic forms globally equivalent:", report["plain_forms_equivalent"])
print("criterion verdicts:", report["hp_verdicts"])
print()
print(f"full JSON report: {len(report_to_json(report))} bytes")
