"""No report without a lone abstention is redundant.

For a strictly submodular, strictly increasing table, every report that
abstains on zero or at least two coordinates is the unique optimum of some
distribution (shown by constructing it); reports abstaining on exactly one
coordinate are always matched by their two sign completions.

Run:  python3 demos/05_tightness.py
"""

import numpy as np

from lovasz_abstain import (
    AbstainReport,
    enumerate_reports,
    make_sqrt_card,
    verify_tightness,
)
from lovasz_abstain.oracle import argmin_ids, tightness_witness
from lovasz_abstain.targets import abstain_loss_table

k = 3
f = make_sqrt_card(k)
reports = enumerate_reports(k, "V")
table = abstain_loss_table(f)

print("witness distributions pin each no-lone-abstention report uniquely:")
for s in ("00+", "000", "+-+"):
    v = AbstainReport.from_string(s)
    p = tightness_witness(v)
    values = table @ p
    second = np.partition(values, 1)[1]
    print(f"  v={s}: optimal set {[str(reports[i]) for i in sorted(argmin_ids(values))]}, "
          f"margin to runner-up {second - values.min():.4f}")

print()
print("a lone abstention is always dominated by its sign completions:")
v = AbstainReport.from_string("+0-")
p = tightness_witness(AbstainReport.from_string("000"))  # uniform over signs
values = table @ p
idx = {str(r): i for i, r in enumerate(reports)}
print(f"  at one distribution: value(+0-) = {values[idx['+0-']]:.4f}, "
      f"value(++-) = {values[idx['++-']]:.4f}, value(+--) = {values[idx['+--']]:.4f}")

print()
rep = verify_tightness(f, grid_m=8)
print(f"full sweep over witnesses and the distribution grid: passed={rep.passed} "
      f"({rep.cases} cases)")
