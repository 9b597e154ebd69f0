"""The hinge agrees with the two-term abstain loss at every report point.

The surrogate evaluated at a report v in {-1,0,1}^k returns exactly
f_y(mis \ abs) + f_y(mis): abstaining pays f once where committing wrongly
pays twice. Minimizing the expected surrogate over reports therefore
minimizes the discrete abstain loss.

Run:  python3 demos/02_hinge_embeds_abstain_loss.py
"""

import numpy as np

from lovasz_abstain import (
    AbstainReport,
    Label,
    enumerate_reports,
    hinge,
    lovasz_extension,
    make_sqrt_card,
    mix,
    point_mass,
    target_abstain,
    uniform,
)
from lovasz_abstain.oracle import argmin_ids
from lovasz_abstain.targets import abstain_loss_table

k = 3
f = make_sqrt_card(k)

print("== the extension interpolates the table ==")
x = np.array([0.9, 0.4, 0.1])
print(f"F({x}) = {lovasz_extension(f, x):.4f}")
print(f"F(1_S) = f(S) on indicators, e.g. F(1,1,0) = {lovasz_extension(f, [1, 1, 0]):.4f}"
      f" = sqrt(2) = {np.sqrt(2):.4f}")

print()
print("== report-level identity ==")
y = Label.from_string("++-")
print(f"label y = {y}, reports v, hinge(v) vs f(mis\\abs)+f(mis):")
for s in ("++-", "+0-", "00-", "000", "--+"):
    v = AbstainReport.from_string(s)
    h = hinge(f, v.vector(), y)
    t = target_abstain(f, v, y)
    print(f"  v={s}  hinge={h:.6f}  target={t:.6f}  equal={abs(h - t) < 1e-12}")

print()
print("== optimal reports move toward abstention as uncertainty grows ==")
reports = enumerate_reports(k, "V")
table = abstain_loss_table(f)
for eps, desc in [(1.0, "point mass on y"), (0.5, "half uniform"), (0.0, "uniform")]:
    p = mix(uniform(k), point_mass(y.bits, k), eps)
    names = ", ".join(str(reports[i]) for i in sorted(argmin_ids(table @ p)))
    print(f"  {desc:18s} optimal reports: {names}")
