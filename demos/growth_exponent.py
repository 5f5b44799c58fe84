"""The headline computation: normal growth of SL_n(Z) looks like n^dim(G).

Two views of the same phenomenon.  The exact table F(n) maximizes the
minimal detecting quotient over whole word balls (feasible only for small
n); the candidate sequence A_k = E_12(lcm(1..k)) scales to thousands of
steps and its detection orders fit a clean power law with exponent dim(G).
"""

from resfin import growth, matgrp
from resfin.chevalley import GroupSpec

print("exact table for SL2(Z) with the S,T generators")
table = growth.farb_growth(growth.sl2_st(), GroupSpec(2), 6)
print(f"  family {table.family}")
for row in table.rows:
    if row.n == 0:
        continue
    w = matgrp.format_matrix(row.witness)
    print(f"  F({row.n}) = {row.f_value:>3}  witness {w} "
          f"(dies until mod {row.detection.modulus})")

print("\npower-law fit of the candidate sequence, k = 10..2000")
for n in (2, 3, 4):
    spec = GroupSpec(n)
    cs = growth.CandidateSeq(spec)
    pairs = [
        (k, growth.candidate_D_analytic(cs, k).quotient_order)
        for k in range(10, 2001)
    ]
    fit = growth.fit_exponent(pairs)
    print(f"  {spec.name}: slope {fit.slope:6.3f}  vs dim(G) = {spec.dim}")

print("\ninverting primes (an S-arithmetic subgroup) shifts constants, not the exponent")
cs = growth.CandidateSeq(GroupSpec(2), s_primes=(2, 3))
pairs = [
    (k, growth.candidate_D_analytic(cs, k).quotient_order)
    for k in range(10, 1001)
]
fit = growth.fit_exponent(pairs)
print(f"  sl2 with 1/2, 1/3: slope {fit.slope:6.3f}")

print("\nbounded generation: E_13(z) as a short word in elementary generators")
for z in (4, 2520, 10**15 + 7):
    word = growth.short_unipotent_word(GroupSpec(3), z)
    ok = growth.evaluate_word(3, word) == matgrp.elementary(3, 1, 3, z)
    print(f"  z = {z}: {len(word)} letters, exact = {ok}")
