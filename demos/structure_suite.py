"""The structural facts the growth computation stands on, each checked
against brute force at one concrete modulus.

Everything here is exhaustive, a generator certificate resting on a stated
lemma, or explicitly labeled as probabilistic; the point is that the order
formulas, the congruence filtration, and the normal subgroup picture are
not taken on faith.
"""

from resfin import chevalley
from resfin.chevalley import GroupSpec

SL2 = GroupSpec(2)
SL3 = GroupSpec(3)

print("order formulas vs exhaustive enumeration")
for spec, m in ((SL2, 8), (SL2, 9), (SL3, 3)):
    table = chevalley.enumerate_group(spec, m)
    print(f"  |{spec.name} mod {m}|: formula {spec.order_mod(m)}, "
          f"enumerated {len(table)}")

print("\ncongruence filtration mod p^k: graded pieces are the Lie algebra")
for p in (3, 5):
    r = chevalley.moy_prasad_check(SL2, p, 2, 1)
    print(f"  {r.instance}: {r.status} ({r.detail})")
r = chevalley.commutator_filtration_check(SL2, 5, 3)
print(f"  {r.instance}: {r.status} ({r.detail})")

print("\nnormal subgroups of SL2(Z/25) above the center")
table = chevalley.enumerate_group(SL2, 25)
subs = chevalley.normal_subgroups_containing_center(table)
print(f"  sizes {[len(s) for s in subs]} "
      f"(center, G^1 center, everything; nothing else)")
print(f"  equals the filtration family: "
      f"{subs == chevalley.filtration_center_subgroups(table)}")

print("\nwhy 2 and 3 are excluded primes")
r = chevalley.adjoint_irreducibility_check(SL2, 2)
print(f"  adjoint action, p=2: {r.status} ({r.detail})")
r = chevalley.centerless_quotient_check(chevalley.enumerate_group(SL2, 16))
print(f"  centerless quotient, m=16: {r.status} ({r.detail})")
r = chevalley.centerless_quotient_check(chevalley.enumerate_group(SL2, 25))
print(f"  centerless quotient, m=25: {r.status} ({r.detail})")

print("\nstrong approximation: level-N subgroups still cover coprime quotients")
for N, m in ((1, 45), (2, 9), (3, 25)):
    r = chevalley.strong_approx_check(SL2, N, m, seed=0)
    print(f"  N={N}, m={m}: {r.status} [{r.mode}]")
