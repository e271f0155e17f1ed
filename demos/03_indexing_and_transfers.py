"""Weak indexing systems: enumeration, the category encoding, transfers.

The two encodings (admissible arities per subgroup; classes of G-set maps)
are converted back and forth, and the transfer-system shadow of the unital
poset is counted against the Catalan numbers.
"""
from math import comb

from equialg import (Subgroup, WeakIndexingCategory, cyclic_group,
                     enumerate_systems, enumerate_transfer_systems,
                     generate_category, join, level_tables, orbit_projection,
                     transfer_system_of)

C4 = cyclic_group(4)

print("== the unital and almost-unital posets saturate ==")
for cutoff in [12, 24]:
    uni = enumerate_systems(C4, cutoff, "unital")
    auni = enumerate_systems(C4, cutoff, "almost_unital")
    print(f"C4 at cutoff {cutoff}: {len(uni)} unital, "
          f"{len(auni)} almost-unital")

print()
print("== round trip through the category encoding ==")
poset = enumerate_systems(C4, 12, "unital")
ok = all(WeakIndexingCategory.from_system(s).to_system().admissible
         == s.admissible for s in poset)
print(f"system -> category -> system is the identity on {len(poset)} nodes:",
      ok)

print()
print("== transfer systems are counted by Catalan numbers ==")
for n in range(4):
    got = len(enumerate_transfer_systems(cyclic_group(2 ** n)))
    print(f"C_2^{n}: {got} transfer systems (Catalan({n + 1}) ="
          f" {comb(2 * n + 2, n + 1) // (n + 2)})")

print()
print("== generation and joins ==")
e = Subgroup(C4, {0})
c2 = Subgroup(C4, {0, 2})
full = Subgroup(C4, set(C4.elements))
i1 = generate_category(C4, [orbit_projection(C4, e, c2)], unital=True)
i2 = generate_category(C4, [orbit_projection(C4, c2, full)], unital=True)
joined = join(i1.to_system(), i2.to_system())
ts = transfer_system_of(joined)
print("transfers of the join:", ts.nontrivial_pairs(),
      "(the composite transfer 0->2 appears by closure)")

print()
print("== Hasse diagram export ==")
print(enumerate_transfer_systems(cyclic_group(4)).to_dot("c4_transfers"))
