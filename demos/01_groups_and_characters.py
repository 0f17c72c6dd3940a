"""Finite abelian groups, their characters, and the subgroup/annihilator pairing.

Every object in this library lives on a product of cyclic groups.  This
script builds two of them, walks the subgroup lattice, and checks the two
facts everything else leans on: characters multiply, and annihilators
invert order against the group size.
"""

from mildspec import (
    GroupSpec,
    all_subgroups,
    annihilator,
    character,
    character_vector,
)

G = GroupSpec((12,))
P = GroupSpec((4, 6))

print(f"{G}: order {G.order}")
print(f"{P}: order {P.order}, elements are coordinate pairs")
print()

# characters are exact roots of unity; chi_s(x) chi_s(y) = chi_s(x + y)
x, y, s = G.element(5), G.element(9), G.element(7)
lhs = character(G, s, x) * character(G, s, y)
rhs = character(G, s, G.add(x, y))
print(f"character multiplicativity on {G}: |lhs - rhs| = {abs(lhs - rhs):.2e}")

vec = character_vector(G, s)
print(f"character s={s[0]} has unit modulus everywhere: "
      f"max deviation {max(abs(abs(v) - 1.0) for v in vec):.2e}")
print()

for group in (G, P):
    subs = all_subgroups(group)
    print(f"subgroups of {group}: {len(subs)}")
    for H in subs:
        Hp = annihilator(H)
        Hpp = annihilator(Hp)
        assert set(Hpp.elements) == set(H.elements), "biduality must be exact"
        print(
            f"  |H| = {H.order:3d}   |H-perp| = {Hp.order:3d}   "
            f"product = {H.order * Hp.order:3d} (= group order)"
        )
    print()

print("annihilator order duality and biduality hold on every subgroup above.")
