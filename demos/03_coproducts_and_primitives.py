"""Coalgebra structure: coproducts, the antipode, and primitive search.

Delta(g) = g (x) g and Delta(y_i) = y_i (x) 1 + mu_i (x) y_i extend
multiplicatively over normal forms; the skew-primitive spaces for each
candidate weight are computed by exact kernel calculations.
"""

from hopfgrow import (antipode, counit, delta, delta_power_formula,
                      find_skew_primitives, is_skew_primitive,
                      parse_element_expr, qplane_presentation,
                      taft_presentation)
from hopfgrow.serialize import element_to_str, tensor_to_str

p = taft_presentation(3)
y = p.y(0)
print("Taft algebra, p = 3")
print("  delta(y)   =", tensor_to_str(p, delta(p, y)))
print("  delta(y^2) =", tensor_to_str(p, delta(p, p.multiply(y, y))))
print("  eps(y + 3) =", counit(p, y + p.one().scale(p.domain.rational(3))))
print("  S(y)       =", element_to_str(p, antipode(p, y)))
print()

# The closed-form power coproduct: Gaussian binomial coefficients appear
# in the middle terms, and they vanish exactly at the truncation exponent.
closed, partial = delta_power_formula(p, 0, 2)
print("  closed form for delta(y^2):", tensor_to_str(p, closed))
print()

# Before the quotient, the p-th power survives as a primitive of weight
# g^p = 1; the quotient kills it.
free = taft_presentation(3, free=True)
space = find_skew_primitives(free, free.group.identity(), degree_bound=3,
                             group_word_bound=2)
print("unquotiented model, weight 1, degree <= 3:")
for e in space.basis:
    print("   primitive:", element_to_str(free, e))
print()

# weight detection on arbitrary elements
q = qplane_presentation(2)
for expr in ["y1", "y1 y2", "g1^2 - 1"]:
    elt = parse_element_expr(q, expr)
    w = is_skew_primitive(q, elt)
    print("%-10s is %s" % (expr, "a primitive of weight %s"
                           % q.group.format_element(w) if w is not None
                           else "not skew primitive"))
print()

# every (1,g)-primitive space contains the line through g - 1
space = find_skew_primitives(q, q.group.generator(0), degree_bound=2,
                             group_word_bound=2)
print("quantum plane, weight g1: dim %d, witnesses beyond the coradical: %s"
      % (space.dim, [element_to_str(q, e) for e in space.witnesses()]))
