"""Measured growth, its classification, and the exponential detectors.

The growth function counts normal words reachable by products of at most
n generators.  A tight log-log fit gives a polynomial degree; otherwise
bounded-away-from-1 ratios flag exponential growth.  Independently, pairs
of witnesses with weights x^{d1}, x^{d2} are run through the
free-subalgebra criteria, and the necessary relation for non-freeness is
searched when nothing fires.  The two routes must never contradict, and
every emitted bound must sit below a measured polynomial degree.
"""

from hopfgrow import (all_bounds, compute_invariants, detect_exponential,
                      dp_word_counts, exterior_presentation, measure_growth,
                      pbw_dependence_scan, qplane_presentation,
                      skew_free_presentation, taft_presentation)

for label, p, nmax in [
    ("Laurent x quantum plane (v=2)", qplane_presentation(2), 24),
    ("Taft p=5", taft_presentation(5), 12),
    ("anticommuting s=3", exterior_presentation(3), 10),
    ("free pair, independent characters", skew_free_presentation(v=2), 12),
]:
    growth = measure_growth(p, n_max=nmax)
    report = compute_invariants(p, degree_bound=4, group_word_bound=3,
                                power_bound=4)
    verdict = detect_exponential(p, report)
    print(label)
    print("  dims:", growth.dims[:11], "..." if nmax > 10 else "")
    print("  estimate:", growth.estimate)
    print("  detector:", verdict.classification)
    for e in verdict.evidence["pairs"]:
        if e["cases"]:
            print("    pair %s fires %s" % (e["pair"], ", ".join(e["cases"])))
    for sol in verdict.evidence["relation_solutions"]:
        if sol["solutions"]:
            print("    non-freeness relation solvable for pair %s: %s ..."
                  % (sol["pair"], sol["solutions"][:3]))
    bounds = [b.value for b in all_bounds(p, report) if b.value is not None]
    if growth.estimate["kind"] == "polynomial":
        print("  bounds", bounds, "all below measured degree",
              growth.estimate["degree"])
    # the count (normal y-words convolved with the group ball) agrees with the
    # independent counting oracle
    if p.is_multigraded:
        assert dp_word_counts(p, 8) == growth.dims[:9]
        print("  counting oracle agrees through n = 8")
    print()

# ordered monomials in the witnesses: free through degree 8 for the
# quantum plane, dependent exactly at the truncation exponent for Taft
q = qplane_presentation(2)
report = compute_invariants(q, degree_bound=3, group_word_bound=3,
                            power_bound=3)
scan = pbw_dependence_scan(q, [r.element for r in report.witnesses],
                           degree_bound=8)
print("quantum plane ordered monomials:", scan)
t = taft_presentation(3)
scan = pbw_dependence_scan(t, [t.y(0)], degree_bound=4)
print("Taft ordered monomials:", scan)
print("  conclusions:", scan.conclusions)
