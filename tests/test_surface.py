"""The package surface: its public names, and the names the benchmark
under perfbench/ reaches into the package by."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import hopfgrow

ROOT = Path(__file__).resolve().parent.parent

# the sorted hopfgrow.__all__: a name leaves or joins it only with an edit here
PUBLIC_NAMES = [
    "AlgebraElement", "BoundReport", "CommutatorAnalysis", "ConsistencyError",
    "CycloField", "CycloRational", "EXAMPLES", "GroupData", "GrowthReport",
    "GrowthVerdict", "INFINITE", "InvariantReport", "NonConfluentError", "PbwScan",
    "Presentation", "PresentationError", "ResourceCeilingError", "RewriteRule",
    "Scalar", "ScalarDomain", "ScalarShapeError", "SkewGenerator",
    "SkewPrimitiveSpace", "TensorElement", "UnitMonomial", "WeightCommutator",
    "WitnessRecord", "all_bounds", "antipode", "bound_first", "bound_second",
    "bound_third", "bounds", "build_example", "catalog", "coalgebra",
    "commutator_level", "compute_invariants", "conjugation_matrix", "counit",
    "cyclic_support", "cyclotomic", "cyclotomic_polynomial", "delta",
    "delta_power_formula", "detect_exponential", "dp_word_counts", "elements",
    "errors", "exterior_presentation", "fileformat", "find_skew_primitives",
    "fit_growth", "generalized_commutator", "groups", "growth", "intmat",
    "invariants", "is_skew_primitive", "linalg", "load_presentation",
    "measure_growth", "multiplicative_order", "parse_element_expr",
    "parse_presentation_data", "parse_scalar_expr", "pbw_dependence_scan",
    "presentation", "presentation_to_jsonable", "qplane_presentation",
    "quantum_binomial", "run_example_check", "scalars", "serialize",
    "skew_free_presentation", "skew_trunc_presentation", "subgroup_rank",
    "taft_presentation",
]


def test_public_names_are_pinned():
    assert sorted(hopfgrow.__all__) == PUBLIC_NAMES


def _layertrace(monkeypatch):
    """perfbench/layertrace.py, loaded without writing into perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "layertrace_under_test", ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_names_resolve(monkeypatch):
    # the tracer wraps each target it finds by name, a method through its
    # class's own __dict__, and the benchmark calls hg.<name> on the package
    targets = _layertrace(monkeypatch).TARGETS
    assert targets
    for modname, owner, attrs, _ in targets:
        module = importlib.import_module("hopfgrow." + modname)
        for attr in attrs:
            if owner is None:
                assert callable(getattr(module, attr, None)), (modname, attr)
            else:
                assert attr in vars(getattr(module, owner)), (modname, owner, attr)
    calls = set(re.findall(r"\bhg\.(\w+)", (ROOT / "perfbench" / "run.py").read_text()))
    assert calls
    for name in sorted(calls):
        assert callable(getattr(hopfgrow, name, None)), name
