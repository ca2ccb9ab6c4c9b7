"""The benchmark tracer (perfbench/spans.py) wraps library functions by name.

Installing it here makes a rename or removal of any wrapped name fail the
test suite, not only the traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import tvlab.cli  # noqa: F401  (imports every module the tracer patches)
from tvlab import homology, obstruction
from tvlab.complexes import full_simplex
from tvlab.deleted_product import deleted_product
from tvlab.homology import IntMatrix

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def target(module_name, attr):
    owner = sys.modules["tvlab." + module_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return vars(owner)[attr]


def test_tracer_installs_on_every_target_and_uninstalls():
    spans = load_spans()
    originals = {(m, a): target(m, a) for m, a, _, _ in spans.TARGETS}
    solve, snf = homology.solve_integer_system, homology.smith_normal_form
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (m, a), orig in originals.items():
            assert target(m, a).__wrapped__ is orig, "%s.%s is not wrapped" % (m, a)
        # names bound by "from .homology import ..." are wrapped as well
        assert obstruction.solve_integer_system.__wrapped__ is solve
        with tracer.query(0):
            # a block with no unit entry reaches the dense Smith normal form
            A = IntMatrix(2, 2, [[(0, 2), (1, 4)], [(0, 6), (1, 8)]])
            obstruction.solve_integer_system(A, [2, 6])
        names = [span[0] for span in tracer.spans]
        assert names.count("homology.solve_integer_system") == 1
        assert names.count("homology.smith_normal_form") == 1
    finally:
        tracer.uninstall()
    for (m, a), orig in originals.items():
        assert target(m, a) is orig
    assert obstruction.solve_integer_system is solve and homology.smith_normal_form is snf
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["homology.snf_entries"] == 4
    assert metrics["homology.solve_s"] >= metrics["homology.snf_s"] > 0


def test_mod_p_homology_records_one_rank_span_per_degree():
    spans = load_spans()
    dp = deleted_product(full_simplex(4), 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.query(0):
            homology.dp_homology(dp, 3)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert dp.dim == 3 and names.count("homology._rank_mod_p") == dp.dim
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["homology.modp_s"] >= metrics["homology.rank_mod_p_s"] > 0


def test_smith_diagonal_records_no_smith_normal_form_span():
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.query(0):
            # a block with no unit entry reaches the dense reduction, without transforms
            diag = homology.smith_diagonal([[(0, 2), (1, 6)], [(0, 4), (1, 8)]], 2)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert diag == [2, 4]
    assert names.count("homology.smith_diagonal") == 1
    assert "homology.smith_normal_form" not in names


def test_traced_boundary_matrix_records_one_span_per_call_and_dp_homology_none():
    """The tracer's boundary_nnz hook takes len() of each boundary_matrix
    result, which for a list of columns counts the d-cells.  dp_homology
    reduces the Morse complex and builds no boundary_matrix."""
    spans = load_spans()
    dp = deleted_product(full_simplex(4), 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.query(0):
            for d in range(1, dp.dim + 1):
                dp.boundary_matrix(d)
        with tracer.query(1):
            homology.dp_homology(dp, "Z")
    finally:
        tracer.uninstall()
    boundary = "deleted_product.DeletedProductComplex.boundary_matrix"
    assert dp.dim == 3 and [span[4] for span in tracer.spans if span[0] == boundary] == [0] * dp.dim
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert metrics["deleted_product.boundary_nnz"] == sum(dp.f_vector()[1:])
    assert metrics["deleted_product.boundary_s"] > 0
