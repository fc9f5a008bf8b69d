"""Re-parameterization invariance of the power balances, a metamorphic oracle.

Every term of ``balance1`` and ``balance2`` is an integral over the body,
its faces or their edges, so it must not change when the same body gets
another patch.  A generated document runs on the unit box (the box route:
faces restricted by key selection), and again with a patch that maps the
unit box onto itself, one monotone self-map ``a*x + (1 - a)*x^2`` per axis
(the patched route: ``series_det``, ``patch . insertion`` pullbacks and the
face pass over the patched faces' pieces).  The two routes share no
restriction code, and their terms must agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from jetstress.scenarios import generate_scenario, load_scenario, run_checks

CHECKS = ["balance1", "balance2"]


def _terms(doc, quad_order):
    report = run_checks(load_scenario(doc, quad_order), CHECKS)
    return {record.check_id: record.terms for record in report.records}


@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10_000), n=st.integers(2, 4), d=st.integers(1, 2))
def test_every_balance_term_is_invariant_under_a_self_map_of_the_box(data, seed, n, d):
    # At n = 4, degree 4 would need 9^4 nodes, above the node budget.
    degree = data.draw(st.integers(0, 4 if n < 4 else 3))
    doc = generate_scenario(seed, n, d, degree)
    doc["checks"] = CHECKS
    # A chart integrand has degree at most p = max(2*degree, degree + 2) in
    # each axis; through the patch it has at most 2p + 1, which q = p + 1
    # Gauss nodes per axis integrate exactly (2q - 1 >= 2p + 1).
    quad_order = max(2 * degree, degree + 2) + 1
    box = _terms(doc, quad_order)
    # The self-map's slope at x = 0 is a: as a goes to 0 the patched edges
    # degenerate, and below the solver's pivot floor of 1e-13 the face frame
    # is rejected as singular, so a stays at 1e-3 or above.
    slopes = [data.draw(st.floats(1e-3, 1.0)) for _ in range(n)]
    doc["geometry"]["patch"] = [f"{a!r}*x{i + 1} + {1.0 - a!r}*x{i + 1}^2"
                                for i, a in enumerate(slopes)]
    patched = _terms(doc, quad_order)
    for check, terms in box.items():
        assert sorted(patched[check]) == sorted(terms)
        assert any(key.startswith("edge:") for key in terms) or check == "balance1"
        scale = max(abs(v) for v in terms.values())
        for key, value in terms.items():
            assert abs(patched[check][key] - value) <= 1e-12 * scale, (check, key)
