"""Work counts: every ResidueMatrix is factored at most once, so the gauge
paths make a handful of Smith normal forms, not one per question."""

import pytest

from colexa import colex, gauge, ring


@pytest.fixture
def snf_calls(monkeypatch):
    calls = []
    original = ring.smith_normal_form

    def counting(A):
        calls.append(A)
        return original(A)

    monkeypatch.setattr(ring, "smith_normal_form", counting)
    return calls


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_fix_demo_factor_count(snf_calls, d):
    log = gauge.fix_demo(d, 1)
    assert all(log["post"].values())
    assert len(snf_calls) <= 11


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_gauge_check_factor_count(snf_calls, d):
    L, _ = colex.build_tetrahedral(d)
    G = gauge.build_gauge_code(L, d)
    snf_calls.clear()
    ok, _ = gauge.center_equals_stabilizer(G)
    assert ok and gauge.verify_H_logical(G).ok
    assert len(snf_calls) <= 6


def test_repeated_questions_factor_once(snf_calls):
    M = ring.ResidueMatrix(6, ((2, 3, 0), (4, 0, 1), (0, 3, 3)))
    for w in [(0, 0, 0), (2, 3, 0), (1, 1, 1), (0, 3, 4)]:
        ring.solve_left(M, w)
        ring.in_rowspan(M, w)
    ring.kernel_mod(M)
    ring.span_size(M)
    ring.row_basis(M)
    assert len(list(ring.iter_span(M))) == ring.span_size(M)
    assert len(snf_calls) == 1
    # an equal matrix is another instance and is factored on its own
    ring.kernel_mod(ring.ResidueMatrix(6, M.rows))
    assert len(snf_calls) == 2
