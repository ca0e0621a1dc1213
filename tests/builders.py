"""Built-in lattices with their codes, built as the command line builds them."""

from colexa.code import from_colex


def with_code(L, d):
    """(L, its color code over Z_d with X generators on the mu-cells)."""
    return L, from_colex(L, L.mu, d)


def forget_gauge_codes(L):
    """Drop the gauge codes L keeps, so the next gauge.build_gauge_code on L
    builds afresh and a count of its work does not hang on test order."""
    L.__dict__.pop("_gauge", None)
