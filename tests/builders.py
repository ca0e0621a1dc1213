"""Built-in lattices with their codes, built as the command line builds them."""

from colexa.code import from_colex


def with_code(L, d):
    """(L, its color code over Z_d with X generators on the mu-cells)."""
    return L, from_colex(L, L.mu, d)
