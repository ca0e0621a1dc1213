"""Built-in lattices with their codes, built as the command line builds them."""

import json

import numpy as np

from colexa.code import code_to_json, from_colex


def with_code(L, d):
    """(L, its color code over Z_d with X generators on the mu-cells)."""
    return L, from_colex(L, L.mu, d)


def code_json(C):
    """code_to_json(C) with its arrays as nested lists, as json.loads reads
    it back: plain values to dump, compare with == or edit."""
    return json.loads(json.dumps(code_to_json(C), default=np.ndarray.tolist))


def forget_gauge_codes(L):
    """Drop the gauge codes L keeps, so the next gauge.build_gauge_code on L
    builds afresh and a count of its work does not hang on test order."""
    L.__dict__.pop("_gauge", None)


def forget_codes(L):
    """Drop the color codes (and rejections) L keeps, so the next
    code.from_colex on L builds and decides afresh and a count of its work
    does not hang on test order."""
    L.__dict__.pop("_codes", None)
