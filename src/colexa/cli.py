"""colexa command line: machine-readable JSON front-end over the library.

Exit codes: 0 = all requested checks pass, 1 = a verification failed (witness
in the JSON), 2 = usage or input errors, or a failed write to stdout.  All
randomness is seeded; the enumeration cap comes from --cap or the COLEXA_CAP
environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

import numpy as np

from . import code as code_mod
from . import colex, gatecalc, gauge, morth, ring

USAGE = 2


def main(argv=None) -> int:
    """Run one command; main may be called any number of times in a process.

    Each handler returns (ok, payload); the payload is printed, and ok gives
    the exit code, 0 or 1.  A failed write to stdout (a closed pipe, a full
    disk) exits 2 with one line on stderr."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return USAGE
    try:
        check_args(args)
        ok, payload = globals()[args.handler](args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError, code_mod.CapExceeded) as exc:
        print(f"colexa: {exc}", file=sys.stderr)
        return USAGE
    try:
        emit(payload, args.pretty)
    except OSError as exc:
        print(f"colexa: cannot write the output: {exc}", file=sys.stderr)
        # the unwritten output stays buffered: send it, at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return USAGE
    return 0 if ok else 1


def emit(payload, pretty: bool) -> None:
    """Print the payload as JSON with sorted keys, a numpy array as its
    nested lists.  Compact output writes an array value with array_json and
    a payload with no array in one json.dumps."""
    if pretty:
        text = json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)
    elif any(isinstance(v, np.ndarray) for v in payload.values()):
        text = "{" + ", ".join(
            f"{json.dumps(k)}: "
            + (array_json(v) if isinstance(v, np.ndarray) else json.dumps(v, sort_keys=True))
            for k, v in sorted(payload.items())) + "}"
    else:
        text = json.dumps(payload, sort_keys=True)
    print(text, flush=True)


def array_json(A: np.ndarray) -> str:
    """json.dumps(A.tolist()) for a 2-D array of nonnegative integers, byte
    for byte, with no per-integer encoding.

    Every entry gets as many digit places as the largest one, taken in A's
    own dtype as a // 10^k % 10; the leading places of shorter entries are
    masked to 0 bytes, which are dropped with the text assembled around them.
    At most ring.BLOCK_ROWS rows are written at a time.
    """
    m, n = A.shape
    if not A.size:
        return json.dumps(A.tolist())
    width = len(str(A.max()))
    powers = np.array([10 ** k for k in reversed(range(width))], dtype=A.dtype)
    out = []
    for start in range(0, m, ring.BLOCK_ROWS):
        block = A[start:start + ring.BLOCK_ROWS, :, None]
        # one row of text: "[" then, per entry, its digit places and ", "
        # ("]," after the last), then " "; the last row's ", " is cut below
        text = np.empty((len(block), n * (width + 2) + 2), dtype=np.uint8)
        text[:, 0], text[:, -1] = ord("["), ord(" ")
        cells = text[:, 1:-1].reshape(len(block), n, width + 2)
        cells[:, :, :width] = block // powers % 10 + ord("0")
        cells[:, :, :width - 1][block < powers[:-1]] = 0
        cells[:, :, width:] = np.frombuffer(b", ", dtype=np.uint8)
        cells[:, -1, width:] = np.frombuffer(b"],", dtype=np.uint8)
        flat = text.reshape(-1)
        out.append(flat[flat != 0].tobytes().decode("ascii"))
    return "[" + "".join(out)[:-2] + "]"


def check_args(args) -> None:
    """Resolve the cap and range-check the numeric flags; errors exit 2."""
    if args.cap is None:
        raw = os.environ.get("COLEXA_CAP", code_mod.DEFAULT_CAP)
        try:
            args.cap = int(raw)
        except ValueError:
            raise ValueError(f"COLEXA_CAP must be an integer, got {raw!r}") from None
    if args.cap < 0:
        raise ValueError(f"the cap must be >= 0, got {args.cap}")
    if getattr(args, "d", 2) < 2:
        raise ValueError(f"--d must be >= 2, got {args.d}")
    if getattr(args, "l_cap", 1) < 1:
        raise ValueError(f"--l-cap must be >= 1, got {args.l_cap}")


def charge(work: int, cap: int, what: str) -> None:
    """Refuse, before anything is built, work beyond the cap."""
    if work > cap:
        raise code_mod.CapExceeded(f"{what}: {work} > cap {cap}")


_COMMON = [("--pretty", dict(action="store_true")),
           ("--cap", dict(type=int, help="enumeration cap (default $COLEXA_CAP or 10^7)"))]
_LATTICE = [("--lattice", dict(default="tetra", help="tetra | triangle | path to lattice JSON")),
            ("--distance", dict(type=int, default=3))]
_CODE = [("--code", dict(default="tetra", help="tetra | triangle | path to code JSON")),
         ("--d", dict(type=int, default=2)),
         ("--distance", dict(type=int, default=3)),
         ("--mu-prime", dict(type=int))]

# group -> action -> that command's flags, in the order its usage lists them
COMMANDS = {
    "lattice": {"build": _LATTICE + _COMMON, "check": _LATTICE + _COMMON},
    "code": {
        "build": _CODE + _COMMON,
        "check": _CODE + _COMMON,
        "distance": _CODE + _COMMON + [
            ("--sector", dict(choices=["x", "z", "both"], default="both"))],
        "syndrome": _CODE + _COMMON + [
            ("--error", dict(required=True,
                             help="comma-separated Pauli terms, e.g. Z@1111 or X^2@7"))],
        "codeword": _CODE + _COMMON + [("--x", dict(type=int, default=0))],
    },
    "morth": {"check": _CODE + _COMMON + [
        ("--m", dict(type=int, required=True)),
        ("--mode", dict(choices=["strong", "weak"], default="strong"))]},
    "gate": {
        "level": [("--d", dict(type=int, required=True)),
                  ("--gate", dict(required=True)),
                  ("--l-cap", dict(type=int, default=10))] + _COMMON,
        "verify": _CODE + _COMMON + [
            ("--gate", dict(required=True, help="T | T36 | S | R:a0,a1,... | CX"))],
    },
    "gauge": {
        "check": _CODE + _COMMON,
        "fix-demo": [("--d", dict(type=int, default=3)),
                     ("--seed", dict(type=int, default=0))] + _COMMON,
    },
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of COMMANDS, built on first use and shared afterwards.

    Parsing leaves it unchanged: every call gets a fresh Namespace, and each
    command names its handler, cmd_<group>_<action> with '-' read as '_',
    which main looks up when it runs, so a handler replaced after the parser
    was built is the one called.
    """
    parser = argparse.ArgumentParser(prog="colexa")
    groups = parser.add_subparsers(dest="group")
    for group, actions in COMMANDS.items():
        commands = groups.add_parser(group).add_subparsers(dest="action")
        for action, flags in actions.items():
            p = commands.add_parser(action)
            for flag, kwargs in flags:
                p.add_argument(flag, **kwargs)
            p.set_defaults(handler=f"cmd_{group}_{action}".replace("-", "_"))
    return parser


# -- input resolution ------------------------------------------------------


def builtin_lattice(name: str, distance: int, cap: int):
    """The built-in lattice called name (tetra, triangle), else None.  The
    triangle's 1 + 3k(k+1) qudits, k = (distance - 1) / 2, are charged to the
    cap before it is built."""
    if name == "tetra":
        return colex.hypercube_lattice(3)
    if name == "triangle":
        if distance >= 3:
            k = (distance - 1) // 2
            charge(1 + 3 * k * (k + 1), cap, "triangle lattice qudits")
        return colex.triangle_lattice(distance)
    return None


def load_lattice(args) -> colex.Lattice:
    L = builtin_lattice(args.lattice, args.distance, args.cap)
    return colex.lattice_from_json(read_json_object(args.lattice)) if L is None else L


def load_code(args):
    """(lattice or None, ColorCode) from --code; a built-in code has
    mu' = --mu-prime, by default its lattice's mu."""
    L = builtin_lattice(args.code, args.distance, args.cap)
    if L is None:
        return None, code_mod.code_from_json(read_json_object(args.code))
    return L, code_mod.from_colex(L, L.mu if args.mu_prime is None else args.mu_prime, args.d)


def read_json_object(path: str) -> dict:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def parse_error(spec: str, C, L) -> tuple:
    """Parse 'Z@1111,X^2@7' style error specs into one (x | z) exponent row
    mod d."""
    xz = [0] * (2 * C.n)
    for term in spec.split(","):
        term = term.strip()
        if "@" not in term:
            raise ValueError(f"bad error term {term!r}, expected PAULI[@^pow]@vertex")
        op, vert = term.split("@", 1)
        op, caret, pw = op.partition("^")
        try:
            power = int(pw) if caret else 1
        except ValueError:
            raise ValueError(f"error term {term!r}: the power {pw!r} is not an integer") from None
        site = resolve_site(vert, C, L)
        if op.upper() not in ("X", "Z"):
            raise ValueError(f"unknown Pauli {op!r}")
        xz[site + (C.n if op.upper() == "Z" else 0)] += power
    return tuple(e % C.d for e in xz)


def resolve_site(vert: str, C, L) -> int:
    """Vertex label to qudit index.  On a hypercube lattice, whose vertices
    are the nonzero (mu+1)-bit strings, a label of exactly mu+1 binary digits
    names the vertex with those bits; every other label is a decimal id."""
    ids = list(L.vertex_ids) if L is not None else list(range(C.n))
    bits = L is not None and L.vertex_ids == tuple(range(1, 2 ** (L.mu + 1)))
    if bits and len(vert) == L.mu + 1 and set(vert) <= {"0", "1"}:
        label = int(vert, 2)
    elif vert.isascii() and vert.isdigit():
        label = int(vert)
    else:
        label = None
    if label not in ids:
        raise ValueError(f"unknown vertex label {vert!r}")
    return ids.index(label)


# -- handlers: each returns (ok, JSON payload) --------------------------------


def cmd_lattice_build(args):
    return True, colex.lattice_to_json(load_lattice(args))


def cmd_lattice_check(args):
    _, payload = colex.audit(load_lattice(args))
    return payload["ok"], payload


def cmd_code_build(args):
    _, C = load_code(args)
    return True, code_mod.code_to_json(C)


def cmd_code_check(args):
    _, C = load_code(args)
    rep = code_mod.verify_code(C)
    return rep.ok, rep.to_dict()


def cmd_code_distance(args):
    _, C = load_code(args)
    sectors = ["x", "z"] if args.sector == "both" else [args.sector]
    return True, {s: code_mod.distance(C, s, cap=args.cap) for s in sectors}


def cmd_code_syndrome(args):
    L, C = load_code(args)
    syn = code_mod.syndrome(C, parse_error(args.error, C, L))
    return True, {
        "syndrome": list(syn),
        "x_generators": C.G0.nrows,
        "z_generators": C.z_stab.nrows,
        "nonzero": [i for i, v in enumerate(syn) if v],
    }


def cmd_code_codeword(args):
    _, C = load_code(args)
    cw = code_mod.codeword(C, args.x, cap=args.cap)
    return True, {"x": list(cw.x), "terms": cw.terms, "count": len(cw.terms)}


def cmd_morth_check(args):
    _, C = load_code(args)
    M, g1 = morth.code_matrix(C)
    rep = morth.is_m_star_orthogonal(M, g1, args.m, args.mode, cap=args.cap)
    witnesses = [{"rows": list(rows), "weight": w} for rows, w in rep.witness or ()]
    return rep.ok, {"m": args.m, "mode": args.mode, "holds": rep.ok, "witnesses": witnesses}


def cmd_gate_level(args):
    # the gate's table and up to l_cap difference tables, d entries each
    charge((args.l_cap + 1) * args.d, args.cap, "gate level table entries")
    g = gatecalc.build_gate(args.gate, args.d)
    level, trace = gatecalc.hierarchy_level(g, args.l_cap)
    return True, {"gate": args.gate, "d": args.d, "N": g.N,
                  "level": f"> {args.l_cap}" if level is None else level,
                  "trace": [list(t) for t in trace]}


def cmd_gate_verify(args):
    _, C = load_code(args)
    if args.gate == "CX":
        rep = gatecalc.verify_transversal_CX(C)
    else:
        # a JSON code carries its own d, which --d does not override
        charge(C.d * ring.span_size(C.G0), args.cap, "transversal check evaluations")
        g = gatecalc.build_gate(args.gate, C.d)
        rep = gatecalc.verify_transversal_phase(C, g, cap=args.cap)
    payload = {"name": rep.name, "pass": rep.ok, "checked": rep.checked, "witness": rep.witness}
    if rep.detail:
        payload["notes"] = [rep.detail]
    return rep.ok, payload


def cmd_gauge_check(args):
    L, C = load_code(args)
    if L is None:
        raise ValueError("gauge check needs a builder lattice (tetra)")
    G = gauge.build_gauge_code(L, args.d)
    center_rep = gauge.center_equals_stabilizer(G)
    h_rep = gauge.verify_H_logical(G)
    neg = gauge.verify_H_stabilizer_code(C)
    ok = center_rep.ok and h_rep.ok and not neg.ok
    return ok, {
        "gauge_generators": G.gauge_group.nrows,
        "stabilizer_generators": G.stabilizer_group.nrows,
        "center_equals_stabilizer": center_rep.to_dict(),
        "transversal_H": h_rep.to_dict(),
        "negative_control_global_H_fails": not neg.ok,
        "ok": ok,
    }


def cmd_gauge_fix_demo(args):
    log = gauge.fix_demo(args.d, args.seed)
    log["ok"] = all(log["post"].values())
    return log["ok"], log


if __name__ == "__main__":
    sys.exit(main())
