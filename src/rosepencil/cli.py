"""Command-line front end.

Thin shell over the library: every subcommand is a straight sequence of
library calls on schema-validated JSON.  Matrices are nested lists whose
entries are numbers or strings accepted by ``complex()``; output JSON
round-trips through the same parser.

Exit codes: 0 ok, 2 schema/usage, 3 recipe-invalid, 4 structural
violation, 5 numeric failure, 6 check failed.
"""

import argparse
import cmath
import functools
import json
import os
import stat
import sys

import numpy as np

from . import structured
from .pencils import BlockPencil, GfprRecipe, RecipeError, fiedler_pencil, \
    gf_pencil, gfpr
from .polymat import MatrixPolynomial, structure_check
from .realize import STRUCTURED_KINDS, Realization, StructuralViolation, \
    make_structured_realization, system_matrix
from .recover import RecoveryDiagnostic, VectorBundle, recover_from_gfpr, \
    recover_s_to_g
from .structured import cauchy_maslov_index
from .verify import VerificationFailure, backward_errors, \
    det_proportionality, eig_multiset, infinity_structure, pencil_eigenvalues

EXIT_SCHEMA = 2
EXIT_RECIPE = 3
EXIT_STRUCTURAL = 4
EXIT_NUMERIC = 5
EXIT_CHECK = 6


class SchemaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# JSON <-> matrices

def _entry_in(v):
    if not isinstance(v, (int, float, str)):
        raise SchemaError(f"bad matrix entry {v!r}")
    try:
        z = complex(v)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"bad matrix entry {v!r}") from exc
    if not cmath.isfinite(z):
        raise SchemaError(f"non-finite matrix entry {v!r}")
    return z


def _mat_in(obj, what="matrix"):
    if not isinstance(obj, list) or not obj or not all(
            isinstance(row, list) for row in obj):
        raise SchemaError(f"{what} must be a nested list")
    try:
        M = np.array(obj)
    except ValueError:  # ragged
        M = None
    # all-number matrices convert in one call; the rest entry by entry
    if (M is not None and M.ndim == 2 and M.dtype.kind in "iuf"
            and np.isfinite(M).all()):
        return M.astype(complex)
    rows = [[_entry_in(v) for v in row] for row in obj]
    try:
        return np.array(rows, dtype=complex)
    except ValueError as exc:
        raise SchemaError(f"ragged {what}") from exc


def _entry_out(z):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return repr(z).strip("()")


def _mat_out(M):
    M = np.asarray(M, dtype=complex)
    if not M.imag.any():
        return M.real.tolist()
    return [[_entry_out(v) for v in row] for row in M]


def _int_in(value, what):
    """A JSON integer."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    return value


def _ints_in(value, what):
    """A JSON list of integers as a tuple."""
    if not (isinstance(value, list) and all(type(v) is int for v in value)):
        raise SchemaError(f"{what} must be a list of integers, got {value!r}")
    return tuple(value)


def _mats_in(value, what):
    """None, or a JSON list of matrices as a tuple of arrays."""
    if value is not None and not isinstance(value, list):
        raise SchemaError(f"{what} must be a list of matrices")
    return None if value is None else tuple(_mat_in(M, what) for M in value)


def _check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise SchemaError(f"unknown keys in {where}: {unknown}")


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {what} {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# schemas

# options every structured build accepts besides those of its
# STRUCTURED_KINDS row; a problem file may carry any of _OPTIONS
_COMMON_OPTIONS = {"tol", "seed", "h"}
_OPTIONS = _COMMON_OPTIONS.union({"omega0", "omega1"},
                                 *(k.options for k in STRUCTURED_KINDS.values()))


def _parse_realization(obj):
    _check_keys(obj, {"kind", "P", "C", "E", "A", "B"}, "realization")
    kind = obj.get("kind", "general")
    for key in ("P", "A", "B"):
        if key not in obj:
            raise SchemaError(f"realization is missing {key!r}")
    P = obj["P"]
    if not isinstance(P, list) or not P:
        raise SchemaError("P must be a list of coefficient matrices")
    coeffs = [_mat_in(c, f"P[{k}]") for k, c in enumerate(P)]
    A = _mat_in(obj["A"], "A")
    B = _mat_in(obj["B"], "B")
    E = _mat_in(obj["E"], "E") if "E" in obj else None
    if kind == "general":
        if "C" not in obj:
            raise SchemaError("general realization needs C")
        C = _mat_in(obj["C"], "C")
        if E is None:
            E = np.eye(A.shape[0], dtype=complex)
    elif kind not in STRUCTURED_KINDS:
        raise SchemaError(f"unknown realization kind {kind!r}")
    elif "C" in obj:
        raise SchemaError(f"{kind} realization determines C; do not pass it")
    try:
        P = MatrixPolynomial(coeffs)
        if kind == "general":
            return Realization(P, C=C, E=E, A=A, B=B)
        return make_structured_realization(kind, P, A, B, E=E)
    except StructuralViolation:
        raise
    except ValueError as exc:  # shapes, a singular E, a zero leading coefficient
        raise SchemaError(f"bad realization: {exc}") from exc


def _parse_recipe(obj):
    ints = ("sigma", "tau", "sigma1", "sigma2", "tau1", "tau2")
    mats = ("X1", "X2", "Y1", "Y2")
    _check_keys(obj, {"m", *ints, *mats}, "recipe")
    for key in ("m", "sigma", "tau"):
        if key not in obj:
            raise SchemaError(f"recipe is missing {key!r}")
    kw = {key: _ints_in(obj.get(key, []), f"recipe {key}") for key in ints}
    kw.update((key, _mats_in(obj.get(key), key)) for key in mats)
    return GfprRecipe(m=_int_in(obj["m"], "recipe m"), **kw)


def _pencil_out(L):
    out = {"X": _mat_out(L.X), "Y": _mat_out(L.Y), "m": L.m, "n": L.n,
           "r": L.r, "col_block": L.col_block, "row_block": L.row_block}
    prov = L.provenance
    if "quasi_identity" in prov:
        out["quasi_identity"] = list(prov["quasi_identity"])
    if "target" in prov:
        out["target"] = prov["target"]
    recipe = prov.get("recipe")
    if recipe is not None:
        out["recipe"] = {"m": recipe.m,
                         "sigma": list(recipe.sigma),
                         "tau": list(recipe.tau),
                         "sigma1": list(recipe.sigma1),
                         "sigma2": list(recipe.sigma2),
                         "tau1": list(recipe.tau1),
                         "tau2": list(recipe.tau2)}
    return out


def _parse_pencil(obj):
    _check_keys(obj, {"X", "Y", "m", "n", "r", "col_block", "row_block",
                      "quasi_identity", "target", "recipe", "structure_report"}, "pencil")
    for key in ("X", "Y", "m", "n", "r"):
        if key not in obj:
            raise SchemaError(f"pencil is missing {key!r}")
    prov = {}
    if "quasi_identity" in obj:
        prov["quasi_identity"] = _ints_in(obj["quasi_identity"], "quasi_identity")
    if "target" in obj:
        prov["target"] = obj["target"]
    if "recipe" in obj:
        prov["recipe"] = _parse_recipe(obj["recipe"])
    m, n, r = (_int_in(obj[key], f"pencil {key}") for key in ("m", "n", "r"))
    blocks = [None if obj.get(key) is None else _int_in(obj[key], f"pencil {key}")
              for key in ("col_block", "row_block")]
    X, Y = _mat_in(obj["X"], "X"), _mat_in(obj["Y"], "Y")
    if (min(m, n) < 1 or r < 0 or X.shape != (m * n + r,) * 2 or Y.shape != X.shape
            or any(b is not None and not 1 <= b <= m for b in blocks)):
        raise SchemaError(f"pencil m, n, r = {m}, {n}, {r} or blocks {blocks} do not fit "
                          f"X {X.shape} and Y {Y.shape}: N = m n + r, m, n >= 1, r >= 0")
    return BlockPencil(X, Y, m, n, r, *blocks, provenance=prov)


def _parse_problem(path):
    obj = _load_json(path, "problem file")
    _check_keys(obj, {"realization", "recipe", "options"}, "problem file")
    if "realization" not in obj:
        raise SchemaError("problem file is missing 'realization'")
    re = _parse_realization(obj["realization"])
    recipe = obj.get("recipe")
    options = obj.get("options", {})
    _check_keys(options, _OPTIONS, "options")
    tol = options.get("tol", 1.0)
    if type(tol) not in (int, float) or not cmath.isfinite(tol):
        raise SchemaError(f"option tol must be a finite number, got {tol!r}")
    return re, recipe, options


def _emit(data, args):
    text = json.dumps(data, indent=2 if args.pretty else None)
    path = getattr(args, "out", None)
    if not path:
        print(text)
        return
    try:
        # write over the old bytes, then cut: on some disks truncating a
        # file that holds data to zero on open stalls for tens of ms.
        # Only a regular file is cut; ftruncate fails on pipes and devices.
        with open(path, "w", opener=lambda p, f: os.open(
                p, f & ~os.O_TRUNC, 0o666)) as fh:
            fh.write(text + "\n")
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands

def _option_in(key, value):
    if key in ("X", "Y"):
        return _mats_in(value, f"option {key}")
    if key == "h" or (key == "z" and not isinstance(value, list)):
        if type(value) is int or (key == "z" and value is None):
            return value
        raise SchemaError(f"option {key} must be an integer, got {value!r}")
    return _ints_in(value, f"option {key}")


def _structured_build(re, kind, options):
    row = STRUCTURED_KINDS.get(kind)
    if row is None:
        raise SchemaError(f"unknown structured kind {kind!r}")
    _check_keys(options, _COMMON_OPTIONS.union(row.options),
                f"options of structured:{kind}")
    kw = {k: _option_in(k, v) for k, v in options.items() if k in row.options}
    # looked up at call time, so a patched module attribute is the one run
    build = getattr(structured, kind.replace("-", "_") + "_linearization")
    return build(re, _option_in("h", options.get("h", 0)), **kw)


def cmd_build(args):
    re, recipe_obj, options = _parse_problem(args.problem)
    if args.recipe:
        recipe_obj = _load_json(args.recipe, "recipe file")
    kind = args.kind
    if kind == "fp":
        if recipe_obj is None or "sigma" not in recipe_obj:
            raise SchemaError("fp build needs a recipe with 'sigma'")
        L = fiedler_pencil(_ints_in(recipe_obj["sigma"], "recipe sigma"), re)
    elif kind == "gfp":
        omega0 = options.get("omega0") or (recipe_obj or {}).get("omega0")
        omega1 = options.get("omega1") or (recipe_obj or {}).get("omega1")
        if omega0 is None or omega1 is None:
            raise SchemaError("gfp build needs omega0 and omega1")
        L = gf_pencil(_ints_in(omega0, "omega0"), _ints_in(omega1, "omega1"), re)
    elif kind == "gfpr":
        if recipe_obj is None:
            raise SchemaError("gfpr build needs a recipe")
        L = gfpr(_parse_recipe(recipe_obj), re)
    elif kind.startswith("structured:"):
        skind = kind.split(":", 1)[1]
        if args.h is not None:
            options = dict(options, h=args.h)
        L = _structured_build(re, skind, options)
    else:
        raise SchemaError(f"unknown build kind {kind!r}")
    _emit(_pencil_out(L), args)
    return 0


def cmd_structured(args):
    re, _, options = _parse_problem(args.spec)
    if args.h is not None:
        options = dict(options, h=args.h)
    L = _structured_build(re, args.kind, options)
    out = _pencil_out(L)
    row = STRUCTURED_KINDS[args.kind]
    rep = structure_check(row.target_coeffs(L), row.tag)
    out["structure_report"] = {"tag": rep.tag, "ok": bool(rep),
                               "deviation": rep.deviation}
    _emit(out, args)
    return 0


def cmd_verify(args):
    re, _, options = _parse_problem(args.problem)
    tol = args.tol if args.tol is not None else float(options.get("tol", 1e-8))
    L = _parse_pencil(_load_json(args.pencil, "pencil file"))
    S = system_matrix(re)
    checks = []

    def check(name, fn):
        try:
            detail = fn()
            checks.append({"name": name, "ok": True, "detail": detail})
        except (VerificationFailure, AssertionError) as exc:
            checks.append({"name": name, "ok": False, "detail": str(exc)})

    def _prop():
        rep = det_proportionality(L, S, tol=tol)
        return {"constant": _entry_out(rep.constant),
                "deviation": rep.deviation}

    check("det-proportionality", _prop)

    def _eig_match():
        eigs = eig_multiset(pencil_eigenvalues(L.X, L.Y))  # the one QZ of L
        worst = max(backward_errors(S, eigs), default=0.0)
        if worst > max(1e-6, tol):
            raise VerificationFailure(
                f"a pencil eigenvalue misses the system matrix: "
                f"backward error {worst:.3e}")
        return {"max_backward_error": worst, "count": len(eigs)}

    check("eigenvalue-residual", _eig_match)

    def _inf():
        rep = infinity_structure(L, S)
        if not rep.consistent:
            raise VerificationFailure("infinity structure inconsistent")
        return {"inf_count": rep.inf_count,
                "multiplicities": list(rep.multiplicities)}

    check("infinity-structure", _inf)

    ok = all(c["ok"] for c in checks)
    _emit({"ok": ok, "checks": checks}, args)
    return 0 if ok else EXIT_CHECK


def cmd_recover(args):
    L = _parse_pencil(_load_json(args.pencil, "pencil file"))
    recipe = _parse_recipe(_load_json(args.recipe, "recipe file"))
    if recipe.m != L.m:
        raise SchemaError(f"recipe degree {recipe.m} != pencil m = {L.m}")
    blocks = (L.col_block, L.row_block)
    if None not in blocks and recipe.border() != blocks:
        raise SchemaError(f"recipe borders (col_block, row_block) = {recipe.border()} "
                          f"!= the pencil's {blocks}")
    basis = _load_json(args.basis, "basis file")
    _check_keys(basis, {"data", "kind", "side", "degrees"}, "basis")
    if "data" not in basis:
        raise SchemaError("basis is missing 'data'")
    data = _mat_in(basis["data"], "basis data")
    if data.shape[0] != L.X.shape[0]:
        raise SchemaError(f"basis data has {data.shape[0]} rows, not N = {L.X.shape[0]}")
    side = basis.get("side", args.side)
    if side != args.side:
        raise SchemaError(f"basis side {side!r} is not --side {args.side}")
    degrees = basis.get("degrees")
    degrees = None if degrees is None else _ints_in(degrees, "basis degrees")
    bundle = VectorBundle(data=data, kind=basis.get("kind", "eigenvector-basis"),
                          side=side, degrees=degrees or None, split=(L.m * L.n, L.r))
    s_level = recover_from_gfpr(bundle, recipe, side=args.side)
    g_level = recover_s_to_g(s_level)
    _emit({"system": _mat_out(s_level.eval(0)),
           "g": _mat_out(g_level.eval(0)),
           "side": args.side}, args)
    return 0


def cmd_eig(args):
    L = _parse_pencil(_load_json(args.pencil, "pencil file"))
    pairs = pencil_eigenvalues(L.X, L.Y)
    _emit({"eigenvalues": [{"value": _entry_out(z), "multiplicity": k}
                           for z, k in pairs]}, args)
    return 0


def cmd_cm_index(args):
    re, _, _ = _parse_problem(args.problem)
    idx = cauchy_maslov_index(re)
    _emit({"cauchy_maslov_index": idx}, args)
    return 0


# ---------------------------------------------------------------------------

def _common(sp):
    sp.add_argument("--out", help="write JSON here instead of stdout")
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="pretty", action="store_false",
                     default=False, help="compact JSON (default)")
    fmt.add_argument("--pretty", dest="pretty", action="store_true")


@functools.cache
def build_parser():
    ap = argparse.ArgumentParser(prog="rosepencil")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build", help="construct a pencil from a problem file")
    sp.add_argument("--kind", required=True,
                    help="fp | gfp | gfpr | structured:<kind>")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--recipe")
    sp.add_argument("--h", type=int, default=None)
    _common(sp)

    sp = sub.add_parser("structured", help="structured linearization")
    sp.add_argument("--kind", required=True, choices=tuple(STRUCTURED_KINDS))
    sp.add_argument("--h", type=int, default=None)
    sp.add_argument("--spec", required=True)
    _common(sp)

    sp = sub.add_parser("verify", help="verification suite on a pencil")
    sp.add_argument("--problem", required=True)
    sp.add_argument("--pencil", required=True)
    sp.add_argument("--tol", type=float, default=None)
    _common(sp)

    sp = sub.add_parser("recover", help="system/G-level vectors from a bundle")
    sp.add_argument("--pencil", required=True)
    sp.add_argument("--basis", required=True)
    sp.add_argument("--recipe", required=True)
    sp.add_argument("--side", choices=("right", "left"), default="right")
    _common(sp)

    sp = sub.add_parser("eig", help="eigenvalues of a pencil")
    sp.add_argument("--pencil", required=True)
    _common(sp)

    sp = sub.add_parser("cm-index", help="Cauchy-Maslov index")
    sp.add_argument("--problem", required=True)
    _common(sp)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up at call time, so a patched module attribute is the one run
    fn = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        code = fn(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        code = EXIT_SCHEMA
    except RecipeError as exc:
        print(f"recipe error: {exc}", file=sys.stderr)
        code = EXIT_RECIPE
    except StructuralViolation as exc:
        print(f"structural violation: {exc}", file=sys.stderr)
        code = EXIT_STRUCTURAL
    except (np.linalg.LinAlgError, RecoveryDiagnostic,
            VerificationFailure) as exc:
        # verify reports its failed checks itself and exits 6; an oracle
        # failing anywhere else (eig on a singular pencil) is numeric
        print(f"numeric failure: {exc}", file=sys.stderr)
        code = EXIT_NUMERIC
    sys.exit(code)


if __name__ == "__main__":
    main()
