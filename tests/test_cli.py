import json
import os

import numpy as np
import pytest

from rosepencil import structured
from rosepencil.cli import _OPTIONS, _pencil_out, _parse_pencil, _parse_problem, \
    build_parser, main
from rosepencil.pencils import GfprRecipe, fiedler_pencil, gfpr
from rosepencil.polymat import MatrixPolynomial
from rosepencil.realize import STRUCTURED_KINDS, StructuralViolation, \
    make_structured_realization
from rosepencil.recover import eigenvector_bundle
from rosepencil.verify import pencil_eigenvalues
from conftest import gaussian_skew_symmetric_realization, make_realization


def run(capsys, *argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    out = capsys.readouterr().out
    return e.value.code, out


def _dump(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def sym_problem(tmp_path):
    return _dump(tmp_path, "prob.json", {
        "realization": {
            "kind": "symmetric",
            "P": [[[0, 2], [2, 6]], [[-6, 0], [0, 6]],
                  [[-4, 2], [2, -2]], [[-4, 0], [0, -2]]],
            "A": [[2, -3], [-3, -6]], "B": [[3, 2], [2, 0]],
            "E": [[2, 1], [1, 3]]},
        "options": {"h": 0, "t_vh": [-3]}})


@pytest.fixture
def gen_problem(tmp_path):
    return _dump(tmp_path, "gen.json", {
        "realization": {
            "kind": "general",
            "P": [[[2, -1], [0, 2]], [[-3, -1], [-3, 0]],
                  [[3, -3], [-1, -1]], [[3, -2], [0, -2]],
                  [[-3, 2], [-3, -2]]],
            "C": [[0, 0], [-3, 3]], "E": [[1, 0], [0, 1]],
            "A": [[2, 3], [-3, 2]], "B": [[-1, 0], [3, -2]]},
        "recipe": {"m": 4, "sigma": [1, 2, 3, 0], "tau": [-4],
                   "sigma2": [2, 1]}})


def test_build_structured(capsys, tmp_path, sym_problem):
    code, out = run(capsys, "build", "--kind", "structured:symmetric",
                    "--problem", sym_problem)
    assert code == 0
    doc = json.loads(out)
    assert {"X", "Y", "m", "n", "r"} <= set(doc)
    assert doc["m"] == 3 and doc["n"] == 2 and doc["r"] == 2


def test_build_gfpr_and_verify_roundtrip(capsys, tmp_path, gen_problem):
    pencil = str(tmp_path / "pencil.json")
    code, _ = run(capsys, "build", "--kind", "gfpr",
                  "--problem", gen_problem, "--out", pencil)
    assert code == 0
    code, out = run(capsys, "verify", "--problem", gen_problem,
                    "--pencil", pencil)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and all(c["ok"] for c in doc["checks"])


def _verify_corrupted(capsys, tmp_path, problem, corrupt):
    """Exit code and failed check names of verify on a built GFPR pencil
    whose X[0][0] entry is corrupted."""
    pencil = str(tmp_path / "pencil.json")
    run(capsys, "build", "--kind", "gfpr", "--problem", problem,
        "--out", pencil)
    doc = json.loads((tmp_path / "pencil.json").read_text())
    doc["X"][0][0] = corrupt(doc["X"][0][0])
    bad = _dump(tmp_path, "bad_pencil.json", doc)
    code, out = run(capsys, "verify", "--problem", problem, "--pencil", bad)
    report = json.loads(out)
    assert report["ok"] == (code == 0)
    return code, {c["name"] for c in report["checks"] if not c["ok"]}


def test_verify_detects_corruption(capsys, tmp_path, gen_problem):
    code, failed = _verify_corrupted(capsys, tmp_path, gen_problem,
                                     lambda v: 99.0)
    assert code == 6
    assert "det-proportionality" in failed


def test_verify_detects_small_corruption(capsys, tmp_path, gen_problem):
    # X[0][0] += 1e-6 moves the determinant ratio by ~1e-7, above 1e-8
    code, failed = _verify_corrupted(capsys, tmp_path, gen_problem,
                                     lambda v: v + 1e-6)
    assert code == 6
    assert "det-proportionality" in failed


def _realization_json(re):
    return {"kind": re.structure,
            "P": [re.P.coeff(j).real.tolist() for j in range(re.m + 1)],
            "A": re.A.real.tolist(), "B": re.B.real.tolist(),
            "E": re.E.real.tolist()}


def test_verify_large_fiedler_pencil(capsys, tmp_path, rng):
    # N = 66: every check passes, the infinity count included
    re = make_realization("general", rng, m=8, n=7, r=10, ns_top=True)
    L = fiedler_pencil(tuple(rng.permutation(8)), re)
    real = {"kind": "general",
            "P": [re.P.coeff(j).real.tolist() for j in range(9)],
            "C": re.C.real.tolist(), "E": re.E.real.tolist(),
            "A": re.A.real.tolist(), "B": re.B.real.tolist()}
    problem = _dump(tmp_path, "problem.json", {"realization": real})
    pencil = _dump(tmp_path, "pencil.json", _pencil_out(L))
    code, out = run(capsys, "verify", "--problem", problem, "--pencil", pencil)
    assert code == 0
    checks = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}
    assert checks["infinity-structure"]["inf_count"] == 0
    assert checks["det-proportionality"]["deviation"] <= 1e-10


def test_verify_skew_symmetric_large_eigenvalue(capsys, tmp_path):
    # an eigenvalue near 93 with ||A_9|| ~ 0.01: judged by its backward
    # error, not by sigma_min / sigma_max of S(z), it is exact
    re = gaussian_skew_symmetric_realization(32009, 9, 2, 2)
    problem = _dump(tmp_path, "problem.json",
                    {"realization": _realization_json(re), "options": {"h": 0}})
    pencil = str(tmp_path / "pencil.json")
    code, _ = run(capsys, "build", "--kind", "structured:skew-symmetric",
                  "--problem", problem, "--out", pencil)
    assert code == 0
    code, out = run(capsys, "verify", "--problem", problem, "--pencil", pencil)
    assert code == 0
    checks = {c["name"]: c["detail"] for c in json.loads(out)["checks"]}
    assert checks["eigenvalue-residual"]["max_backward_error"] <= 1e-12
    assert checks["eigenvalue-residual"]["count"] == 20


@pytest.mark.parametrize("argv", [
    ["eig", "--pencil", "p.json", "--tol", "1e-6"],
    ["build", "--kind", "fp", "--problem", "p.json", "--seed", "3"],
    ["eig", "--pencil", "p.json", "--paranoid"],
    ["verify", "--problem", "p.json", "--pencil", "p.json", "--paranoid"],
    ["cm-index", "--problem", "p.json", "--delta", "1"],
    ["cm-index", "--problem", "p.json", "--bound", "1"],
])
def test_flags_scoped_to_their_subcommands(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_structured_subcommand(capsys, tmp_path, sym_problem):
    pencil = str(tmp_path / "pencil.json")
    code, _ = run(capsys, "structured", "--kind", "symmetric",
                  "--h", "0", "--spec", sym_problem, "--out", pencil)
    assert code == 0
    rep = json.loads((tmp_path / "pencil.json").read_text())["structure_report"]
    assert rep["ok"] and rep["tag"] == "symmetric"
    assert rep["deviation"] == 0.0
    # its output is a pencil file: verify reads it back
    code, out = run(capsys, "verify", "--problem", sym_problem, "--pencil", pencil)
    assert code == 0 and json.loads(out)["ok"] is True


def _raw_json(kind, re):
    """CLI realization of a structured kind: the stored A and E are valid
    raw data too, and the kinds that fix E omit it."""
    real = _realization_json(re)
    if STRUCTURED_KINDS[kind].e_rule == "I":
        del real["E"]
    return real


@pytest.mark.parametrize("kind", list(STRUCTURED_KINDS))
def test_structured_report_on_every_kind(capsys, tmp_path, rng, kind):
    # the two Hamiltonian kinds are judged through diag(I_mn, J) L
    real = _raw_json(kind, make_realization(kind, rng))
    spec = _dump(tmp_path, "spec.json", {"realization": real})
    code, out = run(capsys, "structured", "--kind", kind, "--h", "0",
                    "--spec", spec)
    assert code == 0
    rep = json.loads(out)["structure_report"]
    assert rep["ok"] and rep["deviation"] == 0.0


@pytest.mark.parametrize("kind,E", [("hamiltonian", 5 * np.eye(2)),
                                    ("skew-hamiltonian", -np.eye(2))])
def test_hamiltonian_kinds_refuse_e(capsys, tmp_path, rng, kind, E):
    real = _realization_json(make_realization(kind, rng))
    real["E"] = E.tolist()
    problem = _dump(tmp_path, "prob.json", {"realization": real})
    with pytest.raises(SystemExit) as e:
        main(["build", "--kind", "structured:" + kind, "--problem", problem])
    assert e.value.code == 4
    assert "has E = I" in capsys.readouterr().err


@pytest.mark.parametrize("kind,real", [
    ("t-even", {"P": [[[1]], [[0]], [[1]]], "A": [[1, 0], [0, 1]],
                "B": [[1], [1]]}),
    ("skew-symmetric", {"P": [[[0, 1], [-1, 0]], [[0, 2], [-2, 0]]],
                        "A": [[0, 1], [-1, 0]], "B": [[1, 0], [0, 1]]}),
])
def test_missing_e_is_a_schema_error(capsys, tmp_path, kind, real):
    problem = _dump(tmp_path, "prob.json",
                    {"realization": dict(real, kind=kind)})
    with pytest.raises(SystemExit) as e:
        main(["build", "--kind", "structured:" + kind, "--problem", problem])
    assert e.value.code == 2
    assert f"{kind} realization needs E" in capsys.readouterr().err


def test_structured_kind_choices_are_the_table():
    import argparse
    sub, = [a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    kind, = [a for a in sub.choices["structured"]._actions
             if a.dest == "kind"]
    assert tuple(kind.choices) == tuple(STRUCTURED_KINDS)


# one valid value of every linearization option at m = 7, h = 2; each
# changes the pencil (z is not the default tuple, and is given as z, not
# z + m)
_OPTION_VALUES = {"h": 2, "z": [-4, -3, -7, -6, -5], "t_w": [0], "t_z": [-5],
                  "t_wh": [0], "t_vh": [-7],
                  "X": [[[2, 1], [1, 3]]], "Y": [[[1, -1], [-1, 4]]]}


def _library_realization(real):
    def mat(M):
        return np.array(M, dtype=complex)
    return make_structured_realization(
        real["kind"], MatrixPolynomial([mat(c) for c in real["P"]]),
        mat(real["A"]), mat(real["B"]),
        E=mat(real["E"]) if "E" in real else None)


@pytest.mark.parametrize("kind", list(STRUCTURED_KINDS))
def test_build_with_every_option_matches_the_library(capsys, tmp_path, rng,
                                                     kind):
    row = STRUCTURED_KINDS[kind]
    re = make_realization(kind, rng, m=7, ns_top=True)
    while abs(np.linalg.det(re.P.coeff(0))) < 0.5:  # 0 in t_w needs it
        re = make_realization(kind, rng, m=7, ns_top=True)
    real = _raw_json(kind, re)
    options = {k: _OPTION_VALUES[k] for k in ("h",) + row.options}
    problem = _dump(tmp_path, "prob.json",
                    {"realization": real, "options": options})
    code, out = run(capsys, "build", "--kind", "structured:" + kind,
                    "--problem", problem)
    assert code == 0
    got = _parse_pencil(json.loads(out))
    kw = {k: tuple(np.array(v, dtype=complex) if k in "XY" else v
                   for v in options[k]) for k in row.options}
    build = getattr(structured, kind.replace("-", "_") + "_linearization")
    want = build(_library_realization(real), 2, **kw)
    assert np.array_equal(got.X, want.X) and np.array_equal(got.Y, want.Y)
    assert (got.col_block, got.row_block) == (want.col_block, want.row_block)


@pytest.mark.parametrize("kind,key", [
    (kind, key) for kind, row in STRUCTURED_KINDS.items()
    for key in sorted(_OPTIONS - {"tol", "seed", "h"} - set(row.options))])
def test_structured_build_refuses_a_foreign_option(capsys, tmp_path, rng,
                                                   kind, key):
    real = _raw_json(kind, make_realization(kind, rng))
    problem = _dump(tmp_path, "prob.json",
                    {"realization": real, "options": {"h": 0, key: [0]}})
    with pytest.raises(SystemExit) as e:
        main(["build", "--kind", "structured:" + kind, "--problem", problem])
    assert e.value.code == 2
    assert capsys.readouterr().err == (
        f"schema error: unknown keys in options of structured:{kind}: "
        f"['{key}']\n")


def _refusals():
    """(kind, rule) for every rule of every table row."""
    for kind, row in STRUCTURED_KINDS.items():
        yield kind, "P"
        yield kind, "A"
        yield kind, "E"
        if row.e_rule == "skew-symmetric":
            yield kind, "no E"
        if row.twisted:
            yield kind, "odd r"


@pytest.mark.parametrize("kind,rule", list(_refusals()))
def test_each_realization_rule_refuses(capsys, tmp_path, rng, kind, rule):
    row = STRUCTURED_KINDS[kind]
    real = _raw_json(kind, make_realization(kind, rng))
    want = (StructuralViolation, 4)
    if rule == "P":
        real["P"][0][0][1] += 1
        message = f"P not {row.tag}"
    elif rule == "A":
        # J (A + J^T e_12) = J A + e_12 when twisted
        real["A"][1 if row.twisted else 0][1] += 1
        message = f"{'J A' if row.twisted else 'A'} not {row.a_rule}"
    elif rule == "E" and row.e_rule == "I":
        real["E"] = (5 * np.eye(2)).tolist()
        message = f"{kind} realization has E = I"
    elif rule == "E":
        real["E"][0][1] += 1
        message = f"E not {row.e_rule}"
    elif rule == "no E":
        del real["E"]
        want, message = (ValueError, 2), f"{kind} realization needs E"
    else:
        real["A"], real["B"] = np.zeros((3, 3)).tolist(), np.ones((3, 2)).tolist()
        message = f"{kind} realization needs even r"
    with pytest.raises(want[0], match=message) as exc:
        _library_realization(real)
    assert exc.type is want[0]
    problem = _dump(tmp_path, "prob.json", {"realization": real})
    with pytest.raises(SystemExit) as e:
        main(["build", "--kind", "structured:" + kind, "--problem", problem])
    assert e.value.code == want[1]
    assert message in capsys.readouterr().err


def test_eig_on_a_singular_pencil_is_a_numeric_failure(capsys, tmp_path):
    # X + lam Y = diag(1 + lam, 0): det vanishes identically
    D = [[1, 0], [0, 0]]
    pencil = _dump(tmp_path, "pencil.json",
                   {"X": D, "Y": D, "m": 1, "n": 2, "r": 0})
    with pytest.raises(SystemExit) as e:
        main(["eig", "--pencil", pencil])
    assert e.value.code == 5
    assert capsys.readouterr().err.startswith(
        "numeric failure: singular pencil")


_T_EVEN_1X1 = {"kind": "t-even", "P": [[[1]], [[0]], [[1]]],
               "A": [[1, 0], [0, 1]], "B": [[1], [1]], "E": [[0, 1], [-1, 0]]}
_GEN_1X1 = {"kind": "general", "P": [[[1]], [[1]]], "C": [[1]], "A": [[1]],
            "B": [[1]]}
_RECIPE = {"m": 1, "sigma": [0], "tau": [-1]}


@pytest.mark.parametrize("kind, realization, options, recipe", [
    ("structured:t-even", _T_EVEN_1X1, {"h": "x"}, None),
    ("structured:t-even", _T_EVEN_1X1, {"h": [1]}, None),
    ("structured:t-even", _T_EVEN_1X1, {"z": 5.5}, None),
    ("structured:t-even", _T_EVEN_1X1, {"z": [[1]]}, None),
    ("gfpr", _GEN_1X1, {}, dict(_RECIPE, sigma=5)),
    ("gfpr", _GEN_1X1, {}, dict(_RECIPE, m="2")),
    ("gfpr", _GEN_1X1, {}, dict(_RECIPE, sigma=[[0], 1])),
    ("gfpr", _GEN_1X1, {}, dict(_RECIPE, X1=3)),
    ("fp", _GEN_1X1, {}, {"sigma": 1}),
], ids=["h-str", "h-list", "z-float", "z-nested", "sigma-int", "m-str",
        "sigma-nested", "X1-int", "fp-sigma-int"])
def test_bad_option_or_recipe_value_is_schema_error(capsys, tmp_path, kind,
                                                    realization, options,
                                                    recipe):
    doc = {"realization": realization, "options": options}
    if recipe is not None:
        doc["recipe"] = recipe
    code, out = run(capsys, "build", "--kind", kind,
                    "--problem", _dump(tmp_path, "prob.json", doc))
    assert code == 2 and out == ""


_PENCIL_1X1 = {"X": [[1, 1], [1, 1]], "Y": [[1, 0], [0, -1]], "m": 1, "n": 1,
               "r": 1, "col_block": 1, "row_block": 1}


@pytest.mark.parametrize("command, problem_options, pencil", [
    ("verify", {"tol": "x"}, _PENCIL_1X1),
    ("verify", {"tol": [1e-8]}, _PENCIL_1X1),
    ("verify", {"tol": True}, _PENCIL_1X1),
    ("eig", None, dict(_PENCIL_1X1, quasi_identity=3)),
    ("eig", None, dict(_PENCIL_1X1, quasi_identity=[1.5])),
    ("eig", None, dict(_PENCIL_1X1, m="1")),
    ("eig", None, dict(_PENCIL_1X1, n=1.0)),
    ("eig", None, dict(_PENCIL_1X1, r=True)),
    ("eig", None, dict(_PENCIL_1X1, col_block="1")),
    ("eig", None, dict(_PENCIL_1X1, row_block=1.5)),
], ids=["tol-str", "tol-list", "tol-bool", "qi-int", "qi-float", "m-str",
        "n-float", "r-bool", "col-block-str", "row-block-float"])
def test_bad_pencil_or_tol_value_is_schema_error(capsys, tmp_path, command,
                                                 problem_options, pencil):
    argv = [command, "--pencil", _dump(tmp_path, "pencil.json", pencil)]
    if command == "verify":
        argv += ["--problem", _dump(tmp_path, "prob.json", {
            "realization": _GEN_1X1, "options": problem_options})]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert capsys.readouterr().err.startswith("schema error: ")


def test_missing_or_null_border_blocks_are_accepted(capsys, tmp_path):
    bare = {k: v for k, v in _PENCIL_1X1.items() if not k.endswith("_block")}
    for pencil in (bare, dict(bare, col_block=None, row_block=None)):
        code, out = run(capsys, "eig", "--pencil",
                        _dump(tmp_path, "pencil.json", pencil))
        # det(X + lam Y) = -lam^2
        assert code == 0
        assert json.loads(out)["eigenvalues"] == [{"value": 0.0,
                                                   "multiplicity": 2}]


def test_wrong_shape_assignment_is_recipe_error(capsys, tmp_path):
    # a valid decorated recipe whose X1 is 2 x 2 while n = 1
    problem = _dump(tmp_path, "prob.json", {
        "realization": {"kind": "general", "P": [[[1]], [[2]], [[1]]],
                        "C": [[1]], "A": [[1]], "B": [[1]]},
        "recipe": {"m": 2, "sigma": [1, 0], "tau": [-2], "sigma1": [0],
                   "X1": [[[1, 0], [0, 1]]]}})
    with pytest.raises(SystemExit) as e:
        main(["build", "--kind", "gfpr", "--problem", problem])
    assert e.value.code == 3
    assert capsys.readouterr().err.startswith("recipe error: assignment of shape")


def test_odd_h_exit_code(capsys, sym_problem):
    code, _ = run(capsys, "structured", "--kind", "symmetric",
                  "--h", "1", "--spec", sym_problem)
    assert code == 4


def test_schema_error_exit_code(capsys, tmp_path):
    bad = _dump(tmp_path, "bad.json", {"realization": {"kind": "general"},
                                       "bogus_key": 1})
    code, _ = run(capsys, "build", "--kind", "fp", "--problem", bad)
    assert code == 2


def test_e_with_an_underflowing_determinant_builds(capsys, tmp_path):
    # det(0.01 I_200) underflows to 0, yet E is perfectly conditioned
    r = 200
    prob = _dump(tmp_path, "prob.json", {
        "realization": {"kind": "general", "P": [[[1]], [[2]], [[1]]],
                        "C": [[1] * r], "E": (0.01 * np.eye(r)).tolist(),
                        "A": np.eye(r).tolist(), "B": [[1]] * r},
        "recipe": {"sigma": [1, 0]}})
    code, out = run(capsys, "build", "--kind", "fp", "--problem", prob)
    assert code == 0
    assert json.loads(out)["r"] == r


def test_missing_file_is_schema_error(capsys, tmp_path):
    code, _ = run(capsys, "build", "--kind", "fp",
                  "--problem", str(tmp_path / "nope.json"))
    assert code == 2


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_out_is_schema_error(capsys, tmp_path, gen_problem, where):
    out = tmp_path / "nope" / "pencil.json" if where == "missing-dir" else tmp_path
    with pytest.raises(SystemExit) as e:
        main(["build", "--kind", "gfpr", "--problem", gen_problem,
              "--out", str(out)])
    assert e.value.code == 2
    assert f"cannot write {out}" in capsys.readouterr().err


def _eig_out(capsys, tmp_path, gen_problem):
    """A built pencil's path and the compact stdout of eig on it."""
    pencil = str(tmp_path / "pencil.json")
    run(capsys, "build", "--kind", "gfpr", "--problem", gen_problem,
        "--out", pencil)
    code, compact = run(capsys, "eig", "--pencil", pencil)
    assert code == 0
    return pencil, compact


def test_out_rewrite_cuts_the_file_to_the_new_text(capsys, tmp_path,
                                                   gen_problem):
    pencil, compact = _eig_out(capsys, tmp_path, gen_problem)
    out = tmp_path / "eig.json"
    run(capsys, "eig", "--pencil", pencil, "--pretty", "--out", str(out))
    assert out.stat().st_size > len(compact)
    code, _ = run(capsys, "eig", "--pencil", pencil, "--out", str(out))
    assert code == 0
    assert out.read_text() == compact


def test_out_is_never_opened_with_o_trunc(capsys, tmp_path, gen_problem,
                                          monkeypatch):
    pencil, _ = _eig_out(capsys, tmp_path, gen_problem)
    out = str(tmp_path / "eig.json")
    flags = []
    real_open = os.open

    def spy(path, flag, *rest, **kw):
        if str(path) == out:
            flags.append(flag)
        return real_open(path, flag, *rest, **kw)

    monkeypatch.setattr(os, "open", spy)
    for _ in range(2):  # create, then rewrite
        code, _ = run(capsys, "eig", "--pencil", pencil, "--out", out)
        assert code == 0
    assert len(flags) == 2
    assert not any(f & os.O_TRUNC for f in flags)


@pytest.mark.parametrize("target", ["devnull", "pipe"])
def test_out_to_a_file_that_is_not_regular(capsys, tmp_path, gen_problem,
                                           target):
    pencil, compact = _eig_out(capsys, tmp_path, gen_problem)
    if target == "devnull":
        code, _ = run(capsys, "eig", "--pencil", pencil, "--out", os.devnull)
        assert code == 0
        return
    r, w = os.pipe()
    try:
        code, _ = run(capsys, "eig", "--pencil", pencil,
                      "--out", f"/dev/fd/{w}")
        os.close(w)
        w = None
        assert code == 0
        with os.fdopen(r) as fh:
            r = None
            assert fh.read() == compact
    finally:
        for fd in (r, w):
            if fd is not None:
                os.close(fd)


def test_out_writes_through_a_symlink_and_keeps_the_inode(capsys, tmp_path,
                                                          gen_problem):
    pencil, compact = _eig_out(capsys, tmp_path, gen_problem)
    target = tmp_path / "target.json"
    target.write_text("x" * 10 * len(compact))
    target.chmod(0o600)
    ino = target.stat().st_ino
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _ = run(capsys, "eig", "--pencil", pencil, "--out", str(link))
    assert code == 0
    assert link.is_symlink()
    assert target.stat().st_ino == ino
    assert target.stat().st_mode & 0o777 == 0o600
    assert target.read_text() == compact


def test_recipe_error_exit_code(capsys, tmp_path, gen_problem):
    bad = _dump(tmp_path, "badrecipe.json",
                {"m": 4, "sigma": [1, 2, 3, 0], "tau": [-4],
                 "sigma2": [0, 0]})
    code, _ = run(capsys, "build", "--kind", "gfpr",
                  "--problem", gen_problem, "--recipe", bad)
    assert code == 3


def test_eig_and_recover(capsys, tmp_path, gen_problem):
    pencil = str(tmp_path / "pencil.json")
    run(capsys, "build", "--kind", "gfpr", "--problem", gen_problem,
        "--out", pencil)
    code, out = run(capsys, "eig", "--pencil", pencil)
    assert code == 0
    eigs = json.loads(out)["eigenvalues"]
    assert eigs

    # nullspace basis at the first simple eigenvalue
    from rosepencil.cli import _parse_pencil
    from rosepencil.recover import eigenvector_bundle
    L = _parse_pencil(json.loads((tmp_path / "pencil.json").read_text()))
    lam = complex(str(eigs[0]["value"]))
    bun = eigenvector_bundle(L, lam, tol=1e-6)
    basis = _dump(tmp_path, "basis.json", {
        "data": [[repr(complex(v)).strip("()") for v in row]
                 for row in bun.eval(0)],
        "kind": "eigenvector-basis", "side": "right"})
    recipe = _dump(tmp_path, "recipe.json",
                   {"m": 4, "sigma": [1, 2, 3, 0], "tau": [-4],
                    "sigma2": [2, 1]})
    code, out = run(capsys, "recover", "--pencil", pencil, "--basis", basis,
                    "--recipe", recipe)
    assert code == 0
    doc = json.loads(out)
    assert "system" in doc and "g" in doc


@pytest.mark.parametrize("change", [{"n": 3}, {"r": 5}, {"m": 0}, {"n": -1},
                                    {"m": 3}, {"m": 3, "r": 4},
                                    {"col_block": 5}, {"row_block": 0}],
                         ids=["n3", "r5", "m0", "n-1", "m3", "m3-r4",
                              "col-block-5", "row-block-0"])
def test_recover_refuses_inconsistent_sizes(capsys, tmp_path, gen_problem,
                                            change):
    """Sizes that disagree with X (N = mn + r), sizes out of range, border
    blocks outside 1..m, and a pencil m other than the recipe's m = 4 are
    schema errors."""
    pencil = str(tmp_path / "pencil.json")
    run(capsys, "build", "--kind", "gfpr", "--problem", gen_problem,
        "--out", pencil)
    doc = json.loads((tmp_path / "pencil.json").read_text())
    L = _parse_pencil(doc)
    lam = pencil_eigenvalues(L.X, L.Y)[0][0]
    basis = _dump(tmp_path, "basis.json", {"data": [
        [repr(complex(v)).strip("()") for v in row]
        for row in eigenvector_bundle(L, lam, tol=1e-6).eval(0)]})
    recipe = _dump(tmp_path, "recipe.json", json.loads(
        (tmp_path / "gen.json").read_text())["recipe"])
    code, _ = run(capsys, "recover", "--pencil", pencil, "--basis", basis,
                  "--recipe", recipe)
    assert code == 0
    bad = _dump(tmp_path, "bad.json", dict(doc, **change))
    with pytest.raises(SystemExit) as e:
        main(["recover", "--pencil", bad, "--basis", basis, "--recipe", recipe])
    assert e.value.code == 2
    assert capsys.readouterr().err.startswith("schema error: ")


@pytest.mark.parametrize("change", [
    lambda b: {k: v for k, v in b.items() if k != "data"},
    lambda b: dict(b, side="up"),
    lambda b: dict(b, side="left"),
    lambda b: dict(b, data=b["data"][:-1]),
    lambda b: dict(b, degrees=3),
    lambda b: dict(b, degrees=[1.5]),
], ids=["no-data", "side-up", "side-left", "rows", "degrees-int", "degrees-float"])
def test_recover_refuses_a_malformed_basis(capsys, tmp_path, rng, change):
    """A basis file without data, with a side other than --side, with a row
    count other than N or with degrees that are not a list of integers is
    a schema error (GFPR pencil, m = 3, n = r = 2)."""
    re = make_realization("general", rng, m=3, ns_top=True)
    L = gfpr(GfprRecipe(m=3, sigma=(1, 2, 0), tau=(-3,)), re)
    lam = pencil_eigenvalues(L.X, L.Y)[0][0]
    good = {"data": [[repr(complex(v)).strip("()") for v in row]
                     for row in eigenvector_bundle(L, lam, tol=1e-6).eval(0)],
            "side": "right", "degrees": [0]}
    pencil = _dump(tmp_path, "pencil.json", _pencil_out(L))
    recipe = _dump(tmp_path, "recipe.json", {"m": 3, "sigma": [1, 2, 0], "tau": [-3]})
    argv = ["recover", "--pencil", pencil, "--recipe", recipe, "--basis"]
    code, _ = run(capsys, *argv, _dump(tmp_path, "good.json", good))
    assert code == 0
    with pytest.raises(SystemExit) as e:
        main([*argv, _dump(tmp_path, "bad.json", change(good))])
    out, err = capsys.readouterr()
    assert (e.value.code, out) == (2, "")
    assert err.startswith("schema error: basis")


@pytest.mark.parametrize("sigma, border", [((1, 0, 2), (2, 3)), ((2, 1, 0), (1, 3))])
def test_recover_refuses_a_recipe_whose_borders_differ(capsys, tmp_path, sigma,
                                                       border):
    """recover selects the rows of the recipe's border blocks, so a recipe
    whose borders are not the pencil's col_block and row_block would give
    a vector that is no eigenvector of G: a schema error naming both pairs
    (GFPR of sigma = (0, 1, 2), tau = (-3,), borders (3, 1); m = 3,
    n = r = 2)."""
    g = np.random.default_rng(3).normal
    m, n, r = 3, 2, 2
    real = {"kind": "general", "P": [g(size=(n, n)).tolist() for _ in range(m + 1)],
            "C": g(size=(n, r)).tolist(), "A": g(size=(r, r)).tolist(),
            "B": g(size=(r, n)).tolist(), "E": np.eye(r).tolist()}
    problem = _dump(tmp_path, "prob.json", {
        "realization": real, "recipe": {"m": m, "sigma": [0, 1, 2], "tau": [-3]}})
    pencil = str(tmp_path / "pencil.json")
    assert run(capsys, "build", "--kind", "gfpr", "--problem", problem,
               "--out", pencil)[0] == 0
    L = _parse_pencil(json.loads((tmp_path / "pencil.json").read_text()))
    assert (L.col_block, L.row_block) == (3, 1)
    lam = pencil_eigenvalues(L.X, L.Y)[0][0]
    basis = _dump(tmp_path, "basis.json", {"data": [
        [repr(complex(v)).strip("()") for v in row]
        for row in eigenvector_bundle(L, lam, tol=1e-6).eval(0)]})
    argv = ["recover", "--pencil", pencil, "--basis", basis, "--recipe"]
    code, out = run(capsys, *argv, _dump(tmp_path, "good.json",
                                         {"m": m, "sigma": [0, 1, 2], "tau": [-3]}))
    assert code == 0
    x = np.array([[complex(v) for v in row] for row in json.loads(out)["g"]])
    re = _parse_problem(problem)[0]
    assert np.linalg.norm(re.g_eval(lam) @ x) <= 1e-8 * np.linalg.norm(x)
    with pytest.raises(SystemExit) as e:
        main([*argv, _dump(tmp_path, "bad.json", {"m": m, "sigma": list(sigma),
                                                  "tau": [-3]})])
    out, err = capsys.readouterr()
    assert (e.value.code, out) == (2, "")
    assert err.startswith("schema error: recipe borders")
    assert str(border) in err and "(3, 1)" in err


def test_eig_large_fiedler_pencil(capsys, tmp_path, rng):
    from rosepencil.cli import _pencil_out
    from rosepencil.pencils import fiedler_pencil

    re = make_realization("general", rng, m=8, n=7, r=10, ns_top=True)
    L = fiedler_pencil(tuple(rng.permutation(8)), re)
    pencil = _dump(tmp_path, "pencil.json", _pencil_out(L))
    code, out = run(capsys, "eig", "--pencil", pencil)
    assert code == 0
    eigs = json.loads(out)["eigenvalues"]
    assert sum(e["multiplicity"] for e in eigs) == 66
    assert all(np.isfinite(complex(str(e["value"]))) for e in eigs)


def test_non_finite_entry_is_schema_error(capsys, tmp_path):
    pencil = _dump(tmp_path, "pencil.json", {
        "X": [["nan", 0], [0, 1]], "Y": [[1, 0], [0, 1]],
        "m": 1, "n": 2, "r": 0})
    code, _ = run(capsys, "eig", "--pencil", pencil)
    assert code == 2


@pytest.mark.parametrize("X, message", [
    ([[float("nan"), 0], [0, 1]], "non-finite matrix entry nan"),
    ([["1+nanj", 0], [0, 1]], "non-finite matrix entry '1+nanj'"),
    ([[10 ** 400, 0], [0, 1]], "bad matrix entry 1000"),
    ([[1, 0], [0]], "ragged X"),
    ([[1, 0], [0, None]], "bad matrix entry None"),
])
def test_bad_entry_message(capsys, tmp_path, X, message):
    pencil = _dump(tmp_path, "pencil.json", {
        "X": X, "Y": [[1, 0], [0, 1]], "m": 1, "n": 2, "r": 0})
    with pytest.raises(SystemExit) as e:
        main(["eig", "--pencil", pencil])
    assert e.value.code == 2
    assert capsys.readouterr().err.startswith(f"schema error: {message}")


@pytest.mark.parametrize("key, value", [
    ("C", [[0, 0, 1], [-3, 3, 1]]),     # C of the wrong shape
    ("E", [[1, 2], [2, 4]]),            # singular E
    ("P", [[[1, 0]], [[0, 1]]]),        # non-square coefficients
])
def test_bad_realization_is_schema_error(capsys, tmp_path, gen_problem, key,
                                         value):
    doc = json.loads(open(gen_problem).read())
    doc["realization"][key] = value
    prob = _dump(tmp_path, "bad.json", doc)
    with pytest.raises(SystemExit) as e:
        main(["build", "--kind", "fp", "--problem", prob])
    assert e.value.code == 2
    assert capsys.readouterr().err.startswith("schema error: bad realization")


def test_structural_violation_in_problem_exits_4(capsys, tmp_path):
    # A is not symmetric: a refused hypothesis, not a schema error
    prob = _dump(tmp_path, "sym.json", {
        "realization": {"kind": "symmetric", "P": [[[0]], [[1]]],
                        "A": [[1, 2], [0, 1]], "B": [[1], [1]]},
        "options": {"h": 0}})
    code, _ = run(capsys, "build", "--kind", "structured:symmetric",
                  "--problem", prob)
    assert code == 4


def test_cm_index(capsys, tmp_path):
    prob = _dump(tmp_path, "cm.json", {
        "realization": {"kind": "symmetric", "P": [[[0]], [[1]]],
                        "A": [[1]], "B": [[1]], "E": [[1]]}})
    code, out = run(capsys, "cm-index", "--problem", prob)
    assert code == 0
    assert json.loads(out)["cauchy_maslov_index"] == 1


def test_cm_index_complex_symmetric_is_structural(capsys, tmp_path):
    """A complex symmetric realization has no real G(lam) to count; the
    refusal exits 4 (structural violation), not with a traceback."""
    prob = _dump(tmp_path, "cm.json", {
        "realization": {"kind": "symmetric", "P": [[[1]], [["0+1j"]], [[1]]],
                        "A": [[2]], "B": [["1+1j"]], "E": [[1]]}})
    code, out = run(capsys, "cm-index", "--problem", prob)
    assert code == 4
    assert out == ""


def test_cm_index_small_residue(capsys, tmp_path):
    # G = 1 + lam^2 + 0.09/(lam - 1): index +1 however small the residue
    prob = _dump(tmp_path, "cm.json", {
        "realization": {"kind": "symmetric", "P": [[[1]], [[0]], [[1]]],
                        "A": [[1]], "B": [[0.3]], "E": [[1]]}})
    code, out = run(capsys, "cm-index", "--problem", prob)
    assert code == 0
    assert json.loads(out)["cauchy_maslov_index"] == 1


def test_cm_index_non_symmetric_is_structural(capsys, tmp_path):
    # G = lam I + [[0, 1], [0, 0]]/(lam - 1) has a non-symmetric residue
    prob = _dump(tmp_path, "cm.json", {
        "realization": {"kind": "general", "P": [[[0, 0], [0, 0]],
                                                 [[1, 0], [0, 1]]],
                        "C": [[1], [0]], "A": [[1]], "B": [[0, 1]]}})
    code, out = run(capsys, "cm-index", "--problem", prob)
    assert code == 4
    assert out == ""


def test_cm_index_non_minimal_is_numeric(capsys, tmp_path):
    # the pole at 2 is unobservable: the residue there is 0
    prob = _dump(tmp_path, "cm.json", {
        "realization": {"kind": "symmetric", "P": [[[0]], [[1]]],
                        "A": [[1, 0], [0, 2]], "B": [[1], [0]]}})
    code, out = run(capsys, "cm-index", "--problem", prob)
    assert code == 5
    assert out == ""


def test_examples_list(capsys):
    """The paper-example corpus runs from the tests; the CLI has no
    examples subcommand."""
    for argv in (("examples",), ("examples", "--list")):
        code, out = run(capsys, *argv)
        assert code == 2 and out == ""


def test_pencil_json_roundtrip(capsys, tmp_path, gen_problem):
    from rosepencil.cli import _parse_pencil
    pencil = str(tmp_path / "pencil.json")
    run(capsys, "build", "--kind", "gfpr", "--problem", gen_problem,
        "--out", pencil)
    doc = json.loads((tmp_path / "pencil.json").read_text())
    L = _parse_pencil(doc)
    assert L.X.shape == (len(doc["X"]), len(doc["X"][0]))
    # output JSON parses back through the input schema bit-for-bit
    from rosepencil.cli import _pencil_out
    assert _pencil_out(L) == doc


# the per-entry conversions that _mat_in and _mat_out short-cut for
# all-number and all-real matrices; the results must be bit-identical
def _mat_in_reference(obj):
    return np.array([[complex(v) for v in row] for row in obj], dtype=complex)


def _mat_out_reference(M):
    def entry(z):
        z = complex(z)
        return z.real if z.imag == 0.0 else repr(z).strip("()")
    return [[entry(v) for v in row] for row in np.asarray(M)]


@pytest.mark.parametrize("obj", [
    [[1, -2], [3, 4]],
    [[True, False], [False, True]],
    [[True, 0.5], [2.0, False]],
    [[True, 2], [-3, False]],
    [[2 ** 63 + 1, 1], [2 ** 64 - 1, -(2 ** 63) - 5]],
    [[3 ** 39, 2 ** 53 + 1], [-(2 ** 62) - 1, 7]],
    [[2 ** 64 + 1, 1.5], [10 ** 300, -1]],
    [[-0.0, 0.0], [1.5, -2]],
    [[1e-310, -1e308], [0.1, 3]],
    [["1+2j", "3"], ["-0.5j", "4e-3"]],
    [[1, "2+1j"], [0.5, "7"]],
    [[]],
])
def test_mat_in_matches_per_entry_reference(obj):
    from rosepencil.cli import _mat_in
    got, want = _mat_in(obj), _mat_in_reference(obj)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("M", [
    np.array([[1.5, -0.0], [0.0, -2.25]]),
    np.array([[1, -2], [3, 4]]),
    np.array([[0.1 - 0.0j, 2 + 0j], [-0.0 + 0j, 1e-300]]),
    np.array([[1 + 2j, 3 + 0j], [-0.0 - 0.0j, 0.5 - 1e-20j]]),
    np.array([[1j, -0.0 + 0j]]),
])
def test_mat_out_matches_per_entry_reference(M):
    from rosepencil.cli import _mat_out
    assert json.dumps(_mat_out(M)) == json.dumps(_mat_out_reference(M))


def test_every_subcommand_has_a_handler():
    import argparse
    import rosepencil.cli as cli
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == ["build", "cm-index", "eig", "recover",
                                   "structured", "verify"]
    for name in sub.choices:
        assert callable(getattr(cli, "cmd_" + name.replace("-", "_")))


def test_main_dispatches_to_the_module_attribute(capsys, monkeypatch):
    # the parser is built once per process; a patched cmd_* still runs
    import rosepencil.cli as cli
    seen = []
    monkeypatch.setattr(cli, "cmd_eig", lambda args: seen.append(args.pencil) or 0)
    assert run(capsys, "eig", "--pencil", "a.json")[0] == 0
    assert run(capsys, "eig", "--pencil", "b.json")[0] == 0
    assert seen == ["a.json", "b.json"]
    assert cli.build_parser() is cli.build_parser()
