import argparse
import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trisim
from trisim import classify, cli
from trisim import io
from trisim.classify import canonicalize
from trisim.core import (
    DEFAULT_TOL,
    ConjugationMap,
    ConsistencyError,
    TridiagonalSymmetric,
    random_class_matrix,
)
from trisim.io import cvector_to_json
from trisim.cli import (
    _tol,
    cmd_canonicalize,
    cmd_classify,
    cmd_gen,
    cmd_moments,
    cmd_similarity,
    cmd_solve,
    cmd_verify,
    main,
)
from trisim.moments import MASS_DELTA, RADIUS_RATIO, RadiusSchedule
from trisim.similarity import (
    ORTHONORMALITY_TOL,
    build_transform,
    eval_recurrence,
    verify_similarity,
)

from test_classify import envelope_member

COMMANDS = ["classify", "canonicalize", "moments", "solve", "similarity", "verify", "gen"]
# the flags each command requires
REQUIRED = {command: ["--input", "x.json"] for command in COMMANDS} | {"gen": ["--seed", "1"]}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run_fresh(*argv):
    """The CLI in a fresh interpreter, so that a traceback would reach stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(trisim.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, "-m", "trisim.cli", *argv], capture_output=True, text=True, env=env
    )


def strict_json(text):
    """json.loads that rejects NaN and Infinity, as strict JSON parsers do."""

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def envelope_document(a, x0, j):
    """A dense input document of (A, x0, C)."""
    return {**io.dense_to_json(a), "C": cvector_to_json(j.matrix), "x0": cvector_to_json(x0)}


def chain_file(tmp_path):
    return write(
        tmp_path,
        "chain.json",
        {"d": 2, "kind": "tridiagonal", "diag": [[0, 0], [0, 0]], "offdiag": [[1, 0]]},
    )


class TestGen:
    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen", "--seed", "1", "--d", "2", "--output", str(a)]) == 0
        assert main(["gen", "--seed", "1", "--d", "2", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["gen", "--seed", "1", "--d", "2", "--output", str(a)])
        main(["gen", "--seed", "2", "--d", "2", "--output", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_generated_matrix_is_in_class(self, tmp_path, capsys):
        p = tmp_path / "op.json"
        main(["gen", "--seed", "7", "--d", "5", "--output", str(p)])
        assert main(["classify", "--input", str(p)]) == 0
        assert strict_json(capsys.readouterr().out)["class_matrix"] is True

    def test_rejects_d_below_two(self):
        assert main(["gen", "--seed", "1", "--d", "1"]) == 2

    @pytest.mark.parametrize("d", [10**20, 2**60])
    def test_unallocatable_dimension_exits_3(self, d):
        # numpy refuses both sizes before it allocates anything: 10**20 is
        # past intp, and 8 * 2**60 bytes is past it too
        proc = run_fresh("gen", "--seed", "1", "--d", str(d))
        assert proc.returncode == 3
        assert proc.stderr == (
            f"precondition violated: the arrays of a d = {d} matrix cannot be allocated\n"
        )

    def test_huge_dimension_is_echoed_cut(self):
        proc = run_fresh("gen", "--seed", "1", "--d", str(10**400))
        assert proc.returncode == 3
        assert proc.stderr == (
            "precondition violated: the arrays of a d = "
            "100000000000000000...0000000000000000000 matrix cannot be allocated\n"
        )

    def test_rejects_negative_seed(self, capsys):
        # numpy's generator would reject it with a ValueError traceback
        assert main(["gen", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"

    def test_annulus_bounds(self):
        m = random_class_matrix(123, 8)
        mags = np.abs(m.offdiag)
        assert np.all(mags >= 0.5) and np.all(mags <= 2.0)


class TestClassify:
    def test_chain_passes(self, tmp_path, capsys):
        assert main(["classify", "--input", chain_file(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class_matrix"] is True

    def test_non_symmetric_dense_fails(self, tmp_path, capsys):
        p = write(
            tmp_path,
            "bad.json",
            {"kind": "dense", "rows": [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]},
        )
        assert main(["classify", "--input", p]) == 1
        report = json.loads(capsys.readouterr().out)
        assert "symmetric" in report["reason"]

    def test_dense_with_conjugation_and_x0(self, tmp_path, capsys):
        p = write(
            tmp_path,
            "full.json",
            {
                "kind": "dense",
                "rows": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                "C": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                "x0": [[1, 0], [0, 0]],
            },
        )
        assert main(["classify", "--input", p]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["j_symmetric"] is True
        assert report["gram_condition"] is True
        assert len(report["gram_determinants"]) == 1

    @pytest.mark.parametrize(
        "lower, code, member",
        [(-1.7e308, 1, False), (1.7e308, 0, True)],
    )
    def test_entries_near_float64_limit(self, tmp_path, capsys, lower, code, member):
        # m - m^T and the off-diagonal average overflowed, and both exited 3
        op = {"kind": "dense", "rows": [[[0, 0], [1.7e308, 0]], [[lower, 0], [0, 0]]]}
        assert main(["classify", "--input", write(tmp_path, "op.json", op)]) == code
        report = strict_json(capsys.readouterr().out)
        assert report["class_matrix"] is member
        if member:
            assert report["extracted"]["offdiag"] == [[1.7e308, 0.0]]
        else:
            assert report["reason"].startswith("not complex symmetric")

    def test_j_symmetry_near_float64_limit(self, tmp_path, capsys):
        # a class member that is not J-symmetric for C = Hadamard / sqrt(2);
        # C conj(A) conj(C) of the raw entries would overflow
        h = [[[2**-0.5, 0], [2**-0.5, 0]], [[2**-0.5, 0], [-(2**-0.5), 0]]]
        op = {"kind": "dense", "rows": [[[1.7e308, 0]] * 2] * 2, "C": h}
        assert main(["classify", "--input", write(tmp_path, "op.json", op)]) == 1
        report = strict_json(capsys.readouterr().out)
        assert report["class_matrix"] is True
        assert report["j_symmetric"] is False
        assert report["j_symmetry_residual"] == pytest.approx(1.0)

    def test_scaled_down_non_symmetric_matrix(self, tmp_path, capsys):
        # complex normals scaled by 1e-12, C = I: the J residual is relative
        # to max|A|, so it reads as it does unscaled, far above tol
        rng = np.random.default_rng(1)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        op = io.dense_to_json(1e-12 * b)
        op["C"] = io.dense_to_json(np.eye(4))["rows"]
        assert main(["classify", "--input", write(tmp_path, "op.json", op)]) == 1
        report = strict_json(capsys.readouterr().out)
        assert report["j_symmetric"] is False
        assert report["j_symmetry_residual"] == pytest.approx(1.2026, abs=1e-4)

    def test_overflowing_modulus_is_not_j_symmetric(self, tmp_path, capsys):
        # max|A| overflows float64 though each part is finite, yet the J
        # residual for C = I is finite, 1 / (1.3 sqrt 2)
        op = {"kind": "dense", "rows": [[[1.3e308, 1.3e308], [1e308, 0]], [[0, 0], [0, 0]]]}
        op["C"] = io.dense_to_json(np.eye(2))["rows"]
        assert main(["classify", "--input", write(tmp_path, "op.json", op)]) == 1
        report = strict_json(capsys.readouterr().out)
        assert report["j_symmetric"] is False
        assert report["j_symmetry_residual"] == pytest.approx(0.544, abs=1e-3)

    @staticmethod
    def member_with_e0(conjugation):
        """gen seed 7 at d = 4 as a tridiagonal document with x0 = e_0, and
        C = I if ``conjugation``."""
        op = {**io.operator_to_json(random_class_matrix(7, 4)), "x0": [[1, 0]] + [[0, 0]] * 3}
        if conjugation:
            op["C"] = io.dense_to_json(np.eye(4))["rows"]
        return op

    def test_gram_determinants_of_a_member(self, tmp_path, capsys):
        # canonicalize passes the member with x0 = e_0; with C = I too,
        # classify lists Gamma_n for n = 1..d-1, each a real [re, 0.0] in
        # [0, 1], the last exactly 0, and the Gram condition holds
        p = write(tmp_path, "x0.json", self.member_with_e0(False))
        assert main(["canonicalize", "--input", p]) == 0
        assert io.operator_from_json(strict_json(capsys.readouterr().out)["matrix"]).dim == 4
        p = write(tmp_path, "cx.json", self.member_with_e0(True))
        assert main(["classify", "--input", p]) == 0
        report = strict_json(capsys.readouterr().out)
        g = report["gram_determinants"]
        assert [e["n"] for e in g] == [1, 2, 3]
        assert all(e["gamma"][1] == 0.0 and 0 <= e["gamma"][0] <= 1 for e in g)
        assert g[-1]["gamma"] == [0.0, 0.0]
        assert report["gram_condition"] is True and report["j_symmetric"] is True

    def test_conjugation_is_checked_once(self, tmp_path, capsys, monkeypatch):
        # the Gram check checks J, and the J residual after it does not again
        checks = []
        check = ConjugationMap.check

        def counting(self, tol=DEFAULT_TOL):
            checks.append(tol)
            check(self, tol)

        monkeypatch.setattr(ConjugationMap, "check", counting)
        # a factorization kept from an earlier call would skip the Gram check's own
        monkeypatch.setattr(classify, "_last_qr", (None, None))
        p = write(tmp_path, "cx.json", self.member_with_e0(True))
        assert main(["classify", "--input", p]) == 0
        assert checks == [DEFAULT_TOL]

    @pytest.mark.parametrize(
        "fields, code",
        [((), 1), (("C",), 1), (("C", "x0"), 0), (("x0",), 3)],
    )
    def test_verdict_of_each_input_shape(self, tmp_path, capsys, fields, code):
        # a unitarily disguised member: not tridiagonal, but J-symmetric for
        # C = q q^T, and (J, x0) with x0 = q e0 pass the Gram criterion
        m = random_class_matrix(31, 4).dense()
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        disguised = io.dense_to_json(q @ m @ q.conj().T)
        extra = {"C": io.dense_to_json(q @ q.T)["rows"], "x0": cvector_to_json(q[:, 0])}
        op = {**disguised, **{f: extra[f] for f in fields}}
        p = write(tmp_path, "op.json", op)
        assert main(["classify", "--input", p]) == code
        out, err = capsys.readouterr()
        if code == 3:
            # x0 without C takes C = I, which does not fix q e0: the
            # precondition canonicalize names on the same document
            assert out == "" and "J x0 != x0" in err
            assert main(["canonicalize", "--input", p]) == 3
            assert capsys.readouterr().err == err
            return
        report = strict_json(out)
        assert report["class_matrix"] is False
        assert report.get("j_symmetric", True) is True
        assert report.get("gram_condition", True) is True

    @pytest.mark.parametrize("scale", [1.0, 0.01])
    def test_gram_condition_ignores_x0_scale(self, tmp_path, capsys, scale):
        # a dense complex symmetric non-member: C = I makes it J-symmetric,
        # and only the Gram condition rejects it, at any scale of x0
        rng = np.random.default_rng(1)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        op = io.dense_to_json(b + b.T)
        op["C"] = io.dense_to_json(np.eye(4))["rows"]
        op["x0"] = [[scale, 0.0]] + [[0.0, 0.0]] * 3
        p = write(tmp_path, "op.json", op)
        assert main(["classify", "--input", p]) == 1
        report = strict_json(capsys.readouterr().out)
        assert report["j_symmetric"] is True and report["gram_condition"] is False
        assert report["gram_determinants"][0]["gamma"][0] == pytest.approx(0.82389, abs=1e-5)
        assert all(set(g) == {"n", "gamma"} for g in report["gram_determinants"])
        assert main(["canonicalize", "--input", p]) == 3
        assert "Gram-determinant condition fails" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["classify", "canonicalize"])
    def test_huge_krylov_norms_give_strict_json(self, tmp_path, capsys, command):
        # every Krylov vector is finite, but ||A^2 e0||^2 = 1e400
        a = np.diag(np.full(2, 1e100), 1)
        op = io.dense_to_json(a + a.T)
        op["C"] = io.dense_to_json(np.eye(3))["rows"]
        op["x0"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        assert main([command, "--input", write(tmp_path, "op.json", op)]) == 0
        out = strict_json(capsys.readouterr().out)
        if command == "classify":
            assert out["gram_condition"] is True

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{nope")
        assert main(["classify", "--input", str(p)]) == 2
        # well-formed JSON carrying a malformed number
        bad_diag = {"kind": "tridiagonal", "diag": [["x", 0], [0, 0]], "offdiag": [[1, 0]]}
        assert main(["classify", "--input", write(tmp_path, "d.json", bad_diag)]) == 2
        for rho in ("abc", 2.5, True):
            bad_rho = {"rho": rho, "s": [[1, 0], [0, 0], [1, 0]]}
            assert main(["solve", "--input", write(tmp_path, "s.json", bad_rho)]) == 2
        bad_mass = {
            "measure": {"atoms": [{"z": [0, 0], "mass": "x"}]},
            "moments": {"s": [[1, 0], [0, 0]]},
        }
        assert main(["verify", "--input", write(tmp_path, "v.json", bad_mass)]) == 2
        for atoms in (5, None, "z", {"z": [0, 0], "mass": 1}):
            bad_atoms = {"measure": {"atoms": atoms}, "moments": {"s": [[1, 0], [0, 0]]}}
            assert main(["verify", "--input", write(tmp_path, "v.json", bad_atoms)]) == 2
        ragged = {"kind": "dense", "rows": [[[1, 0], [0, 0]], [[0, 0]]]}
        assert main(["classify", "--input", write(tmp_path, "r.json", ragged)]) == 2
        # a 400-digit integer, which float64 cannot hold, in each field that holds numbers
        big = 10**399
        chain = {"kind": "tridiagonal", "diag": [[0, 0], [0, 0]], "offdiag": [[1, 0]]}
        dense = {"kind": "dense", "rows": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
        eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        moments = {"rho": 2, "s": [[1, 0], [0, 0], [1, 0]]}
        cases = [
            ("similarity", {**chain, "diag": [[big, 0], [0, 0]]}),
            ("classify", {**chain, "offdiag": [[1, big]]}),
            ("classify", {**dense, "rows": [[[0, 0], [1, 0]], [[big, 0], [0, 0]]]}),
            ("classify", {**dense, "C": [[[1, 0], [0, 0]], [[0, 0], [0, -big]]]}),
            ("canonicalize", {**dense, "C": eye, "x0": [[1, 0], [big, 0]]}),
            ("solve", {**moments, "s": [[1, 0], [big, 0], [1, 0]]}),
            ("verify", {"measure": {"atoms": [{"z": [big, 0], "mass": 1}]}, "moments": moments}),
            ("verify", {"measure": {"atoms": [{"z": [0, 0], "mass": big}]}, "moments": moments}),
        ]
        for command, doc in cases:
            assert main([command, "--input", write(tmp_path, "big.json", doc)]) == 2
        # an infinite mass, stopped by the reader and by AtomicMeasure
        inf_mass = {"measure": {"atoms": [{"z": [0, 0], "mass": float("inf")}]}, "moments": moments}
        assert main(["verify", "--input", write(tmp_path, "inf.json", inf_mass)]) == 2
        # a null in x0 is refused by the reader, before C = I and the Gram check see x0
        null_x0 = {**io.operator_to_json(random_class_matrix(7, 4)), "x0": [[None, 0]] + [[0, 0]] * 3}
        assert main(["classify", "--input", write(tmp_path, "x0.json", null_x0)]) == 2
        # nested deeper than json.load recurses
        deep = tmp_path / "deep.json"
        deep.write_text('{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["classify", "--input", str(deep)]) == 2


class TestOperatorDocument:
    """One reader, ``io.operator_document``, gives every operator command
    (A, J, x0); a document with x0 and no C takes C = I."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 7])
    @pytest.mark.parametrize("d", [4, 8])
    def test_x0_without_c_in_classify_and_canonicalize(self, tmp_path, capsys, seed, d):
        # gen output with x0 and no C, so C = I: x0 = e_0 passes both
        # commands; x0 = i e_0 fails the same precondition in both; x0 = e_1
        # fails the Gram condition, a verdict of classify (exit 1) and a
        # precondition of canonicalize (exit 3)
        doc = io.operator_to_json(random_class_matrix(seed, d))
        e = np.eye(d)
        for x0, codes, message in [
            (e[0], (0, 0), ""),
            (1j * e[0], (3, 3), "precondition violated: J x0 != x0 (residual "),
            (e[1], (1, 3), "precondition violated: Gram-determinant condition fails"),
        ]:
            p = write(tmp_path, "op.json", {**doc, "x0": cvector_to_json(x0)})
            assert main(["classify", "--input", p]) == codes[0]
            classified = capsys.readouterr()
            assert main(["canonicalize", "--input", p]) == codes[1]
            canonical = capsys.readouterr()
            assert canonical.err.startswith(message) and canonical.err.count("\n") == (message != "")
            if codes[0] == 0:
                report = strict_json(classified.out)
                assert report["gram_condition"] is True and report["j_symmetric"] is True
                assert io.operator_from_json(strict_json(canonical.out)["matrix"]).dim == d
            elif codes[0] == 3:
                assert classified == canonical and canonical.out == ""
            else:
                assert strict_json(classified.out)["gram_condition"] is False

    @pytest.mark.parametrize("command", ["moments", "similarity"])
    @pytest.mark.parametrize(
        "field, value",
        [("C", [[[1, 0]], [[1, 0], [0, 0]]]), ("C", "I"), ("x0", [[None, 0]] * 4), ("x0", [[True, False]] * 4)],
        ids=["C-ragged", "C-string", "x0-null", "x0-boolean"],
    )
    def test_malformed_c_or_x0_exits_2(self, tmp_path, capsys, command, field, value):
        # moments and similarity do not use J or x0, but read them
        op = {**io.operator_to_json(random_class_matrix(7, 4)), field: value}
        assert main([command, "--input", write(tmp_path, "op.json", op)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {field} must be ")

    @pytest.mark.parametrize("command", ["moments", "similarity"])
    def test_parsed_c_and_x0_leave_the_output_unchanged(self, tmp_path, capsys, command):
        # a C that is no conjugation and an x0 it does not fix are read and unused
        doc = io.operator_to_json(random_class_matrix(7, 4))
        extra = {"C": io.dense_to_json(2 * np.eye(4))["rows"], "x0": [[0, 1]] * 4}
        outputs = []
        for op in (doc, {**doc, **extra}):
            assert main([command, "--input", write(tmp_path, "op.json", op)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[1] == outputs[0]


class TestJsonNumbers:
    """Every reader takes JSON numbers only: a string, or a value of booleans
    alone, exits 2 with the reader's message, as an unreadable number does."""

    CHAIN = {"kind": "tridiagonal", "diag": [[0, 0], [0, 0]], "offdiag": [[1, 0]]}
    DENSE = {"kind": "dense", "rows": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
    MOMENTS = {"rho": 2, "s": [[1, 0], [0, 0], [1, 0]]}

    @staticmethod
    def measure(z, mass):
        return {"measure": {"atoms": [{"z": z, "mass": mass}]}, "moments": TestJsonNumbers.MOMENTS}

    @pytest.mark.parametrize("kind", ["string", "boolean"])
    @pytest.mark.parametrize(
        "command, what, document",
        [
            ("classify", "diag", lambda x: {**TestJsonNumbers.CHAIN, "diag": [x, x]}),
            ("classify", "offdiag", lambda x: {**TestJsonNumbers.CHAIN, "offdiag": [x]}),
            ("classify", "rows", lambda x: {**TestJsonNumbers.DENSE, "rows": [[x, x], [x, x]]}),
            ("classify", "C", lambda x: {**TestJsonNumbers.DENSE, "C": [[x, x], [x, x]]}),
            ("canonicalize", "x0", lambda x: {**TestJsonNumbers.DENSE, "x0": [x, x]}),
            ("solve", "s", lambda x: {**TestJsonNumbers.MOMENTS, "s": [x, x, x]}),
            ("verify", "atom locations", lambda x: TestJsonNumbers.measure(x, 1)),
            ("verify", "atom masses", lambda x: TestJsonNumbers.measure([0, 0], x[0])),
        ],
        ids=["diag", "offdiag", "rows", "C", "x0", "s", "z", "mass"],
    )
    def test_reader_refuses_non_numbers(self, tmp_path, capsys, command, what, document, kind):
        x = ["1", "0"] if kind == "string" else [True, False]
        assert main([command, "--input", write(tmp_path, "in.json", document(x))]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {what}") and err.endswith("of finite float64 numbers\n")

    def test_numeric_strings_and_booleans_in_one_operator(self, tmp_path, capsys):
        # classify read this document as diag (0.5, 1) and offdiag (1), and passed it
        op = {"kind": "tridiagonal", "diag": [["0.5", "0"], [True, False]], "offdiag": [["1", 0]]}
        assert main(["classify", "--input", write(tmp_path, "op.json", op)]) == 2
        assert capsys.readouterr().err == (
            "error: diag must be a list of [re, im] pairs, non-empty and of finite float64 numbers\n"
        )

    def test_json_integers_are_numbers(self, tmp_path, capsys):
        # integers, one past 64 bits among them, read as float would read them
        op = {"kind": "tridiagonal", "diag": [[0, 0], [1, 0]], "offdiag": [[2**70, -3]]}
        assert main(["classify", "--input", write(tmp_path, "op.json", op)]) == 0
        extracted = io.operator_from_json(strict_json(capsys.readouterr().out)["extracted"])
        assert extracted.diag.tolist() == [0, 1] and extracted.offdiag.tolist() == [2**70 - 3j]


class TestSolve:
    def test_textbook_moments(self, tmp_path, capsys):
        inp = write(
            tmp_path, "m.json", {"rho": 2, "s": [[1, 0], [1, 1], [0, 3]]}
        )
        out = tmp_path / "mu.json"
        assert main(["solve", "--input", inp, "--output", str(out)]) == 0
        measure = json.loads(out.read_text())
        assert measure["atoms"][0]["z"] == [2.0, 2.0]
        assert measure["atoms"][0]["mass"] == 0.5
        report = json.loads(capsys.readouterr().out)
        assert report["max_residual"] <= 1e-10
        # CSV companion for plotting
        csv = (tmp_path / "mu.json.csv").read_text().splitlines()
        assert csv[0] == "re,im,mass"
        assert len(csv) == 1 + len(measure["atoms"])
        rows = [[float(x) for x in line.split(",")] for line in csv[1:]]
        assert rows == [[*atom["z"], atom["mass"]] for atom in measure["atoms"]]

    def test_complex_s0_is_judged_at_its_own_scale(self, tmp_path, capsys):
        inp = write(tmp_path, "m.json", {"rho": 2, "s": [[1e-20, 1e-25], [0, 0], [0, 0]]})
        assert main(["solve", "--input", inp]) == 2
        assert "s_0 must be real" in capsys.readouterr().err

    def test_single_moment_rejected(self, tmp_path):
        inp = write(tmp_path, "m.json", {"s": [[1, 0]]})
        assert main(["solve", "--input", inp]) == 2

    def test_rho_one_single_atom(self, tmp_path, capsys):
        inp = write(tmp_path, "m.json", {"s": [[1, 0], [0, 0]]})
        out = tmp_path / "mu.json"
        assert main(["solve", "--input", inp, "--output", str(out)]) == 0
        measure = json.loads(out.read_text())
        assert len(measure["atoms"]) == 1
        assert measure["atoms"][0]["z"] == [0.0, 0.0]
        # one atom at s_1 / s_0 with mass s_0, from algorithm1, which reads
        # the schedule at rho = 1 too
        inp = write(tmp_path, "m.json", {"rho": 1, "s": [[2, 0], [1, 1]]})
        capsys.readouterr()
        assert main(["solve", "--input", inp, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["atoms"] == [{"z": [0.5, 0.5], "mass": 2.0}]
        assert json.loads(capsys.readouterr().out)["max_residual"] == 0
        for flag, value in [("--gamma", "0.5"), ("--delta", "0.7")]:
            assert main(["solve", "--input", inp, flag, value]) == 2

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"rho": 3, "s": [[1, 0], [0, 0]]}, "expected 4 moments, got 2"),
            ({"rho": 0, "s": [[1, 0]]}, "rho must be at least 1"),
        ],
    )
    def test_rho_out_of_step_with_s_exits_2(self, tmp_path, capsys, doc, message):
        assert main(["solve", "--input", write(tmp_path, "m.json", doc)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("s", [[[1e-300, 0], [1e300, 0]], [[5e-324, 0], [1, 0]]])
    def test_rho_one_atom_past_float64_exits_3(self, tmp_path, s):
        # s_1 / s_0 is inf; it used to exit 2 naming atoms the input never gave
        proc = run_fresh("solve", "--input", write(tmp_path, "m.json", {"rho": 1, "s": s}))
        assert proc.returncode == 3
        assert proc.stderr.startswith("precondition violated: precision exhausted: s_1/s_0 = ")
        assert proc.stderr.count("\n") == 1

    def test_nonpositive_s0(self, tmp_path):
        inp = write(tmp_path, "m.json", {"s": [[-1, 0], [0, 0], [0, 0]]})
        assert main(["solve", "--input", inp]) == 2  # rejected at parse

    def test_infinite_ring_radius_exits_3(self, tmp_path):
        # |c_2| / (s0/2) overflows to inf; the circle radius it needs is
        # finite, 2e155, but its square is not, which is predicted before
        # anything is built
        inp = write(tmp_path, "m.json", {"rho": 2, "s": [[1e-300, 0], [0, 0], [1e10, 0]]})
        proc = run_fresh("solve", "--input", inp)
        assert proc.returncode == 3
        assert "precision exhausted at scale 1e311 (circle radius 2e+155, order 2)" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_first_atom_floor_past_float64_exits_3(self, tmp_path):
        # gamma |s_1 / (s_0/2)| overflows float64; the scale is still named
        inp = write(tmp_path, "m.json", {"rho": 2, "s": [[2, 0], [1e308, 1e308], [0, 0]]})
        proc = run_fresh("solve", "--input", inp)
        assert proc.returncode == 3
        assert "precision exhausted at scale 1e617 (circle radius 2.12e+308, order 2)" in proc.stderr
        assert "inf" not in proc.stderr and "Traceback" not in proc.stderr


    def test_overflowing_circle_target_exits_3(self, tmp_path):
        # c_2 = s_2 - (s_0/2) a^2 overflows: one line names the order, where
        # only numpy's "overflow encountered in subtract" was written
        inp = write(tmp_path, "m.json", {"rho": 2, "s": [[2, 0], [0, 6e153], [1.7e308, 0]]})
        proc = run_fresh("solve", "--input", inp)
        assert proc.returncode == 3
        assert proc.stderr == (
            "precondition violated: float64 range exhausted at moment order 2: "
            "c_2 = s_2 - (s_0/2) a^2 overflows\n"
        )


class TestMomentsCommand:
    def test_chain_moments(self, tmp_path, capsys):
        assert main(["moments", "--input", chain_file(tmp_path), "--rho", "5"]) == 0
        got = io.moments_from_json(json.loads(capsys.readouterr().out))
        assert np.allclose(got.values, [1, 0, 1, 0, 2, 0])

    def test_rho_must_exceed_2d(self, tmp_path):
        assert main(["moments", "--input", chain_file(tmp_path), "--rho", "4"]) == 2

    @pytest.mark.parametrize(
        "m, zeros",
        [
            # the odd moments of a zero-diagonal member vanish by structure
            pytest.param(TridiagonalSymmetric(np.zeros(4), [1, 0.5, 2]), [1, 3, 5, 7, 9], id="zero-diagonal"),
            # s_2 = b_0^2 + a_0^2 and s_3 cancel to 0 at normal scale
            pytest.param(TridiagonalSymmetric([1j, -1j], [1]), [2, 3], id="cancelling"),
        ],
    )
    def test_a_zero_moment_at_normal_scale_is_printed(self, tmp_path, capsys, m, zeros):
        # an exact 0 is an underflow only when its largest entering
        # magnitude is nonzero and below the normal float64 range
        assert main(["moments", "--input", write(tmp_path, "op.json", io.operator_to_json(m))]) == 0
        out, err = capsys.readouterr()
        s = io.moments_from_json(json.loads(out)).values
        assert err == "" and np.all(s[zeros] == 0) and s[4] != 0

    @pytest.mark.parametrize("command", ["moments", "similarity"])
    def test_overflowing_moments_exit_3(self, tmp_path, command):
        # well-formed input whose s_2 = 2e320 overflows float64
        op = {"kind": "tridiagonal", "diag": [[1e160, 0], [0, 0]], "offdiag": [[1e160, 0]]}
        proc = run_fresh(command, "--input", write(tmp_path, "op.json", op))
        assert proc.returncode == 3
        assert "moment order 2" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("command", ["moments", "similarity"])
    @pytest.mark.parametrize("rho", [10**20, 10**400, pytest.param(10**4000, id="10**4000")])
    def test_unallocatable_moment_table_exits_3(self, tmp_path, command, rho):
        # the (h+1)-by-(h+1) table is past any address space; numpy refuses it
        # before anything else of size O(rho) is built, and its byte count,
        # past float64 at 10**400, is still named; a rho past 30 digits is
        # echoed cut, so the line stays under 200 bytes
        op = write(tmp_path, "op.json", io.operator_to_json(random_class_matrix(7, 4)))
        proc = run_fresh(command, "--input", op, "--rho", str(rho))
        assert proc.returncode == 3
        echo = str(rho) if rho == 10**20 else "1" + "0" * 12 + "..." + "0" * 14
        assert proc.stderr.startswith(f"precondition violated: rho = {echo} needs a ")
        assert len(proc.stderr.encode()) <= 200
        assert "moment table (4e+" in proc.stderr and "cannot be allocated" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "command, m, flags",
    [
        pytest.param("moments", random_class_matrix(17, 6), [], id="moments"),
        pytest.param("similarity", random_class_matrix(17, 6), [], id="similarity"),
        # members at the float64 edges: a subnormal one, and one whose |b_0|
        # overflows though each of its parts is finite
        pytest.param(
            "classify",
            TridiagonalSymmetric([1e-310, 0, 0], [1e-310, 1e-318]),
            ["--tol", "1e-9"],
            id="classify-subnormal",
        ),
        pytest.param(
            "classify",
            TridiagonalSymmetric([1.3e308 * (1 + 1j), 0, 0], [1e308, 1e308]),
            [],
            id="classify-overflowing-modulus",
        ),
    ],
)
def test_dense_document_matches_tridiagonal(tmp_path, capsys, command, m, flags):
    # both documents go through the one class test and print the same bytes
    outputs = []
    for name, doc in [("tri", io.operator_to_json(m)), ("dense", io.dense_to_json(m.dense()))]:
        assert main([command, "--input", write(tmp_path, name + ".json", doc), *flags]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


class TestSimilarityCommand:
    def test_chain_pipeline(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main(["similarity", "--input", chain_file(tmp_path), "--output", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["passed"] is True
        assert result["max_residual"] < 1e-10
        # the rank-one scale is written once, as a_{d-1} = a_1 of the recurrence
        assert "rank_one_scale" not in result
        assert result["recurrence"]["offdiag"][1] == [1.0, 0.0]
        assert result["node_matrix_sigma_min"] > 0

    def test_generated_d5(self, tmp_path):
        op = tmp_path / "op.json"
        main(["gen", "--seed", "1", "--d", "5", "--output", str(op)])
        out = tmp_path / "sim.json"
        assert main(["similarity", "--input", str(op), "--output", str(out)]) == 0

    def test_explicit_tol_is_used(self, tmp_path, capsys):
        # this input verifies to about 1.6e-15: inside the 1e-8 default,
        # outside an explicit --tol 1e-16
        op = tmp_path / "op.json"
        main(["gen", "--seed", "11", "--d", "12", "--output", str(op)])
        capsys.readouterr()
        assert main(["similarity", "--input", str(op), "--tol", "1e-16"]) == 1
        result = json.loads(capsys.readouterr().out)
        assert 1e-16 < result["max_residual"] < 1e-8
        assert result["passed"] is False
        assert main(["similarity", "--input", str(op)]) == 0

    def test_singular_node_matrix_exits_1_and_names_the_check(self, tmp_path):
        # every residual of gen seed 2 at d = 192 is within tol, but its
        # column-equilibrated node matrix is numerically singular
        op = tmp_path / "op.json"
        main(["gen", "--seed", "2", "--d", "192", "--output", str(op)])
        proc = run_fresh("similarity", "--input", str(op), "--output", str(tmp_path / "out.json"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("verification failed: node matrix numerically singular: ")
        assert "not above 1e-10" in proc.stderr and "Traceback" not in proc.stderr
        result = json.loads((tmp_path / "out.json").read_text())
        assert result["passed"] is False
        assert result["max_residual"] <= 1e-8
        assert result["node_matrix_sigma_min"] < 1e-10

    @pytest.mark.parametrize("seed, d", [(3, 20), (1, 159)])
    def test_generated_input_verifies(self, tmp_path, capsys, seed, d):
        # the ring cascade the circle replaced exhausted float64 at d = 20;
        # d = 159 is the smallest gen input that passes, its equilibrated
        # sigma_min just above the floor 1e-10, so a kernel change that
        # moves the verdict at the floor fails here
        op = tmp_path / "op.json"
        main(["gen", "--seed", str(seed), "--d", str(d), "--output", str(op)])
        assert main(["similarity", "--input", str(op)]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["passed"] is True
        if d == 159:
            assert 1e-10 < result["node_matrix_sigma_min"] < 1.1e-10

    def test_residual_failure_names_max_residual_and_tol(self, tmp_path, capsys):
        op = tmp_path / "op.json"
        main(["gen", "--seed", "11", "--d", "12", "--output", str(op)])
        capsys.readouterr()
        assert main(["similarity", "--input", str(op), "--tol", "1e-16"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("verification failed: max residual ")
        assert err[0].endswith(" not within tol 1e-16")

    def test_zero_offdiagonal_rejected(self, tmp_path, capsys):
        p = write(
            tmp_path,
            "bad.json",
            {
                "kind": "tridiagonal",
                "diag": [[0, 0], [0, 0], [0, 0]],
                "offdiag": [[1, 0], [0, 0]],
            },
        )
        assert main(["similarity", "--input", p]) == 3
        err = capsys.readouterr().err
        assert "a_1" in err

    def test_overflowing_polynomial_scale_exits_3(self, tmp_path):
        # a_k shrunk past k = 60: the measure builds, but the residual scale
        # of p_118 at the atoms overflows float64
        m = random_class_matrix(1, 120)
        offdiag = m.offdiag.copy()
        offdiag[60:] *= 0.01
        op = io.operator_to_json(TridiagonalSymmetric(m.diag, offdiag))
        proc = run_fresh("similarity", "--input", write(tmp_path, "op.json", op))
        assert proc.returncode == 3
        assert "polynomial degree 118: the residual scale overflows at max|p_118| = " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1

    def test_float64_exhaustion_exits_3(self, tmp_path):
        # the circle radius to the power rho = 513 would be 1e392
        op = tmp_path / "op.json"
        assert main(["gen", "--seed", "3", "--d", "256", "--output", str(op)]) == 0
        proc = run_fresh("similarity", "--input", str(op))
        assert proc.returncode == 3
        assert "precision exhausted at scale 1e392 (circle radius 5.82, order 513)" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "scale, code, message",
        [
            (1e-3, 0, ""),
            (1e-9, 0, ""),
            (1e-12, 0, ""),
            (1e-20, 0, ""),
            (1e-50, 3, "precision exhausted at scale 1e-841 "),
            (1e-100, 3, "precision exhausted at scale 1e-1692 "),
            (1e-300, 3, "float64 range exhausted at polynomial degree 1: "),
            (1e-310, 3, "float64 range exhausted at polynomial degree 1: "),
        ],
    )
    def test_scaled_member(self, tmp_path, capsys, scale, code, message):
        # c A is a class matrix whenever A is: classify passes it at every
        # scale, and moments and similarity pass it down to 1e-20; deeper,
        # each exits 3 with one stderr line naming the order, scale or degree
        # float64 lost.  s_k = c^k s_k(A) leaves the normal range at the
        # first order whose largest entering magnitude does
        underflow = {1e-50: 7, 1e-100: 4, 1e-300: 2, 1e-310: 1}.get(scale)
        m = random_class_matrix(3, 8)
        op = io.operator_to_json(TridiagonalSymmetric(scale * m.diag, scale * m.offdiag))
        inp = write(tmp_path, "op.json", op)
        assert main(["classify", "--input", inp]) == 0
        assert json.loads(capsys.readouterr().out)["class_matrix"] is True
        assert main(["moments", "--input", inp]) == (0 if underflow is None else 3)
        out, err = capsys.readouterr()
        if underflow is None:
            assert err == "" and io.moments_from_json(json.loads(out)).rho == 17
        else:
            assert out == "" and len(err.splitlines()) == 1
            assert err.startswith(f"precondition violated: moment order {underflow}: s_{underflow} "
                                  "underflows: the largest magnitude entering it, ")
            assert err.endswith(", below the normal float64 range\n")
        assert main(["similarity", "--input", inp]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert json.loads(out)["passed"] is True and err == ""
        else:
            assert len(err.splitlines()) == 1 and message in err
        # at 1e-300 p_1 is finite and its residual scale overflows; at
        # 1e-310 the quotient p_1 itself leaves float64, and is named
        if scale == 1e-300:
            assert err.endswith("the residual scale overflows at max|p_1| = 8.72e+299\n")
        if scale == 1e-310:
            assert err.endswith("p_1 = (z - b_0) / a_0 is not finite (|a_0| = 1.15e-310)\n")


def schrodinger(seed, d):
    """The discrete Schrödinger operator with a complex potential: unit
    hopping, and on the diagonal 0.3 times complex normals of ``seed``."""
    rng = np.random.default_rng(seed)
    return TridiagonalSymmetric(0.3 * (rng.normal(size=d) + 1j * rng.normal(size=d)), np.ones(d - 1))


class TestVerdictGrid:
    """The ``similarity`` exit codes of seeds 0-4, one string per family and
    d: ``gen``'s random class matrices, and the near-normal Schrödinger
    family, whose spectrum lies near [-2, 2] yet whose node matrix turns
    numerically singular from d = 128 on.  Each exit-1 cell names its check
    on stderr.  A change that moves any cell changes this table."""

    WANT = {
        ("gen", 16): "00000",
        ("gen", 32): "00000",
        ("gen", 64): "00000",
        ("gen", 128): "00000",
        ("gen", 224): "00000",
        ("schrodinger", 16): "00000",
        ("schrodinger", 32): "00000",
        ("schrodinger", 64): "00000",
        ("schrodinger", 128): "11100",
        ("schrodinger", 224): "11111",
    }

    @pytest.mark.parametrize("family, d", sorted(WANT))
    def test_exit_codes(self, tmp_path, capsys, family, d):
        make = random_class_matrix if family == "gen" else schrodinger
        out = str(tmp_path / "out.json")
        codes = ""
        for seed in range(5):
            p = write(tmp_path, "op.json", io.operator_to_json(make(seed, d)))
            code = main(["similarity", "--input", p, "--output", out])
            err = capsys.readouterr().err
            if code == 1:
                assert err.startswith("verification failed: node matrix numerically singular")
                assert err.count("\n") == 1
            else:
                assert err == ""
            codes += str(code)
        assert codes == self.WANT[family, d]


class TestTolFlag:
    @pytest.mark.parametrize("tol", ["-1", "nan"])
    @pytest.mark.parametrize("form", ["tridiagonal", "dense"])
    def test_classify_rejects_bad_tol_on_both_forms(self, tmp_path, capsys, form, tol):
        # before, a negative or NaN tol gave the two forms different verdicts
        m = random_class_matrix(7, 4)
        doc = io.operator_to_json(m) if form == "tridiagonal" else io.dense_to_json(m.dense())
        inp = write(tmp_path, "op.json", doc)
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--input", inp, "--tol", tol])
        assert exc.value.code == 2
        assert "--tol: must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", ["classify", "canonicalize", "solve", "similarity", "verify"]
    )
    @pytest.mark.parametrize("tol", ["-1e-9", "nan", "inf", "-inf"])
    def test_every_tol_command_exits_2(self, capsys, command, tol):
        # rejected while parsing, before the input is read
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", "missing.json", f"--tol={tol}"])
        assert exc.value.code == 2
        assert "--tol: must be finite and >= 0" in capsys.readouterr().err

    def test_zero_tol_is_accepted(self, tmp_path, capsys):
        assert main(["classify", "--input", chain_file(tmp_path), "--tol", "0"]) == 0

    @staticmethod
    def verdicts(capsys, argv):
        """Exit code, JSON output (None if empty) and stderr of one call."""
        code = main(argv)
        out, err = capsys.readouterr()
        return code, json.loads(out) if out else None, err

    @pytest.mark.parametrize("tol", ["1e-12", "1e-9"])
    def test_one_class_verdict_at_the_callers_tol(self, tmp_path, capsys, tol):
        # |a_1| = 3e-10 is a member at 1e-12 and vanishes at 1e-9: classify
        # and similarity judge it once, at the --tol they were given
        op = TridiagonalSymmetric([0.1, 0.2, 0.3], [1, 3e-10])
        inp = write(tmp_path, "op.json", io.operator_to_json(op))
        code, cls, _ = self.verdicts(capsys, ["classify", "--input", inp, "--tol", tol])
        sim_code, sim, err = self.verdicts(capsys, ["similarity", "--input", inp, "--tol", tol])
        if tol == "1e-12":
            assert (code, cls["class_matrix"], cls["reason"]) == (0, True, "ok")
            assert sim_code == 0 and sim["passed"] is True and err == ""
            assert sim["max_residual"] <= 1e-15 and sim["node_matrix_sigma_min"] >= 0.9
        else:
            reason = "sub-diagonal entry a_1 vanishes (|a_1| = 3.000e-10)"
            assert (code, cls["class_matrix"], cls["reason"]) == (1, False, reason)
            assert (sim_code, sim, err) == (3, None, f"precondition violated: {reason}\n")
            # similarity's default tol, 1e-8, judges it as 1e-9 does
            assert self.verdicts(capsys, ["similarity", "--input", inp]) == (3, None, err)
            # moments has no --tol: it judges at DEFAULT_TOL, 1e-9
            assert self.verdicts(capsys, ["moments", "--input", inp]) == (3, None, err)

    def test_similarity_default_tol_gates_the_class(self, tmp_path, capsys):
        # |a_1| = 5e-9 vanishes at similarity's default tol, 1e-8, as
        # classify --tol 1e-8 says, and is a member at 1e-9
        op = TridiagonalSymmetric([0.1, 0.2, 0.3, -0.4 + 0.1j], [1, 5e-9, 0.7 + 0.2j])
        inp = write(tmp_path, "op.json", io.operator_to_json(op))
        reason = "sub-diagonal entry a_1 vanishes (|a_1| = 5.000e-09)"
        assert ORTHONORMALITY_TOL == 1e-8
        code, cls, _ = self.verdicts(capsys, ["classify", "--input", inp, "--tol", "1e-8"])
        assert (code, cls["class_matrix"], cls["reason"]) == (1, False, reason)
        assert self.verdicts(capsys, ["similarity", "--input", inp]) == (
            3, None, f"precondition violated: {reason}\n"
        )
        code, sim, err = self.verdicts(capsys, ["similarity", "--input", inp, "--tol", "1e-9"])
        assert code == 0 and sim["passed"] is True and err == ""


class TestVerifyCommand:
    def test_paper_measure(self, tmp_path, capsys):
        z0 = (1 + 1j) / np.sqrt(2)
        z1 = (1 / (4 * np.sqrt(2))) * (-1 - np.sqrt(15) + 1j * (-1 + np.sqrt(15)))
        z2 = (1 / (4 * np.sqrt(2))) * (-1 + np.sqrt(15) + 1j * (-1 - np.sqrt(15)))
        mu = {
            "atoms": [
                {"z": [2.0, 2.0], "mass": 0.5},
                {"z": [(2 * z0).real, (2 * z0).imag], "mass": 0.1},
                {"z": [(2 * z1).real, (2 * z1).imag], "mass": 0.2},
                {"z": [(2 * z2).real, (2 * z2).imag], "mass": 0.2},
            ]
        }
        inp = write(
            tmp_path,
            "v.json",
            {"measure": mu, "moments": {"rho": 2, "s": [[1, 0], [1, 1], [0, 3]]}},
        )
        assert main(["verify", "--input", inp]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_residual"] <= 1e-12

    def test_wrong_moments_fail(self, tmp_path):
        inp = write(
            tmp_path,
            "v.json",
            {
                "measure": {"atoms": [{"z": [0, 0], "mass": 1.0}]},
                "moments": {"rho": 1, "s": [[1, 0], [5, 0]]},
            },
        )
        assert main(["verify", "--input", inp]) == 1

    def test_overflowing_difference_exits_1(self, tmp_path):
        # the true relative residual is about 2: a verification failure
        inp = write(
            tmp_path,
            "v.json",
            {
                "measure": {"atoms": [{"z": [1e154, 0], "mass": 1e154}]},
                "moments": {"rho": 1, "s": [[1e154, 0], [-1e308, 0]]},
            },
        )
        proc = run_fresh("verify", "--input", inp)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["max_residual"] == pytest.approx(2.0)
        assert proc.stderr == ""

    def test_wrong_measure_with_small_moments_fails(self, tmp_path, capsys):
        # one atom at 5 with mass 7c against s = c (1, 1 + i, 3i) misses every
        # moment by 86% or more, at any c: the residuals have no floor at 1
        reports = {}
        for c in (1.0, 1e-20, 2.0**-66, 2.0**-1000):
            doc = {
                "measure": {"atoms": [{"z": [5, 0], "mass": 7 * c}]},
                "moments": {"rho": 2, "s": [[c, 0], [c, c], [0, 3 * c]]},
            }
            assert main(["verify", "--input", write(tmp_path, "v.json", doc)]) == 1
            reports[c] = json.loads(capsys.readouterr().out)
        assert reports[1.0]["max_residual"] == pytest.approx(1.0001, abs=1e-4)
        assert min(reports[1.0]["residuals"]) >= 0.857
        assert reports[1e-20]["residuals"] == pytest.approx(reports[1.0]["residuals"], rel=1e-14)
        # a power of two scales every term exactly
        assert reports[2.0**-66] == reports[1.0] == reports[2.0**-1000]

    @pytest.mark.parametrize(
        "z, mass, order",
        [
            (1e200, 1.0, 2),  # max|z|^k itself overflows
            (1e10, 1e300, 1),  # only the product overflows; the residual would be NaN
        ],
    )
    def test_float64_exhaustion_exits_3(self, tmp_path, z, mass, order):
        inp = write(
            tmp_path,
            "v.json",
            {
                "measure": {"atoms": [{"z": [z, 0], "mass": mass}]},
                "moments": {"rho": 2, "s": [[mass, 0], [0, 0], [0, 0]]},
            },
        )
        proc = run_fresh("verify", "--input", inp)
        assert proc.returncode == 3
        assert f"moment order {order}: max|z| {z:.6g}" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestRoundTrip:
    def test_operator_json_bit_exact(self, tmp_path):
        m = random_class_matrix(55, 4)
        obj = io.operator_to_json(m)
        text = json.dumps(obj)
        again = io.operator_from_json(json.loads(text))
        assert np.array_equal(again.diag, m.diag)
        assert np.array_equal(again.offdiag, m.offdiag)

    def test_measure_json_bit_exact(self, tmp_path):
        from trisim.moments import MomentSequence, algorithm1

        seq = MomentSequence(3, np.array([1.0, 0.5 + 0.25j, 1 / 3, -2j]))
        mu = algorithm1(seq)
        again = io.measure_from_json(json.loads(json.dumps(io.measure_to_json(mu))))
        assert np.array_equal(again.atoms, mu.atoms)
        assert np.array_equal(again.masses, mu.masses)

    @pytest.mark.parametrize("d, gamma", [(12, None), (32, 1.01)])
    def test_similarity_output_bit_exact(self, tmp_path, d, gamma):
        op = tmp_path / "op.json"
        io.dump_json(io.operator_to_json(random_class_matrix(d, d)), str(op))
        out = tmp_path / "sim.json"
        argv = ["similarity", "--input", str(op), "--output", str(out)]
        schedule = RadiusSchedule()
        if gamma is not None:
            argv += ["--gamma", repr(gamma)]
            schedule = RadiusSchedule(gamma=gamma)
        assert main(argv) == 0
        text = out.read_text()
        assert text.endswith("\n") and text.count("\n") == 1
        result = strict_json(text)
        # the rank-one scale is written only as the recurrence's a_{d-1}
        assert result["recurrence"]["kind"] == "tridiagonal" and "rank_one_scale" not in result

        tri = io.operator_from_json(io.load_json(str(op)))
        data = build_transform(tri, schedule=schedule)
        report = verify_similarity(tri, data)
        mu = io.measure_from_json(result["measure"])
        assert np.array_equal(mu.atoms, data.measure.atoms)
        assert np.array_equal(mu.masses, data.measure.masses)
        # the recurrence alone gives back the family at the atoms, bit for bit
        ext = io.operator_from_json(result["recurrence"])
        assert ext.dim == d + 1
        assert np.array_equal(ext.diag[:d], tri.diag)
        assert np.array_equal(ext.offdiag[: d - 1], tri.offdiag)
        assert ext.offdiag[d - 1] == 1
        assert np.array_equal(eval_recurrence(ext, mu.atoms), data.poly_at_atoms)
        assert np.array_equal(np.array(result["residuals"]), report.residuals)

    def test_missing_input_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify"])
        assert exc.value.code == 2

    def test_internal_invariant_exits_4(self, monkeypatch, capsys):
        def broken(args):
            raise ConsistencyError("invariant broken")

        monkeypatch.setattr(cli, "cmd_gen", broken)
        assert main(["gen", "--seed", "1"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "invariant broken" in err
        assert "Traceback" not in err

    def test_float64_overflow_exits_3(self, monkeypatch, capsys):
        # an overflow that no check of the command catches reaches main's net
        def overflowing(args):
            return int(np.float64(1e308) * 10)

        monkeypatch.setattr(cli, "cmd_gen", overflowing)
        assert main(["gen", "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("precondition violated: float64 range exhausted (")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--input", "x.json", "--gamma", "0.1"],
            ["moments", "--input", "x.json", "--tol", "1e-3"],
            ["gen", "--seed", "1", "--input", "x.json"],
            # no prefix matching: --d is gen's dimension, not solve's --delta
            ["solve", "--input", "x.json", "--d", "1"],
        ],
    )
    def test_flag_the_command_does_not_read(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestFileErrors:
    @pytest.mark.parametrize(
        "command, text",
        [
            ("solve", json.dumps({"rho": 1e300, "s": [[1, 0]]})),
            ("solve", '{"rho": %d, "s": [[1, 0]]}' % 10**399),
            ("solve", json.dumps({"rho": "x" * 100000, "s": [[1, 0]]})),
            ("classify", json.dumps({"kind": "y" * 100000})),
            # past the digits Python converts to an int
            ("solve", '{"rho": %s, "s": [[1, 0]]}' % ("9" * 5000)),
        ],
        ids=["rho-1e300", "rho-400-digits", "rho-100000-chars", "kind-100000-chars", "rho-5000-digits"],
    )
    def test_huge_input_values_are_cut_in_the_message(self, tmp_path, capsys, command, text):
        p = tmp_path / "in.json"
        p.write_text(text)
        assert main([command, "--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) <= 200 + len(str(p))

    def test_deep_json_exits_2_at_the_default_recursion_limit(self, tmp_path):
        # nested deeper than json.load recurses, in an interpreter whose
        # recursion limit no test runner has touched
        p = tmp_path / "deep.json"
        p.write_text('{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}")
        proc = run_fresh("classify", "--input", str(p))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_non_utf8_input_exits_2(self, tmp_path):
        p = tmp_path / "op.json"
        p.write_bytes(b"\xff" + Path(chain_file(tmp_path)).read_bytes())
        proc = run_fresh("classify", "--input", str(p))
        assert proc.returncode == 2
        assert f"error: cannot read {p}: not UTF-8 text" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command, output, unwritable",
        [
            ("similarity", "nodir/out.json", "nodir/out.json"),
            ("solve", "nodir/out.json", "nodir/out.json"),
            # the JSON is written, but a directory takes the name of its CSV table
            ("solve", "out.json", "out.json.csv"),
        ],
    )
    def test_unwritable_output_exits_2(self, tmp_path, command, output, unwritable):
        if output != unwritable:
            (tmp_path / unwritable).mkdir()
        if command == "similarity":
            inp = chain_file(tmp_path)
        else:
            inp = write(tmp_path, "s.json", {"rho": 2, "s": [[1, 0], [0, 0], [1, 0]]})
        proc = run_fresh(command, "--input", inp, "--output", str(tmp_path / output))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: cannot write {tmp_path / unwritable}: ")
        assert "Traceback" not in proc.stderr


# The argparse sub-parser layout that cli.parse_args replaced, kept verbatim
# as the reference: parse_args must give its help texts, error messages, exit
# codes and parsed values.
def build_parser(argv=None) -> argparse.ArgumentParser:
    """The argument parser; given ``argv``, only the commands it names get
    their flags.  argparse hands the arguments after the command to that
    command's subparser alone, so the parse is the same as with every flag,
    and adding the other commands' flags would cost more than the parse."""
    parser = argparse.ArgumentParser(
        prog="trisim",
        description="Tridiagonal complex symmetric operators: moment problems "
        "and the similarity to rank-one perturbations of restrictions of "
        "normal operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "input": dict(required=True, help="input JSON file"),
        "output": dict(help="output JSON file (stdout if omitted)"),
        "tol": dict(type=_tol, default=DEFAULT_TOL),
        "rho": dict(type=int),
        "gamma": dict(type=float, default=RADIUS_RATIO),
        "delta": dict(type=float, default=MASS_DELTA),
        "seed": dict(type=int, required=True),
        "d": dict(type=int, default=2),
    }
    # each command takes only the flags it reads
    commands = {
        "classify": (cmd_classify, "input output tol"),
        "canonicalize": (cmd_canonicalize, "input output tol"),
        "moments": (cmd_moments, "input output rho"),
        "solve": (cmd_solve, "input output tol gamma delta"),
        "similarity": (cmd_similarity, "input output tol rho gamma delta"),
        "verify": (cmd_verify, "input output tol"),
        "gen": (cmd_gen, "output seed d"),
    }
    for name, (fn, names) in commands.items():
        # no prefix matching, so that "--d" cannot stand for "--delta"
        p = sub.add_parser(name, allow_abbrev=False)
        if argv is None or name in argv:
            for flag in names.split():
                p.add_argument("--" + flag, **flags[flag])
        p.set_defaults(handler=fn)
    sub.choices["similarity"].set_defaults(tol=ORTHONORMALITY_TOL)
    return parser


# argv lists that parse, each command's own flags in every form
PARSED_ARGVS = [
    ["similarity", "--input", "x.json", "--tol", "1e-3", "--gamma", "2"],
    ["solve", "--input", "x.json", "--delta", "0.1"],
    ["gen", "--seed", "3", "--d", "5", "--output", "similarity"],
    ["moments", "--input", "x.json", "--rho", "4"],
    # each command with its required flag alone, every other flag defaulted
    *[[command, *REQUIRED[command]] for command in COMMANDS],
    ["classify", "--input", "x.json", "--output", "y.json", "--tol", "1e-3"],
    ["canonicalize", "--input", "x.json", "--tol", "0"],
    ["solve", "--input", "x.json", "--delta", "0.1", "--gamma", "3"],
    ["similarity", "--input", "x.json", "--tol", "1e-3", "--gamma", "2", "--rho", "9"],
    ["verify", "--output", "y.json", "--input", "x.json"],
    # --flag=value
    ["similarity", "--input=x.json", "--tol=1e-3"],
    ["gen", "--seed=3", "--d=5"],
    ["solve", "--gamma=2", "--input=x.json"],
    ["moments", "--rho=4", "--input=x.json"],
    # repeated flags: the last one counts
    ["gen", "--seed", "1", "--seed", "2"],
    ["similarity", "--input", "a", "--input", "b", "--tol", "1", "--tol", "2"],
    # a command name where a flag value goes
    ["classify", "--output", "gen", "--input", "x.json"],
    ["gen", "--output", "verify", "--seed", "2", "--d", "3"],
]

# argv lists that print help or an error and exit
EXITING_ARGVS = [
    [],
    ["-h"],
    ["similarity", "--help"],
    ["bogus", "--input", "x.json"],
    ["classify", "--input", "x.json", "--gamma", "0.1"],
    ["verify", "--input", "x.json", "stray"],
    # no command, an unknown command, and help before the command
    ["bogus"],
    ["--help"],
    ["-h", "similarity"],
    ["similarity", "-h", "--input", "x.json"],
    *[[command, "-h"] for command in COMMANDS],
    *[[command, "--help"] for command in COMMANDS if command != "similarity"],
    # each command with a flag it does not read
    ["canonicalize", "--input", "x.json", "--rho", "3"],
    ["moments", "--input", "x.json", "--tol", "1e-3"],
    ["solve", "--input", "x.json", "--seed", "1"],
    ["similarity", "--input", "x.json", "--d", "4"],
    ["verify", "--input", "x.json", "--delta", "0.1", "--gamma", "2"],
    ["gen", "--seed", "1", "--input", "x.json"],
    # no prefix matching
    ["gen", "--se", "1"],
    ["solve", "--input", "x.json", "--gam", "2"],
    ["similarity", "--in", "x.json"],
    # stray positionals, before and after the command
    ["gen", "stray", "--seed", "1"],
    ["similarity", "a", "b"],
    ["--input", "x.json", "classify"],
    # --
    ["similarity", "--", "--input", "x.json"],
    ["--", "gen", "--seed", "1"],
    ["gen", "--seed", "1", "--"],
    ["classify", "--input", "--", "x.json"],
    # unknown short options
    ["gen", "-x"],
    ["similarity", "-i", "x.json"],
    ["-v", "gen"],
    ["classify", "-t", "1", "--input", "x.json"],
    # bad values and missing values
    ["classify", "--input", "x.json", "--tol", "nan"],
    ["classify", "--input", "x.json", "--tol", "-1"],
    ["similarity", "--input", "x.json", "--tol", "inf"],
    ["solve", "--input", "x.json", "--tol", "abc"],
    ["gen", "--seed", "x"],
    ["gen", "--seed", "1.5"],
    ["gen", "--seed", "1", "--d", "two"],
    ["moments", "--input", "x.json", "--rho", "1.5"],
    ["similarity", "--input"],
    ["gen", "--d"],
    # each command without its required flag
    *[[command] for command in COMMANDS],
]


def parse_outcome(parse, argv, capsys):
    """Namespace less its handler, exit code, stdout and stderr of one parse."""
    try:
        args, code = vars(parse(argv)), None
        assert callable(args.pop("handler"))
    except SystemExit as exc:
        args, code = None, exc.code
    return args, code, capsys.readouterr()


def assert_parity(argv, capsys):
    """cli.parse_args does what the reference does, in its argv mode and in
    its every-flag mode, and returns the outcome."""
    outcome = parse_outcome(cli.parse_args, argv, capsys)
    for parser in (build_parser(argv), build_parser()):
        assert parse_outcome(parser.parse_args, argv, capsys) == outcome
    return outcome


class TestParser:
    @pytest.mark.parametrize("argv", PARSED_ARGVS)
    def test_parse_is_that_of_the_full_parser(self, argv, capsys):
        args, code, (out, err) = assert_parity(argv, capsys)
        assert args["command"] == argv[0] and code is None and out == err == ""

    @pytest.mark.parametrize("argv", EXITING_ARGVS)
    def test_help_and_errors_are_those_of_the_full_parser(self, argv, capsys):
        args, code, (out, err) = assert_parity(argv, capsys)
        assert args is None and code in (0, 2) and (out if code == 0 else err)

    @pytest.mark.parametrize("command", ["similarity", "gen"])
    def test_missing_required_flag_is_a_usage_error(self, command):
        flag = REQUIRED[command][0]
        proc = run_fresh(command)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"usage: trisim {command} ")
        assert proc.stderr.endswith(f"trisim {command}: error: the following arguments are required: {flag}\n")
        assert "Traceback" not in proc.stderr
        # the usage line shows the flag as required, without brackets
        assert f" {flag} {flag[2:].upper()}" in proc.stderr and f"[{flag}" not in proc.stderr

    def test_handler_is_the_named_commands(self):
        for command in COMMANDS:
            assert cli.parse_args([command, *REQUIRED[command]]).handler is getattr(cli, f"cmd_{command}")

    @staticmethod
    def built_parsers(monkeypatch):
        """The prog of every ArgumentParser built from now on, in order."""
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return progs

    @pytest.mark.parametrize("command", ["gen", "similarity"])
    def test_a_call_builds_only_its_commands_parser(self, command, tmp_path, monkeypatch):
        flags = ["--seed", "1"] if command == "gen" else ["--input", chain_file(tmp_path)]
        progs = self.built_parsers(monkeypatch)
        assert main([command, *flags, "--output", str(tmp_path / "out.json")]) == 0
        assert progs == [f"trisim {command}"]

    def test_leftover_arguments_are_reported_by_the_trisim_parser(self, monkeypatch, capsys):
        progs = self.built_parsers(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--input", "x.json", "--gamma", "2"])
        assert exc.value.code == 2
        assert "trisim: error: unrecognized arguments: --gamma 2" in capsys.readouterr().err
        assert progs == ["trisim classify", "trisim"]

    @pytest.mark.parametrize("argv", [["-h"], ["bogus"]])
    def test_help_and_unknown_commands_build_the_trisim_parser(self, argv, monkeypatch, capsys):
        progs = self.built_parsers(monkeypatch)
        with pytest.raises(SystemExit):
            cli.parse_args(argv)
        assert progs == ["trisim"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["similarity", "--input", "x.json", "--tol", "1e-3", "--gamma", "2", "--rho", "9"],
            ["gen", "--seed", "1"],
            ["similarity", "-h"],
            ["-h"],
            ["bogus"],
            ["classify", "--input", "x.json", "--gamma", "2"],
        ],
    )
    def test_one_terminal_query_per_call(self, argv, monkeypatch, capsys):
        queries = []
        query = shutil.get_terminal_size

        def counting(*args, **kwargs):
            queries.append(args)
            return query(*args, **kwargs)

        monkeypatch.setattr(shutil, "get_terminal_size", counting)
        with contextlib.suppress(SystemExit):
            cli.parse_args(argv)
        assert len(queries) <= 1

    @pytest.mark.parametrize("columns", ["40", "200"])
    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["similarity", "-h"], ["bogus"], ["classify", "--input", "x.json", "--gamma", "0.1"]],
    )
    def test_help_and_errors_wrap_at_the_terminal_width(self, argv, columns, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", columns)
        args, code, (out, err) = assert_parity(argv, capsys)
        assert args is None and code in (0, 2) and (out if code == 0 else err)

    def test_argv_defaults_to_the_command_line(self, tmp_path, monkeypatch):
        out = tmp_path / "op.json"
        monkeypatch.setattr(sys, "argv", ["trisim", "gen", "--seed", "1", "--d", "3", "--output", str(out)])
        assert main() == 0
        op = io.operator_from_json(json.loads(out.read_text()))
        want = random_class_matrix(1, 3)
        assert np.array_equal(op.diag, want.diag) and np.array_equal(op.offdiag, want.offdiag)


class TestCanonicalizeCommand:
    def test_disguised_operator(self, tmp_path, capsys):
        m = random_class_matrix(21, 3)
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a = q @ m.dense() @ q.T
        p = write(
            tmp_path,
            "op.json",
            {
                "kind": "dense",
                "rows": io.dense_to_json(a)["rows"],
                "C": io.dense_to_json(q @ q.T)["rows"],
                "x0": [[float(x), 0.0] for x in q[:, 0]],
            },
        )
        assert main(["canonicalize", "--input", p]) == 0
        result = json.loads(capsys.readouterr().out)
        tri = io.operator_from_json(result["matrix"])
        assert isinstance(tri, TridiagonalSymmetric)
        assert len(result["phases"]) == 3

    @pytest.mark.parametrize("scale", [1.0, 2.0**300, 2.0**-300], ids=["1", "2**300", "2**-300"])
    def test_disguised_d12_member(self, tmp_path, capsys, scale):
        # gen seed 5 at d = 12 as dense Q A Q^H, C = Q Q^T, x0 = Q e_0: classify
        # passes the Gram condition and canonicalize exits 0, with A scaled back
        # before any power is formed, so raw Krylov vectors that would overflow
        # (2^300) or underflow (2^-300) give the same Gram determinants
        m = random_class_matrix(5, 12)
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))
        a = q @ m.dense() @ q.conj().T
        extra = {"C": cvector_to_json(q @ q.T), "x0": cvector_to_json(q[:, 0])}
        gammas = []
        for c in dict.fromkeys([1.0, scale]):  # the scaled document last
            p = write(tmp_path, "op.json", {**io.dense_to_json(c * a), **extra})
            assert main(["classify", "--input", p]) == 0
            report = strict_json(capsys.readouterr().out)
            assert report["gram_condition"] is True
            gammas.append(report["gram_determinants"])
        assert gammas[-1] == gammas[0]
        assert main(["canonicalize", "--input", p]) == 0
        canonical = strict_json(capsys.readouterr().out)["matrix"]
        if scale == 1.0:
            # the canonical matrix has the moments of the original to 1e-7
            moments = []
            for name, doc in [("m", io.operator_to_json(m)), ("can", canonical)]:
                assert main(["moments", "--input", write(tmp_path, name + ".json", doc)]) == 0
                moments.append(io.moments_from_json(json.loads(capsys.readouterr().out)).values)
            s, t = moments
            assert np.max(np.abs(s - t) / np.maximum(1, np.abs(s))) <= 1e-7

    def test_growing_krylov_columns_accepted(self, tmp_path):
        m = random_class_matrix(22, 16)
        op = io.dense_to_json(m.dense())
        op["x0"] = [[1.0, 0.0]] + [[0.0, 0.0]] * 15
        assert main(["canonicalize", "--input", write(tmp_path, "op.json", op)]) == 0
        op["C"] = io.dense_to_json(np.eye(16))["rows"]
        assert main(["classify", "--input", write(tmp_path, "op.json", op)]) == 0

    @pytest.mark.parametrize("command", ["classify", "canonicalize"])
    def test_krylov_vectors_past_float64(self, tmp_path, command):
        # e0 is cyclic, and A^4 e0 has entries 1e400: A is scaled down before
        # any power is formed, so the chain is a member like any other
        a = np.diag(np.full(4, 1e100), 1)
        op = io.dense_to_json(a + a.T)
        op["C"] = io.dense_to_json(np.eye(5))["rows"]
        op["x0"] = [[1.0, 0.0]] + [[0.0, 0.0]] * 4
        proc = run_fresh(command, "--input", write(tmp_path, "op.json", op))
        assert proc.returncode == 0 and proc.stderr == ""
        out = json.loads(proc.stdout)
        if command == "classify":
            assert out["gram_condition"] is True
        else:
            tri = io.operator_from_json(out["matrix"])
            assert np.array_equal(tri.offdiag, np.full(4, 1e100))

    @pytest.mark.parametrize("scale", [1e-105, 1e-108])
    @pytest.mark.parametrize("command", ["classify", "canonicalize"])
    def test_subnormal_krylov_vectors(self, tmp_path, command, scale):
        # A^3 e0 of the scaled member is subnormal in float64: both commands
        # pass the member, with no LAPACK text on stdout and no traceback;
        # canonicalize judges the canonical matrix relative to its own scale
        op = io.dense_to_json(scale * random_class_matrix(3, 4).dense())
        op["C"] = io.dense_to_json(np.eye(4))["rows"]
        op["x0"] = [[1.0, 0.0]] + [[0.0, 0.0]] * 3
        proc = run_fresh(command, "--input", write(tmp_path, "op.json", op))
        assert proc.returncode == 0 and proc.stderr == ""
        out = strict_json(proc.stdout)
        if command == "classify":
            assert out["gram_condition"] is True
        else:
            assert io.operator_from_json(out["matrix"]).dim == 4
            # the unscaled member's off-diagonal times the scale, to 1e-12 relative
            unit = canonicalize(random_class_matrix(3, 4).dense(), np.eye(4)[0], ConjugationMap.standard(4))
            want = scale * unit.matrix.offdiag
            got = io.operator_from_json(out["matrix"]).offdiag
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_d22_member_read_cyclic_off_the_qr(self, tmp_path, capsys):
        # sigma_min / sigma_max of this member's Krylov matrix is below 1e-8,
        # every unit-column r_kk above it: a member, in both commands
        _, a, x0, j = envelope_member(22, 3)
        p = write(tmp_path, "op.json", envelope_document(a, x0, j))
        assert main(["classify", "--input", p]) == 0
        assert json.loads(capsys.readouterr().out)["gram_condition"] is True
        assert main(["canonicalize", "--input", p]) == 0

    def test_zero_krylov_column_is_not_cyclic(self, tmp_path, capsys):
        # A e_1 = e_0 and A^2 e_1 = 0: the zero column is found before any
        # division by its norm, which would raise under the CLI's errstate
        op = io.dense_to_json(np.diag(np.ones(2), 1))
        op["x0"] = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        assert main(["canonicalize", "--input", write(tmp_path, "op.json", op)]) == 3
        assert capsys.readouterr().err == (
            "precondition violated: x0 is not a cyclic vector: Krylov matrix rank "
            "deficient at order k = 2 (unit-column r_kk = 0.000e+00)\n"
        )

    def test_ill_conditioned_krylov_basis_exits_3(self, tmp_path):
        # the d = 28 member passes the Gram condition, but a J g_r is off its
        # line by more than --tol: a precondition (exit 3), not exit 4
        _, a, x0, j = envelope_member(28, 7)
        proc = run_fresh("canonicalize", "--input", write(tmp_path, "op.json", envelope_document(a, x0, j)))
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert re.search(r"Krylov basis too ill-conditioned at tol .*: J g_\d+ is not proportional to g_\d+", proc.stderr)

    def test_missing_x0(self, tmp_path):
        p = write(
            tmp_path,
            "op.json",
            {"kind": "dense", "rows": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        )
        assert main(["canonicalize", "--input", p]) == 2


# JSON-like documents: junk of every type, and documents shaped like each
# input format with junk, out-of-range or non-finite values in any field
KEYS = ["kind", "diag", "offdiag", "rows", "C", "x0", "s", "rho", "measure", "moments", "atoms", "z", "mass"]
NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.floats(),  # json.dump writes nan and inf as NaN and Infinity, which json.load reads
    # 10**400 is a JSON integer that float64 cannot hold
    st.sampled_from([1e-300, 1e100, 1e200, 1.7e308, 10**400]).flatmap(
        lambda x: st.sampled_from([x, -x])
    ),
)
PAIR = st.lists(NUMBERS, min_size=2, max_size=2)
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=2), NUMBERS, PAIR),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(KEYS), inner, max_size=3)
    ),
    max_leaves=8,
)
VECTOR = st.one_of(st.lists(PAIR, min_size=1, max_size=4), JUNK)
MATRIX = st.one_of(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(PAIR, min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    JUNK,
)
OPERATOR = st.fixed_dictionaries(
    {"kind": st.one_of(st.sampled_from(["tridiagonal", "dense"]), JUNK)},
    optional={"diag": VECTOR, "offdiag": VECTOR, "rows": MATRIX, "C": MATRIX, "x0": VECTOR},
)
MOMENTS = st.fixed_dictionaries({}, optional={"rho": st.one_of(st.integers(-1, 5), JUNK), "s": VECTOR})
ATOM = st.fixed_dictionaries({}, optional={"z": st.one_of(PAIR, JUNK), "mass": st.one_of(NUMBERS, JUNK)})
MEASURE = st.fixed_dictionaries({}, optional={"atoms": st.one_of(st.lists(ATOM, max_size=4), JUNK)})
DOCUMENT = st.one_of(
    OPERATOR,
    MOMENTS,
    st.fixed_dictionaries(
        {}, optional={"measure": st.one_of(MEASURE, JUNK), "moments": st.one_of(MOMENTS, JUNK)}
    ),
    JUNK,
)


class TestFuzz:
    @given(
        doc=DOCUMENT,
        command=st.sampled_from(
            ["verify", "solve", "classify", "similarity", "canonicalize", "moments"]
        ),
    )
    @settings(max_examples=150, deadline=None)
    # failures found by this test, each once a traceback or a RuntimeWarning
    @example(doc={"measure": {"atoms": 5}, "moments": {"s": [[1, 0], [0, 0]]}}, command="verify")
    @example(
        doc={
            "kind": "dense",
            "rows": [[[1, 0], [1, 0]], [[1, 0], [0, 0]]],
            "C": [[[1, 1e300], [0, 0]], [[0, 0], [1, 0]]],
            "x0": [[1, 0], [0, 0]],
        },
        command="classify",
    )
    @example(
        doc={
            "kind": "dense",
            "rows": [[[1, 0], [1, 0]], [[1, 0], [0, 0]]],
            "C": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "x0": [[1.7e308, 0], [0, 0]],
        },
        command="classify",
    )
    @example(
        doc={"kind": "dense", "rows": [[[0, 0], [1.7e308, 0]], [[-1.7e308, 0], [0, 0]]]},
        command="similarity",
    )
    @example(doc={"rho": 2, "s": [[2, 0], [1.5e308, 1.5e308], [0, 0]]}, command="solve")
    @example(doc={"rho": 2, "s": [[5e-324, 0], [1, 0], [0, 0]]}, command="solve")
    @example(doc={"rho": 1, "s": [[1e-300, 0], [1e300, 0]]}, command="solve")
    @example(doc={"rho": 1, "s": [[5e-324, 0], [1, 0]]}, command="solve")
    @example(doc={"s": [[0, 10**400]]}, command="solve")
    @example(doc={"kind": "tridiagonal", "diag": [[0, 10**400]]}, command="classify")
    def test_any_document_gets_an_exit_code(self, tmp_path_factory, doc, command):
        # no exception escapes cli.main, RuntimeWarnings included (they are
        # errors under the pytest configuration)
        workdir = tmp_path_factory.mktemp("fuzz")
        path = workdir / "in.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
            code = main([command, "--input", str(path), "--output", str(workdir / "out.json")])
        assert code in (0, 1, 2, 3, 4)
