import contextlib
import json
import os
import subprocess
import sys
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trisim
from trisim import cli
from trisim.cli import main
from trisim import io
from trisim.core import (
    ConsistencyError,
    TridiagonalSymmetric,
    cvector_from_json,
    random_class_matrix,
)
from trisim.moments import RadiusSchedule
from trisim.similarity import build_transform, verify_similarity


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

    def test_generated_matrix_is_in_class(self, tmp_path):
        p = tmp_path / "op.json"
        main(["gen", "--seed", "7", "--d", "5", "--output", str(p)])
        assert main(["classify", "--input", str(p)]) == 0

    def test_rejects_d_below_two(self):
        assert main(["gen", "--seed", "1", "--d", "1"]) == 2

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

    def test_nonpositive_s0(self, tmp_path):
        inp = write(tmp_path, "m.json", {"s": [[-1, 0], [0, 0], [0, 0]]})
        assert main(["solve", "--input", inp]) == 2  # rejected at parse

    def test_infinite_ring_radius_exits_3(self, tmp_path):
        # |c_2| / ring mass overflows to inf, so no finite radius admits it
        inp = write(tmp_path, "m.json", {"rho": 2, "s": [[1e-300, 0], [0, 0], [1e10, 0]]})
        proc = run_fresh("solve", "--input", inp)
        assert proc.returncode == 3
        assert "ring order 2" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestMomentsCommand:
    def test_chain_moments(self, tmp_path, capsys):
        assert main(["moments", "--input", chain_file(tmp_path), "--rho", "5"]) == 0
        got = io.moments_from_json(json.loads(capsys.readouterr().out))
        assert np.allclose(got.values, [1, 0, 1, 0, 2, 0])

    def test_rho_must_exceed_2d(self, tmp_path):
        assert main(["moments", "--input", chain_file(tmp_path), "--rho", "4"]) == 2

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


class TestSimilarityCommand:
    def test_chain_pipeline(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main(["similarity", "--input", chain_file(tmp_path), "--output", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["passed"] is True
        assert result["max_residual"] < 1e-10
        assert result["rank_one_scale"] == [1.0, 0.0]
        assert result["node_matrix_sigma_min"] > 0

    def test_generated_d5(self, tmp_path):
        op = tmp_path / "op.json"
        main(["gen", "--seed", "1", "--d", "5", "--output", str(op)])
        out = tmp_path / "sim.json"
        assert main(["similarity", "--input", str(op), "--output", str(out)]) == 0

    def test_explicit_tol_is_used(self, tmp_path, capsys):
        # this input verifies to about 1.02e-9: inside the 1e-8 default,
        # outside an explicit --tol 1e-9
        op = tmp_path / "op.json"
        main(["gen", "--seed", "11", "--d", "12", "--output", str(op)])
        capsys.readouterr()
        assert main(["similarity", "--input", str(op), "--tol", "1e-9"]) == 1
        result = json.loads(capsys.readouterr().out)
        assert 1e-9 < result["max_residual"] < 1e-8
        assert result["passed"] is False
        assert main(["similarity", "--input", str(op)]) == 0

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

    def test_float64_exhaustion_exits_3(self, tmp_path):
        op = tmp_path / "op.json"
        assert main(["gen", "--seed", "3", "--d", "20", "--output", str(op)]) == 0
        proc = run_fresh("similarity", "--input", str(op))
        assert proc.returncode == 3
        assert "ring order" in proc.stderr
        assert "Traceback" not in proc.stderr


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
        _, again = io.operator_from_json(json.loads(text))
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
        result = json.loads(text)

        _, tri = io.operator_from_json(io.load_json(str(op)))
        data = build_transform(tri, schedule=schedule)
        report = verify_similarity(tri, data)
        mu = io.measure_from_json(result["measure"])
        assert np.array_equal(mu.atoms, data.measure.atoms)
        assert np.array_equal(mu.masses, data.measure.masses)
        assert len(result["polynomials"]) == data.polys.n_max + 1
        for n, row in enumerate(result["polynomials"]):
            assert np.array_equal(cvector_from_json(row), data.polys.coeffs[n, : n + 1])
        assert np.array_equal(np.array(result["residuals"]), report.residuals)

    def test_missing_input_flag(self):
        assert main(["classify"]) == 2

    def test_internal_invariant_exits_4(self, monkeypatch, capsys):
        def broken(args):
            raise ConsistencyError("invariant broken")

        monkeypatch.setattr(cli, "cmd_gen", broken)
        assert main(["gen", "--seed", "1"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "invariant broken" in err
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
        _, tri = io.operator_from_json(result["matrix"])
        assert isinstance(tri, TridiagonalSymmetric)
        assert len(result["phases"]) == 3

    def test_growing_krylov_columns_accepted(self, tmp_path):
        m = random_class_matrix(22, 16)
        op = io.dense_to_json(m.dense())
        op["x0"] = [[1.0, 0.0]] + [[0.0, 0.0]] * 15
        assert main(["canonicalize", "--input", write(tmp_path, "op.json", op)]) == 0
        op["C"] = io.dense_to_json(np.eye(16))["rows"]
        assert main(["classify", "--input", write(tmp_path, "op.json", op)]) == 0

    @pytest.mark.parametrize("command", ["classify", "canonicalize"])
    def test_overflowing_krylov_vectors_exit_3(self, tmp_path, command):
        # e0 is cyclic, but A^4 e0 has entries 1e400
        a = np.diag(np.full(4, 1e100), 1)
        op = io.dense_to_json(a + a.T)
        op["C"] = io.dense_to_json(np.eye(5))["rows"]
        op["x0"] = [[1.0, 0.0]] + [[0.0, 0.0]] * 4
        proc = run_fresh(command, "--input", write(tmp_path, "op.json", op))
        assert proc.returncode == 3
        assert "Krylov order 4" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

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
    st.sampled_from([1e-300, 1e100, 1e200, 1.7e308]).flatmap(lambda x: st.sampled_from([x, -x])),
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
    def test_any_document_gets_an_exit_code(self, tmp_path_factory, doc, command):
        # no exception escapes cli.main, RuntimeWarnings included (they are
        # errors under the pytest configuration)
        workdir = tmp_path_factory.mktemp("fuzz")
        path = workdir / "in.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
            code = main([command, "--input", str(path), "--output", str(workdir / "out.json")])
        assert code in (0, 1, 2, 3, 4)
