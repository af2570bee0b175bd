import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisim import io
from trisim.core import (
    AtomicMeasure,
    ConjugationMap,
    InputError,
    PreconditionError,
    TridiagonalSymmetric,
    as_complex_matrix,
    as_complex_vector,
    random_class_matrix,
)
from trisim.io import complex_array, complex_to_json, cvector_to_json
from trisim.similarity import build_transform, orthonormality_residuals


def gram_det(vectors) -> complex:
    """Determinant of the Gram matrix [(y_k, y_l)] (second slot conjugated),
    by a pivoted LU factorization: the brute-force form of the Gram
    determinants that ``classify`` reads off a QR.  Pinned by ``TestGramDet``;
    ``test_classify`` checks ``gram_condition_check`` against it."""
    if len(vectors) == 0:
        raise InputError("gram_det needs at least one vector")
    vs = [as_complex_vector(v) for v in vectors]
    if any(len(v) != len(vs[0]) for v in vs):
        raise InputError("all vectors must have the same dimension")
    v = np.array(vs)
    return complex(np.linalg.det(v @ v.conj().T))


def leaves(obj):
    """The scalars of a nested JSON-like value, in order (dict keys sorted)."""
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in leaves(obj[k])]
    if isinstance(obj, list):
        return [x for item in obj for x in leaves(item)]
    return [obj]


def e(k, d):
    v = np.zeros(d, dtype=complex)
    v[k] = 1.0
    return v


finite_complex = st.builds(
    complex,
    st.floats(-10, 10, allow_nan=False),
    st.floats(-10, 10, allow_nan=False),
)


class TestGramDet:
    def test_orthonormal_pair(self):
        assert gram_det([e(0, 2), e(1, 2)]) == pytest.approx(1)

    def test_repeated_vector_is_singular(self):
        assert gram_det([e(0, 3), e(1, 3), e(1, 3)]) == pytest.approx(0, abs=1e-12)

    def test_two_by_two_hand_oracle(self):
        # v=(1,0), w=(1,1): Gram matrix [[1,1],[1,2]], determinant 1
        assert gram_det([[1, 0], [1, 1]]) == pytest.approx(1)

    def test_sesquilinear_convention(self):
        # (v, w) conjugates the second argument: for v=(i,), w=(1,) the
        # Gram matrix is [[1, i], [-i, 1]], determinant 0
        assert gram_det([[1j], [1]]) == pytest.approx(0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            gram_det([[1, 0], [1, 0, 0]])

    def test_empty(self):
        with pytest.raises(InputError):
            gram_det([])

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        vs = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        g1 = gram_det(list(vs))
        g2 = gram_det([q @ v for v in vs])
        assert g1 == pytest.approx(g2, rel=1e-10)


@pytest.fixture
def unit_atom():
    return AtomicMeasure(np.array([2 + 2j]), np.array([0.5]))


def reference_bilinear_gram(values, mu):
    """The pairing function that orthonormality_residuals used to call,
    kept verbatim as the reference for bit-identity."""
    p = np.asarray(values, dtype=np.complex128)
    if p.ndim != 2 or p.shape[1] != mu.n_atoms:
        raise InputError(f"values need one column per atom, got shape {p.shape}")
    v = p * np.sqrt(mu.masses)
    av = np.abs(v)
    return v @ v.T, av @ av.T


class TestPairings:
    """The bilinear pairing as ``orthonormality_residuals`` forms it: entry
    (k, l) is |sum_j m_j f_k f_l - delta_kl| / max(1, sum_j m_j |f_k| |f_l|)."""

    def test_inner_normalization(self):
        mu = AtomicMeasure(np.array([0.3 + 0.1j]), np.array([1.0]))
        assert orthonormality_residuals(np.ones((1, 1)), mu, 0)[0, 0] == 0

    def test_inner_single_atom_first_moment(self, unit_atom):
        # against the atom (2+2i, 1/2): the integral of z is 1+i, of z^2 is
        # 4i (not the 4 of |z|^2), each over its scale sqrt(2) and 4
        res = orthonormality_residuals([unit_atom.atoms, np.ones(1)], unit_atom, 1)
        assert res[0, 1] == pytest.approx(abs(1 + 1j) / np.sqrt(2))
        assert res[0, 0] == pytest.approx(abs(4j - 1) / 4)
        assert res[1, 1] == pytest.approx(0.5)

    def test_bilinear_vs_sesquilinear_at_i(self):
        # p = z at the atom i pairs to i^2 = -1 with itself, 2 away from 1;
        # the sesquilinear product |i|^2 = 1 would read 0
        mu = AtomicMeasure(np.array([1j]), np.array([1.0]))
        assert orthonormality_residuals(mu.atoms[None, :], mu, 0)[0, 0] == pytest.approx(2)

    def test_accepts_value_arrays(self, unit_atom):
        # a list of per-atom arrays and a 2-d array are the same stack
        vals = unit_atom.atoms
        as_list = orthonormality_residuals([vals, np.ones(1)], unit_atom, 1)
        as_array = orthonormality_residuals(np.array([vals, np.ones(1)]), unit_atom, 1)
        assert np.array_equal(as_list, as_array)

    def test_rejects_shape_mismatch(self, unit_atom):
        for values in (np.ones(1), np.ones((2, 2)), np.ones((1, 1, 1))):
            with pytest.raises(InputError, match="one column per atom"):
                orthonormality_residuals(values, unit_atom, 1)

    @given(
        fs=st.lists(finite_complex, min_size=3, max_size=3),
        gs=st.lists(finite_complex, min_size=3, max_size=3),
    )
    @settings(max_examples=50)
    def test_symmetry_laws(self, fs, gs):
        # V V^T and |V| |V|^T are exactly symmetric, so the residuals are;
        # |gram| <= scales puts every off-diagonal residual within 1, up to
        # a few ulps
        mu = AtomicMeasure(np.array([0.0, 1.0, 1j]), np.array([0.5, 0.25, 0.25]))
        res = orthonormality_residuals([np.array(fs), np.array(gs)], mu, 1)
        assert np.array_equal(res, res.T)
        assert res[0, 1] <= 1 + 1e-15

    @pytest.mark.parametrize("d", [8, 32, 64])
    def test_matches_the_direct_sum_on_circle_measures(self, d):
        # sum_j m_j f_k f_l term by term, with no sqrt(m) split and no BLAS:
        # the Gram agrees to 4 eps of its scale, the scale to n_atoms eps
        eps = np.finfo(np.float64).eps
        for seed in range(5):
            data = build_transform(random_class_matrix(seed, d))
            f, mu = data.poly_at_atoms, data.measure
            direct = np.einsum("j,kj,lj->kl", mu.masses, f, f)
            direct_scales = np.einsum("j,kj,lj->kl", mu.masses, np.abs(f), np.abs(f))
            want = np.abs(direct - np.eye(d + 1)) / np.maximum(1.0, direct_scales)
            res = orthonormality_residuals(f, mu, d)
            assert np.all(np.abs(res - want) <= 8 * eps + 2 * mu.n_atoms * eps * want)

    @pytest.mark.parametrize("d", [2, 8, 48])
    def test_bit_identical_to_the_reference_pairing(self, d):
        for seed in range(5):
            data = build_transform(random_class_matrix(seed, d))
            f, mu = data.poly_at_atoms, data.measure
            gram, scales = reference_bilinear_gram(f[: d + 1], mu)
            want = np.abs(gram - np.eye(d + 1)) / np.maximum(1.0, scales)
            assert np.array_equal(orthonormality_residuals(f, mu, d), want)


class TestDomainTypes:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: as_complex_matrix(np.zeros((2, 3)), "A"), "A must be a square 2-d array, got shape (2, 3)"),
            (lambda: as_complex_matrix(np.zeros(3), "A"), "A must be a square 2-d array, got shape (3,)"),
            (lambda: as_complex_matrix([[1, np.inf], [0, 1]], "A"), "A contains non-finite entries"),
            (lambda: as_complex_vector(np.zeros((2, 2)), "x0"), "x0 must be a 1-d array, got shape (2, 2)"),
            (lambda: as_complex_vector([1, np.nan], "x0"), "x0 contains non-finite entries"),
            (lambda: TridiagonalSymmetric([0, 0, 0], [1]), "offdiag must have length 2, got 1"),
            (lambda: AtomicMeasure([0, 1], [1.0]), "atoms and masses must have equal length"),
        ],
        ids=["matrix-shape", "matrix-ndim", "matrix-inf", "vector-shape", "vector-nan", "offdiag", "measure"],
    )
    def test_malformed_arguments(self, call, message):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message

    def test_measure_rejects_nonpositive_mass(self):
        # a non-finite mass is malformed input too, not a float64-range
        # precondition for verify_measure to find
        for mass in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(InputError, match="finite and strictly positive"):
                AtomicMeasure(np.array([1.0]), np.array([mass]))

    def test_measure_rejects_duplicate_atoms(self):
        with pytest.raises(InputError):
            AtomicMeasure(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        # duplicates that are not neighbours in the input
        with pytest.raises(InputError):
            AtomicMeasure(np.array([1j, 2.0, -1j, 2.0, 0.5]), np.full(5, 0.2))

    def test_measure_rejects_empty(self):
        with pytest.raises(InputError):
            AtomicMeasure(np.array([]), np.array([]))

    @pytest.mark.parametrize("d", [10**20, 2**60])
    def test_random_class_matrix_past_intp_is_a_precondition(self, d):
        # sizes numpy refuses before it allocates; the InputError checks
        # (also ValueErrors) still run first
        with pytest.raises(PreconditionError, match=f"d = {d} matrix cannot be allocated"):
            random_class_matrix(0, d)
        with pytest.raises(InputError, match="seed must be non-negative"):
            random_class_matrix(-1, d)

    def test_tridiagonal_dense_roundtrip(self):
        m = TridiagonalSymmetric([1, 2j, 3], [4, 5j])
        a = m.dense()
        assert a[0, 1] == a[1, 0] == 4
        assert a[1, 2] == a[2, 1] == 5j
        assert a[0, 2] == 0

    def test_tridiagonal_requires_dim_2(self):
        with pytest.raises(InputError):
            TridiagonalSymmetric([1], [])

    def test_conjugation_standard_is_valid(self):
        j = ConjugationMap.standard(3)
        j.check()
        x = np.array([1 + 2j, 3, -1j])
        assert np.allclose(j.apply(j.apply(x)), x)

    def test_conjugation_rejects_nonunitary(self):
        with pytest.raises(InputError):
            ConjugationMap(2 * np.eye(2)).check()

    def test_conjugation_rejects_asymmetric(self):
        c = np.array([[0, 1], [-1, 0]], dtype=complex)  # unitary, not symmetric
        with pytest.raises(InputError):
            ConjugationMap(c).check()


# The per-pair readers that io.complex_array replaced, kept as its reference.
def complex_from_json(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise InputError(f"expected [re, im] pair, got {v!r}")
    try:
        return complex(float(v[0]), float(v[1]))
    except (TypeError, ValueError):
        raise InputError(f"expected two numbers in [re, im] pair, got {v!r}") from None


def cvector_from_json(v) -> np.ndarray:
    if not isinstance(v, (list, tuple)):
        raise InputError("expected a list of [re, im] pairs")
    return np.array([complex_from_json(z) for z in v], dtype=np.complex128)


def cmatrix_from_json(rows) -> np.ndarray:
    if not isinstance(rows, (list, tuple)) or len(rows) == 0:
        raise InputError("expected a non-empty list of rows")
    vecs = [cvector_from_json(r) for r in rows]
    if any(len(v) != len(vecs[0]) for v in vecs):
        raise InputError("matrix rows must all have the same length")
    return np.array(vecs, dtype=np.complex128)


REFERENCE_READERS = (complex_from_json, cvector_from_json, cmatrix_from_json)

# JSON values as json.load returns them: numbers of every size, including
# ones float64 cannot hold, null, booleans, numeric and other strings
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**400), 2**53 + 1, 2 * 10**308, 10**30 + 1]),
    st.floats(),
    st.sampled_from(["1.5", "-0", " 2 ", "1_0", "nan", "-Infinity", "1e400", "0x1", ""]),
    st.text(max_size=2),
)
PAIRS = st.lists(SCALARS, min_size=2, max_size=2)
JSONLIKE = st.recursive(
    st.one_of(SCALARS, PAIRS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=1), inner, max_size=2)
    ),
    max_leaves=10,
)
# values of each depth shaped as the readers expect, empty lists included
SHAPED = (
    PAIRS,
    st.lists(PAIRS, max_size=4),
    st.integers(0, 3).flatmap(
        lambda n: st.lists(st.lists(PAIRS, min_size=n, max_size=n), max_size=3)
    ),
)


class TestComplexJson:
    def test_pair_roundtrip_bit_exact(self):
        z = complex(1 / 3, -2 / 7)
        again = complex_array(json.loads(json.dumps(complex_to_json(z))), 0, "z")
        assert again == z

    def test_vector_roundtrip(self):
        v = np.array([0.1 + 0.2j, -3.5, 1e300j])
        again = complex_array(json.loads(json.dumps(cvector_to_json(v))), 1, "v")
        assert np.array_equal(again, v)

    @pytest.mark.parametrize(
        "v, ndim, want",
        [
            ([1, -0.0], 0, complex(1, -0.0)),
            ([[1, 2], [3.5, -4]], 1, [1 + 2j, 3.5 - 4j]),
            ([[[1, 0], [0, 1]], [[0, -1], [2, 0]]], 2, [[1, 1j], [complex(0, -1), 2]]),
            ([1, 0], 0, 1),  # JSON integers
            ([1.5, -2], 0, 1.5 - 2j),  # a float and an integer
            ([[10**300, 0]], 1, [1e300]),
        ],
    )
    def test_reads_each_depth(self, v, ndim, want):
        got = complex_array(v, ndim, "v")
        want = np.asarray(want, dtype=np.complex128)
        assert got.dtype == np.complex128 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "v, ndim",
        [
            ([1.0], 0),  # not a pair
            ([1, 2, 3], 0),
            ([[1, 2]], 0),  # one level too many
            ([1, 2], 1),  # one level too few
            ([[1, 2], [3]], 1),  # ragged
            ([[[1, 0], [0, 0]], [[0, 0]]], 2),
            ([[1, 2], [[3, 4], 5]], 1),
            ([], 1),  # empty
            ([[]], 1),
            ([], 2),
            ([[]], 2),
            ([None, 0], 0),  # JSON null, which numpy reads as nan
            ([[0, 0], [0, None]], 1),
            ([float("nan"), 0], 0),  # JSON NaN and Infinity
            ([0, float("-inf")], 0),
            ([10**400, 0], 0),  # too large for float64
            ([[0, 0], [0, -(10**400)]], 1),
            (["1e400", 0], 0),  # a numeric string that reads as inf
            (["x", 0], 0),  # not a numeric string
            ("12", 1),
            ({"re": 1, "im": 2}, 0),
            ([{"re": 1}, 2], 0),
            (None, 1),
            (3, 0),
            # a string or a value of booleans alone is not a JSON number
            (["1.5", " -2 "], 0),
            ([True, False], 0),
            ([[True, False], [False, True]], 1),
            ([[1, 0], ["2", 0]], 1),
            ([[10**30, "0.5"]], 1),  # numpy holds an integer past 64 bits as an object
            ([[10**30, None]], 1),
        ],
    )
    def test_rejects_everything_else(self, v, ndim):
        with pytest.raises(InputError):
            complex_array(v, ndim, "v")

    @given(ndim=st.integers(0, 2), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_pair_readers(self, ndim, data):
        # Where the reference gives a non-empty finite array, the reader gives
        # the same bits (-0.0 included); everywhere else it raises InputError,
        # also where the reference raised OverflowError or returned an empty or
        # non-finite array, both of which every consumer rejected with exit 2,
        # and where v holds a string or only booleans, which the reference
        # reads as float does but the reader refuses as no JSON number.
        v = data.draw(st.one_of(SHAPED[ndim], JSONLIKE))
        try:
            want = np.asarray(REFERENCE_READERS[ndim](v), dtype=np.complex128)
        except (InputError, OverflowError):
            want = None
        scalars = leaves(v)
        numbers = not any(isinstance(x, str) for x in scalars) and not all(
            isinstance(x, bool) for x in scalars
        )
        if numbers and want is not None and want.size and np.isfinite(want).all():
            got = complex_array(v, ndim, "v")
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        else:
            with pytest.raises(InputError):
                complex_array(v, ndim, "v")

    def test_vectorized_writers_match_per_element(self):
        # the per-element complex_to_json is the reference; repr tells -0.0
        # from 0.0, and the type check a numpy scalar from a plain float
        v = np.array([complex(-0.0, 1e300), complex(5e-324, -0.0), 1 / 3 - 2e-7j])
        m = np.array([v, v[::-1], -v])
        mu = AtomicMeasure(v, [5e-324, 1e300, 0.25])
        one = AtomicMeasure(v[1:2], [1.0])

        def measure_ref(mu):
            return {
                "atoms": [
                    {"z": complex_to_json(z), "mass": float(w)}
                    for z, w in zip(mu.atoms, mu.masses)
                ]
            }

        cases = [
            (cvector_to_json(v), [complex_to_json(z) for z in v]),
            (cvector_to_json(v[:1]), [complex_to_json(v[0])]),
            (cvector_to_json(m), [[complex_to_json(z) for z in row] for row in m]),
            (io.measure_to_json(mu), measure_ref(mu)),
            (io.measure_to_json(one), measure_ref(one)),
        ]
        for got, want in cases:
            assert got == want
            assert [(type(x), repr(x)) for x in leaves(got)] == [
                (float, repr(x)) for x in leaves(want)
            ]

    def test_malformed_pair(self):
        with pytest.raises(InputError):
            complex_array([1.0], 0, "z")

    @pytest.mark.parametrize(
        "read, obj, message",
        [
            (io.moments_from_json, {"rho": "x" * 100000, "s": [[1, 0]]}, "rho must be an integer, got 'x"),
            (io.moments_from_json, {"rho": [1] * 100000, "s": [[1, 0]]}, "rho must be an integer, got [1, "),
            (io.operator_from_json, {"kind": "y" * 100000}, "unknown operator kind 'y"),
        ],
        ids=["rho-string", "rho-list", "kind-string"],
    )
    def test_messages_cut_a_huge_echoed_value(self, read, obj, message):
        with pytest.raises(InputError) as exc:
            read(obj)
        assert str(exc.value).startswith(message) and "..." in str(exc.value)
        assert len(str(exc.value)) <= 80

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"kind": "tridiagonal", "diag": [[0, 0], [0, 0]]}, "tridiagonal operator missing field 'offdiag'"),
            ({"kind": "dense", "rows": [[[0, 0], [1, 0]]]}, "dense operator rows must form a square matrix"),
            ({"kind": "dense", "rows": [[[1, 0]]]}, "dimension must be at least 2"),
        ],
        ids=["missing-offdiag", "non-square", "1x1"],
    )
    def test_malformed_operator_documents(self, obj, message):
        with pytest.raises(InputError) as exc:
            io.operator_from_json(obj)
        assert str(exc.value) == message

    def test_operator_document_reads_a_c_and_x0(self):
        # J and x0 are None when absent, and x0 without C takes C = I
        chain = {"kind": "tridiagonal", "diag": [[0, 0], [0, 0]], "offdiag": [[1, 0]]}
        a, j, x0 = io.operator_document(chain)
        assert isinstance(a, TridiagonalSymmetric) and j is None and x0 is None
        a, j, x0 = io.operator_document({**chain, "x0": [[0, 0], [2, 0]]})
        assert np.array_equal(j.matrix, np.eye(2)) and x0.tolist() == [0, 2]
        swap = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
        a, j, x0 = io.operator_document({**chain, "C": swap, "x0": [[1, 0], [1, 0]]})
        assert np.array_equal(j.matrix, [[0, 1], [1, 0]]) and x0.tolist() == [1, 1]
        a, j, x0 = io.operator_document({**chain, "C": swap})
        assert np.array_equal(j.matrix, [[0, 1], [1, 0]]) and x0 is None
        with pytest.raises(InputError, match="^x0 must be a list of"):
            io.operator_document({**chain, "x0": [["1", 0], [0, 0]]})

    def test_messages_echo_a_small_value_whole(self):
        with pytest.raises(InputError, match=r"^rho must be an integer, got 'three'$"):
            io.moments_from_json({"rho": "three", "s": [[1, 0]]})
        with pytest.raises(InputError, match=r"^unknown operator kind 'banded'$"):
            io.operator_from_json({"kind": "banded"})
