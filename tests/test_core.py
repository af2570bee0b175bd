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
    TridiagonalSymmetric,
    bilinear_gram,
    complex_from_json,
    cmatrix_to_json,
    complex_to_json,
    cvector_from_json,
    cvector_to_json,
    gram_det,
)


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


class TestPairings:
    def test_inner_normalization(self):
        mu = AtomicMeasure(np.array([0.3 + 0.1j]), np.array([1.0]))
        gram, _ = bilinear_gram(np.ones((1, 1)), mu)
        assert gram[0, 0] == pytest.approx(1)

    def test_inner_single_atom_first_moment(self, unit_atom):
        # integral of z against the atom (2+2i, 1/2) is 1+i
        z = unit_atom.atoms
        gram, _ = bilinear_gram([z, np.ones(1)], unit_atom)
        assert gram[0, 1] == pytest.approx(1 + 1j)

    def test_inner_quadratic(self, unit_atom):
        # the L^2(mu) product is the entry of the conjugated stack
        z = unit_atom.atoms
        gram, _ = bilinear_gram([z, np.conj(z)], unit_atom)
        assert gram[0, 1] == pytest.approx(0.5 * abs(2 + 2j) ** 2)

    def test_bilinear_vs_sesquilinear_at_i(self):
        mu = AtomicMeasure(np.array([1j]), np.array([1.0]))
        z = mu.atoms
        gram, _ = bilinear_gram([z, np.conj(z)], mu)
        assert gram[0, 0] == pytest.approx(-1)
        assert gram[0, 1] == pytest.approx(1)

    def test_accepts_value_arrays(self, unit_atom):
        # a list of per-atom arrays and a 2-d array are the same stack
        vals = unit_atom.atoms
        for stack in ([vals, np.ones(1)], np.array([vals, np.ones(1)])):
            gram, _ = bilinear_gram(stack, unit_atom)
            assert gram[0, 1] == pytest.approx(1 + 1j)

    def test_rejects_shape_mismatch(self, unit_atom):
        for values in (np.ones(1), np.ones((2, 2)), np.ones((1, 1, 1))):
            with pytest.raises(InputError, match="one column per atom"):
                bilinear_gram(values, unit_atom)

    @given(
        fs=st.lists(finite_complex, min_size=3, max_size=3),
        gs=st.lists(finite_complex, min_size=3, max_size=3),
    )
    @settings(max_examples=50)
    def test_symmetry_laws(self, fs, gs):
        # a BLAS Gram is not bitwise symmetric, and |g|^2 is not bitwise
        # |g^2|, so the laws hold to a few ulps of the magnitudes entering
        # each entry
        mu = AtomicMeasure(np.array([0.0, 1.0, 1j]), np.array([0.5, 0.25, 0.25]))
        f = np.array(fs)
        g = np.array(gs)
        gram, scales = bilinear_gram([f, g], mu)
        assert np.all(np.abs(gram - gram.T) <= 1e-15 * scales)
        assert np.all(np.abs(gram) <= (1 + 1e-15) * scales)
        sesq, sesq_scales = bilinear_gram([f, np.conj(f)], mu)
        quad = sesq[0, 1]
        assert abs(quad.imag) <= 1e-15 * sesq_scales[0, 1]
        assert quad.real >= -1e-15 * sesq_scales[0, 1]


class TestDomainTypes:
    def test_measure_rejects_nonpositive_mass(self):
        with pytest.raises(InputError):
            AtomicMeasure(np.array([1.0]), np.array([0.0]))

    def test_measure_rejects_duplicate_atoms(self):
        with pytest.raises(InputError):
            AtomicMeasure(np.array([1.0, 1.0]), np.array([0.5, 0.5]))
        # duplicates that are not neighbours in the input
        with pytest.raises(InputError):
            AtomicMeasure(np.array([1j, 2.0, -1j, 2.0, 0.5]), np.full(5, 0.2))

    def test_measure_rejects_empty(self):
        with pytest.raises(InputError):
            AtomicMeasure(np.array([]), np.array([]))

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


class TestComplexJson:
    def test_pair_roundtrip_bit_exact(self):
        z = complex(1 / 3, -2 / 7)
        again = complex_from_json(json.loads(json.dumps(complex_to_json(z))))
        assert again == z

    def test_vector_roundtrip(self):
        v = np.array([0.1 + 0.2j, -3.5, 1e300j])
        again = cvector_from_json(json.loads(json.dumps(cvector_to_json(v))))
        assert np.array_equal(again, v)

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
            (cmatrix_to_json(m), [[complex_to_json(z) for z in row] for row in m]),
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
            complex_from_json([1.0])
