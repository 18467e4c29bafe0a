"""Generic biorthogonal decomposition, paths, and frame matrices."""
import numpy as np
import pytest

from conftest import ae_pulse, analytic_two_level_systems, path_eigenvalues
from nhsta.biorthogonal import BiorthogonalSystem, decompose, reconstruct
from nhsta.errors import DegenerateSpectrum, NonFinite
from nhsta.grids import TimeGrid
from oracles import (EigenPath, adiabatic_frame_generic,
                     counterdiabatic_generic, hamiltonian,
                     left_right_derivative_identity)


def random_matrix(rng, dim):
    return rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))


def random_corpus(count, dims=(2, 3, 4), seed=23):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        m = random_matrix(rng, int(rng.choice(dims)))
        try:
            out.append((m, decompose(m, degeneracy_threshold=1e-6)))
        except DegenerateSpectrum:
            continue
    return out


class TestDecompose:
    def test_diagonal_matrix_gives_standard_basis(self):
        m = np.diag([1.0, 2.0j])
        sys_ = decompose(m)
        for i, val in enumerate(sys_.eigenvalues):
            j = int(np.argmax(np.abs(sys_.right[:, i])))
            assert m[j, j] == val
            basis = np.zeros(2, dtype=complex)
            basis[j] = 1.0
            assert np.allclose(sys_.right[:, i], basis)
        assert np.allclose(sys_.right, sys_.left)

    def test_diagonal_round_trip_exact(self):
        m = np.diag([1.0, 2.0j])
        assert np.max(np.abs(reconstruct(decompose(m)) - m)) < 1e-14

    def test_two_level_lossy_eigenvalues(self):
        pulse = ae_pulse(gamma=0.3)
        sys_ = decompose(hamiltonian(pulse, 0.0))
        expected = 0.25 * np.sqrt(3.91)
        got = sorted(sys_.eigenvalues, key=lambda z: z.real)
        assert abs(got[0] - (-expected - 0.075j)) < 1e-12
        assert abs(got[1] - (expected - 0.075j)) < 1e-12

    def test_invariants_on_random_corpus(self):
        corpus = random_corpus(200)
        bio = max(s.biorthogonality_defect() for _, s in corpus)
        comp = max(s.completeness_defect() for _, s in corpus)
        rtrip = max(np.max(np.abs(reconstruct(s) - m)) for m, s in corpus)
        assert bio <= 1e-10
        assert comp <= 1e-10
        assert rtrip <= 1e-10

    def test_phase_convention_is_deterministic(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 3)
        a, b = decompose(m), decompose(m)
        assert np.array_equal(a.right, b.right)
        for i in range(3):
            v = a.right[:, i]
            k = int(np.argmax(np.abs(v)))
            assert v[k].imag == pytest.approx(0.0, abs=1e-15)
            assert v[k].real > 0

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            decompose(np.eye(2))

    def test_non_finite_rejected(self):
        m = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NonFinite):
            decompose(m)

    def test_stack_members_equal_single_decompositions(self):
        rng = np.random.default_rng(17)
        for dim in (2, 3, 4):
            stack = np.array([random_matrix(rng, dim) for _ in range(7)])
            sys_ = decompose(stack, degeneracy_threshold=1e-6)
            assert sys_.dim == dim
            for k, m in enumerate(stack):
                one = decompose(m, degeneracy_threshold=1e-6)
                for name in ("eigenvalues", "right", "left"):
                    gap = np.max(np.abs(getattr(sys_, name)[k]
                                        - getattr(one, name)))
                    assert gap <= 1e-14, (dim, k, name)

    def test_stack_defects_are_the_worst_member(self):
        rng = np.random.default_rng(19)
        stack = np.array([random_matrix(rng, 3) for _ in range(9)])
        sys_ = decompose(stack)
        members = [decompose(m) for m in stack]
        assert sys_.biorthogonality_defect() == pytest.approx(
            max(s.biorthogonality_defect() for s in members), abs=1e-16)
        assert sys_.completeness_defect() == pytest.approx(
            max(s.completeness_defect() for s in members), abs=1e-16)
        back = reconstruct(sys_)
        assert back.shape == stack.shape
        assert np.max(np.abs(back - stack)) <= 1e-13

    def test_degenerate_member_is_named(self):
        rng = np.random.default_rng(23)
        stack = np.array([random_matrix(rng, 3) for _ in range(5)])
        stack[3] = np.diag([0.5, 0.5, 2.0])
        with pytest.raises(DegenerateSpectrum,
                           match=r"^member 3: eigenvalues \(0\.5\+0j\) and "
                                 r"\(0\.5\+0j\) closer than 1e-08$"):
            decompose(stack)

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 3), (2, 2, 2, 2)])
    def test_non_square_or_empty_stack_rejected(self, shape):
        with pytest.raises(ValueError):
            decompose(np.ones(shape))

    def test_swapped_partner_breaks_reconstruction(self):
        rng = np.random.default_rng(9)
        m = random_matrix(rng, 3)
        sys_ = decompose(m, degeneracy_threshold=1e-6)
        right = sys_.right.copy()
        left = sys_.left.copy()
        right[:, 0], left[:, 0] = left[:, 0].copy(), right[:, 0].copy()
        broken = BiorthogonalSystem(eigenvalues=sys_.eigenvalues,
                                    right=right, left=left)
        assert np.max(np.abs(reconstruct(broken) - m)) > 1e-6


def smooth_path(dim=3, steps=400, span=1.0, seed=31, hermitian=False):
    rng = np.random.default_rng(seed)
    a = random_matrix(rng, dim)
    b = 0.3 * random_matrix(rng, dim)
    c = 0.2 * random_matrix(rng, dim)
    if hermitian:
        a, b, c = (0.5 * (m + m.conj().T) for m in (a, b, c))

    def h_of_t(t):
        return a + b * np.sin(t) + c * np.cos(0.7 * t)

    grid = TimeGrid(0.0, span, steps)
    return h_of_t, EigenPath.from_hamiltonian(h_of_t, grid,
                                              degeneracy_threshold=1e-6)


class TestEigenPath:
    def test_matching_keeps_overlaps_high(self):
        _, path = smooth_path()
        for k in range(1, path.grid.n_points):
            overlap = path.systems[k - 1].left.conj().T @ path.systems[k].right
            assert np.min(np.abs(np.diag(overlap))) > 0.5

    def test_counterdiabatic_vanishes_for_static_hamiltonian(self):
        rng = np.random.default_rng(41)
        m = random_matrix(rng, 3)
        path = EigenPath.from_hamiltonian(lambda t: m, TimeGrid(0.0, 1.0, 50),
                                          degeneracy_threshold=1e-6)
        assert np.max(np.abs(counterdiabatic_generic(path, 25))) < 1e-10

    def test_counterdiabatic_hermitian_for_hermitian_path(self):
        _, path = smooth_path(hermitian=True, seed=13, steps=2000)
        for k in (250, 1000, 1750):
            h1 = counterdiabatic_generic(path, k)
            assert np.max(np.abs(h1 - h1.conj().T)) < 1e-8

    def test_counterdiabatic_matches_two_level_closed_form(self, theta_paths):
        pulse, path = theta_paths(1.0, steps=4000)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        systems = analytic_two_level_systems(path, e_plus, e_minus)
        gpath = EigenPath.from_systems(path.grid, systems)
        for k in (700, 2000, 3100):
            got = counterdiabatic_generic(gpath, k)
            dth = path.dtheta[k]
            want = 0.5 * dth * np.array([[0, -1j], [1j, 0]])
            assert np.max(np.abs(got - want)) < 2e-4  # plain second-order step

    def test_frame_matrix_diagonal_for_static_hamiltonian(self):
        rng = np.random.default_rng(43)
        m = random_matrix(rng, 3)
        path = EigenPath.from_hamiltonian(lambda t: m, TimeGrid(0.0, 1.0, 50),
                                          degeneracy_threshold=1e-6)
        frame = adiabatic_frame_generic(path, 25)
        off = frame - np.diag(np.diag(frame))
        assert np.max(np.abs(off)) < 1e-10
        got = np.sort_complex(np.diag(frame))
        want = np.sort_complex(path.systems[25].eigenvalues)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_frame_matrix_entries_are_derivative_overlaps(self):
        _, path = smooth_path(seed=57)
        k = 123
        frame = adiabatic_frame_generic(path, k)
        h = path.grid.step
        d_right = (path.systems[k + 1].right - path.systems[k - 1].right) / (2 * h)
        for m in range(3):
            for n in range(3):
                if m == n:
                    continue
                want = -1j * (path.systems[k].left[:, m].conj() @ d_right[:, n])
                assert abs(frame[m, n] - want) < 1e-8

    def test_index_bounds_enforced(self):
        _, path = smooth_path(steps=20)
        with pytest.raises(IndexError):
            counterdiabatic_generic(path, 0)
        with pytest.raises(IndexError):
            adiabatic_frame_generic(path, 20)
        with pytest.raises(IndexError):
            left_right_derivative_identity(path, 21, 0, 1)


class TestDerivativePairIdentity:
    def test_constant_path_gives_zero_pair(self):
        rng = np.random.default_rng(61)
        m = random_matrix(rng, 2)
        path = EigenPath.from_hamiltonian(lambda t: m, TimeGrid(0.0, 1.0, 40),
                                          degeneracy_threshold=1e-6)
        first, second = left_right_derivative_identity(path, 20, 0, 1)
        assert abs(first) < 1e-12
        assert abs(second) < 1e-12

    def test_adjoint_pair_agrees_on_non_hermitian_path(self):
        _, path = smooth_path(dim=2, steps=800, seed=71)
        bound = 10.0 * path.grid.step**2
        for k in (100, 400, 700):
            for n, m in ((0, 1), (1, 0), (0, 0), (1, 1)):
                first, second = left_right_derivative_identity(path, k, n, m)
                assert abs(first - second) <= max(bound, 1e-8)

    def test_adjoint_pair_agrees_on_lossy_two_level_path(self, theta_paths):
        pulse, path = theta_paths(1.0)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        gpath = EigenPath.from_systems(
            path.grid, analytic_two_level_systems(path, e_plus, e_minus))
        bound = 10.0 * path.grid.step**2
        for k in (600, 2000, 3400):
            first, second = left_right_derivative_identity(gpath, k, 0, 1)
            assert abs(first - second) <= max(bound, 1e-8)

    def test_hermitian_diagonal_pair_is_imaginary_or_zero(self):
        _, path = smooth_path(dim=2, steps=800, seed=83, hermitian=True)
        for k in (200, 600):
            first, _ = left_right_derivative_identity(path, k, 0, 0)
            assert abs(first.real) < 1e-8

    def test_conjugate_rewriting_fails_once_loss_is_on(self, theta_paths):
        # the conjugated cross-overlap equals the adjoint pair only for
        # effectively Hermitian derivative overlaps; a lossy path breaks it
        pulse, path = theta_paths(1.0)
        e_plus, e_minus = path_eigenvalues(pulse, path)
        gpath = EigenPath.from_systems(
            path.grid, analytic_two_level_systems(path, e_plus, e_minus))
        k = 2400
        h = path.grid.step
        first, second = left_right_derivative_identity(gpath, k, 0, 1)
        d_right = (gpath.systems[k + 1].right[:, 0]
                   - gpath.systems[k - 1].right[:, 0]) / (2 * h)
        conj_form = -np.conj(gpath.systems[k].left[:, 1].conj() @ d_right)
        assert abs(first - second) < 1e-6
        assert abs(first - conj_form) > 1e-2
