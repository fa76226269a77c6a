"""Tests for the ground-truth oracles and the greedy sweep baseline."""

import tracemalloc

import numpy as np
import pytest

from dpmps import epsnet as en, oracle
from dpmps import hamiltonian as ham
from dpmps import mps
from dpmps.errors import (ConvergenceError, NoAdmissibleSequenceError,
                          SizeGuardError)

import reference

CATALOG = ("zz_chain", "transverse_ising", "heisenberg", "random_hermitian",
           "trap_model", "rotated_classical", "diagonal_commuting")


def assert_matches_dense(h):
    """Lanczos exact_ground against a dense eigh of the full matrix."""
    gt = oracle.exact_ground(h)
    vals, vecs = np.linalg.eigh(reference.to_dense_hamiltonian(h))
    deg = int((vals <= vals[0] + oracle.DEGENERACY_TOL).sum())
    gap = float(vals[deg] - vals[0]) if deg < len(vals) else 0.0
    assert abs(gt.e0 - vals[0]) <= 1e-10
    assert gt.degeneracy == deg
    assert abs(gt.gap - gap) <= 1e-8
    if deg == 1:
        assert abs(np.vdot(vecs[:, 0], gt.ground_vector)) ** 2 >= 1 - 1e-10
    return gt


class TestExactGround:
    def test_heisenberg_singlet(self):
        h = ham.build_model("heisenberg", {}, 3)
        h2 = ham.NnHamiltonian(n=2, dims=[2, 2], terms=[h.terms[0]])
        assert np.isclose(oracle.exact_ground(h2).e0, -3.0)

    def test_zz4_degenerate(self):
        gt = oracle.exact_ground(ham.build_model("zz_chain", {}, 4))
        assert np.isclose(gt.e0, -3.0)
        assert gt.degeneracy == 2
        assert gt.gap > 0

    def test_matches_power_iteration(self):
        for name, n in (("transverse_ising", 6), ("heisenberg", 5),
                        ("zz_chain", 6), ("random_hermitian", 5),
                        ("trap_model", 6)):
            h = ham.build_model(name, {}, n, seed=3)
            e_dense = oracle.exact_ground(h).e0
            e_power = reference.power_iteration_ground(h)
            assert abs(e_dense - e_power) < 1e-8

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            oracle.exact_ground(ham.build_model("zz_chain", {}, 16))

    def test_ground_pair_is_the_first_pass(self):
        for name, n in (("rotated_classical", 8), ("zz_chain", 6),
                        ("random_hermitian", 7)):
            h = ham.build_model(name, {}, n, seed=2)
            e0, ground = oracle.ground_pair(h)
            gt = oracle.exact_ground(h)
            assert e0 == gt.e0
            assert np.array_equal(ground, gt.ground_vector)


class TestLanczos:
    @pytest.mark.parametrize("n", [3, 6, 9])
    @pytest.mark.parametrize("name", CATALOG)
    def test_matches_dense_eigh(self, name, n):
        assert_matches_dense(ham.build_model(name, {}, n, seed=n))

    @pytest.mark.parametrize("name,params,n", [
        ("rotated_classical", {}, 10),
        ("heisenberg", {}, 10),
        ("random_hermitian", {"d": 3}, 5),
        # ground splitting 2e-8 (n=8) and 2e-10 (n=10, degenerate within
        # the tolerance), with a first excited pair 1e-8 apart
        ("transverse_ising", {"g": 0.1}, 8),
        ("transverse_ising", {"g": 0.1}, 10),
    ])
    def test_matches_dense_eigh_hard_cases(self, name, params, n):
        assert_matches_dense(ham.build_model(name, params, n, seed=1))

    def test_two_sites_krylov_space_used_up(self):
        # the Krylov space is the whole 4-dimensional space
        rng = np.random.default_rng(4)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        heis = ham.build_model("heisenberg", {}, 3).terms[0]
        for term in ((m + m.conj().T) / 2, heis, np.kron(ham.Z, ham.Z),
                     np.eye(4, dtype=complex)):
            assert_matches_dense(ham.NnHamiltonian(n=2, dims=[2, 2],
                                                   terms=[term]))

    @pytest.mark.parametrize("n", [4, 8])
    def test_heavily_degenerate_ground_space(self, n):
        # Z(x)Z on the first bond and zero elsewhere: ground degeneracy
        # 2^(n-1) (8 and 128) and gap 2, so many locked rows lead the basis
        # and the Krylov space left beside them is shorter than KRYLOV_DIM
        zero = np.zeros((4, 4), dtype=complex)
        h = ham.NnHamiltonian(n=n, dims=[2] * n,
                              terms=[np.kron(ham.Z, ham.Z)] + [zero] * (n - 2))
        gt = assert_matches_dense(h)
        assert gt.degeneracy == 2 ** (n - 1) and abs(gt.gap - 2.0) <= 1e-8

    @pytest.mark.parametrize("name", ["random_hermitian", "zz_chain"])
    def test_repeat_calls_bitwise_identical(self, name):
        h = ham.build_model(name, {}, 8, seed=2)
        a, b = oracle.exact_ground(h), oracle.exact_ground(h)
        assert (a.e0, a.degeneracy, a.gap) == (b.e0, b.degeneracy, b.gap)
        assert np.array_equal(a.ground_vector, b.ground_vector)

    @pytest.mark.parametrize("name,pair_calls,calls", [
        ("transverse_ising", 98, 196), ("heisenberg", 65, 130)])
    def test_work_and_memory_pinned(self, monkeypatch, name, pair_calls,
                                    calls):
        # products of H at n=12 as counted while a second array held H times
        # the basis; exact_ground's traced peak was then 198 state vectors
        h = ham.build_model(name, {}, 12)
        counted = []
        apply = oracle.apply_hamiltonian
        monkeypatch.setattr(oracle, "apply_hamiltonian",
                            lambda h, v: counted.append(1) or apply(h, v))
        oracle.ground_pair(h)       # also builds H's cached runs, untraced
        assert len(counted) <= pair_calls
        counted.clear()
        tracemalloc.start()
        try:
            oracle.exact_ground(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counted) <= calls
        assert peak < 120 * 16 * h.total_dim

    def test_project_out_without_rows_returns_w(self):
        w = np.arange(6) + 1j
        out, first = oracle._project_out(w, np.empty((0, 6), dtype=complex))
        assert out is w and first.shape == (0,)

    def test_not_converged_raises(self, monkeypatch):
        # one Krylov pass is not enough for this instance
        monkeypatch.setattr(oracle, "LANCZOS_MAX_RESTARTS", 0)
        with pytest.raises(ConvergenceError):
            oracle.exact_ground(ham.build_model("random_hermitian", {}, 10,
                                                seed=1))


class TestEnumerateNetOptimum:
    def test_guard(self):
        net = en.build_pair_net(1, 2, 0.1, epsilon_op=1.0)
        endn = en.build_end_net(1, 2, 0.1)
        h = ham.group_boundaries(ham.build_model("zz_chain", {}, 12), 1)
        with pytest.raises(SizeGuardError):
            oracle.enumerate_net_optimum(h, endn, net, 1.0)

    def test_infeasible_stitching_reported(self):
        # with a tiny threshold at D=2 the mu values never match any lambda
        net = en.build_pair_net(2, 2, 0.25, epsilon_op=0.2, cap=10**7)
        endn = en.build_end_net(2, 4, 0.25)
        h = ham.group_boundaries(ham.build_model("zz_chain", {}, 6), 2)
        mu_lam = np.linalg.norm(net.mu[:50, None] - net.lam[None, :50],
                                axis=2).min()
        if mu_lam > 2e-9:
            with pytest.raises(NoAdmissibleSequenceError):
                oracle.enumerate_net_optimum(h, endn, net, 1e-9)

    def test_matches_solver(self):
        from dpmps import dp
        h = ham.group_boundaries(ham.build_model("transverse_ising", {}, 4), 1)
        sr = dp.solve(h, 1, 0.25)
        net = en.build_pair_net(1, 2, 0.25, sr.epsilon_op)
        endn = en.build_end_net(1, 2, 0.25)
        e_enum, assignment = oracle.enumerate_net_optimum(h, endn, net,
                                                          sr.epsilon_op)
        assert abs(sr.e_alg - e_enum) <= 1e-12
        assert len(assignment) == h.n


def chain_state(tensors):
    """Dense state of (r_left, dim, r_right) site tensors, contracted
    inline left to right."""
    v = np.ones((1, 1), dtype=complex)
    for t in tensors:
        v = np.tensordot(v, t, axes=([1], [0])).reshape(-1, t.shape[2])
    return v.reshape(-1)


def random_start(n, D, seed):
    """Canonical form of a random chain of bond dimension D."""
    rng = np.random.default_rng(seed)
    shapes = [(1 if j == 0 else D, 2, 1 if j == n - 1 else D)
              for j in range(n)]
    v = chain_state([rng.standard_normal(s) + 1j * rng.standard_normal(s)
                     for s in shapes])
    return mps.canonicalize(v / np.linalg.norm(v), n, 2, D, 2)


def dense_sweep_baseline(h, start, sweeps):
    """The greedy sweep with the dense Hamiltonian and each site's columns
    built by contracting the chain with a unit site tensor; the independent
    reference for the matrix-free sweep."""
    mat = reference.to_dense_hamiltonian(h)
    tensors = [t.copy() for t in start.site_tensors()]

    def energy_of(ts):
        v = chain_state(ts)
        return float((np.vdot(v, mat @ v) / np.vdot(v, v)).real)

    energy = energy_of(tensors)
    order = list(range(start.n)) + list(range(start.n - 2, -1, -1))
    for _ in range(sweeps):
        for site in order:
            shape = tensors[site].shape
            units = np.eye(int(np.prod(shape)), dtype=complex)
            a = np.stack([chain_state(tensors[:site] + [u.reshape(shape)]
                                      + tensors[site + 1:])
                          for u in units], axis=1)
            h_eff = a.conj().T @ mat @ a
            svals, u = np.linalg.eigh(a.conj().T @ a)
            keep = svals > 1e-10
            basis = u[:, keep] / np.sqrt(svals[keep])[None, :]
            vals, vecs = np.linalg.eigh(basis.conj().T @ h_eff @ basis)
            if vals[0] < energy - 1e-12:
                tensors[site] = (basis @ vecs[:, 0]).reshape(shape)
                energy = float(vals[0])
    return energy_of(tensors)


class TestSiteIsometry:
    @pytest.mark.parametrize("D", [1, 2])
    def test_maps_site_tensor_to_state(self, D):
        for seed in range(3):
            ts = random_start(5, D, seed).site_tensors()
            v = chain_state(ts)
            for site in range(5):
                a = oracle._site_isometry(ts, site)
                assert np.abs(a @ ts[site].ravel() - v).max() <= 1e-12

    def test_columns_are_unit_tensor_states(self):
        ts = random_start(4, 2, 3).site_tensors()
        shape = ts[2].shape
        a = oracle._site_isometry(ts, 2)
        for k, u in enumerate(np.eye(int(np.prod(shape)))):
            col = chain_state(ts[:2] + [u.reshape(shape)] + ts[3:])
            assert np.abs(a[:, k] - col).max() <= 1e-12


class TestLocalSweepBaseline:
    def up_state(self, n):
        v = mps.product_basis_state(n, 2, 2, [0] * n)
        return mps.canonicalize(v, n, 2, 1, 2)

    def test_trap_all_up_is_stuck(self):
        h = ham.build_model("trap_model", {}, 6)
        e = oracle.local_sweep_baseline(h, self.up_state(6), sweeps=4)
        assert e == 6.0

    def test_trap_all_down_is_optimal(self):
        h = ham.build_model("trap_model", {}, 6)
        v = mps.product_basis_state(6, 2, 2, [1] * 6)
        start = mps.canonicalize(v, 6, 2, 1, 2)
        e = oracle.local_sweep_baseline(h, start, sweeps=1)
        assert abs(e) < 1e-12

    def test_monotone_in_sweeps(self):
        h = ham.build_model("zz_chain", {}, 5)
        start = random_start(5, 2, 5)
        energies = [oracle.local_sweep_baseline(h, start, sweeps=k)
                    for k in range(4)]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-10

    def test_zz_chain_from_all_up_reaches_ground(self):
        h = ham.build_model("zz_chain", {}, 6)
        e = oracle.local_sweep_baseline(h, self.up_state(6), sweeps=1)
        assert abs(e - oracle.exact_ground(h).e0) <= 1e-10

    def test_variational(self):
        h = ham.build_model("transverse_ising", {}, 5)
        e0 = oracle.exact_ground(h).e0
        e = oracle.local_sweep_baseline(h, self.up_state(5), sweeps=3)
        assert e >= e0 - 1e-10

    def test_matches_dense_sweep_from_all_up(self):
        h = ham.build_model("transverse_ising", {}, 6)
        start = self.up_state(6)
        want = dense_sweep_baseline(h, start, 4)
        assert abs(oracle.local_sweep_baseline(h, start, 4) - want) <= 1e-10

    def test_matches_dense_sweep_from_random_d2(self):
        h = ham.build_model("zz_chain", {}, 5)
        start = random_start(5, 2, 5)
        assert max(t.shape[2] for t in start.site_tensors()[:-1]) == 2
        want = dense_sweep_baseline(h, start, 3)
        assert abs(oracle.local_sweep_baseline(h, start, 3) - want) <= 1e-10
