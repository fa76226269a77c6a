"""Tests for the dynamic program, its certificates, and determinism."""

import dataclasses

import numpy as np
import pytest

from dpmps import dp, epsnet as en, oracle
from dpmps import hamiltonian as ham
from dpmps import mps
from dpmps.errors import NoAdmissibleTransitionError

import reference


def grouped(name, n, D, **params):
    return ham.group_boundaries(ham.build_model(name, params, n), D)


class TestExtendList:
    def test_d1_all_transitions_admissible(self):
        net = en.build_pair_net(1, 2, 0.25, epsilon_op=1e-6)
        mask = dp.stitching_mask(net, 1e-6)
        assert mask.all()        # mu and lambda are both (1.0) at D=1

    def test_min_selection_prefers_low_energy_tail(self):
        net = en.build_pair_net(1, 2, 0.25, epsilon_op=1.0)
        zero = np.zeros((4, 4), dtype=complex)
        idx = np.arange(net.size)
        prev = dp.DpList(pair_index=idx, tail=np.zeros_like(idx),
                         energy=np.where(idx == 2, 0.0, 5.0))
        out = dp.extend_list(prev, net, zero, tables=dp.step_tables(net, 1.0))
        assert all(t == 2 for t in out.tail)
        assert all(np.isclose(e, 0.0) for e in out.energy)

    def test_empty_prev_rejected(self):
        net = en.build_pair_net(1, 2, 0.25, epsilon_op=1.0)
        empty = dp.DpList(pair_index=np.array([], dtype=int),
                          tail=np.array([], dtype=int), energy=np.array([]))
        with pytest.raises(NoAdmissibleTransitionError):
            dp.extend_list(empty, net, np.zeros((4, 4)),
                           tables=dp.step_tables(net, 1.0))

    def test_tables_match_enumeration(self):
        h = grouped("zz_chain", 4, 1)
        sr = dp.solve(h, 1, 0.25)
        net = en.build_pair_net(1, 2, 0.25, sr.epsilon_op)
        endn = en.build_end_net(1, 2, 0.25)
        e_enum, _ = oracle.enumerate_net_optimum(h, endn, net, sr.epsilon_op)
        assert abs(sr.e_alg - e_enum) <= 1e-12


class TestSolve:
    def test_zero_hamiltonian(self):
        zeros = [np.zeros((4, 4), dtype=complex) for _ in range(3)]
        h = ham.NnHamiltonian(n=4, dims=[2] * 4, terms=zeros)
        sr = dp.solve(h, 1, 0.25)
        assert abs(sr.e_alg) < 1e-12

    def test_nan_epsilon_rejected_before_the_dp(self):
        h = grouped("zz_chain", 4, 1)
        with pytest.raises(ValueError, match="epsilon_op must be positive"):
            dp.solve(h, 1, 0.25, epsilon_op=float("nan"))

    @pytest.mark.parametrize("epsilon_op", [float("nan"), -1.0, 0.0])
    def test_bad_epsilon_rejected_with_given_net(self, epsilon_op):
        # a caller-supplied pair net skips build_pair_net, not the check
        h = grouped("zz_chain", 4, 1)
        net = en.build_pair_net(1, 2, 0.25, 0.05)
        with pytest.raises(ValueError, match="epsilon_op must be positive"):
            dp.solve(h, 1, 0.25, epsilon_op=epsilon_op, pair_net=net)

    def test_variational_and_d1_exact(self):
        for name in ("zz_chain", "transverse_ising"):
            h0 = ham.build_model(name, {}, 5)
            sr = dp.solve(grouped(name, 5, 1), 1, 0.25)
            e0 = oracle.exact_ground(h0).e0
            assert sr.e_true >= e0 - 1e-10
            assert abs(sr.e_true - sr.e_alg) <= 1e-10

    def test_theorem_sandwich(self):
        h0 = ham.build_model("zz_chain", {}, 4)
        sr = dp.solve(grouped("zz_chain", 4, 1), 1, 0.25)
        e0 = oracle.exact_ground(h0).e0
        assert sr.lower_bound <= e0 <= sr.e_true <= sr.e_alg + sr.upper_slack

    def test_omega_is_canonical(self):
        sr = dp.solve(grouped("transverse_ising", 5, 1), 1, 0.25)
        rep = reference.check_canonical(sr.omega)
        assert rep.max_residual <= 1e-10

    def test_e_alg_is_windowed_sum_of_omega(self):
        # at D=1 the derived Schmidt vectors coincide with the net ones
        h = grouped("zz_chain", 5, 1)
        sr = dp.solve(h, 1, 0.25)
        e_win = reference.windowed_energy_sum(sr.omega, h)
        assert abs(e_win - sr.e_alg) <= 1e-10

    def test_long_uniform_chain_true_energy_is_e_alg(self):
        # D=1 states are products, so e_true and e_alg agree up to
        # rounding; the site-by-site sweep lay 3.7e-12 off at n=10^5
        sr = dp.solve(grouped("transverse_ising", 10_000, 1), 1, 0.1)
        assert abs(sr.e_true - sr.e_alg) <= 1e-12 * abs(sr.e_alg)

    def test_trap_model_escapes_local_minimum(self):
        h = grouped("trap_model", 6, 1)
        sr = dp.solve(h, 1, 0.1)
        assert sr.e_alg <= 1.0


# (model, n, delta, seed) -> (assignment, repr(e_alg), digest), recorded
# from the dense N x N DP step before the DP lists became arrays; the
# random_hermitian delta=0.05 solve (N = 3400, the benchmark's fine-grid
# config) was recorded before the boundary screen and equals
# perfbench/golden.json; the transverse_ising delta=0.05 solve, whose
# full steps record reuse anchors (5 full, 4 reused), was recorded while
# those steps streamed every admissible row unpruned; the transverse_ising
# n=800 solve (12 full steps, 785 reused) was recorded while every list
# was stored whole; the heisenberg and zz_chain delta=0.05 solves, where
# ties are everywhere and the left screen keeps every end tensor (both do on
# heisenberg), were recorded while the screens were one GEMM over every end
# tensor and pair
GOLDEN_SOLVES = [
    (("transverse_ising", 12, 0.25, None),
     ([9, 3, 9, 3, 9, 3, 9, 3, 9, 3, 9, 3], "-14.239999999999997",
      "98aaf590f5f872816d3eb50da84197058066945ab0fad1ec0e0d2482880cea66")),
    (("random_hermitian", 6, 0.1, 3),
     ([155, 24, 284, 125, 206, 40], "-6.856188671070385",
      "bef2e6c6db3ad206b371d7ba16da09739aeacf7bfa3541f30da5a8d9f5a2c0ca")),
    (("trap_model", 6, 0.1, None),
     ([12, 5, 0, 7, 7, 2], "0.5550267697798928",
      "1f65aa48282f06e0829fe4eb7165c652141313371a844148f8f77cca5e4f33ad")),
    (("random_hermitian", 12, 0.05, 1),
     ([1198, 1669, 415, 954, 2445, 2141, 683, 3368, 1619, 3024, 2119, 1322],
      "-18.323536134399763",
      "b34a886aa956061a56d33009e7da3231267c0e48a03d3f18d99f1771e64bcf58")),
    (("transverse_ising", 12, 0.05, None),
     ([901, 2186, 315, 2947, 315, 2947, 315, 2825, 315, 2825, 421, 2906],
      "-14.401054855060918",
      "153843f774100862b932a4318832a25873c7c28ebfc2f02cac81ec57f38ff32c")),
    (("transverse_ising", 800, 0.1, None),
     ([128, 60] + [227, 3] * 2 + [227, 2] * 396 + [232, 27],
      "-902.8602897127106",
      "22b2ff9061d890bbed9ec4ae466c62fd993f2ce9ce09eecbca2fc0cbc359324a")),
    (("heisenberg", 12, 0.05, None),
     ([2105, 100] * 6, "-11.000000000000007",
      "28962b6cfb6caa59fe1ef22854400ba9c368c4b91011e2d572d4df5319116355")),
    (("zz_chain", 12, 0.05, None),
     ([2920, 1] + [2860, 1] * 3 + [2860, 0] * 2, "-10.878788803760576",
      "e60943d1fa17d30a06abdf170c87d56e35e189a35d51167f3f83295914b6a40d")),
]


@pytest.mark.parametrize(
    "config,expect", GOLDEN_SOLVES,
    ids=[name + (f"-delta{delta}" if delta < 0.1 else "")
         + (f"-n{n}" if n > 12 else "")
         for (name, n, delta, _), _ in GOLDEN_SOLVES])
def test_golden_solve_results(config, expect):
    name, n, delta, seed = config
    h = ham.group_boundaries(ham.build_model(name, {}, n, seed), 1)
    sr = dp.solve(h, 1, delta)
    assert (sr.assignment, repr(sr.e_alg), sr.digest) == expect


@pytest.mark.parametrize("n,seed,expect", [
    (3, 1, [1, 9, 3]), (3, 2, [3, 6, 8]),
    (4, 1, [1, 4, 2, 3]), (4, 2, [3, 6, 0, 8])])
def test_short_chains_match_enumeration(n, seed, expect):
    # at n=3 the first list is also the last, and the close reads its
    # energies; at n=4 one step's list is.  The assignments were recorded
    # while every list was stored whole.  The enumeration takes the
    # lexicographically first optimum, and at n=4 seed 2 it takes pair 5,
    # a gauge copy of pair 0 whose total lies 2.2e-16 lower, so the
    # assignment is checked against the enumerated optimum by its energy
    h = ham.group_boundaries(ham.build_model("random_hermitian", {}, n,
                                             seed), 1)
    sr = dp.solve(h, 1, 0.25)
    net = en.build_pair_net(1, 2, 0.25, sr.epsilon_op)
    endn = en.build_end_net(1, 2, 0.25)
    e_enum, _ = oracle.enumerate_net_optimum(h, endn, net, sr.epsilon_op)
    assert sr.assignment == expect
    assert abs(sr.e_alg - e_enum) <= 1e-12
    assert abs(reference.windowed_energy_sum(sr.omega, h) - e_enum) <= 1e-12
    assert sr.dp_lists["stored"] == n - 2


class TestOmegaDefect:
    """`left_defect` over leading axes, and the realized junction defect
    of the returned Omega that `solve` reports."""

    @pytest.fixture(scope="class")
    def d2_solve(self):
        # a 1,500-pair sub-net of the D=2 delta=0.25 net keeps the solve small
        eps = 0.05
        net = en.build_pair_net(2, 2, 0.25, eps)
        keep = np.sort(np.random.default_rng(0).choice(net.size, 1500,
                                                       replace=False))
        sub = dataclasses.replace(net, lam=net.lam[keep], b=net.b[keep],
                                  mu=net.mu[keep],
                                  lam_class=net.lam_class[keep])
        h = grouped("heisenberg", 6, 2)
        return dp.solve(h, 2, 0.25, epsilon_op=eps, pair_net=sub), sub, eps

    def test_batched_matches_per_triplet(self):
        rng = np.random.default_rng(2)
        lam = np.abs(rng.standard_normal((5, 3)))
        b = rng.standard_normal((5, 3, 2, 3)) \
            + 1j * rng.standard_normal((5, 3, 2, 3))
        lam_next = np.abs(rng.standard_normal((5, 3)))
        batched = dp.left_defect(lam, b, lam_next)
        for k in range(5):
            one = dp.left_defect(lam[k], b[k], lam_next[k])
            assert np.array_equal(batched[k], one)

    def test_solve_reports_max_over_junctions(self, d2_solve):
        sr, net, eps = d2_solve
        chosen = sr.assignment[1:-1]
        per_junction = [np.abs(dp.left_defect(net.lam[q], net.b[q],
                                              net.lam[p])).max()
                        for q, p in zip(chosen, chosen[1:])]
        assert sr.omega_defect_max == max(per_junction)
        assert 0.0 < sr.omega_defect_max <= 3 * eps + 4 * eps + 1e-12

    def test_d1_defect_vanishes(self):
        sr = dp.solve(grouped("transverse_ising", 6, 1), 1, 0.25)
        assert sr.omega_defect_max <= 1e-12

    def test_no_junction_at_n3(self):
        sr = dp.solve(grouped("zz_chain", 3, 1), 1, 0.25)
        assert len(sr.assignment) == 3
        assert sr.omega_defect_max == 0.0

    def test_left_out_of_digest(self, d2_solve):
        sr = d2_solve[0]
        moved = dataclasses.replace(sr, omega_defect_max=1.0)
        assert moved.digest == sr.digest


class TestErrorBounds:
    def test_formula(self):
        lower, upper = dp.error_bounds(0.0, 1.0, 4, 1, 0.05)
        assert np.isclose(lower, -1.2)
        assert np.isclose(upper, 1.2)

    def test_target_inversion(self):
        assert np.isclose(dp.epsilon_for_target(0.1, 1.0, 2, 10), 1.25e-4)


class TestLeftDefect:
    def test_exact_triplet_zero(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3))
                            + 1j * rng.standard_normal((6, 3)))
        b = q[:, :3].T.reshape(3, 2, 3)
        lam = np.abs(rng.standard_normal(3))
        lam /= np.linalg.norm(lam)
        mu = mps.mu_of(lam, b)
        # make the columns exactly orthogonal by a unitary rotation on the
        # right bond index so only the diagonal mismatch remains
        cols = (lam[:, None, None] * b).reshape(6, 3)
        u, s, vh = np.linalg.svd(cols, full_matrices=False)
        b_rot = np.tensordot(b, vh.conj().T, axes=([2], [0]))
        mu_rot = mps.mu_of(lam, b_rot)
        d = dp.left_defect(lam, b_rot, mu_rot)
        assert np.abs(d).max() < 1e-12

    def test_d1_diagonal_only(self):
        b = np.zeros((1, 2, 1), dtype=complex)
        b[0, 0, 0] = 1.0
        d = dp.left_defect(np.array([1.0]), b, np.array([0.8]))
        assert d.shape == (1, 1)
        assert np.isclose(d[0, 0].real, 0.8**2 - 1.0)

    def test_dp_admissible_bound(self):
        eps = 0.05
        net = en.build_pair_net(2, 2, 0.25, epsilon_op=eps, cap=10**7)
        rng = np.random.default_rng(1)
        sample = rng.choice(net.size, size=400, replace=False)
        checked = 0
        for q in sample:
            for p in sample[:20]:
                if np.linalg.norm(net.mu[q] - net.lam[p]) > 2 * eps:
                    continue
                d = dp.left_defect(net.lam[q], net.b[q], net.lam[p])
                # off-diagonal part bounded by the filter, diagonal part by
                # the stitching distance: |l^2 - m^2| <= |l - m|(l + m) <= 4eps
                assert np.abs(d).max() <= 3 * eps + 4 * eps + 1e-12
                checked += 1
        assert checked > 0
