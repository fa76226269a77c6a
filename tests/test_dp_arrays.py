"""Tests for the array DP step: equivalence with the dense N x N step, tie
rule, empty steps, the transition memo and the transition size guard."""

import dataclasses

import numpy as np
import pytest

from dpmps import dp, epsnet as en
from dpmps import hamiltonian as ham
from dpmps.errors import NoAdmissibleTransitionError, SizeGuardError

SUB_NET_SIZE = 1500


@pytest.fixture(scope="module")
def sub_net():
    """Random D=2 sub-nets of the delta=0.25 pair net, by seed.  A function
    rather than the net itself, so a failure report does not print the
    full net."""
    net = en.build_pair_net(2, 2, 0.25, 0.05)

    def make(seed):
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(net.size, size=SUB_NET_SIZE,
                                  replace=False))
        return dataclasses.replace(net, lam=net.lam[keep], b=net.b[keep],
                                   mu=net.mu[keep],
                                   lam_class=net.lam_class[keep])

    return make


def random_term(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return a + a.conj().T


def random_prev(size, rng):
    idx = np.sort(rng.choice(size, size=size * 7 // 10, replace=False))
    return dp.DpList(pair_index=idx, tail=np.zeros_like(idx),
                     energy=rng.standard_normal(idx.size))


def dense_extend(prev, net, e_trans, epsilon_op):
    """The dense step the array step replaced: full N x N mask and cost."""
    dist = np.linalg.norm(net.mu[:, None, :] - net.lam[None, :, :], axis=2)
    mask = dist <= 2.0 * epsilon_op + 1e-14
    q_idx = prev.pair_index
    cost = prev.energy[:, None] + e_trans[q_idx]
    cost = np.where(mask[q_idx], cost, np.inf)
    best = cost.min(axis=0)
    tails = cost.argmin(axis=0)
    live = np.flatnonzero(np.isfinite(best))
    return live, tails[live], best[live]


@pytest.mark.parametrize("seed,epsilon_op", [(0, 0.02), (1, 0.05), (2, 0.02)])
def test_matches_dense_step_on_d2_sub_nets(sub_net, seed, epsilon_op):
    net = sub_net(seed)
    rng = np.random.default_rng(100 + seed)
    hterm = random_term(rng)
    prev = random_prev(net.size, rng)
    mask = dp.stitching_mask(net, epsilon_op)
    assert mask.shape[1] == 3 and 0.0 < mask.mean() < 1.0
    e_trans = dp.transition_energies(net, hterm)
    # Fortran order, as `solve` passes it
    out = dp.extend_list(prev, net, hterm, epsilon_op,
                         e_trans=np.asfortranarray(e_trans))
    live, tails, best = dense_extend(prev, net, e_trans, epsilon_op)
    assert len(out) == live.size
    assert np.array_equal(out.pair_index, live)
    assert np.array_equal(out.tail, tails)
    assert np.array_equal(out.energy, best)


def test_tie_goes_to_lowest_index(sub_net):
    net = sub_net(3)
    epsilon_op = 0.05
    idx = np.arange(0, net.size, 2)
    prev = dp.DpList(pair_index=idx, tail=np.zeros_like(idx),
                     energy=np.zeros(idx.size))
    # every cost is exactly zero: the first admissible predecessor wins
    out = dp.extend_list(prev, net, np.zeros((4, 4)), epsilon_op)
    mu = net.mu[idx]
    for p, tail in zip(out.pair_index, out.tail):
        ok = np.linalg.norm(mu - net.lam[p], axis=1) \
            <= 2.0 * epsilon_op + 1e-14
        assert tail == np.flatnonzero(ok)[0]
    live, tails, _ = dense_extend(prev, net, np.zeros((net.size,) * 2),
                                  epsilon_op)
    assert np.array_equal(out.pair_index, live)
    assert np.array_equal(out.tail, tails)


def test_all_inadmissible_step_raises(sub_net):
    net = sub_net(4)
    epsilon_op = 0.001
    stranded = np.flatnonzero(~dp.stitching_mask(net, epsilon_op).any(axis=1))
    assert stranded.size > 0
    prev = dp.DpList(pair_index=stranded, tail=np.zeros_like(stranded),
                     energy=np.zeros(stranded.size))
    with pytest.raises(NoAdmissibleTransitionError):
        dp.extend_list(prev, net, np.zeros((4, 4)), epsilon_op)


@pytest.mark.parametrize("name,n,calls", [("transverse_ising", 12, 1),
                                          ("random_hermitian", 8, 5)])
def test_transitions_reused_across_identical_terms(monkeypatch, name, n,
                                                   calls):
    count = []
    original = dp.transition_energies

    def counting(*args, **kwargs):
        count.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(dp, "transition_energies", counting)
    h = ham.group_boundaries(ham.build_model(name, {}, n, 0), 1)
    dp.solve(h, 1, 0.25)
    assert len(count) == calls


class TestSizeGuard:
    def test_d2_net_exceeds_memory(self):
        with pytest.raises(SizeGuardError):
            dp.transition_size_guard(123_264, 8 * 2**30)

    def test_small_net_passes(self):
        dp.transition_size_guard(3400, 8 * 2**30)
        dp.transition_size_guard(1000, 16 * 1000 * 1000)
        dp.transition_size_guard(10**6, None)

    def test_solve_stops_before_transitions(self, sub_net, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("transition matrix attempted")

        # 1,500 pairs need 36 MB per transition matrix
        monkeypatch.setattr(dp, "_physical_memory", lambda: 2**20)
        monkeypatch.setattr(dp, "transition_energies", never)
        monkeypatch.setattr(dp, "initial_list", never)
        h = ham.group_boundaries(ham.build_model("heisenberg", {}, 6), 2)
        with pytest.raises(SizeGuardError):
            dp.solve(h, 2, 0.25, epsilon_op=0.05, pair_net=sub_net(5))
