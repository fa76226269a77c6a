"""Tests for the array DP step: equivalence with the dense N x N step of
the reference matrix, streamed with predecessors pruned, also while it
records a reuse anchor (over several D=1 steps, at D=2, with one
viable row left, with every cluster a single pair and with a lambda class
that has no pairs), the per-cluster bound behind the pruning and the
memory peak of building the clusters, no pruning
after a non-finite input, tie rule (also across a block boundary), NaN
costs, empty steps, one factor build per full step, which steps record
anchors (against the rule of comparing term bytes) and the size guard,
which runs before the step tables at every n, whose count bounds a D=2
step's traced peak and under which a repeated term whose anchors do not
fit takes only full steps; D=2 golden
solves on sub-nets of three lambda classes; for a streamed solve, a
memory peak below one N x N matrix and no import of numpy.ma or
concurrent.futures;
for the batched boundary energies against the per-tensor einsum loops
they replaced, and with a NaN at either end against one argmin; and for
the boundary screen, whose factors must agree with the exact kernel far
inside its margin and which must keep every end tensor that reaches an
exact minimum; and for anchor reuse on a repeated term: lists bitwise
those of the full steps on four uniform models and those of the dense
reference steps on a D=2 sub-net, candidates exactly the dense
reference's (also one that a margin narrower than K would prune, and
after a running minimum falls by more than K), at most N c entries kept
in the recording pass, which records an anchor at exactly N c and streams
each chunk once, the full step when
the certificate fails (a nudged energy, other pairs, an equal copy of
the term or of the tables) or the input holds a NaN, no anchor across a
term change, the memory it adds against the size guard's count, and the
counts `solve` reports."""

import dataclasses
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dpmps import dp, epsnet as en
from dpmps import hamiltonian as ham
from dpmps.errors import NoAdmissibleTransitionError, SizeGuardError
from reference import q_major_transitions

SUB_NET_SIZE = 1500


@pytest.fixture(scope="module")
def sub_net():
    """Random D=2 sub-nets of the delta=0.25 pair net, by seed.  A function
    rather than the net itself, so a failure report does not print the
    full net."""
    net = en.build_pair_net(2, 2, 0.25, 0.05)

    def make(seed, size=SUB_NET_SIZE):
        # seed None: the first pairs, which are all of lambda class 1
        if seed is None:
            keep = np.arange(size)
        else:
            keep = np.sort(np.random.default_rng(seed).choice(
                net.size, size=size, replace=False))
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


def dense_mask(net, epsilon_op):
    """The full N x N admissibility of pair q before pair p."""
    dist = np.linalg.norm(net.mu[:, None, :] - net.lam[None, :, :], axis=2)
    return dist <= 2.0 * epsilon_op + 1e-14


def dense_extend(prev, net, e_trans, epsilon_op, mask=None):
    """The dense step the array step replaced: full N x N mask and cost,
    from E[q, p] (`q_major_transitions`)."""
    if mask is None:
        mask = dense_mask(net, epsilon_op)
    q_idx = prev.pair_index
    cost = prev.energy[:, None] + e_trans[q_idx]
    cost = np.where(mask[q_idx], cost, np.inf)
    best = cost.min(axis=0)
    tails = cost.argmin(axis=0)
    live = np.flatnonzero(np.isfinite(best))
    return live, tails[live], best[live]


@pytest.fixture
def keep_fractions(monkeypatch):
    """Fraction of a class's admissible predecessors that each call of
    `dp._viable_rows` from a DP step keeps, in call order."""
    kept = []
    viable = dp._viable_rows

    def recording(*args):
        keep = viable(*args)
        # the boundary screen of `initial_list` calls it too
        if sys._getframe(1).f_code.co_name == "extend_list":
            kept.append(keep.mean())
        return keep

    monkeypatch.setattr(dp, "_viable_rows", recording)
    return kept


def assert_same_step(out, dense):
    live, tails, best = dense
    assert len(out) == live.size
    assert np.array_equal(out.pair_index, live)
    assert np.array_equal(out.tail, tails)
    assert np.array_equal(out.energy, best)


@pytest.mark.parametrize("seed,epsilon_op", [(0, 0.02), (1, 0.05), (2, 0.02),
                                             (8, 0.05)])
def test_matches_dense_step_on_d2_sub_nets(sub_net, keep_fractions, seed,
                                          epsilon_op):
    net = sub_net(seed)
    rng = np.random.default_rng(100 + seed)
    hterm = random_term(rng)
    prev = random_prev(net.size, rng)
    tables = dp.step_tables(net, epsilon_op)
    assert tables.mask.shape[1] == 3 and 0.0 < tables.mask.mean() < 1.0
    dense = dense_extend(prev, net, q_major_transitions(net, hterm),
                         epsilon_op)
    # the viable rows of 1,500 pairs make several q-chunks; a step that
    # records an anchor, as on a repeated term, prunes the same rows
    assert_same_step(dp.extend_list(prev, net, hterm, tables=tables), dense)
    assert min(keep_fractions) < 1.0
    keep_fractions.clear()
    assert_same_step(dp.extend_list(prev, net, hterm, tables=tables,
                                    record=True), dense)
    assert min(keep_fractions) < 1.0


def window_hermitian_parts(net, hterm):
    """(h, trace): the Hermitian parts h[q] of the rows of G and the traces
    tr P_p of the rows of T2, both as dD x dD matrices."""
    g = dp._left_factor(net.lam[:, :, None, None] * net.b, hterm,
                        net.b.shape[2])
    t2 = dp._right_factor(net.b)
    dd = net.b.shape[1] * net.b.shape[2]
    g = g.reshape(-1, dd, dd)
    trace = np.einsum("pii->p", t2.reshape(-1, dd, dd)).real
    return 0.5 * (g + g.conj().transpose(0, 2, 1)), trace


def net_clusters(net):
    """(center, radius, first) of the clusters in the `step_tables` of net,
    ordered by lambda class, those of class k at first[k]:first[k + 1],
    read from the cluster matrices [t_c, -r_c, 1] and [t_c, +r_c, 1]."""
    classes = dp.step_tables(net, 0.05).classes
    for _, lower, upper in classes:
        assert np.array_equal(lower[:, :-2], upper[:, :-2])
        assert np.array_equal(-lower[:, -2], upper[:, -2])
        assert (lower[:, -1] == 1.0).all() and (upper[:, -1] == 1.0).all()
    first = np.cumsum([0] + [len(lower) for _, lower, _ in classes])
    return (np.concatenate([lower[:, :-2] for _, lower, _ in classes]),
            np.concatenate([upper[:, -2] for _, _, upper in classes]), first)


def cluster_members(net):
    """The clusters of net, per cluster (center, radius, pairs): each pair
    goes to the nearest center of its class, which must hold it."""
    center, radius, first = net_clusters(net)
    t = dp._right_factor(net.b).conj().view(float)
    members = [[] for _ in radius]
    for p in range(net.size):
        k = net.lam_class[p]
        dist = np.linalg.norm(t[p] - center[first[k]:first[k + 1]], axis=1)
        c = first[k] + dist.argmin()
        assert dist.min() <= radius[c] + 1e-15
        members[c].append(p)
    assert all(members)
    return [(center[c], radius[c], members[c]) for c in range(len(radius))]


def cluster_bounds(e_prev, f, center, radius, side):
    """e_prev[q] + f_q . t_c + side ||f_q|| r_c, rows x clusters: the
    products of the stacked rows [f_q, ||f_q||, e_prev[q]] with the cluster
    matrix [t_c, side r_c, 1] (module docstring of `dp`)."""
    rows = np.column_stack([f, np.linalg.norm(f, axis=1), e_prev])
    return rows @ np.column_stack([center, side * radius,
                                   np.ones(len(radius))]).T


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("which", ["d1", "d2"])
def test_dominance_bound_holds(d1_nets, sub_net, which, scale):
    net = d1_nets(0.1)[0] if which == "d1" else sub_net(11)
    rng = np.random.default_rng(13)
    hterm = scale * random_term(rng)
    e = q_major_transitions(net, hterm)         # E[q, p]
    e_prev = scale * rng.standard_normal(net.size)
    cost = e_prev[:, None] + e
    h, _ = window_hermitian_parts(net, hterm)
    f = np.ascontiguousarray(h).reshape(net.size, -1).view(float)
    slack = 1e-12 * np.abs(e).max()
    # the net's clusters, all but gauge copies, and one per class, whose
    # radius is far from zero
    t = dp._right_factor(net.b).conj().view(float)
    whole = []
    for k in np.unique(net.lam_class):
        p = np.flatnonzero(net.lam_class == k)
        mean = t[p].mean(axis=0)
        whole.append((mean, np.linalg.norm(t[p] - mean, axis=1).max(), p))
    clusters = cluster_members(net)
    assert len(clusters) < len(cost)
    assert max(r for _, r, _ in clusters) < 1e-14 < whole[0][1]
    for center, radius, p in clusters + whole:
        low, high = (cluster_bounds(e_prev, f, center[None],
                                    np.array([radius]), side)
                     for side in (-1.0, 1.0))
        # L[q, c] <= cost(q, p) and min_q cost(q, p) <= U[c] for p in c
        assert (low <= cost[:, p] + slack).all()
        assert cost[:, p].min(axis=0).max() <= high.min() + slack


@pytest.mark.parametrize("seed", [1, 2])
def test_pruned_steps_match_dense_at_d1(d1_nets, keep_fractions, seed):
    net, end = d1_nets(0.1)
    epsilon_op = en.certified_epsilon(2, 1, 0.1)
    h = ham.group_boundaries(
        ham.build_model("random_hermitian", {}, 12, seed), 1)
    tables = dp.step_tables(net, epsilon_op)
    prev = dp.initial_list(end, net, h.terms[0], tables)
    for hterm in h.terms[1:-1]:
        dense = dense_extend(prev, net, q_major_transitions(net, hterm),
                             epsilon_op)
        prev = dp.extend_list(prev, net, hterm, tables=tables)
        assert_same_step(prev, dense)
    # the per-cluster bound keeps 0.18 (seed 1) and 0.20 (seed 2) of the
    # rows on average; one anchor/Gershgorin bound kept 0.61 and 0.74
    assert len(keep_fractions) == 9 and np.mean(keep_fractions) < 0.25


@pytest.mark.parametrize("which", ["d1", "d2"])
def test_single_viable_row_matches_dense(d1_nets, sub_net, keep_fractions,
                                         which):
    net = d1_nets(0.1)[0] if which == "d1" else sub_net(12)
    epsilon_op = 0.05
    tables = dp.step_tables(net, epsilon_op)
    mask = tables.mask
    # predecessors admissible for the same classes as q0, q0 far below
    q0 = next(q for q in range(net.size) if mask[q].any())
    idx = np.flatnonzero((mask == mask[q0]).all(axis=1))
    energy = np.zeros(idx.size)
    energy[idx == q0] = -1e3
    prev = dp.DpList(pair_index=idx, tail=np.zeros_like(idx), energy=energy)
    hterm = random_term(np.random.default_rng(14))
    out = dp.extend_list(prev, net, hterm, tables=tables)
    # every class keeps q0 alone, so the transition product has one row
    assert idx.size > 1
    assert keep_fractions == [1.0 / idx.size] * int(mask[q0].sum())
    assert (idx[out.tail] == q0).all()
    assert_same_step(out, dense_extend(
        prev, net, q_major_transitions(net, hterm), epsilon_op))


@pytest.mark.parametrize("where,value", [("e_prev", np.inf),
                                         ("e_prev", np.nan),
                                         ("e_prev", 1e308),
                                         ("h", np.inf)])
def test_non_finite_input_keeps_every_row(where, value):
    # 1e308 is finite, but 1e10 K, ten times every cost, is not
    e_prev = np.arange(6.0)
    h = np.zeros((6, 2, 2), dtype=complex)
    trace = np.ones(3)
    # two clusters of radius zero: [t_c, -r_c, 1] = [t_c, +r_c, 1]
    clusters = np.column_stack([np.ones((2, 8)), np.zeros(2), np.ones(2)])

    def viable():
        # a step's K, of scale max|e_prev| + dD max|h| max tr P
        tol = dp._tolerance(np.abs(e_prev).max()
                            + 2 * np.abs(h).max() * trace.max())
        f = h.reshape(6, -1).view(float)
        return dp._viable_rows(np.arange(6), e_prev, f, clusters, clusters,
                               tol)

    # finite: equal rows of H, so the lowest energy dominates the others
    assert viable().tolist() == [True] + [False] * 5
    if where == "e_prev":
        e_prev[4] = value
    else:
        h[4, 1, 1] = value
    with np.errstate(over="ignore"):
        assert viable().all()


def test_single_pair_clusters_match_dense(sub_net, keep_fractions):
    # one pair of each cluster: every T2 row is distinct, so every cluster
    # is a single pair, of radius zero
    net = sub_net(7)
    t = dp._right_factor(net.b).conj().view(float)
    _, one = np.unique(np.column_stack([net.lam_class, np.round(t, 12)]),
                       axis=0, return_index=True)
    one = np.sort(one)
    net = dataclasses.replace(net, lam=net.lam[one], b=net.b[one],
                              mu=net.mu[one], lam_class=net.lam_class[one])
    center, radius, _ = net_clusters(net)
    assert len(center) == net.size and not radius.any()
    epsilon_op = 0.05
    rng = np.random.default_rng(107)
    hterm = random_term(rng)
    prev = random_prev(net.size, rng)
    assert_same_step(dp.extend_list(prev, net, hterm,
                                    tables=dp.step_tables(net, epsilon_op)),
                     dense_extend(prev, net, q_major_transitions(net, hterm),
                                  epsilon_op))
    assert max(keep_fractions) < 1.0


def test_pair_clusters_memory(sub_net):
    # beside T2, which the tables keep, two N x 2k real arrays at a time, t
    # and its rounded key or a sorted copy; holding t, the key and the key's
    # sorted copy read 3.06 of them
    net = sub_net(3, 12000)
    nbytes = dp._right_factor(net.b).nbytes
    tracemalloc.start()
    try:
        dp.step_tables(net, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= nbytes + 2.3 * nbytes


def test_class_without_pairs_matches_dense(sub_net):
    # the first pairs of the D=2 net are all of lambda class 1, but the
    # mask keeps a column, with admissible rows, for each of the 3 classes
    net = sub_net(None)
    epsilon_op = 0.05
    mask = dp.stitching_mask(net, epsilon_op)
    assert mask.shape[1] == 3 and (net.lam_class == 1).all()
    assert mask[:, [0, 2]].any(axis=0).all()
    rng = np.random.default_rng(110)
    hterm = random_term(rng)
    prev = dp.DpList(pair_index=np.arange(net.size),
                     tail=np.zeros(net.size, dtype=np.intp),
                     energy=rng.standard_normal(net.size))
    assert_same_step(dp.extend_list(prev, net, hterm,
                                    tables=dp.step_tables(net, epsilon_op)),
                     dense_extend(prev, net, q_major_transitions(net, hterm),
                                  epsilon_op))


def test_tie_goes_to_lowest_index(sub_net):
    net = sub_net(3)
    epsilon_op = 0.05
    idx = np.arange(0, net.size, 2)
    prev = dp.DpList(pair_index=idx, tail=np.zeros_like(idx),
                     energy=np.zeros(idx.size))
    # every cost is exactly zero: the first admissible predecessor wins
    out = dp.extend_list(prev, net, np.zeros((4, 4)),
                         tables=dp.step_tables(net, epsilon_op))
    mu = net.mu[idx]
    for p, tail in zip(out.pair_index, out.tail):
        ok = np.linalg.norm(mu - net.lam[p], axis=1) \
            <= 2.0 * epsilon_op + 1e-14
        assert tail == np.flatnonzero(ok)[0]
    live, tails, _ = dense_extend(prev, net, np.zeros((net.size,) * 2),
                                  epsilon_op)
    assert np.array_equal(out.pair_index, live)
    assert np.array_equal(out.tail, tails)


def test_tie_across_chunk_boundary_goes_to_lowest_index(sub_net):
    net = sub_net(3)
    epsilon_op = 0.05
    tables = dp.step_tables(net, epsilon_op)
    mask = tables.mask
    # two predecessors admissible for the same classes, in q-chunks 1 and 3
    q1 = next(q for q in range(dp.CHUNK, 2 * dp.CHUNK) if mask[q].any())
    q2 = next(q for q in range(3 * dp.CHUNK, net.size)
              if np.array_equal(mask[q], mask[q1]))
    energy = np.ones(net.size)
    energy[[q1, q2]] = -1.0
    prev = dp.DpList(pair_index=np.arange(net.size),
                     tail=np.zeros(net.size, dtype=np.intp), energy=energy)
    # a zero term: every cost is its predecessor's energy, exactly
    out = dp.extend_list(prev, net, np.zeros((4, 4)), tables=tables)
    won = mask[q1][net.lam_class[out.pair_index]]
    assert won.any()
    assert (out.tail[won] == q1).all() and (out.energy[won] == -1.0).all()
    assert_same_step(out, dense_extend(prev, net, np.zeros((net.size,) * 2),
                                       epsilon_op))


def test_nan_cost_in_later_chunk_matches_dense(sub_net):
    net = sub_net(9)
    epsilon_op = 0.05
    rng = np.random.default_rng(109)
    hterm = random_term(rng)
    energy = rng.standard_normal(net.size)
    tables = dp.step_tables(net, epsilon_op)
    mask = tables.mask
    # the first predecessor past four q-chunks that precedes some pair
    q_nan = next(q for q in range(4 * dp.CHUNK + 17, net.size)
                 if mask[q].any())
    energy[q_nan] = np.nan
    prev = dp.DpList(pair_index=np.arange(net.size),
                     tail=np.zeros(net.size, dtype=np.intp), energy=energy)
    dense = dense_extend(prev, net, q_major_transitions(net, hterm),
                         epsilon_op)
    # every pair that q_nan may precede has a NaN cost and drops out, even
    # where a finite minimum came in an earlier chunk
    hit = mask[q_nan][net.lam_class]
    assert hit.any() and not np.isin(np.flatnonzero(hit), dense[0]).any()
    assert_same_step(dp.extend_list(prev, net, hterm, tables=tables), dense)
    # unpruned, and no anchor is recorded from a NaN input
    out = dp.extend_list(prev, net, hterm, tables=tables, record=True)
    assert_same_step(out, dense)
    assert out.anchor is None


def test_all_inadmissible_step_raises(sub_net):
    net = sub_net(4)
    epsilon_op = 0.001
    tables = dp.step_tables(net, epsilon_op)
    stranded = np.flatnonzero(~tables.mask.any(axis=1))
    assert stranded.size > 0
    prev = dp.DpList(pair_index=stranded, tail=np.zeros_like(stranded),
                     energy=np.zeros(stranded.size))
    with pytest.raises(NoAdmissibleTransitionError):
        dp.extend_list(prev, net, np.zeros((4, 4)), tables=tables)


@pytest.mark.parametrize("name,n,runs", [("transverse_ising", 12, 1),
                                         ("random_hermitian", 8, 5)])
def test_transitions_reused_across_identical_terms(monkeypatch, name, n,
                                                   runs):
    # one factor build per full step; the Ising interior terms are one run
    # of one array, whose steps reuse an anchor, while random terms never
    # repeat and every step is a full one
    count = {"factors": 0}
    factors = dp._left_factor

    def counting(*args, **kwargs):
        # the boundary screens and kernels build left factors too
        count["factors"] += sys._getframe(1).f_code.co_name == "extend_list"
        return factors(*args, **kwargs)

    monkeypatch.setattr(dp, "_left_factor", counting)
    h = ham.group_boundaries(ham.build_model(name, {}, n, 0), 1)
    # equal but separate copies of the terms become one array per value
    copies = ham.NnHamiltonian(n=h.n, dims=h.dims,
                               terms=[t.copy() for t in h.terms])
    for chain in (h, copies):
        assert len({id(t) for t in chain.terms[1:-1]}) == runs
        count.update(factors=0)
        steps = dp.solve(chain, 1, 0.25).dp_steps
        assert count["factors"] == steps["full"]
        assert (steps["reused"] > 0) == (name == "transverse_ising")


def bytes_rule_record_steps(terms, n):
    """Per step j = 3..n-1, whether the step records a reuse anchor by the
    rule of comparing term bytes: when the next step, not the closing
    one, has a term of the same bytes."""
    return [j < n - 1 and terms[j - 1].tobytes() == terms[j - 2].tobytes()
            for j in range(3, n)]


@pytest.mark.parametrize("n,D", [(3, 1), (12, 1), (800, 1), (12, 4),
                                 (800, 4)])
@pytest.mark.parametrize("name", ["zz_chain", "transverse_ising",
                                  "heisenberg", "random_hermitian",
                                  "trap_model", "rotated_classical",
                                  "diagonal_commuting"])
def test_anchor_offers_follow_bytes_rule(monkeypatch, name, n, D):
    # the steps asked to record an anchor; the steps themselves are
    # stubbed out, so only the choice is checked.  A run's last step
    # records none, since no step on another term could reuse it
    h = ham.group_boundaries(ham.build_model(name, {}, n, 1), D)
    offered = []

    def recording(prev, net, hterm, *, tables, record=False):
        offered.append(record)
        return dataclasses.replace(prev, tail=np.arange(len(prev)))

    monkeypatch.setattr(dp, "extend_list", recording)
    net = en.build_pair_net(1, 2, 0.25, 0.05)
    dp.solve(h, 1, 0.25, epsilon_op=0.05, pair_net=net)
    assert offered == bytes_rule_record_steps(h.terms, h.n)
    assert any(offered) == (h.n > 4 and name in (
        "zz_chain", "transverse_ising", "heisenberg", "trap_model"))


def guard_bytes(n_pairs, k, n_lists):
    """What `transition_size_guard` counts: one CHUNK-row complex buffer;
    G, the gathered rows of G and their Hermitian parts; the step tables'
    T2, traces, int32 class pairs and two cluster matrices of 2k + 2 reals
    a row; one class's stacked rows of 2k + 2 reals; the energies of a
    step's input and output lists; and the int32 pair_index and tail of
    every stored list, none shared."""
    return (16 * (dp.CHUNK + 3 * k) + 16 * k + 8 + 4 + 2 * 8 * (2 * k + 2)
            + 8 * (2 * k + 2) + 16 + 8 * n_lists) * n_pairs


class TestSizeGuard:
    def test_d2_net_exceeds_memory(self):
        # the full D=2 net at n=6: a streamed step holds 360 MB, anchors of
        # c = N/16 candidates per pair would add 61 GB
        with pytest.raises(SizeGuardError):
            dp.transition_size_guard(123_264, 16, 2**27, 4)
        assert dp.transition_size_guard(123_264, 16, 8 * 2**30, 4) is False

    def test_small_net_passes(self):
        assert dp.transition_size_guard(3400, 4, 8 * 2**30, 10)
        assert dp.transition_size_guard(1000, 4, 16 * 1000 * 1000, 10)
        assert dp.transition_size_guard(10**6, 16, None, 10**6)

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_bounds_are_exact(self, k):
        # `guard_bytes`; then what anchors add, 64 bytes per kept entry
        # (p, r, E) of at most N c + BLOCK_ELEMENTS
        n_pairs = 1000
        assert dp._reuse_bytes(n_pairs) \
            == 64 * (n_pairs * 64 + dp.BLOCK_ELEMENTS)
        for n_lists in (1, 50):
            held = guard_bytes(n_pairs, k, n_lists)
            full = held + dp._reuse_bytes(n_pairs)
            with pytest.raises(SizeGuardError, match="physical memory"):
                dp.transition_size_guard(n_pairs, k, held - 1, n_lists)
            assert dp.transition_size_guard(n_pairs, k, held, n_lists) \
                is False
            assert dp.transition_size_guard(n_pairs, k, full - 1, n_lists) \
                is False
            assert dp.transition_size_guard(n_pairs, k, full, n_lists) \
                is True

    def test_count_bounds_traced_step(self, sub_net):
        # a D=2 step on 12,000 pairs, where the terms of N outweigh the
        # fixed-size blocks: its tracemalloc peak, plus the tables built
        # before it, stays within the count for no stored list (31.3 of
        # 34.7 MB)
        net = sub_net(3, 12000)
        h = ham.group_boundaries(ham.build_model("heisenberg", {}, 6), 2)
        tables = dp.step_tables(net, 0.05)
        prev = dp.initial_list(en.build_end_net(2, h.dims[0], 0.25), net,
                               h.terms[0], tables)
        tracemalloc.start()
        try:
            dp.extend_list(prev, net, h.terms[1], tables=tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = tables.t2.nbytes + tables.trace.nbytes + sum(
            a.nbytes for cls in tables.classes for a in cls)
        assert peak + held <= guard_bytes(net.size, 16, 0)

    def test_two_million_sites_fit_in_8_4_gb(self):
        # transverse_ising at D=1 delta=0.1 (N=350, k=4), n = 2 10^6: the
        # lists count 5.6 GB with no array shared, where whole lists of 24
        # bytes per entry counted 16.8 GB
        n_lists = 2 * 10**6 - 2
        held = guard_bytes(350, 4, n_lists)
        assert held == 5_600_536_200 < 8_400_000_000 < 24 * 350 * n_lists
        assert dp.transition_size_guard(350, 4, 8_400_000_000, n_lists)
        with pytest.raises(SizeGuardError, match="1999998 stored lists"):
            dp.transition_size_guard(350, 4, held - 1, n_lists)

    def test_long_chain_lists_exceed_memory(self, monkeypatch):
        # transverse_ising at D=1 delta=0.1 (N=350): a streamed step holds
        # 0.54 MB, the n - 2 stored lists 8 N (n - 2) bytes at most; at
        # n = 2 10^4 with 50 MB of memory the terms, the nets and the step
        # fit and the 56 MB of lists do not
        def never(*args, **kwargs):
            raise AssertionError("DP list built")

        h = ham.build_model("transverse_ising", {}, 20_000)
        net = en.build_pair_net(1, 2, 0.1, 0.05)
        streamed = guard_bytes(net.size, 4, 0)
        lists = 8 * net.size * (h.n - 2)
        assert (net.size, streamed, lists) == (350, 541_800, 55_994_400)
        monkeypatch.setattr(ham, "_physical_memory", lambda: 5 * 10**7)
        monkeypatch.setattr(dp, "initial_list", never)
        with pytest.raises(SizeGuardError, match="19998 stored lists"):
            dp.solve(h, 1, 0.1, epsilon_op=0.05, pair_net=net)

    def test_no_anchor_recorded_without_room(self, sub_net, monkeypatch):
        # memory between a streamed step's need and that plus what anchors
        # add: no step of the repeated heisenberg term records an anchor,
        # and the result is the same
        net, end = sub_net(5), en.build_end_net(2, 2, 0.25)
        h = ham.group_boundaries(ham.build_model("heisenberg", {}, 6), 2)
        calls = []
        anchor = dp._Anchor

        def counting(*args, **kwargs):
            calls.append(1)
            return anchor(*args, **kwargs)

        # every recorded anchor is built by one call of the class; each full
        # step records but the last, whose anchor no later step could reuse
        monkeypatch.setattr(dp, "_Anchor", counting)
        ample = dp.solve(h, 2, 0.25, epsilon_op=0.05, end_net=end,
                         pair_net=net)
        assert ample.dp_steps["full"] == 3 and calls == [1, 1]
        held = guard_bytes(net.size, 16, h.n - 2)
        assert held + dp._reuse_bytes(net.size) > 2 * held
        monkeypatch.setattr(ham, "_physical_memory", lambda: 2 * held)
        calls.clear()
        tight = dp.solve(h, 2, 0.25, epsilon_op=0.05, end_net=end,
                         pair_net=net)
        assert calls == []
        assert tight.digest == ample.digest
        assert tight.assignment == ample.assignment

    def test_anchors_offered_exactly_when_they_fit(self, monkeypatch):
        # memory one byte below a streamed step plus what anchors add: no
        # anchor is offered, and every step is a full one, to the same
        # result; at that count the steps reuse
        h = ham.group_boundaries(ham.build_model("transverse_ising", {}, 30),
                                 1)
        net = en.build_pair_net(1, 2, 0.25, 0.05)
        ample = dp.solve(h, 1, 0.25, epsilon_op=0.05, pair_net=net)
        assert ample.dp_steps["reused"] > 0
        held = guard_bytes(net.size, 4, h.n - 2)
        fits = held + dp._reuse_bytes(net.size)
        for memory in (fits - 1, fits):
            monkeypatch.setattr(ham, "_physical_memory", lambda: memory)
            res = dp.solve(h, 1, 0.25, epsilon_op=0.05, pair_net=net)
            assert (res.dp_steps["reused"] > 0) == (memory == fits)
            assert res.digest == ample.digest
            assert res.assignment == ample.assignment

    def test_solve_stops_before_transitions(self, sub_net, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("transition matrix attempted")

        # 1,500 pairs need 4.4 MB per streamed step; both nets are given,
        # so the end net's own guard does not raise first
        h = ham.group_boundaries(ham.build_model("heisenberg", {}, 6), 2)
        end = en.build_end_net(2, h.dims[0], 0.25)
        monkeypatch.setattr(ham, "_physical_memory", lambda: 2**20)
        monkeypatch.setattr(dp, "step_tables", never)
        monkeypatch.setattr(dp, "initial_list", never)
        with pytest.raises(SizeGuardError, match="4 stored lists"):
            dp.solve(h, 2, 0.25, epsilon_op=0.05, end_net=end,
                     pair_net=sub_net(5))

    def test_solve_stops_before_tables_at_n3(self, sub_net, monkeypatch):
        # n = 3 takes no step, yet builds T2 and the cluster matrices for
        # the left screen: the guard runs before them at every n
        def never(*args, **kwargs):
            raise AssertionError("step tables built")

        h = ham.group_boundaries(ham.build_model("heisenberg", {}, 3), 2)
        end = en.build_end_net(2, h.dims[0], 0.25)
        monkeypatch.setattr(ham, "_physical_memory", lambda: 2**20)
        monkeypatch.setattr(dp, "step_tables", never)
        with pytest.raises(SizeGuardError, match="1 stored lists"):
            dp.solve(h, 2, 0.25, epsilon_op=0.05, end_net=end,
                     pair_net=sub_net(5))


# --- the per-tensor einsum loops replaced by the batched boundary kernel

def einsum_left_energies(end_net, net, hterm):
    """E[g, p] by one einsum pair per boundary tensor."""
    lam, b = net.lam, net.b
    d_end, d = end_net.tensors[0].shape[1], b.shape[2]
    h = np.asarray(hterm).reshape(d_end, d, d_end, d)
    w_spec, val_spec = "ai,pa,pajb->pijb", "pijb,ijkl,pklb->p"
    w_path = np.einsum_path(w_spec, end_net.tensors[0], lam, b,
                            optimize=True)[0]
    val_path = None
    out = np.empty((end_net.size, net.size))
    for gi, gam in enumerate(end_net.tensors):
        w = np.einsum(w_spec, gam, lam, b, optimize=w_path)
        if val_path is None:
            val_path = np.einsum_path(val_spec, w.conj(), h, w,
                                      optimize=True)[0]
        out[gi] = np.einsum(val_spec, w.conj(), h, w, optimize=val_path).real
    return out


def einsum_right_energies(net, end_net, hterm):
    """E[q, g] by one einsum pair per boundary tensor."""
    lam, b = net.lam, net.b
    d, d_end = b.shape[2], end_net.tensors[0].shape[1]
    h = np.asarray(hterm).reshape(d, d_end, d, d_end)
    w_spec, val_spec = "pa,paig,gj->paij", "paij,ijkl,pakl->p"
    w_path = np.einsum_path(w_spec, lam, b, end_net.tensors[0],
                            optimize=True)[0]
    val_path = None
    out = np.empty((net.size, end_net.size))
    for gi, gam in enumerate(end_net.tensors):
        w = np.einsum(w_spec, lam, b, gam, optimize=w_path)
        if val_path is None:
            val_path = np.einsum_path(val_spec, w.conj(), h, w,
                                      optimize=True)[0]
        out[:, gi] = np.einsum(val_spec, w.conj(), h, w,
                               optimize=val_path).real
    return out


def flat_argmin(total):
    """(value, g, q) of one argmin over a g-major (g, q) total matrix."""
    g, q = np.unravel_index(int(total.argmin()), total.shape)
    return float(total[g, q]), int(g), int(q)


def einsum_close(last, end_net, net, hterm):
    """The right-end minimum over the full g x q total matrix."""
    e_right = einsum_right_energies(net, end_net, hterm)
    return flat_argmin((last.energy[:, None]
                        + e_right[last.pair_index]).T)


def kernel_left_energies(end_net, net, hterm):
    out = np.empty((end_net.size, net.size))
    for lo, e in dp._boundary_energies(end_net.tensors, net.lam, net.b, hterm,
                                       True):
        out[lo:lo + len(e)] = e
    return out


def kernel_right_energies(end_net, lam, b, hterm):
    out = np.empty((end_net.size, len(lam)))
    for lo, e in dp._boundary_energies(end_net.tensors, lam, b, hterm,
                                       False):
        out[lo:lo + len(e)] = e
    return out


@pytest.fixture(scope="module")
def d1_nets():
    """D=1 (pair net, end net) by delta.  At delta=0.05 every tenth end
    tensor is kept, so the einsum loops stay fast."""
    cache = {}

    def make(delta):
        if delta not in cache:
            net = en.build_pair_net(1, 2, delta,
                                    en.certified_epsilon(2, 1, delta))
            end = en.build_end_net(1, 2, delta)
            if delta < 0.1:
                end = dataclasses.replace(end, tensors=end.tensors[::10])
            cache[delta] = net, end
        return cache[delta]

    return make


D1_MODELS = [("random_hermitian", 1), ("random_hermitian", 2),
             ("random_hermitian", 3), ("transverse_ising", None)]


@pytest.mark.parametrize("delta", [0.25, 0.1, 0.05])
@pytest.mark.parametrize("name,seed", D1_MODELS)
def test_boundary_kernel_bitwise_at_d1(d1_nets, delta, name, seed):
    net, end = d1_nets(delta)
    h = ham.group_boundaries(ham.build_model(name, {}, 6, seed), 1)
    e0 = einsum_left_energies(end, net, h.terms[0])
    tables = dp.step_tables(net, en.certified_epsilon(2, 1, delta))
    first = dp.initial_list(end, net, h.terms[0], tables)
    assert np.array_equal(first.energy, e0.min(axis=0))
    assert np.array_equal(first.tail, e0.argmin(axis=0))
    last = random_prev(net.size, np.random.default_rng(7))
    got = dp._close_list(last, end, net, h.terms[-1])
    assert got == einsum_close(last, end, net, h.terms[-1])


def test_boundary_kernel_at_d2(sub_net):
    net = sub_net(6)
    h = ham.group_boundaries(ham.build_model("heisenberg", {}, 6), 2)
    end = en.build_end_net(2, h.dims[0], 0.25)
    e0 = einsum_left_energies(end, net, h.terms[0])
    e_left = kernel_left_energies(end, net, h.terms[0])
    assert np.abs(e_left - e0).max() <= 1e-12 * np.abs(e0).max()
    first = dp.initial_list(end, net, h.terms[0], dp.step_tables(net, 0.05))
    assert np.abs(first.energy - e0.min(axis=0)).max() <= 1e-12
    # the screen re-evaluates its rows with the same kernel
    assert np.array_equal(first.energy, e_left.min(axis=0))
    assert np.array_equal(first.tail, e_left.argmin(axis=0))
    last = random_prev(net.size, np.random.default_rng(8))
    val, g, q = dp._close_list(last, end, net, h.terms[-1])
    ref_val, _, _ = einsum_close(last, end, net, h.terms[-1])
    assert abs(val - ref_val) <= 1e-12 * max(1.0, abs(ref_val))
    e_right = einsum_right_energies(net, end, h.terms[-1])
    assert abs(last.energy[q] + e_right[last.pair_index[q], g] - val) \
        <= 1e-12 * max(1.0, abs(val))


def test_boundary_ties_go_to_lowest_index(d1_nets):
    net, end = d1_nets(0.1)
    zero = np.zeros((4, 4))
    first = dp.initial_list(end, net, zero, dp.step_tables(net, 0.05))
    assert np.array_equal(first.tail, np.zeros(net.size, dtype=np.intp))
    assert np.array_equal(first.energy, np.zeros(net.size))
    idx = np.arange(3, net.size, 2)
    energy = np.ones(idx.size)
    energy[[4, 9, 20]] = -1.0
    last = dp.DpList(pair_index=idx, tail=np.zeros_like(idx), energy=energy)
    assert dp._close_list(last, end, net, zero) == (-1.0, 0, 4)


@pytest.fixture
def evaluated(monkeypatch):
    """The number of end tensors that each call of `dp._boundary_energies`
    evaluates exactly, in call order."""
    counts = []
    kernel = dp._boundary_energies

    def recording(ends, *args):
        counts.append(len(ends))
        return kernel(ends, *args)

    monkeypatch.setattr(dp, "_boundary_energies", recording)
    return counts


def real_forms(g, dd):
    """The real forms of the Hermitian parts of the rows of a left factor G,
    as the boundary screens multiply them."""
    g = np.ascontiguousarray(g).reshape(-1, dd, dd)
    h = 0.5 * (g + g.conj().transpose(0, 2, 1))
    return h.reshape(len(h), -1).view(float)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("which", ["d1", "d2"])
def test_screen_keeps_every_exact_minimum(d1_nets, sub_net, evaluated, which,
                                          scale):
    if which == "d1":
        net, end = d1_nets(0.1)
    else:
        net, end = sub_net(10), en.build_end_net(2, 2, 0.25)
    rng = np.random.default_rng(11)
    h_left, h_right = scale * random_term(rng), scale * random_term(rng)
    ends = end.tensors
    D, d = ends.shape[1], net.b.shape[2]
    # left end: the end tensors' forms f_g, scaled by lambda_x lambda_y of
    # pair p, times t_p agree with the exact kernel far inside K
    e = kernel_left_energies(end, net, h_left)
    f = real_forms(dp._left_factor(ends.transpose(0, 2, 1)[:, None], h_left,
                                   d), D * d)
    lam = np.repeat(net.lam, d, axis=1)
    w = np.repeat((lam[:, :, None] * lam[:, None, :]).reshape(net.size, -1),
                  2, axis=1)
    t = dp._right_factor(net.b).conj().view(float)
    tol = 1e-9 * (1.0 + D * np.linalg.norm(h_left))
    assert np.abs(f @ (w * t).T - e).max() < 1e-3 * tol
    # so every end tensor that reaches a minimum is evaluated exactly
    first = dp.initial_list(end, net, h_left, dp.step_tables(net, 0.05))
    assert np.array_equal(first.energy, e.min(axis=0))
    assert np.array_equal(first.tail, e.argmin(axis=0))
    # right end: the forms f_q of the last list's rows times the end
    # tensors' t_g, against the exact kernel
    last = random_prev(net.size, rng)
    last.energy *= scale
    lam, b = net.lam[last.pair_index], net.b[last.pair_index]
    e = kernel_right_energies(end, lam, b, h_right)
    f = real_forms(dp._left_factor(b * lam[:, :, None, None], h_right,
                                   ends.shape[2]), D * ends.shape[2])
    t = np.ascontiguousarray(dp._right_factor(ends[..., None])).conj()
    tol = 1e-9 * (1.0 + D * np.linalg.norm(h_right)
                  + np.abs(last.energy).max())
    assert np.abs((f @ t.view(float).T).T - e).max() < 1e-3 * tol
    total = e + last.energy
    assert dp._close_list(last, end, net, h_right) == flat_argmin(total)
    # the kernel calls above evaluate every end tensor; the screens prune
    assert evaluated[::2] == [end.size] * 2
    assert evaluated[3] < end.size
    assert (evaluated[1] < end.size) == (which == "d1")


def test_left_screen_scales_each_lambda_class(sub_net, evaluated):
    # 20 pairs of the D=2 net in all three lambda classes: with few pairs
    # many end tensors reach no minimum, and the screen drops them by each
    # class's bound, whose end forms are scaled by its lambda_x lambda_y
    # (unscaled or swapped forms drop a minimum for each of these terms)
    net, end = sub_net(6, 20), en.build_end_net(2, 2, 0.25)
    assert set(net.lam_class.tolist()) == {0, 1, 2}
    tables = dp.step_tables(net, 0.05)
    for seed in range(3):
        hterm = random_term(np.random.default_rng(200 + seed))
        e = kernel_left_energies(end, net, hterm)
        first = dp.initial_list(end, net, hterm, tables)
        assert np.array_equal(first.energy, e.min(axis=0))
        assert np.array_equal(first.tail, e.argmin(axis=0))
    assert len(evaluated) == 6 and max(evaluated[1::2]) < end.size


def nan_at(cells, kernel):
    """`kernel` (a `_boundary_energies`) with NaN at the (g, p) cells."""
    def patched(ends, *args):
        for lo, e in kernel(ends, *args):
            e = e.copy()
            for g, p in cells:
                if lo <= g < lo + len(e):
                    e[g - lo, p] = np.nan
            yield lo, e
    return patched


def test_nan_boundary_energy_in_first_list(d1_nets, monkeypatch):
    net, end = d1_nets(0.1)
    h = ham.group_boundaries(ham.build_model("random_hermitian", {}, 6, 2), 1)
    last_g = end.size - 1
    # a NaN in the first chunk of end tensors, one later in the same
    # column, and one in the last chunk only; the screen keeps every row
    monkeypatch.setattr(dp, "_boundary_energies", nan_at(
        [(3, 5), (last_g, 5), (last_g, 9)], dp._boundary_energies))
    monkeypatch.setattr(dp, "_viable_rows",
                        lambda rows, *args: np.ones(rows.size, dtype=bool))
    e = kernel_left_energies(end, net, h.terms[0])
    first = dp.initial_list(end, net, h.terms[0], dp.step_tables(net, 0.05))
    np.testing.assert_array_equal(first.energy, e.min(axis=0))
    assert np.array_equal(first.tail, e.argmin(axis=0))
    assert first.tail[5] == 3 and first.tail[9] == last_g


def test_nan_in_last_list_closes_as_one_argmin(d1_nets):
    net, end = d1_nets(0.1)
    h = ham.group_boundaries(ham.build_model("random_hermitian", {}, 6, 3), 1)
    last = random_prev(net.size, np.random.default_rng(12))
    last.energy[[17, 40]] = np.nan
    lam, b = net.lam[last.pair_index], net.b[last.pair_index]
    total = kernel_right_energies(end, lam, b, h.terms[-1]) + last.energy
    got = dp._close_list(last, end, net, h.terms[-1])
    assert np.array_equal(got, flat_argmin(total), equal_nan=True)
    assert got[1:] == (0, 17)


def test_screen_evaluates_few_rows_exactly(evaluated):
    # the benchmark's fine-grid config: N = 3400 pairs, 3400 end tensors
    h = ham.group_boundaries(ham.build_model("random_hermitian", {}, 12, 1), 1)
    n_end = dp.solve(h, 1, 0.05).n_end
    left, right = (count / n_end for count in evaluated)
    assert left <= 0.10
    assert right <= 0.01


def fine_grid_solve(d1_nets):
    """A random_hermitian solve on the delta=0.05 net (N = 3400): every
    term differs, so all three interior steps stream."""
    net, end = d1_nets(0.05)
    h = ham.group_boundaries(ham.build_model("random_hermitian", {}, 6, 1), 1)
    return net, dp.solve(h, 1, 0.05, end_net=end, pair_net=net)


def test_streamed_solve_never_holds_transition_matrix(d1_nets):
    d1_nets(0.05)           # build the nets before tracing
    tracemalloc.start()
    try:
        net, _ = fine_grid_solve(d1_nets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one real N x N matrix alone is 8 N^2 bytes
    assert peak < 4 * net.size ** 2


def assert_same_list(a, b):
    # bitwise, NaN included
    assert np.array_equal(a.pair_index, b.pair_index)
    assert np.array_equal(a.tail, b.tail)
    assert np.array_equal(a.energy.view(np.int64), b.energy.view(np.int64))


def uniform_chain(name, n):
    h = ham.group_boundaries(ham.build_model(name, {}, n), 1)
    assert all(t is h.terms[1] for t in h.terms[1:-1])
    return h


def uniform_steps(d1_nets, h, delta, record=False, energy=None):
    """The D=1 lists of a chain whose interior terms are one array, each
    step recording an anchor or none; `energy` replaces the first list's
    energies."""
    net, end = d1_nets(delta)
    epsilon_op = en.certified_epsilon(2, 1, delta)
    tables = dp.step_tables(net, epsilon_op)
    lists = [dp.initial_list(end, net, h.terms[0], tables)]
    if energy is not None:
        lists[0] = dataclasses.replace(lists[0], energy=energy)
    for hterm in h.terms[1:-1]:
        lists.append(dp.extend_list(lists[-1], net, hterm, tables=tables,
                                    record=record))
    return lists


REUSE_CASES = [(name, n, delta)
               for name in ("zz_chain", "transverse_ising", "heisenberg",
                            "trap_model")
               for n in (12, 200) for delta in (0.25, 0.1)]


@pytest.mark.parametrize("name,n,delta",
                         REUSE_CASES + [("transverse_ising", 800, 0.1)])
def test_anchor_reuse_matches_full_steps(d1_nets, keep_fractions, name, n,
                                        delta):
    h = uniform_chain(name, n)
    full = uniform_steps(d1_nets, h, delta)
    keep_fractions.clear()
    reused = uniform_steps(d1_nets, h, delta, record=True)
    if name == "transverse_ising":
        # every full step of the anchored run records, and each prunes
        assert keep_fractions and max(keep_fractions) < 1.0
    for a, b in zip(full, reused):
        assert_same_list(a, b)
    assert not any(lst.reused for lst in full)
    if n >= 200:
        assert sum(lst.reused for lst in reused) > n // 2
    assert full[-1].anchor is None and reused[-1].anchor is not None


def dense_steps(net, h, epsilon_op, first):
    """The lists of h's interior steps from the list `first` by the dense
    reference step, on the reference matrix of h's one interior term."""
    e_trans = q_major_transitions(net, h.terms[1])
    mask = dense_mask(net, epsilon_op)
    lists = [first]
    for _ in h.terms[1:-1]:
        live, tail, energy = dense_extend(lists[-1], net, e_trans,
                                          epsilon_op, mask)
        lists.append(dp.DpList(pair_index=live, tail=tail, energy=energy))
    return lists


def test_d2_streamed_steps_record_and_reuse_anchors(sub_net):
    # a sub-net on which heisenberg is period 1 from step 10 on; on most
    # sub-nets it is period 2 or more, and the one anchor never certifies
    net, epsilon_op = sub_net(10), 0.05
    h = ham.group_boundaries(ham.build_model("heisenberg", {}, 24), 2)
    end = en.build_end_net(2, h.dims[0], 0.25)
    tables = dp.step_tables(net, epsilon_op)
    first = dp.initial_list(end, net, h.terms[0], tables)
    lists = [first]
    for hterm in h.terms[1:-1]:
        lists.append(dp.extend_list(lists[-1], net, hterm, tables=tables,
                                    record=True))
    assert sum(lst.reused for lst in lists) >= 10
    assert lists[-1].anchor is not None
    for a, b in zip(lists, dense_steps(net, h, epsilon_op, first)):
        assert_same_list(a, b)


# D=2 solves on sub-nets whose pairs span the three lambda classes, so
# they pin each class's slice of what a step reads from the net; recorded
# while each step still built its own T2 and cluster matrices.
# (model, n, seed, sub-net seed) -> (dp_steps, assignment, digest)
D2_GOLDEN_SOLVES = [
    (("heisenberg", 24, None, 10),
     ({"full": 9, "reused": 12},
      [0] + [656, 585] * 8 + [656, 706, 919, 924, 852, 589, 12],
      "9eb378f9fa730a4a1c9900675e045662f84f3f58b83330f80f612eb1165b9b6c")),
    (("random_hermitian", 8, 1, 0),
     ({"full": 5, "reused": 0}, [0, 594, 637, 495, 720, 543, 913, 105],
      "c41cbb9f34f84572a68a8d9c32bf69dfc548499aec6b87806d95d1349dfd5d0c")),
]


@pytest.mark.parametrize("config,expect", D2_GOLDEN_SOLVES,
                         ids=["heisenberg-n24", "random_hermitian-n8"])
def test_d2_golden_solve_results(sub_net, config, expect):
    name, n, seed, net_seed = config
    h = ham.group_boundaries(ham.build_model(name, {}, n, seed), 2)
    net = sub_net(net_seed)
    assert set(net.lam_class.tolist()) == {0, 1, 2}
    sr = dp.solve(h, 2, 0.25, epsilon_op=0.05,
                  end_net=en.build_end_net(2, h.dims[0], 0.25), pair_net=net)
    assert (sr.dp_steps, sr.assignment, sr.digest) == expect


@pytest.mark.parametrize("which", ["d1", "d2", "zero", "falls"])
def test_recorded_candidates_are_dense_positions_within_tol(d1_nets,
                                                            sub_net, which):
    if which == "d1":
        h, delta = uniform_chain("transverse_ising", 16), 0.1
        net, epsilon_op = d1_nets(delta)[0], en.certified_epsilon(2, 1, delta)
        hterm, prev = h.terms[1], uniform_steps(d1_nets, h, delta)[-1]
    elif which == "d2":
        h = ham.group_boundaries(ham.build_model("heisenberg", {}, 12), 2)
        net, epsilon_op, hterm = sub_net(10), 0.05, h.terms[1]
        prev = dp.initial_list(en.build_end_net(2, h.dims[0], 0.25), net,
                               h.terms[0], dp.step_tables(net, epsilon_op))
    elif which == "zero":
        # a zero term; one predecessor 5 times 1e-10 (1 + max|e_prev|)
        # above the minimum, inside K = 1e-9 (1 + max|e_prev|) but outside
        # that narrower margin, must be kept to be a candidate
        net, epsilon_op = d1_nets(0.1)[0], 0.05
        hterm = np.zeros((4, 4))
        energy = np.ones(net.size)
        energy[0], energy[1] = 0.0, 5.0 * 1e-10 * 2.0
    else:
        # a zero term on a D=2 sub-net: the first chunk's rows are tied 1.5 K
        # above the minimum, which later rows reach, so the running minimum
        # falls by more than K and the rows kept near it must be trimmed
        net, epsilon_op = sub_net(10), 0.05
        hterm = np.zeros((4, 4))
        energy = 1.0 + 1e-6 * np.arange(net.size)
        tol = 1e-9 * (1.0 + energy.max())
        energy[:160], energy[200:230] = 1.5 * tol, 0.0
    if which in ("zero", "falls"):
        prev = dp.DpList(pair_index=np.arange(net.size),
                         tail=np.zeros(net.size, dtype=np.intp),
                         energy=energy)
    tables = dp.step_tables(net, epsilon_op)
    out = dp.extend_list(prev, net, hterm, tables=tables, record=True)
    anchor = out.anchor
    assert anchor.hterm is hterm and anchor.tables is tables
    e_trans = q_major_transitions(net, hterm)[prev.pair_index]
    admissible = dense_mask(net, epsilon_op)[prev.pair_index]
    # K from E_bound = dD max|h| max tr P, which bounds every |E|
    h_all, trace = window_hermitian_parts(net, hterm)
    e_bound = h_all.shape[-1] * np.abs(h_all[prev.pair_index]).max() \
        * trace.max()
    assert np.abs(e_trans[admissible]).max() <= e_bound
    assert anchor.tol == 1e-9 * (1.0 + np.abs(prev.energy).max() + e_bound)
    cost = np.where(admissible, prev.energy[:, None] + e_trans, np.inf)
    assert np.array_equal(anchor.live, out.pair_index)
    for k, p in enumerate(anchor.live):
        near = np.flatnonzero(cost[:, p] <= out.energy[k] + anchor.tol)
        used = np.isfinite(anchor.e_cand[k])
        assert np.array_equal(anchor.cand[k, used], near)
        assert np.array_equal(anchor.e_cand[k, used], e_trans[near, p])
    assert anchor.cand.shape[1] > 1


@pytest.mark.parametrize("tied", [64, 128])
def test_pass_keeps_at_most_n_c_entries(d1_nets, tied):
    # a zero term at D=1, where every predecessor precedes every pair: the
    # first `tied` positions sit 1.5 K above the minimum, which positions
    # 200 and 201 reach.  The first chunk's 64 tied rows fill the N c
    # entries the pass may keep, and the fourth chunk's two minima pass
    # them; with 128 tied rows the second chunk passes them.  Either way no
    # anchor is recorded, though the final candidates would fit
    net, epsilon_op = d1_nets(0.1)[0], 0.05
    assert net.size * dp._reuse_width(net.size) == dp.CHUNK * net.size
    tables = dp.step_tables(net, epsilon_op)
    energy = np.ones(net.size)
    tol = 1e-9 * (1.0 + 1.0)    # K at a zero term and max|e_prev| = 1
    energy[:tied], energy[200:202] = 1.5 * tol, 0.0
    prev = dp.DpList(pair_index=np.arange(net.size),
                     tail=np.zeros(net.size, dtype=np.intp), energy=energy)
    out = dp.extend_list(prev, net, np.zeros((4, 4)), tables=tables,
                         record=True)
    assert_same_list(out, dp.extend_list(prev, net, np.zeros((4, 4)),
                                         tables=tables))
    assert out.anchor is None


@pytest.mark.parametrize("extra", [0, 1])
def test_pass_records_anchor_at_n_c_entries(d1_nets, monkeypatch, extra):
    # the edge of the N c rule, on the D=1 net with its last pair moved to
    # a lambda class of its own, which only predecessors whose mu is that
    # class's lambda precede: 64 rows of the first class and 64 + extra of
    # the second tie at the minimum of a zero term.  The pass then holds
    # 64 (N - 1) + 64 + extra entries, N c + extra, and records an anchor of
    # the c tied rows per pair exactly when extra is 0; at one entry more
    # it gives the anchor up before packing
    net, epsilon_op = d1_nets(0.1)[0], 0.05
    c = dp._reuse_width(net.size)
    assert c == 64
    lam_class = np.zeros(net.size, dtype=net.lam_class.dtype)
    lam_class[-1] = 1
    mu = np.ones_like(net.mu)
    mu[c:2 * c + extra] = 3.0
    net = dataclasses.replace(net, lam_net=np.array([[1.0], [3.0]]),
                              lam_class=lam_class, mu=mu)
    tables = dp.step_tables(net, epsilon_op)
    assert tables.mask[:c, 0].all() and not tables.mask[:c, 1].any()
    assert tables.mask[c:2 * c + extra, 1].all()
    assert not tables.mask[c:2 * c + extra, 0].any()
    energy = np.ones(net.size)
    energy[:2 * c + extra] = 0.0
    prev = dp.DpList(pair_index=np.arange(net.size),
                     tail=np.zeros(net.size, dtype=np.intp), energy=energy)
    packed = []
    pack = dp._pack_anchor

    def counting(*args):
        packed.append(1)
        return pack(*args)

    monkeypatch.setattr(dp, "_pack_anchor", counting)
    out = dp.extend_list(prev, net, np.zeros((4, 4)), tables=tables,
                         record=True)
    assert_same_list(out, dp.extend_list(prev, net, np.zeros((4, 4)),
                                         tables=tables))
    assert len(out) == net.size
    assert packed == [1] * (extra == 0)
    assert (out.anchor is not None) == (extra == 0)
    if extra == 0:
        cand = np.tile(np.arange(c), (net.size, 1))
        cand[-1] += c
        assert np.array_equal(out.anchor.cand, cand)


def test_recording_step_streams_each_chunk_once(sub_net, monkeypatch):
    # a step that records an anchor keeps its candidates in its one pass
    # over the pruned rows, so it forms the same chunks as the plain step
    net, epsilon_op = sub_net(10), 0.05
    h = ham.group_boundaries(ham.build_model("heisenberg", {}, 12), 2)
    tables = dp.step_tables(net, epsilon_op)
    prev = dp.initial_list(en.build_end_net(2, h.dims[0], 0.25), net,
                           h.terms[0], tables)
    chunks = []
    blocks = dp._transition_blocks

    def counting(*args):
        for item in blocks(*args):
            chunks.append(item[0])
            yield item

    monkeypatch.setattr(dp, "_transition_blocks", counting)
    plain = dp.extend_list(prev, net, h.terms[1], tables=tables)
    streamed = chunks[:]
    chunks.clear()
    out = dp.extend_list(prev, net, h.terms[1], tables=tables, record=True)
    assert out.anchor is not None and len(streamed) > 1
    assert chunks == streamed
    assert_same_list(out, plain)


def stepper(d1_nets, h, delta):
    """(step, the lists of `uniform_steps`): step(prev, record) is one
    step on h's interior term."""
    net, _ = d1_nets(delta)
    tables = dp.step_tables(net, en.certified_epsilon(2, 1, delta))

    def step(prev, record=False, hterm=h.terms[1], tables=tables):
        return dp.extend_list(prev, net, hterm, tables=tables, record=record)

    return step, uniform_steps(d1_nets, h, delta)


def nudged(prev, tol, anchor):
    energy = prev.energy.copy()
    energy[len(energy) // 2] += 10.0 * tol
    return dataclasses.replace(prev, energy=energy, anchor=anchor)


def shifted(prev, anchor):
    return dataclasses.replace(prev, energy=prev.energy + 1.0, anchor=anchor)


@pytest.mark.parametrize("change", ["nudged", "other_pairs", "term_copy",
                                    "tables_copy"])
def test_failed_check_takes_full_step(d1_nets, change):
    # the copies are equal to the anchor's own term and tables, but the
    # anchor certifies only for its own objects
    step, lists = stepper(d1_nets, uniform_chain("transverse_ising", 40), 0.1)
    prev = lists[-1]
    first = step(prev, record=True)
    anchor = first.anchor
    assert not first.reused and anchor is not None
    assert step(shifted(prev, anchor)).reused
    if change == "nudged":
        other = nudged(prev, anchor.tol, anchor)
    elif change == "other_pairs":
        other = dp.DpList(pair_index=prev.pair_index[1:], tail=prev.tail[1:],
                          energy=prev.energy[1:], anchor=anchor)
    else:
        other = shifted(prev, anchor)
    given = {"term_copy": {"hterm": anchor.hterm.copy()},
             "tables_copy": {"tables": dataclasses.replace(anchor.tables)}}
    out = step(other, record=True, **given.get(change, {}))
    assert not out.reused
    # the full step dropped the anchor from its input and recorded its own
    assert other.anchor is None
    assert out.anchor is not None and out.anchor is not anchor
    assert_same_list(out, step(other))


def test_nan_in_matrix_never_reuses(sub_net):
    # a NaN in a step's input energies: the step neither reuses the anchor
    # it is given nor records one, and its list is the plain step's; a D=2
    # sub-net, since at D=1 every predecessor precedes every pair and the
    # NaN would leave no pair
    net, epsilon_op = sub_net(10), 0.05
    h = ham.group_boundaries(ham.build_model("heisenberg", {}, 6), 2)
    tables = dp.step_tables(net, epsilon_op)
    mask = tables.mask
    prev = dp.initial_list(en.build_end_net(2, h.dims[0], 0.25), net,
                           h.terms[0], tables)

    def step(prev, record=False):
        return dp.extend_list(prev, net, h.terms[1], tables=tables,
                              record=record)

    anchor = step(prev, record=True).anchor
    assert step(shifted(prev, anchor)).reused
    # a predecessor that precedes some classes but not all
    q = next(k for k, q in enumerate(prev.pair_index)
             if 0 < mask[q].sum() < mask.shape[1])
    energy = prev.energy.copy()
    energy[q] = np.nan
    bad = dataclasses.replace(prev, energy=energy, anchor=anchor)
    out = step(bad, record=True)
    assert bad.anchor is None and out.anchor is None and not out.reused
    assert 0 < len(out) < len(step(prev))
    assert_same_list(out, step(bad))


def two_run_chain(second):
    """transverse_ising at n = 83 with its interior term A in two runs of
    40 sites: A, then `second`."""
    h = ham.build_model("transverse_ising", {}, 83)
    return ham.NnHamiltonian(n=h.n, dims=h.dims, terms=[h.terms[0]]
                             + [h.terms[1]] * 40 + [second(h.terms[1])] * 40
                             + [h.terms[-1]])


@pytest.mark.parametrize("second", [
    lambda a: a + 0.5 * np.eye(4),
    lambda a: ham.build_model("transverse_ising", {"g": 0.8}, 4).terms[1]],
    ids=["shifted", "field"])
def test_anchors_never_cross_a_term_change(d1_nets, monkeypatch, second):
    # A + 0.5 I adds 0.5 to every cost of a step, so an anchor of A passes
    # the energy check on it and would return A's costs, e_alg 20 too low;
    # a field of 0.8 changes the matrix.  Each list must be bitwise that of
    # the solve in which no anchor fits
    h = two_run_chain(second)
    net, end = d1_nets(0.1)
    fits = guard_bytes(net.size, 4, h.n - 2) + dp._reuse_bytes(net.size)
    extend, lists, results = dp.extend_list, [], []

    def recording(*args, **kwargs):
        lists[-1].append(extend(*args, **kwargs))
        return lists[-1][-1]

    monkeypatch.setattr(dp, "extend_list", recording)
    for memory in (fits, fits - 1):
        monkeypatch.setattr(ham, "_physical_memory", lambda: memory)
        lists.append([])
        results.append(dp.solve(h, 1, 0.1, end_net=end, pair_net=net))
    anchored, plain = results
    assert anchored.dp_steps["reused"] > 0 == plain.dp_steps["reused"]
    assert len(lists[0]) == len(lists[1]) == 80
    for a, b in zip(*lists):
        assert_same_list(a, b)
    assert repr(anchored.e_alg) == repr(plain.e_alg)
    assert anchored.assignment == plain.assignment


@pytest.mark.parametrize("name,n,delta", [("transverse_ising", 800, 0.1),
                                          ("random_hermitian", 12, 0.25)])
def test_solve_reports_dp_steps(name, n, delta):
    # the first is the benchmark's dp-long-uniform config at seed 1
    params = {"g": 0.5 + random.Random(1).random()} \
        if name == "transverse_ising" else {}
    h = ham.group_boundaries(ham.build_model(name, params, n, 1), 1)
    steps = dp.solve(h, 1, delta).dp_steps
    assert steps["full"] + steps["reused"] == n - 3
    assert (steps["reused"] > 0) == (name == "transverse_ising")


def test_steps_share_equal_index_arrays(d1_nets):
    # int32 index arrays; a step whose pairs are its input's holds the
    # input's pair_index, and a reused step whose winners are its input's
    # holds the input's tail, so the periodic regime adds no array
    lists = uniform_steps(d1_nets, uniform_chain("transverse_ising", 200),
                          0.1, record=True)
    for lst in lists:
        assert lst.pair_index.dtype == lst.tail.dtype == np.int32
    for prev, lst in zip(lists, lists[1:]):
        assert (lst.pair_index is prev.pair_index) \
            == np.array_equal(lst.pair_index, prev.pair_index)
        if lst.reused:
            assert (lst.tail is prev.tail) \
                == np.array_equal(lst.tail, prev.tail)
    assert lists[-1].reused and lists[-1].tail is lists[-2].tail
    assert len({id(lst.tail) for lst in lists}) < 40


@pytest.mark.parametrize("name,n,delta",
                         REUSE_CASES + [("transverse_ising", 800, 0.1)])
def test_backtrack_over_shared_lists_matches_whole_lists(d1_nets, name, n,
                                                         delta):
    # the assignment `solve` walks from its shared (pair_index, tail)
    # arrays is the one walked from the whole lists of full steps
    net, end = d1_nets(delta)
    h = uniform_chain(name, n)
    lists = uniform_steps(d1_nets, h, delta)
    e_alg, g, q = dp._close_list(lists[-1], end, net, h.terms[-1])
    chosen = []
    for lst in reversed(lists):
        chosen.append(int(lst.pair_index[q]))
        q = int(lst.tail[q])
    res = dp.solve(h, 1, delta, end_net=end, pair_net=net)
    assert res.assignment == [q] + chosen[::-1] + [g]
    assert repr(res.e_alg) == repr(e_alg)
    assert res.dp_lists["stored"] == len(lists)


def test_stored_lists_hold_distinct_arrays_once(d1_nets, monkeypatch):
    # a uniform chain at D=1 delta=0.1 (N = 350): what `solve` holds when
    # the DP closes grows with the distinct arrays of its lists, not with
    # n; whole lists held 24 N bytes each, 8.4 MB more at n = 2,000 than at
    # n = 1,000
    net, end = d1_nets(0.1)
    close, held = dp._close_list, []

    def traced_close(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        return close(*args)

    monkeypatch.setattr(dp, "_close_list", traced_close)
    stats = []
    for n in (1000, 2000):
        h = uniform_chain("transverse_ising", n)
        tracemalloc.start()
        try:
            stats.append(dp.solve(h, 1, 0.1, end_net=end,
                                  pair_net=net).dp_lists)
        finally:
            tracemalloc.stop()
    assert [s["stored"] for s in stats] == [998, 1998]
    # the same distinct arrays, of at most N int32 entries each
    assert stats[0]["distinct_tails"] == stats[1]["distinct_tails"] < 40
    assert stats[0]["bytes"] == stats[1]["bytes"] \
        <= 4 * net.size * (2 * stats[1]["distinct_tails"])
    # 1,000 more lists cost two list slots each, not arrays, and all that
    # is held is less than the index arrays of 100 unshared lists
    assert held[1] - held[0] <= 32 * 1000
    assert held[1] < 8 * net.size * 100


@pytest.mark.parametrize("ties", [False, True])
def test_reuse_memory_within_guard_count(d1_nets, ties):
    # a full step that records an anchor, then a step that reuses it,
    # against two full steps; with ties, a zero term and every sixth
    # predecessor at zero energy, the rest at one, so each pair has a tie
    # of every sixth admissible predecessor, near the widest anchor allowed
    net, _ = d1_nets(0.1)
    epsilon_op = en.certified_epsilon(2, 1, 0.1)
    # given, as `solve` gives them, so that their build is not traced
    tables = dp.step_tables(net, epsilon_op)
    if ties:
        hterm = np.zeros((4, 4))
        prev = dp.DpList(pair_index=np.arange(net.size),
                         tail=np.zeros(net.size, dtype=np.intp),
                         energy=np.where(np.arange(net.size) % 6 == 0,
                                         0.0, 1.0))
    else:
        h = uniform_chain("transverse_ising", 40)
        hterm, prev = h.terms[1], stepper(d1_nets, h, 0.1)[1][-1]

    def peak(record):
        tracemalloc.start()
        try:
            out = dp.extend_list(prev, net, hterm, tables=tables,
                                 record=record)
            again = dp.extend_list(shifted(prev, out.anchor), net, hterm,
                                   tables=tables)
            assert again.reused == record
            return out.anchor, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (anchor, recorded), (_, plain) = peak(True), peak(False)
    extra = recorded - plain
    assert anchor.cand.shape[1] > (dp.REUSE_CANDIDATES * 3 // 4 if ties
                                   else 1)
    assert 0 < extra <= dp._reuse_bytes(net.size)


def test_saturated_trim_holds_entries_once(d1_nets):
    # a zero term on the N = 3400 net, every 16th predecessor at zero
    # energy: each pair ties 213 of them, past c = 212, so the recording
    # pass gives up the anchor once it holds more than N c entries.  It
    # holds each entry once, 16 bytes (12.0 MB here, 15.9 bytes an entry of
    # at most N c + BLOCK_ELEMENTS); a trim at N c entries, which held the
    # blocks and one field's concatenation, peaked at 17.9 MB, and
    # concatenating all three fields while the blocks were held at 23.7 MB
    net, _ = d1_nets(0.05)
    tables = dp.step_tables(net, en.certified_epsilon(2, 1, 0.05))
    prev = dp.DpList(pair_index=np.arange(net.size),
                     tail=np.zeros(net.size, dtype=np.intp),
                     energy=np.where(np.arange(net.size) % 16 == 0, 0.0, 1.0))

    def peak(record):
        tracemalloc.start()
        try:
            out = dp.extend_list(prev, net, np.zeros((4, 4)), tables=tables,
                                 record=record)
            return out.anchor, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (anchor, recorded), (_, plain) = peak(True), peak(False)
    extra = recorded - plain
    assert anchor is None and dp._reuse_width(net.size) == 212
    assert extra <= 17 * (net.size * 212 + dp.BLOCK_ELEMENTS)


def test_streamed_steps_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, 20-30 ms and about
    # 1.5 MiB, and concurrent.futures costs about 9 ms and 0.7 MiB; a D=1
    # solve, anchored and pruned steps alike, needs neither
    script = ("import sys\n"
              "from dpmps import dp, hamiltonian as ham\n"
              "for name in ('transverse_ising', 'random_hermitian'):\n"
              "    h = ham.group_boundaries(ham.build_model(name, {}, 12, 1),"
              " 1)\n"
              "    dp.solve(h, 1, 0.25)\n"
              "print([m for m in ('numpy.ma', 'concurrent.futures')\n"
              "       if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(dp.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
