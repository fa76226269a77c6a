"""Tests for the grid nets and the orthonormal-family generator."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dpmps import epsnet as en
from dpmps.errors import EmptyNetError, NetSizeError
from reference import enumerated_family


D2_EPSILON_OP = 0.05


@pytest.fixture(scope="module")
def d2_net():
    return en.build_pair_net(2, 2, 0.25, epsilon_op=D2_EPSILON_OP)


class TestGrids:
    def test_real_grid_quarter(self):
        assert np.allclose(en.real_grid(0.25), [0.25, 0.75])

    def test_real_grid_half(self):
        assert np.allclose(en.real_grid(0.5), [0.5])

    def test_real_grid_tenth(self):
        assert np.allclose(en.real_grid(0.1), [0.1, 0.3, 0.5, 0.7, 0.9])

    def test_real_grid_covers_unit_interval(self):
        for delta in (0.25, 0.1, 0.07):
            g = en.real_grid(delta)
            xs = np.linspace(0, 1, 1001)
            dist = np.abs(xs[:, None] - g[None, :]).min(axis=1)
            assert dist.max() <= delta + 1e-12

    def test_complex_grid_half(self):
        g = en.complex_grid(0.5)
        assert len(g) == 1 and np.isclose(g[0], -0.5)

    def test_complex_grid_quarter(self):
        g = sorted(en.complex_grid(0.25), key=lambda z: (z.imag, z.real))
        assert np.allclose(g, [-0.75j, -0.25j, 0.25j, 0.75j])

    def test_complex_grid_size(self):
        for delta in (0.25, 0.1):
            assert len(en.complex_grid(delta)) == len(en.real_grid(delta))**2

    def test_range_error(self):
        with pytest.raises(ValueError):
            en.real_grid(0.6)
        with pytest.raises(ValueError):
            en.real_grid(0.0)


class TestOrthonormalFamily:
    def test_real_pair_hand_example(self):
        # candidates over {0.25, 0.75}^2; the norm filter window
        # [1 - 2 sqrt(2) 0.25, 1 + 2 sqrt(2) 0.25] ~ [0.293, 1.707] keeps
        # all four (smallest norm 0.354), so (0.25, 0.25) also survives
        mats, cert = en.orthonormal_family(1, 2, 0.25, real_nonneg=True)
        assert cert.candidate_count == 4
        assert cert.size == 4
        rows = sorted(tuple(np.round(m[0].real, 3)) for m in mats)
        assert (0.316, 0.949) in rows
        assert (0.949, 0.316) in rows
        assert rows.count((0.707, 0.707)) == 2

    def test_complex_pair_counts(self):
        mats, cert = en.orthonormal_family(1, 2, 0.25)
        assert cert.candidate_count == 16
        assert cert.size == 16

    def test_orthonormal_rows_postcondition(self):
        for (a, b, delta) in ((1, 2, 0.25), (1, 3, 0.25), (2, 4, 0.25)):
            mats, _ = en.orthonormal_family(a, b, delta)
            for m in mats:
                dev = np.abs(m @ m.conj().T - np.eye(a)).max()
                assert dev <= 1e-10

    def test_cap_error(self):
        with pytest.raises(NetSizeError):
            en.orthonormal_family(2, 4, 0.1, cap=10**6)

    @pytest.mark.parametrize("a,b,delta", [(1, 2, 0.1), (1, 4, 0.25),
                                           (2, 4, 0.25), (2, 2, 0.1)])
    def test_memory_guard_counts_the_filters(self, a, b, delta):
        # Gram-Schmidt ends holding its swept rows and the output, 32 a b
        # bytes per kept tuple, which a guard on the enumeration alone
        # missed; at (2, 2, 0.1) the norm filter drops 69% of the candidates
        total = len(en.complex_grid(delta)) ** (a * b)
        tracemalloc.start()
        try:
            _, cert = en.orthonormal_family(a, b, delta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.survivors_overlap_filter * 32 * a * b < peak
        assert peak <= en._family_peak_bytes(total, a, b)

    @pytest.mark.parametrize("delta", [1e-6, 1e-320])
    def test_cap_checked_before_grid(self, delta):
        # 1e-6 failed to allocate a 2.5e11-point complex grid, 1e-320
        # overflowed while counting the real grid
        with pytest.raises(NetSizeError):
            en.orthonormal_family(1, 2, delta)
        with pytest.raises(NetSizeError):
            en.orthonormal_family(1, 2, delta, real_nonneg=True)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            en.orthonormal_family(3, 2, 0.25)
        with pytest.raises(ValueError):
            en.orthonormal_family(2, 4, 0.25, real_nonneg=True)

    def test_returns_one_array(self):
        mats, cert = en.orthonormal_family(2, 4, 0.25)
        assert isinstance(mats, np.ndarray)
        assert mats.shape == (cert.size, 2, 4)

    def test_certified_radius(self):
        _, cert = en.orthonormal_family(1, 2, 0.25)
        assert np.isclose(cert.nu_cert, 59 * 2 * 0.25)


# (a, b, delta, real_nonneg): the families of the D=1 and D=2 nets at the
# grids in use, a = 3, and grids where the norm filter drops rows
FAMILY_CONFIGS = [
    (2, 4, 0.25, False), (2, 2, 0.25, False), (2, 2, 0.1, False),
    (2, 2, 0.08, False), (2, 3, 0.25, False), (1, 2, 0.25, True),
    (1, 2, 0.05, False), (1, 1, 0.05, False), (1, 2, 0.1, False),
    (1, 4, 0.25, False), (1, 3, 0.1, False), (1, 2, 0.5, False),
    (1, 3, 0.25, False), (3, 3, 0.25, False),
]


def assert_same_family(got, want):
    (mats, cert), (ref_mats, ref_cert) = got, want
    assert cert == ref_cert
    assert mats.dtype == ref_mats.dtype and mats.shape == ref_mats.shape
    assert mats.tobytes() == ref_mats.tobytes()


class TestRowProductFamily:
    @pytest.mark.parametrize("a,b,delta,real", FAMILY_CONFIGS)
    def test_bitwise_the_enumerated_pipeline(self, a, b, delta, real):
        assert_same_family(en.orthonormal_family(a, b, delta, real),
                           enumerated_family(a, b, delta, real))

    def test_binding_overlap_filter(self, monkeypatch):
        monkeypatch.setattr(en, "_overlap_bound", lambda b, delta: 0.6)
        got = en.orthonormal_family(2, 3, 0.25)
        assert_same_family(got, enumerated_family(2, 3, 0.25))
        cert = got[1]
        assert 0 < cert.survivors_overlap_filter < cert.survivors_norm_filter

    @pytest.mark.parametrize("a,b", [(2, 3), (3, 3)])
    def test_gram_schmidt_drops(self, a, b, monkeypatch):
        base = en.orthonormal_family(a, b, 0.25)[1].dropped_degenerate
        # a residual row norm below 0.5 is degenerate: overlaps above 0.87
        monkeypatch.setattr(en, "GS_DEGENERATE_TOL", 0.5)
        got = en.orthonormal_family(a, b, 0.25)
        assert_same_family(got, enumerated_family(a, b, 0.25))
        assert got[1].dropped_degenerate > base

    def test_kernel_on_one_candidate(self):
        # covering_chain runs Gram-Schmidt on one candidate's own rows; it
        # must give the bits of the same candidate among many
        rows = en._grid_rows(en.complex_grid(0.25).astype(complex), 4)
        rows = rows / np.linalg.norm(rows, axis=1)[:, None]
        idx = np.random.default_rng(5).integers(len(rows), size=(3, 40))
        many, ok = en._gram_schmidt_rows(rows, idx)
        assert ok.sum() == len(many) > 30
        for n, m in zip(np.flatnonzero(ok), many):
            one, one_ok = en._gram_schmidt_rows(rows[idx[:, n]],
                                                np.arange(3)[:, None])
            assert one_ok[0] and one[0].tobytes() == m.tobytes()


class TestBoundaryNet:
    def test_elements_are_survivors(self):
        net = en.build_end_net(1, 2, 0.25)
        assert isinstance(net.tensors, np.ndarray)
        assert net.tensors.shape == (16, 1, 2)
        assert net.size == 16
        for t in net.tensors:
            assert np.abs(t @ t.conj().T - np.eye(1)).max() <= 1e-10

    def test_requires_d_le_dend(self):
        with pytest.raises(ValueError):
            en.build_end_net(3, 2, 0.25)


class TestPairNet:
    def test_d1_degenerate(self):
        net = en.build_pair_net(1, 2, 0.25, epsilon_op=1.0)
        # the single lambda survivor is (1.0); every B is a unit vector
        assert np.allclose(net.lam, 1.0) and np.allclose(net.mu, 1.0)
        norms = np.linalg.norm(net.b.reshape(net.size, -1), axis=1)
        assert (abs(norms - 1.0) < 1e-10).all()
        assert net.size == 16

    def test_vacuous_filter_size(self):
        net = en.build_pair_net(2, 2, 0.25, epsilon_op=10.0, cap=10**7)
        lam_mats, _ = en.orthonormal_family(1, 2, 0.25, real_nonneg=True)
        b_mats, _ = en.orthonormal_family(2, 4, 0.25)
        assert net.size == len(lam_mats) * len(b_mats)
        assert net.filtered_out == 0

    def test_identical_columns_discarded(self):
        # a pair whose (lambda B) columns coincide has off-diagonal Gram
        # entry above any threshold below 1/3
        lam = np.array([1.0, 1.0]) / np.sqrt(2)
        b = np.zeros((2, 2, 2), dtype=complex)
        b[0, 0, 0] = b[0, 0, 1] = 1 / np.sqrt(2)
        b[1, 1, 0] = b[1, 1, 1] = 1 / np.sqrt(2)
        assert en.left_gram_offdiag(lam, b) > 1 / 3

    def test_left_canonical_filter_enforced(self, d2_net):
        off = en.left_gram_offdiag(d2_net.lam, d2_net.b)
        assert off.shape == (d2_net.size,)
        assert off.max() <= 3 * D2_EPSILON_OP + 1e-12

    def test_empty_net_error(self, monkeypatch):
        # the coarse grids always contain some exactly left-canonical pair,
        # so force the filter to reject everything to exercise the error
        monkeypatch.setattr(en, "_left_canonical_keep",
                            lambda lams, b, threshold:
                            np.zeros((len(lams), len(b)), dtype=bool))
        with pytest.raises(EmptyNetError):
            en.build_pair_net(1, 2, 0.25, epsilon_op=0.01)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_non_positive_or_nan_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon_op must be positive"):
            en.build_pair_net(1, 2, 0.25, epsilon_op=eps)

    def test_epsilon_cert_formula(self):
        net = en.build_pair_net(1, 2, 0.25, epsilon_op=1.0)
        assert np.isclose(net.epsilon_cert, 2 * 59 * 2 * 0.25)

    @pytest.mark.parametrize("d,D,delta", [(2, 1, 0.25), (2, 1, 0.1),
                                           (2, 1, 0.05), (2, 2, 0.25)])
    def test_certified_epsilon_matches_inline_expression(self, d, D, delta):
        # the expression it replaced, in the same evaluation order
        assert en.certified_epsilon(d, D, delta) == \
            2.0 * 59.0 * (d * D) * delta

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("delta", [0.25, 0.1, 0.05, 0.03])
    def test_filter_bounds_match_inline_expressions(self, b, delta):
        # the expressions the helpers replaced, in the same evaluation order
        assert en._norm_band(b, delta) == (1.0 - 2.0 * math.sqrt(b) * delta,
                                           1.0 + 2.0 * math.sqrt(b) * delta)
        assert en._overlap_bound(b, delta) == 9.0 * math.sqrt(b) * delta
        assert en._radius(b, delta) == 59.0 * b * delta

    def test_pairs_view(self):
        net = en.build_pair_net(1, 2, 0.1, epsilon_op=1.0)
        view = net.pairs
        assert len(view) == net.size == 350
        el = view[-1]
        assert np.array_equal(el.lam, net.lam[-1])
        assert np.array_equal(el.b, net.b[-1])
        assert np.array_equal(el.mu, net.mu[-1])
        head = view[:50]
        assert len(head) == 50 and len(list(head)) == 50
        assert all(np.array_equal(p.b, net.b[k]) for k, p in enumerate(head))
        with pytest.raises(IndexError):
            view[net.size]
        with pytest.raises(TypeError):
            view[0] = el


def reference_pair_net(D, d, delta, epsilon_op):
    """The per-pair filter loop the batched build replaced: scalar Gram
    matrix and right Schmidt vector for one (lambda, B) at a time."""
    lam_mats, _ = en.orthonormal_family(1, D, delta, real_nonneg=True)
    b_mats, _ = en.orthonormal_family(D, d * D, delta)
    lams, bs, mus, dropped = [], [], [], 0
    for lm in lam_mats:
        lam = lm[0].real
        for bm in b_mats:
            b = bm.reshape(D, d, D)
            cols = (lam[:, None, None] * b).reshape(-1, D)
            g = cols.conj().T @ cols
            off = float(np.abs(g - np.diag(np.diag(g))).max())
            if off > 3.0 * epsilon_op:
                dropped += 1
                continue
            w = np.abs(lam[:, None, None] * b) ** 2
            lams.append(lam)
            bs.append(b)
            mus.append(np.sqrt(w.sum(axis=(0, 1))))
    return np.stack(lams), np.stack(bs), np.stack(mus), dropped


def assert_matches_reference(net, D, d, delta, epsilon_op):
    lam, b, mu, dropped = reference_pair_net(D, d, delta, epsilon_op)
    assert net.filtered_out == dropped
    assert np.array_equal(net.lam, lam)
    assert np.array_equal(net.b, b)
    assert np.array_equal(net.mu, mu)
    assert np.array_equal(net.lam_net[net.lam_class], net.lam)


class TestBatchedFilter:
    def test_d2_matches_per_pair_loop(self, d2_net):
        # 128 pairs sit on the threshold 0.15 in exact arithmetic; the
        # matmul Gram puts them above it, so they are dropped
        assert d2_net.size == 123264
        assert d2_net.filtered_out == 136576
        assert_matches_reference(d2_net, 2, 2, 0.25, 0.05)
        assert d2_net.lam_net.shape == (3, 2)

    @pytest.mark.parametrize("delta", [0.25, 0.1, 0.05])
    def test_d1_matches_per_pair_loop(self, delta):
        eps = en.certified_epsilon(2, 1, delta)
        net = en.build_pair_net(1, 2, delta, eps)
        assert_matches_reference(net, 1, 2, delta, eps)
        assert net.lam_net.shape == (1, 1)


# (D, d, delta, epsilon_op), None for the certified epsilon
PAIR_CONFIGS = (
    [(2, 2, 0.25, eps) for eps in (0.01, 0.05, 0.075, 0.1, 10.0, None)]
    + [(1, 2, delta, eps) for delta in (0.25, 0.1, 0.05)
       for eps in (1e-6, 1.0, None)]
    + [(1, 3, 0.25, None)])


@pytest.fixture(scope="module")
def enumerated_families():
    """`orthonormal_family` in the signature of the net builders, from
    the enumerated pipeline, one build per family."""
    cache = {}

    def family(a, b, delta, real_nonneg=False, cap=en.DEFAULT_CAP):
        key = (a, b, delta, real_nonneg)
        if key not in cache:
            cache[key] = enumerated_family(*key)
        return cache[key]

    return family


class TestPairNetFromRowProductFamilies:
    @pytest.mark.parametrize("D,d,delta,eps", PAIR_CONFIGS)
    def test_every_field_bitwise(self, enumerated_families, monkeypatch,
                                 D, d, delta, eps):
        eps = en.certified_epsilon(d, D, delta) if eps is None else eps
        net = en.build_pair_net(D, d, delta, eps)
        monkeypatch.setattr(en, "orthonormal_family", enumerated_families)
        ref = en.build_pair_net(D, d, delta, eps)
        for f in dataclasses.fields(en.PairNet):
            got, want = getattr(net, f.name), getattr(ref, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), f.name
            else:
                assert got == want, f.name
        if (D, eps) == (2, 0.05):
            assert (net.size, net.filtered_out) == (123264, 136576)
        if D == 2 and eps == en.certified_epsilon(d, D, delta):
            assert net.size == 259840


@pytest.fixture(scope="module")
def d2_family():
    lam_mats, _ = en.orthonormal_family(1, 2, 0.25, real_nonneg=True)
    b_mats, _ = en.orthonormal_family(2, 4, 0.25)
    return lam_mats[:, 0].real, b_mats.reshape(-1, 2, 2, 2)


def exact_keep(lam, b_fam, threshold):
    return ~(en.left_gram_offdiag(lam, b_fam) > threshold)


class TestScreenedFilter:
    @pytest.mark.parametrize("eps", [0.05, 0.1, 10.0])
    def test_matches_exact_kernel(self, d2_family, eps):
        lams, b_fam = d2_family
        keep = en._left_canonical_keep(lams, b_fam, 3.0 * eps)
        assert keep.shape == (len(lams), len(b_fam))
        for lam, row in zip(lams, keep):
            assert np.array_equal(row, exact_keep(lam, b_fam, 3.0 * eps))

    def test_screen_within_rounding_of_exact_kernel(self, d2_family):
        lams, b_fam = d2_family
        factor = en._gram_factor(b_fam)
        for lam in lams:
            gap = np.abs(en._screen_offdiag(lam, factor)
                         - en.left_gram_offdiag(lam, b_fam))
            assert gap.max() <= 1e-15

    def test_tie_on_exact_value_kept(self, d2_family):
        # a pair the screen puts above its exact Gram value; with the
        # threshold set to that exact value, the tie is kept
        lams, b_fam = d2_family
        lam = lams[0]
        exact = en.left_gram_offdiag(lam, b_fam)
        above = np.flatnonzero(
            en._screen_offdiag(lam, en._gram_factor(b_fam)) > exact)
        assert above.size > 0
        k = above[0]
        keep = en._left_canonical_keep(lam[None], b_fam, exact[k])[0]
        assert keep[k]
        assert np.array_equal(keep, exact_keep(lam, b_fam, exact[k]))

    def test_band_runs_exact_kernel(self, d2_family, monkeypatch):
        lams, b_fam = d2_family
        seen, exact = [], en.left_gram_offdiag
        monkeypatch.setattr(en, "left_gram_offdiag",
                            lambda lam, b: seen.append(len(b)) or exact(lam, b))
        en._left_canonical_keep(lams, b_fam, 3.0 * D2_EPSILON_OP)
        assert len(seen) == len(lams)
        assert 0 < sum(seen) < len(b_fam)

    def test_nan_entry_kept(self, d2_family):
        lams, b_fam = d2_family
        b = b_fam[:8].copy()
        b[3, 0, 1, 1] = np.nan
        keep = en._left_canonical_keep(lams, b, 3.0 * D2_EPSILON_OP)
        assert keep[:, 3].all()
        for lam, row in zip(lams, keep):
            assert np.array_equal(row, exact_keep(lam, b, 3.0 * D2_EPSILON_OP))

    def test_one_pass_per_distinct_lambda(self, monkeypatch):
        calls = []
        mu_of = en.mu_of
        monkeypatch.setattr(en, "mu_of",
                            lambda lam, b: calls.append(lam) or mu_of(lam, b))
        net = en.build_pair_net(2, 2, 0.25, epsilon_op=10.0)
        # the lambda family holds (1/sqrt 2, 1/sqrt 2) twice
        assert len(calls) == len(net.lam_net) == 3
        assert net.lam_class.max() == 2


class TestNetSizeEstimate:
    def test_small_formula(self):
        # base 144*1*1 / 1 = 144, exponent 1 + 2*1*1 = 3
        assert en.net_size_estimate(1, 1, 1.0) == 144**3

    def test_big_integer(self):
        val = en.net_size_estimate(2, 2, 0.1)
        assert val == (144 * 4 * 10) ** (2 + 2 * 2 * 4)

    def test_monotone_in_epsilon(self):
        assert en.net_size_estimate(1, 2, 0.5) > en.net_size_estimate(1, 2, 1.0)

    def test_tiny_epsilon_enters_exactly(self):
        # 1e-320 limits to the fraction 0 at denominator 10^9; it raised
        # ZeroDivisionError
        val = en.net_size_estimate(1, 2, 1e-320)
        assert val == int((Fraction(288) / Fraction(1e-320)) ** 5)


class TestFilterSoundness:
    def test_perturbed_canonical_gram_bound(self):
        # if a perfectly left-canonical tensor is moved by at most eps,
        # its off-diagonal Gram entries stay below 2 eps + eps^2 <= 3 eps
        rng = np.random.default_rng(0)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.standard_normal((6, 3))
                                + 1j * rng.standard_normal((6, 3)))
            a = q[:, :3]          # orthonormal columns
            eps = 0.1
            pert = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
            pert *= eps / np.linalg.norm(pert)
            c = a + pert
            g = c.conj().T @ c
            off = np.abs(g - np.diag(np.diag(g))).max()
            assert off <= 2 * eps + eps**2 + 1e-12
            assert off <= 3 * eps + 1e-12


class TestCoveringChain:
    def test_real_case_bounds_hold(self):
        rng = np.random.default_rng(1)
        for delta in (0.25, 0.1):
            for _ in range(100):
                v = np.abs(rng.standard_normal(2))
                v /= np.linalg.norm(v)
                ch = en.covering_chain(v[None, :], delta, real_nonneg=True)
                sb = np.sqrt(2) * delta
                assert ch.survived_norm_filter
                assert ch.d_rounded <= 2 * sb + 1e-12
                assert ch.d_renormalized <= (4 + 2 / 35) * sb + 1e-12
                assert ch.d_final <= 59 * 2 * delta + 1e-12
