"""Tests for the canonical MPS data model and energy evaluation."""

import json

import numpy as np
import pytest

from dpmps import hamiltonian as ham
from dpmps import mps
from dpmps.errors import SchmidtRankError, ShapeMismatchError

import reference


def random_state(rng, size):
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


class TestMuOf:
    def test_rank_one(self):
        b = np.zeros((1, 2, 1), dtype=complex)
        b[0, 0, 0] = 1.0
        assert np.allclose(mps.mu_of(np.array([1.0]), b), [1.0])

    def test_direct_formula(self):
        lam = np.array([1.0, 1.0]) / np.sqrt(2)
        b = np.zeros((2, 2, 2), dtype=complex)
        b[0, 0, 0] = 1.0
        b[1, 1, 0] = 1.0
        assert np.allclose(mps.mu_of(lam, b), [1.0, 0.0])

    def test_unit_norm_for_right_canonical(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((6, 3))
                                + 1j * rng.standard_normal((6, 3)))
            b = q[:, :3].T.reshape(3, 2, 3)
            lam = np.abs(rng.standard_normal(3))
            lam /= np.linalg.norm(lam)
            assert abs(np.linalg.norm(mps.mu_of(lam, b)) - 1.0) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mps.mu_of(np.ones(2), np.zeros((3, 2, 3)))


class TestCanonicalize:
    def test_product_state(self):
        v = mps.product_basis_state(5, 2, 2, [0] * 5)
        m = mps.canonicalize(v, 5, 2, 1, 2)
        assert np.allclose(m.lambda2, [1.0])
        for lam in reference.derived_lambdas(m):
            assert np.allclose(lam, [1.0])
        w = mps.to_dense(m)
        assert np.linalg.norm(reference.align_phase(w, v) - v) < 1e-12

    def test_bell_pair_schmidt(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        m = mps.canonicalize(v, 2, 2, 2, 2)
        assert np.allclose(sorted(m.lambda2), [1 / np.sqrt(2)] * 2)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            v = random_state(rng, 64)
            m = mps.canonicalize(v, 6, 2, 8, 2)
            w = mps.to_dense(m)
            assert np.linalg.norm(reference.align_phase(w, v) - v) < 1e-8

    def test_strict_mode_rank_guard(self):
        rng = np.random.default_rng(2)
        v = random_state(rng, 64)
        with pytest.raises(SchmidtRankError):
            mps.canonicalize(v, 6, 2, 2, 2)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError):
            mps.canonicalize(np.ones(16, dtype=complex), 4, 2, 4, 2)


class TestToDense:
    def test_basis_product_chain(self):
        v = mps.product_basis_state(4, 2, 2, [0, 1, 1, 0])
        m = mps.canonicalize(v, 4, 2, 1, 2)
        w = mps.to_dense(m)
        assert np.abs(np.abs(w) - np.abs(v)).max() < 1e-12

    def test_output_norm_one(self):
        rng = np.random.default_rng(4)
        v = random_state(rng, 64)
        m = mps.canonicalize(v, 6, 2, 8, 2)
        assert abs(np.linalg.norm(mps.to_dense(m)) - 1.0) < 1e-10


class TestContract:
    def test_empty_list_is_identity(self):
        out = mps.contract([])
        assert out.shape == (1, 1) and out[0, 0] == 1.0

    def test_to_dense_equals_left_to_right_loop(self):
        rng = np.random.default_rng(12)
        product = mps.product_basis_state(6, 2, 2, [0, 1, 0, 0, 1, 1])
        for m in (mps.canonicalize(product, 6, 2, 1, 2),
                  mps.canonicalize(random_state(rng, 64), 6, 2, None, 2)):
            tensors = m.site_tensors()
            acc = tensors[0].reshape(-1, tensors[0].shape[2])
            for t in tensors[1:]:
                acc = np.tensordot(acc, t, axes=([1], [0]))
                acc = acc.reshape(-1, acc.shape[-1])
            assert np.array_equal(mps.to_dense(m), acc.reshape(-1))

    def test_block_keeps_first_left_bond(self):
        rng = np.random.default_rng(13)
        ts = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
              for shape in ((2, 3, 2), (2, 2, 1))]
        out = mps.contract(ts)
        assert out.shape == (12, 1)
        want = np.einsum("aib,bjc->aij", ts[0], ts[1])
        assert np.allclose(out.reshape(2, 3, 2), want, atol=1e-14)


# The three separate window einsums that the one kernel replaced, kept as
# references.
def ref_window_value(w, hterm, d1, d2):
    hw = hterm.reshape(d1, d2, d1, d2)
    return float(np.einsum("aijb,ijkl,aklb->", w.conj(), hw, w,
                           optimize=True).real)


def ref_interior(lam, b1, b2, hterm):
    w = np.einsum("a,aig,gjb->aijb", lam, b1, b2, optimize=True)
    return ref_window_value(w, hterm, b1.shape[1], b2.shape[1])


def ref_left(gamma1, lam2, b2, hterm):
    w = np.einsum("ai,a,ajb->ijb", gamma1, lam2, b2, optimize=True)
    return ref_window_value(w[None], hterm, gamma1.shape[1], b2.shape[1])


def ref_right(lam, b1, gamma_n, hterm):
    w = np.einsum("a,aig,gj->aij", lam, b1, gamma_n, optimize=True)
    return ref_window_value(w[..., None], hterm, b1.shape[1],
                            gamma_n.shape[1])


class TestWindowKernel:
    """The boundary windows run through the interior kernel; each window
    energy is compared with the separate einsum it replaced."""

    def draws(self, D, d_end, count=100):
        rng = np.random.default_rng(14 + D + d_end)
        c = lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)
        for _ in range(count):
            lam = np.abs(rng.standard_normal(D))
            lam /= np.linalg.norm(lam)
            hl, hm = c(2 * d_end, 2 * d_end), c(4, 4)
            yield (lam, c(D, 2, D), c(D, 2, D), c(D, d_end),
                   hl + hl.conj().T, hm + hm.conj().T)

    @pytest.mark.parametrize("D,d_end", [(1, 2), (1, 3), (2, 2), (2, 4)])
    def test_interior_and_right_bitwise(self, D, d_end):
        for lam, b1, b2, g, h_end, h_mid in self.draws(D, d_end):
            assert mps.local_energy(lam, b1, b2, h_mid) == \
                ref_interior(lam, b1, b2, h_mid)
            assert mps.local_energy_right(lam, b1, g, h_end) == \
                ref_right(lam, b1, g, h_end)

    @pytest.mark.parametrize("D,d_end", [(1, 2), (2, 4)])
    def test_left_bitwise(self, D, d_end):
        for lam, _, b2, g, h_end, _ in self.draws(D, d_end):
            assert mps.local_energy_left(g, lam, b2, h_end) == \
                ref_left(g, lam, b2, h_end)

    @pytest.mark.parametrize("D,d_end", [(1, 3), (2, 2)])
    def test_left_random_within_rounding(self, D, d_end):
        # for generic complex entries at these shapes einsum contracts the
        # window in another pairwise order, so the last bits may differ
        for lam, _, b2, g, h_end, _ in self.draws(D, d_end):
            want = ref_left(g, lam, b2, h_end)
            got = mps.local_energy_left(g, lam, b2, h_end)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("D,d", [(1, 2), (1, 3), (2, 2)])
    def test_left_bitwise_on_net_elements(self, D, d):
        from dpmps import epsnet as en
        ends = en.build_end_net(D, d, 0.25).tensors
        net = en.build_pair_net(D, d, 0.25, 0.5)
        h = ham.build_model("random_hermitian", {"d": d}, 3, seed=1).terms[0]
        rng = np.random.default_rng(17)
        for gi, p in zip(rng.integers(len(ends), size=300),
                         rng.integers(net.size, size=300)):
            assert mps.local_energy_left(ends[gi], net.lam[p], net.b[p], h) \
                == ref_left(ends[gi], net.lam[p], net.b[p], h)

    def test_windowed_sum_equals_term_by_term(self):
        rng = np.random.default_rng(15)
        h = ham.build_model("random_hermitian", {}, 6, seed=2)
        m = mps.canonicalize(random_state(rng, 64), 6, 2, 8, 2)
        lams = reference.derived_lambdas(m)
        want = ref_left(m.gamma_left, m.lambda2, m.b_tensors[0], h.terms[0])
        for j in range(1, 4):
            want += ref_interior(lams[j - 1], m.b_tensors[j - 1],
                                 m.b_tensors[j], h.terms[j])
        want += ref_right(lams[3], m.b_tensors[-1], m.gamma_right,
                          h.terms[-1])
        assert abs(reference.windowed_energy_sum(m, h) - want) <= 1e-13

    def test_windowed_sum_term_count_checked(self):
        m = mps.canonicalize(mps.product_basis_state(4, 2, 2, [0] * 4),
                             4, 2, 1, 2)
        with pytest.raises(ShapeMismatchError):
            reference.windowed_energy_sum(
                m, ham.build_model("zz_chain", {}, 5))


class TestCheckCanonical:
    def test_canonicalize_output_passes(self):
        rng = np.random.default_rng(5)
        v = random_state(rng, 64)
        rep = reference.check_canonical(mps.canonicalize(v, 6, 2, 8, 2))
        assert rep.ok
        assert rep.max_residual <= 1e-10

    def test_equal_rows_flagged(self):
        bad = np.zeros((2, 2, 2), dtype=complex)
        bad[0, 0, 0] = 1.0
        bad[1, 0, 0] = 1.0        # two identical rows
        b3 = np.zeros((2, 2, 1), dtype=complex)
        b3[0, 0, 0] = 1.0
        b3[1, 1, 0] = 1.0
        m = mps.CanonicalMps(
            n=4, d=2, D=2, d_end=2,
            gamma_left=np.eye(2, dtype=complex),
            lambda2=np.array([1.0, 0.0]),
            b_tensors=[bad, b3],
            gamma_right=np.array([[1.0, 0.0]], dtype=complex),
        )
        rep = reference.check_canonical(m)
        assert max(rep.right) >= 1.0 - 1e-12

    def test_left_residual_is_largest_offdiagonal_gram_entry(self):
        rng = np.random.default_rng(16)
        product = mps.product_basis_state(6, 2, 2, [1, 0, 0, 1, 0, 1])
        for v in (product, random_state(rng, 64)):
            m = mps.canonicalize(v, 6, 2, None, 2)
            m.b_tensors = [b + 0.1 * rng.standard_normal(b.shape)
                           for b in m.b_tensors]
            want = []
            for lam, b in zip(reference.derived_lambdas(m), m.b_tensors):
                rr = b.shape[2]
                cols = (lam[:, None, None] * b).reshape(-1, rr)
                g2 = cols.conj().T @ cols
                off = g2 - np.diag(np.diag(g2))
                want.append(float(np.abs(off).max()) if rr > 1 else 0.0)
            assert reference.check_canonical(m).left == want

    def test_normalization_residual(self):
        lam = np.array([0.6, 0.8])
        assert abs(np.linalg.norm(lam) - 1.0) < 1e-15


class TestLocalEnergy:
    def zz(self):
        return np.kron(ham.Z, ham.Z)

    def test_aligned_window(self):
        gam = np.array([[1.0, 0.0]], dtype=complex)
        b = np.zeros((1, 2, 1), dtype=complex)
        b[0, 0, 0] = 1.0
        e = mps.local_energy_left(gam, np.array([1.0]), b, self.zz())
        assert np.isclose(e, 1.0)

    def test_antialigned_window(self):
        gam = np.array([[1.0, 0.0]], dtype=complex)
        b = np.zeros((1, 2, 1), dtype=complex)
        b[0, 1, 0] = 1.0
        e = mps.local_energy_left(gam, np.array([1.0]), b, self.zz())
        assert np.isclose(e, -1.0)

    def test_non_hermitian_rejected(self):
        gam = np.array([[1.0, 0.0]], dtype=complex)
        b = np.zeros((1, 2, 1), dtype=complex)
        b[0, 0, 0] = 1.0
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            mps.local_energy_left(gam, np.array([1.0]), b, bad)

    def test_windowed_sum_matches_full(self):
        rng = np.random.default_rng(6)
        h = ham.build_model("heisenberg", {}, 6)
        for _ in range(5):
            v = random_state(rng, 64)
            m = mps.canonicalize(v, 6, 2, 8, 2)
            full = mps.expectation_full(m, h)
            assert abs(reference.windowed_energy_sum(m, h) - full) < 1e-8


def random_sites(rng, bonds, dims):
    """Random complex site tensors (bonds[j], dims[j], bonds[j+1])."""
    return [rng.standard_normal((bonds[j], dim, bonds[j + 1]))
            + 1j * rng.standard_normal((bonds[j], dim, bonds[j + 1]))
            for j, dim in enumerate(dims)]


def chain_of(ts):
    """The MPS whose `site_tensors` are ts, interior arrays shared as
    given: lambda2 is all ones."""
    return mps.CanonicalMps(
        n=len(ts), d=ts[1].shape[1], D=max(t.shape[2] for t in ts),
        d_end=ts[0].shape[1], gamma_left=ts[0][0].T,
        lambda2=np.ones(ts[0].shape[2]), b_tensors=ts[1:-1],
        gamma_right=ts[-1][:, :, 0])


def assert_matches_sweep(m, h):
    ref = reference.expectation_sweep(m, h)
    assert abs(mps.expectation_full(m, h) - ref) <= 1e-12 * abs(ref)


class TestExpectationFull:
    def test_zero_hamiltonian(self):
        rng = np.random.default_rng(7)
        m = mps.canonicalize(random_state(rng, 64), 6, 2, 8, 2)
        zeros = [np.zeros((4, 4), dtype=complex)] * 5
        h = ham.NnHamiltonian(n=6, dims=[2] * 6, terms=zeros)
        assert abs(mps.expectation_full(m, h)) < 1e-12

    def test_matches_dense(self):
        rng = np.random.default_rng(8)
        h = ham.build_model("random_hermitian", {}, 6, seed=11)
        hd = reference.to_dense_hamiltonian(h)
        for _ in range(5):
            v = random_state(rng, 64)
            m = mps.canonicalize(v, 6, 2, 8, 2)
            w = mps.to_dense(m)
            ref = (np.vdot(w, hd @ w) / np.vdot(w, w)).real
            assert abs(mps.expectation_full(m, h) - ref) < 1e-8
            assert_matches_sweep(m, h)

    @pytest.mark.parametrize("n,D,dims", [(6, 1, [2] * 6),
                                          (7, 3, [4, 2, 2, 2, 4])])
    def test_non_canonical_unnormalized(self, n, D, dims):
        # raw random site tensors with bond 3 and a random lambda: neither
        # canonical nor of norm 1; D=3 groups the chain ends into d=4 sites
        rng = np.random.default_rng(12)
        h = ham.group_boundaries(
            ham.build_model("random_hermitian", {}, n, seed=5), D)
        assert list(h.dims) == dims
        r = [1] + [3] * (len(dims) - 1) + [1]
        ts = [rng.standard_normal((r[j], dim, r[j + 1]))
              + 1j * rng.standard_normal((r[j], dim, r[j + 1]))
              for j, dim in enumerate(dims)]
        m = mps.CanonicalMps(
            n=len(dims), d=2, D=3, d_end=dims[0], gamma_left=ts[0][0].T,
            lambda2=rng.uniform(0.1, 2.0, 3), b_tensors=ts[1:-1],
            gamma_right=ts[-1][:, :, 0])
        w = mps.to_dense(m)
        assert abs(np.linalg.norm(w) - 1.0) > 1.0
        hd = reference.to_dense_hamiltonian(h)
        ref = (np.vdot(w, hd @ w) / np.vdot(w, w)).real
        assert abs(mps.expectation_full(m, h) - ref) <= 1e-12 * abs(ref)
        assert_matches_sweep(m, h)

    @pytest.mark.parametrize("D", [2, 5])
    @pytest.mark.parametrize("name", ["heisenberg", "random_hermitian"])
    def test_period_two_shared_tensors(self, name, D):
        # one shared term makes the two windows (A, B) and (B, A) repeat,
        # so the sweep applies their block maps; distinct terms never
        # repeat
        rng = np.random.default_rng(13)
        first, a, b, last = random_sites(rng, [1, D, D, D, 1], [2] * 4)
        ts = [first] + [a, b] * 99 + [last]
        h = ham.build_model(name, {}, len(ts), seed=2)
        assert_matches_sweep(chain_of(ts), h)

    def test_non_uniform_chain(self):
        rng = np.random.default_rng(14)
        ts = random_sites(rng, [1] + [3] * 59 + [1], [2] * 60)
        assert_matches_sweep(chain_of(ts),
                             ham.build_model("random_hermitian", {}, 60,
                                             seed=3))

    def test_windows_past_the_cache_and_back(self):
        # runs of one window (maps) between cycles over more distinct
        # windows than the sweep remembers (first sightings only), and a
        # short cycle that recurs within the cache
        rng = np.random.default_rng(15)
        pool = random_sites(rng, [2] * (mps.WINDOW_MAPS + 7),
                            [2] * (mps.WINDOW_MAPS + 6))
        first, last = random_sites(rng, [1, 2, 2, 1], [2] * 3)[::2]
        mid = ([pool[0]] * 30 + pool * 2 + [pool[0]] * 30 + pool[:5] * 8
               + [pool[1]] * 20)
        ts = [first] + mid + [last]
        h = ham.build_model("transverse_ising", {"g": 0.7}, len(ts))
        assert_matches_sweep(chain_of(ts), h)

    @pytest.mark.parametrize("shared,n", [(True, 20_000), (False, 2_000)])
    @pytest.mark.parametrize("scale", [10.0, 0.1])
    def test_scale_invariant_where_unscaled_overflows(self, shared, n, scale):
        # a normalized product state with every site tensor scaled: the
        # norm leaves the float range after ~160 sites, and the unscaled
        # sweep gives NaN
        rng = np.random.default_rng(16)
        ends = [t / np.linalg.norm(t)
                for t in random_sites(rng, [1, 1, 1], [2, 2])]
        site = random_sites(rng, [1, 1], [2])[0]
        site /= np.linalg.norm(site)
        mid = [site] * (n - 2) if shared else [site.copy()
                                               for _ in range(n - 2)]
        ts = [ends[0]] + mid + [ends[1]]
        big = [scale * t for t in ts]
        if shared:
            big[1:-1] = [big[1]] * (n - 2)
        h = ham.build_model("transverse_ising", {"g": 0.7}, n)
        e = mps.expectation_full(chain_of(ts), h)
        assert abs(mps.expectation_full(chain_of(big), h) - e) <= 1e-12 * abs(e)
        if not shared:
            assert abs(reference.expectation_sweep(chain_of(ts), h) - e) \
                <= 1e-12 * abs(e)
            with np.errstate(all="ignore"):
                assert np.isnan(reference.expectation_sweep(chain_of(big), h))


class TestStructuralProperties:
    def test_block_norm_vector_contracts_distances(self):
        # norms of first-factor blocks are 1-Lipschitz in the full vectors
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
            b = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
            an = np.linalg.norm(a, axis=1)
            bn = np.linalg.norm(b, axis=1)
            assert np.sum((an - bn) ** 2) <= np.linalg.norm(a - b) ** 2 + 1e-12

    def test_raw_chain_norm_sqrt_d(self):
        rng = np.random.default_rng(10)
        v = random_state(rng, 64)
        m = mps.canonicalize(v, 6, 2, 8, 2)
        # contract the interior right-canonical chain without a leading lambda
        acc = m.b_tensors[1]
        for b in m.b_tensors[2:]:
            acc = np.tensordot(acc, b, axes=([acc.ndim - 1], [0]))
        rank = m.b_tensors[1].shape[0]
        assert abs(np.linalg.norm(acc) - np.sqrt(rank)) < 1e-10


class TestJsonFormat:
    def test_writer_encodes_every_tensor(self):
        rng = np.random.default_rng(11)
        m = mps.canonicalize(random_state(rng, 64), 6, 2, 8, 2)
        doc = json.loads(json.dumps(mps.mps_to_json(m)))

        def decode(obj):
            a = np.asarray(obj, dtype=float)
            return a[..., 0] + 1j * a[..., 1]

        assert doc["version"] == mps.MPS_FORMAT_VERSION
        assert (doc["n"], doc["d"], doc["D"], doc["d_end"], doc["s"]) == \
            (m.n, m.d, m.D, m.d_end, m.s)
        assert np.array_equal(decode(doc["gamma_left"]), m.gamma_left)
        assert np.array_equal(decode(doc["lambda2"]), m.lambda2)
        assert len(doc["b_tensors"]) == len(m.b_tensors)
        for enc, b in zip(doc["b_tensors"], m.b_tensors):
            assert np.array_equal(decode(enc), b)
        assert np.array_equal(decode(doc["gamma_right"]), m.gamma_right)
