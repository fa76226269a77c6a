"""Tests for the Hamiltonian catalog, grouping, structural checks and the
matrix-free application of H."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dpmps import hamiltonian as ham
from dpmps.errors import ConfigError, SizeGuardError

import reference


class TestBuildModel:
    def test_zz_chain(self):
        h = ham.build_model("zz_chain", {}, 4)
        assert len(h.terms) == 3
        for t in h.terms:
            assert np.allclose(t, np.kron(ham.Z, ham.Z))
        assert np.isclose(h.J, 1.0)

    def test_trap_model_basis_energies(self):
        h = ham.build_model("trap_model", {}, 5)
        hd = reference.to_dense_hamiltonian(h)
        diag = np.diag(hd).real
        assert np.isclose(diag[0], 5.0)        # all spins up
        assert np.isclose(diag[-1], 0.0)       # all spins down

    def test_trap_model_energy_law(self):
        # basis energy = 4 * misaligned bonds + number of up spins
        for n in (4, 6, 8):
            h = ham.build_model("trap_model", {}, n)
            diag = np.diag(reference.to_dense_hamiltonian(h)).real
            for idx in range(2**n):
                bits = [(idx >> k) & 1 for k in range(n - 1, -1, -1)]
                mis = sum(b1 != b2 for b1, b2 in zip(bits, bits[1:]))
                expect = 4 * mis + bits.count(0)
                assert abs(diag[idx] - expect) < 1e-12

    def test_heisenberg_singlet(self):
        h = ham.build_model("heisenberg", {}, 3)
        vals = np.linalg.eigvalsh(h.terms[0])
        assert np.isclose(vals[0], -3.0)

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            ham.build_model("nope", {}, 4)

    def test_unknown_param(self):
        with pytest.raises(ConfigError):
            ham.build_model("zz_chain", {"bogus": 1}, 4)

    @pytest.mark.parametrize("name", ["zz_chain", "random_hermitian"])
    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_seed_not_a_nonnegative_integer(self, name, seed):
        with pytest.raises(ConfigError, match="seed must be a nonnegative"):
            ham.build_model(name, {}, 4, seed=seed)

    def test_deterministic_model_does_not_import_numpy_random(self):
        code = ("import sys\n"
                "from dpmps.hamiltonian import build_model\n"
                "build_model('heisenberg', {}, 6, seed=3)\n"
                "assert 'numpy.random' not in sys.modules\n"
                "build_model('random_hermitian', {}, 6, seed=3)\n"
                "assert 'numpy.random' in sys.modules\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    @pytest.mark.parametrize("d", [1, 0, -1, 2.5, float("nan")])
    def test_bad_site_dimension(self, d):
        with pytest.raises(ConfigError, match="param d"):
            ham.build_model("random_hermitian", {"d": d}, 4)

    @pytest.mark.parametrize("name", ["diagonal_commuting",
                                      "random_hermitian"])
    def test_huge_site_dimension(self, name):
        # two terms of 16 d^4 bytes at d=1000 need 32 TB
        with pytest.raises(SizeGuardError, match="physical memory"):
            ham.build_model(name, {"d": 1000}, 3)

    def test_long_chain_beyond_memory(self, monkeypatch):
        # 4,999 random terms of 256 bytes each exceed a 1 MB memory; 3,904
        # fit, beside two of working space.  A uniform chain holds three
        # term arrays at any length
        monkeypatch.setattr(ham, "_physical_memory", lambda: 10**6)
        assert len(ham.build_model("random_hermitian", {}, 3905).terms) \
            == 3904
        with pytest.raises(SizeGuardError, match="physical memory"):
            ham.build_model("random_hermitian", {}, 3906)
        with pytest.raises(SizeGuardError, match="physical memory"):
            ham.build_model("random_hermitian", {}, 5000)
        for name in ("zz_chain", "transverse_ising", "heisenberg",
                     "trap_model"):
            h = ham.build_model(name, {}, 5000)
            assert len({id(t) for t in h.terms}) <= 3

    @pytest.mark.parametrize("n", [3, 4, 12, 800])
    @pytest.mark.parametrize("name,params,bond,field", [
        ("zz_chain", {}, np.kron(ham.Z, ham.Z), None),
        ("heisenberg", {}, np.kron(ham.X, ham.X) + np.kron(ham.Y, ham.Y)
         + np.kron(ham.Z, ham.Z), None),
        ("transverse_ising", {}, np.kron(ham.Z, ham.Z), ham.X),
        ("transverse_ising", {"g": -0.37}, np.kron(ham.Z, ham.Z),
         -0.37 * ham.X),
        ("transverse_ising", {"g": 2.9}, np.kron(ham.Z, ham.Z), 2.9 * ham.X),
        ("trap_model", {}, 2.0 * (np.eye(4) - np.kron(ham.Z, ham.Z)),
         (ham.I2 + ham.Z) / 2),
    ], ids=["zz_chain", "heisenberg", "ising", "ising-neg", "ising-2.9",
            "trap_model"])
    def test_uniform_terms_bitwise_site_folding(self, name, params, bond,
                                                field, n):
        h = ham.build_model(name, params, n)
        want = reference.folded_terms(bond, n, field)
        assert [t.tobytes() for t in h.terms] == [t.tobytes() for t in want]
        # one array for every interior bond, at most three in all
        assert len({id(t) for t in h.terms}) <= (1 if field is None else 3)

    @pytest.mark.parametrize("n", [3, 4, 12])
    @pytest.mark.parametrize("d", [2, 3])
    def test_uniform_terms_bitwise_on_random_terms(self, d, n):
        # entries that round, so the order of every addition shows
        rng = np.random.default_rng(d * 100 + n)
        bond, f = (rng.standard_normal((k, k))
                   + 1j * rng.standard_normal((k, k)) for k in (d * d, d))
        got = ham._uniform_terms(bond, n, f)
        want = reference.folded_terms(bond, n, f)
        assert [t.tobytes() for t in got] == [t.tobytes() for t in want]

    def test_random_hermitian_seeded(self):
        h1 = ham.build_model("random_hermitian", {}, 4, seed=5)
        h2 = ham.build_model("random_hermitian", {}, 4, seed=5)
        for a, b in zip(h1.terms, h2.terms):
            assert np.abs(a - b).max() == 0.0


    @pytest.mark.parametrize("name", ["random_hermitian",
                                      "diagonal_commuting",
                                      "rotated_classical"])
    def test_guard_bounds_traced_peak(self, monkeypatch, name):
        # nine terms of 1 MiB at d=16, n=10, counted with two more of working
        # space.  A bytes key per term, held while the norm stacked every
        # term, peaked at 29.4 MB (28.3 MB diagonal_commuting), and
        # rotated_classical's full diagonal matrices at 39.6 MB
        counts = []
        check = ham.check_size

        def counting(count, *args):
            counts.append(count)
            return check(count, *args)

        ham.build_model(name, {"d": 2}, 3, 1)     # first-use imports, untraced
        monkeypatch.setattr(ham, "check_size", counting)
        tracemalloc.start()
        try:
            h = ham.build_model(name, {"d": 16}, 10, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == [16 * 11 * 16**4] and len(h.terms) == 9
        assert peak <= counts[0] + 2**20


class TestGroupBoundaries:
    def test_s1_identity(self, monkeypatch):
        h = ham.build_model("zz_chain", {}, 5)
        # nothing merges, so the validated chain is returned as it is
        monkeypatch.setattr(ham, "max_term_norm", None)
        g = ham.group_boundaries(h, 2)
        assert g is h
        assert g.s == 1 and g.n == 5 and g.dims == [2] * 5

    def test_spectrum_preserved(self):
        h = ham.build_model("transverse_ising", {}, 6)
        g = ham.group_boundaries(h, 3)
        assert g.s == 2 and g.dims[0] == 4 and g.n == 4
        v1 = np.linalg.eigvalsh(reference.to_dense_hamiltonian(h))
        v2 = np.linalg.eigvalsh(reference.to_dense_hamiltonian(g))
        assert np.abs(v1 - v2).max() < 1e-10

    def test_d_end_bound(self):
        h = ham.build_model("zz_chain", {}, 7)
        g = ham.group_boundaries(h, 4)
        assert g.s == 2
        assert g.dims[0] == 4 <= 4 * 2   # d_end = d^s <= D d

    def test_too_short(self):
        with pytest.raises(ConfigError):
            ham.group_boundaries(ham.build_model("zz_chain", {}, 4), 4)

    @pytest.mark.parametrize("name,n,D", [("transverse_ising", 7, 3),
                                          ("random_hermitian", 9, 5),
                                          ("heisenberg", 8, 8)])
    def test_end_terms_bitwise_as_embedded_sums(self, name, n, D):
        # the end terms as the identity-embedded sums were built inline,
        # zeros first and then term by term from the left
        h = ham.build_model(name, {}, n, seed=4)
        g = ham.group_boundaries(h, D)
        s, d = g.s, 2
        first = np.zeros((d**s * d, d**s * d), dtype=complex)
        last = np.zeros_like(first)
        for i in range(s):
            first += ham._embed(h.terms[i], d**i, d ** (s - 1 - i))
            last += ham._embed(h.terms[n - 1 - s + i], d**i, d ** (s - 1 - i))
        assert g.terms[0].tobytes() == first.tobytes()
        assert g.terms[-1].tobytes() == last.tobytes()

    def test_site_dimension_one_cannot_reach_d2(self):
        # this loop never ended for d=1
        with pytest.raises(ValueError):
            ham.grouping_count(1, 2)
        assert ham.grouping_count(1, 1) == 1


class TestNnHamiltonian:
    def test_non_hermitian_term_rejected(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError, match="term 1 is not Hermitian"):
            ham.NnHamiltonian(n=3, dims=[2, 2, 2],
                              terms=[np.eye(4, dtype=complex), bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_term_named(self, bad):
        # a NaN entry once passed the Hermiticity check, and the term norm
        # then failed with numpy's "SVD did not converge"
        # inf * X holds inf * 0 = NaN; numpy warns about it
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="term 0 is not finite"):
            ham.build_model("transverse_ising", {"g": bad}, 4)
        t = np.eye(4, dtype=complex)
        t[1, 1] = bad
        with pytest.raises(ValueError, match="term 2 is not finite"):
            ham.NnHamiltonian(n=4, dims=[2] * 4,
                              terms=[np.eye(4, dtype=complex)] * 2 + [t])

    def test_hermitian_within_tolerance_accepted(self):
        near = np.eye(4, dtype=complex)
        near[0, 1] = 0.5 * ham.HERMITICITY_TOL
        h = ham.NnHamiltonian(n=3, dims=[2, 2, 2], terms=[near, near.copy()])
        assert h.J > 0


    def test_equal_terms_become_one_array(self):
        # equal but separate copies, one of them real, and an unequal term
        zz, xx = np.diag([1.0, -1.0, -1.0, 1.0]), np.kron(ham.X, ham.X)
        terms = [zz.astype(complex), zz, xx, zz.astype(complex), xx.copy()]
        h = ham.NnHamiltonian(n=6, dims=[2] * 6, terms=terms)
        assert [id(t) for t in h.terms] == [id(h.terms[k])
                                           for k in (0, 0, 2, 0, 2)]
        assert all(t.dtype == complex for t in h.terms)

    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_non_hermitian_term_named_at_any_position(self, k):
        bad = np.kron(ham.Z, ham.Z)
        bad[0, 1] = 0.5
        terms = ham.build_model("zz_chain", {}, 8).terms
        terms[k] = bad
        with pytest.raises(ValueError, match=f"term {k} is not Hermitian"):
            ham.NnHamiltonian(n=8, dims=[2] * 8, terms=terms)

    @pytest.mark.parametrize("k,src", [(0, 1), (2, 0), (4, 1)])
    def test_mis_shaped_term_named_at_any_position(self, k, src):
        # a grouped chain's end terms are 8 x 8 and its middle ones 4 x 4;
        # term src's array, of the wrong shape at position k, is one the
        # chain already holds when k > src
        g = ham.group_boundaries(ham.build_model("zz_chain", {}, 8), 4)
        terms = list(g.terms)
        terms[k] = g.terms[src]
        with pytest.raises(ham.ShapeMismatchError, match=f"term {k} has shape"):
            ham.NnHamiltonian(n=g.n, dims=g.dims, terms=terms, s=g.s)


MODELS = ("zz_chain", "transverse_ising", "heisenberg", "random_hermitian",
          "trap_model", "rotated_classical", "diagonal_commuting")


def xx_chain():
    """zz_chain at n=12 with one interior term replaced by X (x) X."""
    terms = ham.build_model("zz_chain", {}, 12).terms
    terms[5] = np.kron(ham.X, ham.X)
    return ham.NnHamiltonian(n=12, dims=[2] * 12, terms=terms)


def catalog_and_mixed_chains():
    """Every catalog model at n = 5 and 12 and grouped at D=4, and
    `xx_chain`."""
    out = [pytest.param(xx_chain(), id="zz_chain-xx")]
    for name in MODELS:
        for n in (5, 12):
            out.append(pytest.param(ham.build_model(name, {}, n, 3),
                                    id=f"{name}-{n}"))
        out.append(pytest.param(ham.group_boundaries(
            ham.build_model(name, {}, 12, 3), 4), id=f"{name}-D4"))
    return out


@pytest.mark.parametrize("h", catalog_and_mixed_chains())
def test_checks_once_per_distinct_array_match_per_term(h):
    assert ham.max_term_norm(h) == reference.max_term_norm_per_term(h)
    assert ham.is_commuting(h) == reference.is_commuting_per_pair(h)


def test_one_interior_xx_term_breaks_commuting():
    # every other pair is the one (zz, zz) triple, which commutes
    h = xx_chain()
    assert len({id(t) for t in h.terms}) == 2
    assert not ham.is_commuting(h)


class TestNormsAndChecks:
    def test_max_term_norm_zz(self):
        h = ham.build_model("zz_chain", {}, 4)
        assert np.isclose(ham.max_term_norm(h), 1.0)

    def test_max_term_norm_oracle(self):
        h = ham.build_model("random_hermitian", {}, 4, seed=9)
        want = max(np.abs(np.linalg.eigvalsh(t)).max() for t in h.terms)
        assert abs(ham.max_term_norm(h) - want) < 1e-10

    def test_max_term_norm_over_several_stacks(self):
        # 599 distinct 4 x 4 terms take three stacks of at most 64 KiB
        h = ham.build_model("random_hermitian", {}, 600, 2)
        assert 599 * 256 > 2 * ham.NORM_STACK_BYTES
        assert ham.max_term_norm(h) == reference.max_term_norm_per_term(h)

    def test_max_term_norm_over_two_term_shapes(self):
        # a grouped chain's end terms are 8 x 8, its middle terms 4 x 4
        g = ham.group_boundaries(
            ham.build_model("random_hermitian", {}, 8, seed=4), 4)
        assert {t.shape for t in g.terms} == {(8, 8), (4, 4)}
        want = max(float(np.linalg.norm(t, 2)) for t in g.terms)
        assert ham.max_term_norm(g) == want

    def test_non_finite_term_norm_rejected(self):
        # entries of 1.79e308 are finite, but the largest singular value
        # overflows
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="term norm is not finite"):
            ham.build_model("transverse_ising", {"g": 1.79e308}, 4)

    def test_is_commuting(self):
        assert ham.is_commuting(ham.build_model("zz_chain", {}, 5))
        assert not ham.is_commuting(
            ham.build_model("transverse_ising", {"g": 1.0}, 5))
        assert ham.is_commuting(ham.build_model("diagonal_commuting", {}, 5,
                                                seed=0))

    def test_non_finite_commutator_is_not_commuting(self):
        h = ham.build_model("transverse_ising", {"g": 1e308}, 4)
        with np.errstate(all="ignore"):
            assert not ham.is_commuting(h)

    def test_rotated_classical_commutes_many_seeds(self):
        for seed in range(6):
            h = ham.build_model("rotated_classical", {}, 5, seed=seed)
            assert ham.is_commuting(h)

    def test_to_dense_single_term(self):
        h = ham.build_model("heisenberg", {}, 3)
        h2 = ham.NnHamiltonian(n=2, dims=[2, 2], terms=[h.terms[0]])
        hd = reference.to_dense_hamiltonian(h2)
        assert np.abs(hd - h.terms[0]).max() < 1e-15

    def test_to_dense_zz3_diagonal(self):
        h = ham.build_model("zz_chain", {}, 3)
        hd = reference.to_dense_hamiltonian(h)
        signs = np.array([1, -1])
        want = np.zeros(8)
        for i in range(8):
            b = [(i >> k) & 1 for k in (2, 1, 0)]
            want[i] = signs[b[0]] * signs[b[1]] + signs[b[1]] * signs[b[2]]
        assert np.abs(hd - np.diag(want)).max() < 1e-12

    def test_to_dense_hermitian(self):
        h = ham.build_model("random_hermitian", {}, 5, seed=2)
        hd = reference.to_dense_hamiltonian(h)
        assert np.abs(hd - hd.conj().T).max() < 1e-12

    def test_dense_size_guard(self):
        h = ham.build_model("zz_chain", {}, 16)
        with pytest.raises(SizeGuardError):
            reference.to_dense_hamiltonian(h)


def _random_state(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestApplyHamiltonian:
    @pytest.mark.parametrize("name", ["zz_chain", "transverse_ising",
                                      "heisenberg", "random_hermitian",
                                      "trap_model", "diagonal_commuting",
                                      "rotated_classical"])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_dense_on_catalog(self, name, n):
        h = ham.build_model(name, {}, n, seed=n)
        v = _random_state(h.total_dim)
        got = ham.apply_hamiltonian(h, v)
        ref = reference.to_dense_hamiltonian(h) @ v
        assert np.abs(got - ref).max() <= 1e-12

    def test_grouped_chain(self):
        h = ham.group_boundaries(
            ham.build_model("random_hermitian", {}, 6, seed=3), 3)
        assert h.dims == [4, 2, 2, 4]
        # bonds 0 and 1 span 4*2*2 = 16 states; bond 2 alone
        assert [(left, op.shape) for left, op in h.runs] == \
            [(1, (16, 16)), (8, (8, 8))]
        v = _random_state(h.total_dim)
        ref = reference.to_dense_hamiltonian(h) @ v
        assert np.abs(ham.apply_hamiltonian(h, v) - ref).max() <= 1e-12

    def test_no_bonds_merge_at_d3(self):
        h = ham.build_model("random_hermitian", {"d": 3}, 5, seed=2)
        assert len(h.runs) == h.n - 1
        for (left, op), t, j in zip(h.runs, h.terms, range(h.n)):
            assert left == 3**j and op.tobytes() == t.tobytes()
        v = _random_state(h.total_dim)
        ref = reference.to_dense_hamiltonian(h) @ v
        assert np.abs(ham.apply_hamiltonian(h, v) - ref).max() <= 1e-12

    @pytest.mark.parametrize("name,params,n", [
        ("heisenberg", {}, 10), ("random_hermitian", {"d": 3}, 6),
        ("random_hermitian", {"d": 5}, 4)])
    def test_runs_span_at_most_run_dim(self, name, params, n):
        h = ham.build_model(name, params, n, seed=1)
        biggest = max(t.shape[0] for t in h.terms)
        for _, op in h.runs:
            assert op.shape[0] <= max(ham.RUN_DIM, biggest)
        # at d=5 every 25x25 term is a run by itself
        if params.get("d") == 5:
            assert [op.shape for _, op in h.runs] == [(25, 25)] * (n - 1)

    @pytest.mark.parametrize("layout", ["c", "fortran", "transposed", "real",
                                        "real_1d"])
    def test_input_layouts(self, layout):
        h = ham.build_model("rotated_classical", {}, 7, seed=5)
        hd = reference.to_dense_hamiltonian(h)
        v = {"c": _random_state((h.total_dim, 3)),
             "fortran": np.asfortranarray(_random_state((h.total_dim, 3))),
             "transposed": _random_state((4, h.total_dim)).T,
             "real": _random_state((h.total_dim, 2)).real,
             "real_1d": _random_state(h.total_dim).real}[layout]
        got = ham.apply_hamiltonian(h, v)
        assert got.shape == v.shape and got.dtype == complex
        assert got.flags.c_contiguous
        assert np.abs(got - hd @ v).max() <= 1e-12

    def test_runs_belong_to_their_hamiltonian(self):
        a = ham.build_model("random_hermitian", {}, 6, seed=1)
        b = ham.build_model("random_hermitian", {}, 6, seed=2)
        v = _random_state(a.total_dim)
        assert a.runs is a.runs        # built once
        c = dataclasses.replace(a, terms=list(b.terms))
        for h in (a, b, c, a):
            ref = reference.to_dense_hamiltonian(h) @ v
            assert np.abs(ham.apply_hamiltonian(h, v) - ref).max() <= 1e-12
        assert np.abs(ham.apply_hamiltonian(a, v)
                      - ham.apply_hamiltonian(c, v)).max() > 1e-3

    @pytest.mark.parametrize("shape", ["1d", "2d"])
    def test_apply_term_every_site(self, shape):
        h = ham.group_boundaries(
            ham.build_model("random_hermitian", {}, 8, seed=6), 3)
        v = _random_state(h.total_dim if shape == "1d" else (h.total_dim, 2))
        for t, term in enumerate(h.terms):
            # the batched two-site product the kernel replaced
            x = v.reshape(math.prod(h.dims[:t]), term.shape[0], -1)
            old = np.matmul(term, x).reshape(v.shape)
            pe = ham._embed(term, math.prod(h.dims[:t]),
                            math.prod(h.dims[t + 2:]))
            got = ham.apply_term(term, v, h.dims, t)
            assert got.shape == v.shape and got.flags.c_contiguous
            assert np.abs(got - old).max() <= 1e-12
            assert np.abs(got - pe @ v).max() <= 1e-12
