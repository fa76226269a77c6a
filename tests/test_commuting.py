"""Tests for the eigenspace projection refinement."""

import math

import numpy as np
import pytest

from dpmps import cli
from dpmps import commuting as cm
from dpmps import hamiltonian as ham
from dpmps import dp, mps, oracle
from dpmps.errors import ShapeMismatchError

import reference


def perturbed_ground(h, amount, which=5):
    hd = reference.to_dense_hamiltonian(h)
    vals, vecs = np.linalg.eigh(hd)
    v = vecs[:, 0] + amount * vecs[:, which]
    return v / np.linalg.norm(v)


def dense_refine(v, h):
    """The refinement's eigenspace choices and final state vector computed
    with dense matrices: identity-padded projectors, the full Hamiltonian
    and a canonicalization after every projection; the independent
    reference for the matrix-free, one-vector pass."""
    n, d, d_end = h.n, h.dims[1], h.dims[0]
    hd = reference.to_dense_hamiltonian(h)
    state, chosen = mps.canonicalize(v, n, d, None, d_end), []
    for t, term in enumerate(h.terms):
        dec = cm.eig_projectors(term)
        v = mps.to_dense(state)
        best = None
        for j, p in enumerate(dec.projectors):
            w = ham._embed(p, 2**t, 2**(n - t - 2)) @ v
            c = float(np.vdot(v, w).real)
            if c < 1.0 / (len(dec.projectors) * n * n):
                continue
            wn = w / np.linalg.norm(w)
            e = float(np.vdot(wn, hd @ wn).real)
            if best is None or e < best[0] - 1e-14:
                best = (e, j, c)
        _, j, c = best
        w = ham._embed(dec.projectors[j], 2**t, 2**(n - t - 2)) @ v
        state = mps.canonicalize(w / np.linalg.norm(w), n, d, None, d_end)
        chosen.append((t, j, c))
    return chosen, mps.to_dense(state)


class TestApplyTerm:
    def test_matches_dense_kron_on_grouped_chain(self):
        h = ham.group_boundaries(
            ham.build_model("random_hermitian", {}, 6, seed=3), 3)
        assert h.dims == [4, 2, 2, 4]
        rng = np.random.default_rng(0)
        v = rng.standard_normal(h.total_dim) \
            + 1j * rng.standard_normal(h.total_dim)
        for t, term in enumerate(h.terms):
            pe = ham._embed(term, math.prod(h.dims[:t]),
                            math.prod(h.dims[t + 2:]))
            got = ham.apply_term(term, v, h.dims, t)
            assert np.abs(got - pe @ v).max() <= 1e-12
        ref = reference.to_dense_hamiltonian(h) @ v
        assert np.abs(ham.apply_hamiltonian(h, v) - ref).max() <= 1e-12


class TestEigProjectors:
    def test_zz_two_spaces(self):
        dec = cm.eig_projectors(np.kron(ham.Z, ham.Z))
        assert len(dec.projectors) == 2
        assert sorted(np.round(dec.eigenvalues, 9)) == [-1.0, 1.0]
        for p in dec.projectors:
            assert np.isclose(np.trace(p).real, 2.0)

    def test_identity_single_space(self):
        dec = cm.eig_projectors(np.eye(4, dtype=complex))
        assert len(dec.projectors) == 1
        assert np.abs(dec.projectors[0] - np.eye(4)).max() < 1e-12

    def test_completeness_orthogonality(self):
        h = ham.build_model("rotated_classical", {}, 4, seed=2)
        for term in h.terms:
            dec = cm.eig_projectors(term)
            total = sum(dec.projectors)
            assert np.abs(total - np.eye(4)).max() <= 1e-10
            for i, p in enumerate(dec.projectors):
                assert np.abs(p @ p - p).max() <= 1e-10
                for q in dec.projectors[i + 1:]:
                    assert np.abs(p @ q).max() <= 1e-10

    def test_non_hermitian_rejected(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            cm.eig_projectors(bad)


class TestRefine:
    def test_zz6_from_exact_ground(self):
        h = ham.build_model("zz_chain", {}, 6)
        gt = oracle.exact_ground(h)
        rr = cm.refine_to_eigenstate(gt.ground_vector, h)
        assert np.isclose(rr.energy, -5.0)
        assert max(rr.residuals) <= 1e-10
        assert all(c >= 1 - 1e-9 for _, _, c in rr.chosen)

    def test_perturbed_ground_recovers_e0(self):
        for name, n, seed in (("zz_chain", 6, None),
                              ("rotated_classical", 5, 1),
                              ("rotated_classical", 5, 2)):
            h = ham.build_model(name, {}, n, seed=seed)
            e0 = oracle.exact_ground(h).e0
            rr = cm.refine_to_eigenstate(perturbed_ground(h, 0.1), h)
            assert abs(rr.energy - e0) <= 1e-8
            assert max(rr.residuals) <= 1e-8

    def test_projection_lemma_exhaustive(self):
        # from a surplus state, some eigenspace of each term has weight at
        # least 1/(k n^2) and energy at most e0 + (1 + 1/n) h
        for name, n, seed in (("zz_chain", 6, None),
                              ("rotated_classical", 5, 3)):
            h = ham.build_model(name, {}, n, seed=seed)
            hd = reference.to_dense_hamiltonian(h)
            e0 = oracle.exact_ground(h).e0
            v = perturbed_ground(h, 0.1)
            surplus = float(np.vdot(v, hd @ v).real) - e0
            for t, term in enumerate(h.terms):
                dec = cm.eig_projectors(term)
                found = False
                for p in dec.projectors:
                    pe = ham._embed(p, 2**t, 2**(n - t - 2))
                    w = pe @ v
                    c = float(np.vdot(v, w).real)
                    if c < 1.0 / (len(dec.projectors) * n * n):
                        continue
                    wn = w / np.linalg.norm(w)
                    e = float(np.vdot(wn, hd @ wn).real)
                    if e <= e0 + (1 + 1 / n) * surplus + 1e-10:
                        found = True
                        break
                assert found, (name, t)

    def test_energy_telescoping(self):
        h = ham.build_model("rotated_classical", {}, 5, seed=5)
        hd = reference.to_dense_hamiltonian(h)
        e0 = oracle.exact_ground(h).e0
        v = perturbed_ground(h, 0.1)
        surplus = float(np.vdot(v, hd @ v).real) - e0
        rr = cm.refine_to_eigenstate(v, h)
        assert rr.energy - e0 <= np.e * surplus + 1e-10

    def test_bond_dimension_growth_bounded(self):
        h = ham.build_model("rotated_classical", {}, 5, seed=6)
        v = perturbed_ground(h, 0.1)

        def max_bond(vec):
            m = mps.canonicalize(vec, 5, 2, None, 2)
            return max(t.shape[2] for t in m.site_tensors()[:-1])

        base = max_bond(v)
        rr = cm.refine_to_eigenstate(v, h)
        assert max_bond(rr.vector) <= base * 4

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_dense_loop(self, seed):
        h = ham.build_model("rotated_classical", {}, 8, seed=seed)
        v = perturbed_ground(h, 0.1)
        want, v_ref = dense_refine(v, h)
        rr = cm.refine_to_eigenstate(v, h)
        got = rr.chosen
        assert [(t, j) for t, j, _ in got] == [(t, j) for t, j, _ in want]
        for (_, _, c), (_, _, c_ref) in zip(got, want):
            assert abs(c - c_ref) <= 1e-12
        v = rr.vector
        assert np.linalg.norm(reference.align_phase(v, v_ref) - v_ref) <= 1e-10

    def test_commuting_run_makes_no_canonical_round_trip(self, monkeypatch):
        # the refinement takes the exact_ground vector as it is and returns
        # a vector, so a commuting run neither canonicalizes nor contracts
        calls = {"canonicalize": 0, "to_dense": 0}

        def counting(name, original):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapped

        # every binding of the two functions in the package, wherever a
        # module imported them by name
        originals = {name: getattr(mps, name) for name in calls}
        for mod in (mps, cli, cm, oracle, dp):
            for name, original in originals.items():
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counting(name, original))
        cfg = cli.parse_config(
            '{"model": {"name": "rotated_classical", "n": 6, "seed": 2},'
            ' "run": {"mode": "commuting"}}')
        res = cli.execute(cfg)
        assert res["matched_exact"]
        assert calls == {"canonicalize": 0, "to_dense": 0}

    def test_wrong_size_rejected(self):
        h = ham.build_model("zz_chain", {}, 5)
        with pytest.raises(ShapeMismatchError):
            cm.refine_to_eigenstate(np.ones(16) / 4, h)

    def test_non_unit_norm_rejected(self):
        h = ham.build_model("zz_chain", {}, 5)
        v = perturbed_ground(h, 0.1)
        cm.refine_to_eigenstate(v * (1 + 5e-9), h)
        with pytest.raises(ValueError):
            cm.refine_to_eigenstate(v * (1 + 1e-6), h)

    def test_one_eigh_per_distinct_term(self, monkeypatch):
        # zz_chain has one distinct term; refinement and verification share
        # its decomposition
        h = ham.build_model("zz_chain", {}, 8)
        v = perturbed_ground(h, 0.1)
        calls = {"eigh": 0, "eigvalsh": 0}

        def counting(name):
            original = getattr(np.linalg, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapped

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        rr = cm.refine_to_eigenstate(v, h)
        assert calls == {"eigh": 1, "eigvalsh": 0}
        assert max(rr.residuals) <= 1e-12

    @pytest.mark.parametrize("name,distinct", [("zz_chain", 1),
                                               ("trap_model", 3),
                                               ("diagonal_commuting", 7)])
    def test_one_decomposition_per_distinct_array(self, monkeypatch, name,
                                                  distinct):
        # built from equal but separate copies of the terms
        built = ham.build_model(name, {}, 8, 2)
        h = ham.NnHamiltonian(n=8, dims=built.dims,
                              terms=[t.copy() for t in built.terms])
        seen = []
        original = cm.eig_projectors

        def counting(term):
            seen.append(id(term))
            return original(term)

        monkeypatch.setattr(cm, "eig_projectors", counting)
        rr = cm.refine_to_eigenstate(perturbed_ground(h, 0.0), h)
        assert len(seen) == len(set(seen)) == distinct
        assert max(rr.residuals) <= 1e-10


class TestVerifyEigenstate:
    def test_basis_eigenstate(self):
        h = ham.build_model("zz_chain", {}, 5)
        v = mps.product_basis_state(5, 2, 2, [0, 1, 0, 1, 0])
        assert max(cm.verify_eigenstate(v, h)) <= 1e-12

    def test_non_eigenstate_flagged(self):
        rng = np.random.default_rng(2)
        h = ham.build_model("zz_chain", {}, 5)
        v = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        v /= np.linalg.norm(v)
        assert max(cm.verify_eigenstate(v, h)) > 0.1
