"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 2 is expected to fail: the grid that discretizes complex entries
by rounding modulus and phase separately has a worst-case covering radius
of about (1 + 2 pi) * delta, so the claimed per-row rounding bound of
2 sqrt(b) delta does not hold for complex matrices.  The criterion is kept
at its stated tolerance and marked as an expected failure rather than
weakened; see the design notes.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from dpmps import commuting as cm
from dpmps import dp, epsnet as en, mps, oracle
from dpmps import hamiltonian as ham
from dpmps.errors import NetSizeError

import reference


def report(capsys, ok, num, text):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")


def random_orthonormal_rows(rng, a, b, real_nonneg=False):
    if real_nonneg:
        v = np.abs(rng.standard_normal(b))
        return (v / np.linalg.norm(v))[None, :]
    m = rng.standard_normal((b, a)) + 1j * rng.standard_normal((b, a))
    q, _ = np.linalg.qr(m)
    return q[:, :a].T


def grouped(name, n, D, seed=None, **params):
    return ham.group_boundaries(ham.build_model(name, params, n, seed), D)


CRIT3_INSTANCES = [(name, n) for name in ("zz_chain", "transverse_ising")
                   for n in (4, 5)]


def run_crit3_instance(name, n):
    hg = grouped(name, n, 1)
    sr = dp.solve(hg, 1, 0.25)
    net = en.build_pair_net(1, 2, 0.25, sr.epsilon_op)
    endn = en.build_end_net(1, 2, 0.25)
    e_enum, _ = oracle.enumerate_net_optimum(hg, endn, net, sr.epsilon_op)
    return hg, sr, e_enum


def test_criterion_1_generator_validity(capsys):
    t0 = time.time()
    worst = 0.0
    skipped = []
    for (a, b) in ((1, 2), (1, 3), (2, 4)):
        for delta in (0.25, 0.1):
            try:
                mats, _ = en.orthonormal_family(a, b, delta)
            except NetSizeError:
                skipped.append((a, b, delta))
                continue
            for m in mats:
                worst = max(worst,
                            float(np.abs(m @ m.conj().T - np.eye(a)).max()))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 60
    report(capsys, ok, 1,
           f"generator row-Gram deviation {worst:.2e} <= 1e-10, "
           f"{elapsed:.1f}s, skipped over cap: {skipped}")
    assert ok


@pytest.mark.xfail(strict=False, reason=(
    "the complex grid rounds modulus and phase separately; its covering "
    "radius is about (1 + 2 pi) * delta, so the 2 sqrt(b) delta rounding "
    "bound fails for complex matrices"))
def test_criterion_2_covering_pipeline_bounds(capsys):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    violations = []
    for (a, b) in ((1, 2), (1, 3), (2, 4)):
        for delta in (0.25, 0.1):
            sb = math.sqrt(b) * delta
            for _ in range(500):
                am = random_orthonormal_rows(rng, a, b)
                ch = en.covering_chain(am, delta)
                if not ch.survived_norm_filter:
                    continue
                if ch.d_rounded > 2 * sb + 1e-12:
                    violations.append(("round", a, b, delta, ch.d_rounded))
                if ch.d_renormalized > (4 + 2 / 35) * sb + 1e-12:
                    violations.append(("renorm", a, b, delta,
                                       ch.d_renormalized))
                if not ch.survived_overlap_filter:
                    continue
                if ch.max_overlap > 9 * sb + 1e-12:
                    violations.append(("overlap", a, b, delta,
                                       ch.max_overlap))
                if ch.d_final > 59 * b * delta + 1e-12:
                    violations.append(("final", a, b, delta, ch.d_final))
    elapsed = time.time() - t0
    ok = not violations and elapsed < 120
    report(capsys, ok, 2,
           f"covering-pipeline bounds, {len(violations)} violations "
           f"(first: {violations[0] if violations else None}), "
           f"{elapsed:.1f}s")
    assert ok


def test_criterion_3_dp_equals_enumeration(capsys):
    worst = 0.0
    slow = False
    for name, n in CRIT3_INSTANCES:
        t0 = time.time()
        _, sr, e_enum = run_crit3_instance(name, n)
        worst = max(worst, abs(sr.e_alg - e_enum))
        slow = slow or (time.time() - t0) >= 60
    ok = worst <= 1e-12 and not slow
    report(capsys, ok, 3,
           f"DP vs enumeration max |diff| {worst:.2e} <= 1e-12 over "
           f"{CRIT3_INSTANCES}")
    assert ok


def test_criterion_4_sandwich_bounds(capsys):
    ok = True
    details = []
    for name, n in CRIT3_INSTANCES:
        h0 = ham.build_model(name, {}, n)
        hg = grouped(name, n, 1)
        sr = dp.solve(hg, 1, 0.25)
        e0 = oracle.exact_ground(h0).e0
        eps = sr.epsilon_used
        lower = sr.e_alg - 6 * hg.J * hg.n * eps
        upper = sr.e_alg + 1.5 * hg.J * 1 * hg.n**2 * eps
        good = (lower <= e0 + 1e-10 and e0 <= sr.e_true + 1e-10
                and sr.e_true <= upper + 1e-10
                and abs(sr.e_true - sr.e_alg) <= 1e-10)
        ok = ok and good
        details.append((name, n, good))
    report(capsys, ok, 4, f"sandwich and D=1 exactness: {details}")
    assert ok


def test_criterion_5_canonicalization_roundtrip(capsys):
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst_rt, worst_res = 0.0, 0.0
    for _ in range(50):
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        v /= np.linalg.norm(v)
        m = mps.canonicalize(v, 6, 2, 8, 2)
        w = mps.to_dense(m)
        worst_rt = max(worst_rt,
                       float(np.linalg.norm(reference.align_phase(w, v) - v)))
        worst_res = max(worst_res, reference.check_canonical(m).max_residual)
    elapsed = time.time() - t0
    ok = worst_rt <= 1e-8 and worst_res <= 1e-10 and elapsed < 30
    report(capsys, ok, 5,
           f"50 roundtrips: worst dense error {worst_rt:.2e} <= 1e-8, "
           f"worst residual {worst_res:.2e} <= 1e-10, {elapsed:.1f}s")
    assert ok


def test_criterion_6_energy_consistency(capsys):
    rng = np.random.default_rng(6)
    models = [ham.build_model(nm, {}, 6, seed=13) for nm in
              ("zz_chain", "transverse_ising", "heisenberg",
               "random_hermitian", "trap_model")]
    dense = [reference.to_dense_hamiltonian(h) for h in models]
    worst_full, worst_win = 0.0, 0.0
    for k in range(50):
        # a random state of exact bond rank <= 4, so canonicalization is
        # lossless and the state is exactly canonical
        bonds = [1, 2, 4, 4, 4, 2, 1]
        ts = [rng.standard_normal((bonds[i], 2, bonds[i + 1]))
              + 1j * rng.standard_normal((bonds[i], 2, bonds[i + 1]))
              for i in range(6)]
        v = ts[0].reshape(-1, ts[0].shape[2])
        for t in ts[1:]:
            v = np.tensordot(v, t, axes=([1], [0])).reshape(-1, t.shape[2])
        v = v.reshape(-1)
        v /= np.linalg.norm(v)
        m = mps.canonicalize(v, 6, 2, 4, 2)
        w = mps.to_dense(m)
        for h, hd in zip(models, dense):
            ref = (np.vdot(w, hd @ w) / np.vdot(w, w)).real
            full = mps.expectation_full(m, h)
            worst_full = max(worst_full, abs(full - ref))
            worst_win = max(worst_win,
                            abs(reference.windowed_energy_sum(m, h) - full))
    ok = worst_full <= 1e-8 and worst_win <= 1e-8
    report(capsys, ok, 6,
           f"expectation vs dense {worst_full:.2e} <= 1e-8, windowed vs "
           f"full {worst_win:.2e} <= 1e-8")
    assert ok


def test_criterion_7_trap_separation(capsys):
    t0 = time.time()
    h0 = ham.build_model("trap_model", {}, 6)
    start = mps.canonicalize(mps.product_basis_state(6, 2, 2, [0] * 6),
                             6, 2, 1, 2)
    e_base = oracle.local_sweep_baseline(h0, start, sweeps=4)
    sr = dp.solve(grouped("trap_model", 6, 1), 1, 0.1)
    elapsed = time.time() - t0
    ok = (e_base == 6.0 and sr.e_alg <= 1.0
          and sr.e_alg < e_base - 3 and elapsed < 120)
    report(capsys, ok, 7,
           f"baseline {e_base} (== 6.0), solver e_alg {sr.e_alg:.4f} <= 1.0, "
           f"{elapsed:.1f}s")
    assert ok


def test_criterion_8_commuting_refinement(capsys):
    t0 = time.time()
    ok = True
    details = []
    cases = [("zz_chain", 6, None)] + [("rotated_classical", 5, s)
                                       for s in (1, 2, 3)]
    for name, n, seed in cases:
        h = ham.build_model(name, {}, n, seed=seed)
        hd = reference.to_dense_hamiltonian(h)
        vals, vecs = np.linalg.eigh(hd)
        v = vecs[:, 0] + 0.1 * vecs[:, 5]
        v /= np.linalg.norm(v)
        rr = cm.refine_to_eigenstate(v, h)
        good = (abs(rr.energy - vals[0]) <= 1e-8
                and max(rr.residuals) <= 1e-8)
        ok = ok and good
        details.append((name, seed, good))
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(capsys, ok, 8, f"refinement reaches e0: {details}, {elapsed:.1f}s")
    assert ok


def test_criterion_9_projection_lemma(capsys):
    ok = True
    cases = [("zz_chain", 6, None)] + [("rotated_classical", 5, s)
                                       for s in (1, 2, 3)]
    for name, n, seed in cases:
        h = ham.build_model(name, {}, n, seed=seed)
        hd = reference.to_dense_hamiltonian(h)
        vals, vecs = np.linalg.eigh(hd)
        e0 = float(vals[0])
        v = vecs[:, 0] + 0.1 * vecs[:, 5]
        v /= np.linalg.norm(v)
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
            ok = ok and found
    report(capsys, ok, 9,
           "every term has a well-supported eigenspace within the "
           f"(1 + 1/n) surplus bound: {ok}")
    assert ok


def test_criterion_10_norm_identities(capsys):
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(200):
        # block-norm contraction: norms of first-factor blocks are
        # 1-Lipschitz in the full vectors
        a = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        b2 = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        an, bn = np.linalg.norm(a, axis=1), np.linalg.norm(b2, axis=1)
        worst = max(worst, float(np.sum((an - bn)**2)
                                 - np.linalg.norm(a - b2)**2))
        # joining along an orthonormal-slice edge preserves distance
        q, _ = np.linalg.qr(rng.standard_normal((6, 4))
                            + 1j * rng.standard_normal((6, 4)))
        bb = q[:, :4].T
        b1 = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        b2m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        worst = max(worst, abs(np.linalg.norm(b1 @ bb - b2m @ bb)
                               - np.linalg.norm(b1 - b2m)))
        # weighted window distance bounded by the worst slice distance
        q2, _ = np.linalg.qr(rng.standard_normal((7, 3))
                             + 1j * rng.standard_normal((7, 3)))
        lam = np.abs(rng.standard_normal(3))
        lam /= np.linalg.norm(lam)
        c1 = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        c2 = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        lhs = np.linalg.norm(q2[:, :3] @ np.diag(lam) @ (c1 - c2))
        worst = max(worst,
                    float(lhs - np.linalg.norm(c1 - c2, axis=1).max()))
    ok = worst <= 1e-12
    report(capsys, ok, 10,
           f"200 trials of the three identities, worst slack {worst:.2e} "
           "<= 1e-12")
    assert ok


CRIT11_SCRIPT = """
import json, sys
from dpmps import dp, hamiltonian as ham
for name, n, seed, delta in json.loads(sys.argv[1]):
    hg = ham.group_boundaries(ham.build_model(name, {}, n, seed), 1)
    sr = dp.solve(hg, 1, delta)
    print(json.dumps([repr(sr.e_alg), sr.assignment, sr.digest]))
"""


def test_criterion_11_determinism(capsys):
    # each run in a fresh process, since BLAS reads its thread count once;
    # at N = 3400 the random_hermitian solve streams many GEMM chunks
    configs = [(name, n, None, 0.25) for name, n in CRIT3_INSTANCES]
    configs.append(("random_hermitian", 6, 1, 0.05))
    src = os.path.dirname(os.path.dirname(dp.__file__))
    path = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    runs = [subprocess.run(
        [sys.executable, "-c", CRIT11_SCRIPT, json.dumps(configs)],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=blas),
        capture_output=True, text=True, check=True,
        timeout=600).stdout.splitlines()
        for blas in ("1", "2")]
    ok = len(runs[0]) == len(configs) and runs[0] == runs[1]
    report(capsys, ok, 11,
           f"1 vs 2 BLAS threads identical e_alg, assignment, digest on "
           f"{len(configs)} solves: {ok}")
    assert ok
