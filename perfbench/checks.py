"""Per-operation result checks, run after the timed passes.

Each check returns a list of problems; an empty list means the operation's
result document is correct.  The checks use the program's own model
builder, nets and windowed-energy evaluators to recompute what the result
claims, plus `scipy.sparse.linalg.eigsh` as an eigensolver independent of
the program.  For the configs recorded in `golden.json` (the default seed),
the result must also match the recorded values.
"""

from __future__ import annotations

import json
import os

import numpy as np

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")
ENERGY_TOL = 1e-9           # windowed energy recomputed vs e_alg
GOLDEN_TOL = 1e-12          # energies vs the recorded golden values
EIGEN_TOL = 1e-8            # commuting: residuals and eigsh agreement
STITCH_SLACK = 1e-14        # the solver's own admissibility slack

SOLVE_KEYS = ("assignment", "e_alg", "N", "end_net_size", "digest")
NET_KEYS = ("N", "end_net_size", "epsilon_cert")
COMMUTING_KEYS = ("e_exact", "energy", "chosen")


def golden_fields(cfg: dict, doc: dict) -> dict:
    """The fields of a result document that golden.json records."""
    keys = {"solve": SOLVE_KEYS, "net-stats": NET_KEYS,
            "commuting": COMMUTING_KEYS}[cfg["run"]["mode"]]
    return {k: doc[k] for k in keys}


def load_golden() -> list:
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)["operations"]


def _model(cfg: dict):
    from dpmps.hamiltonian import build_model
    m = cfg["model"]
    return build_model(m["name"], m.get("params", {}), m["n"], m.get("seed"))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_solve(cfg: dict, doc: dict) -> list:
    from dpmps.epsnet import build_end_net, build_pair_net
    from dpmps.hamiltonian import group_boundaries
    from dpmps.mps import local_energy, local_energy_left, local_energy_right

    D, delta = cfg["solver"]["D"], cfg["solver"]["delta"]
    h = group_boundaries(_model(cfg), D)
    eps_op = doc["epsilon_op"]
    pairs = build_pair_net(D, h.dims[1], delta, eps_op).pairs
    ends = build_end_net(D, h.dims[0], delta).tensors
    problems = []
    if doc["N"] != len(pairs) or doc["end_net_size"] != len(ends):
        problems.append(f"net sizes {doc['N']}/{doc['end_net_size']} differ "
                        f"from rebuilt {len(pairs)}/{len(ends)}")
        return problems
    a = doc["assignment"]
    if (len(a) != h.n or not 0 <= a[0] < len(ends)
            or not 0 <= a[-1] < len(ends)
            or any(not 0 <= p < len(pairs) for p in a[1:-1])):
        return problems + [f"assignment of length {len(a)} is out of range"]
    inner = [pairs[p] for p in a[1:-1]]
    for j, (q, p) in enumerate(zip(inner, inner[1:])):
        if np.linalg.norm(q.mu - p.lam) > 2.0 * eps_op + STITCH_SLACK:
            problems.append(f"junction {j + 2} is not stitching-admissible")
    energy = local_energy_left(ends[a[0]], inner[0].lam, inner[0].b,
                               h.terms[0])
    for j, (q, p) in enumerate(zip(inner, inner[1:])):
        energy += local_energy(q.lam, q.b, p.b, h.terms[j + 1])
    energy += local_energy_right(inner[-1].lam, inner[-1].b, ends[a[-1]],
                                 h.terms[-1])
    if not _close(energy, doc["e_alg"], ENERGY_TOL):
        problems.append(f"windowed energy {energy!r} != e_alg {doc['e_alg']!r}")
    if not doc["e_true"] >= doc["lower_bound"]:
        problems.append("e_true is below the certified lower bound")
    return problems


def eigsh_ground(cfg: dict) -> float:
    """Lowest eigenvalue from a sparse Lanczos solve, independent of the
    program's dense oracle."""
    from scipy import sparse
    from scipy.sparse.linalg import eigsh

    h = _model(cfg)
    dims = h.dims
    total = int(np.prod(dims))
    mat = sparse.csr_matrix((total, total), dtype=complex)
    for j, term in enumerate(h.terms):
        left = int(np.prod(dims[:j])) if j else 1
        right = int(np.prod(dims[j + 2:])) if j + 2 < h.n else 1
        mat = mat + sparse.kron(sparse.kron(sparse.identity(left), term),
                                sparse.identity(right), format="csr")
    v0 = np.ones(total, dtype=complex)
    return float(eigsh(mat, k=1, which="SA", v0=v0, tol=0)[0][0])


def check_commuting(cfg: dict, doc: dict) -> list:
    problems = []
    if doc["matched_exact"] is not True:
        problems.append("refined energy does not match the exact energy")
    if not doc["residual_max"] <= EIGEN_TOL:
        problems.append(f"eigen-residual {doc['residual_max']!r} too large")
    ref = eigsh_ground(cfg)
    for key in ("e_exact", "energy"):
        if not _close(doc[key], ref, EIGEN_TOL):
            problems.append(f"{key} {doc[key]!r} disagrees with eigsh {ref!r}")
    return problems


def check_golden(doc: dict, want: dict) -> list:
    problems = []
    for key, val in want.items():
        got = doc.get(key)
        if key in ("e_alg", "e_exact", "energy"):
            ok = got is not None and abs(got - val) <= GOLDEN_TOL
        elif key == "chosen":
            ok = (got is not None and len(got) == len(val)
                  and all(g[:2] == w[:2] and abs(g[2] - w[2]) <= GOLDEN_TOL
                          for g, w in zip(got, val)))
        else:
            ok = got == val
        if not ok:
            problems.append(f"{key} differs from the golden value")
    return problems


def check_operation(cfg: dict, doc, golden: list) -> list:
    """All checks for one operation's result document."""
    if not isinstance(doc, dict):
        return ["no result document"]
    mode = cfg["run"]["mode"]
    if doc.get("mode") != mode:
        return [f"result mode {doc.get('mode')!r} is not {mode!r}"]
    problems = []
    if mode == "solve":
        problems += check_solve(cfg, doc)
    elif mode == "commuting":
        problems += check_commuting(cfg, doc)
    for entry in golden:
        if entry["config"] == cfg:
            problems += check_golden(doc, entry["expect"])
    return problems
