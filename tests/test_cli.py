"""Tests for config parsing and the CLI run modes."""

import json
import math
import os
import tempfile
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpmps import cli, dp, errors
from dpmps import epsnet as en
from dpmps.errors import ConfigError


def cfg_text(**over):
    doc = {
        "model": {"name": "zz_chain", "n": 4},
        "solver": {"D": 1, "delta": 0.25},
        "run": {"mode": "solve"},
    }
    for key, val in over.items():
        doc.setdefault(key, {}).update(val)
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = cli.parse_config(cfg_text())
        assert cfg.cap == 10**7
        assert cfg.epsilon_op is None
        assert cfg.mode == "solve"

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            cli.parse_config("{nope")

    def test_delta_range(self):
        with pytest.raises(ConfigError, match="solver.delta"):
            cli.parse_config(cfg_text(solver={"delta": 0.9}))

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="run.mode"):
            cli.parse_config(cfg_text(run={"mode": "dance"}))

    def test_n_too_small(self):
        with pytest.raises(ConfigError, match="model.n"):
            cli.parse_config(cfg_text(model={"n": 2}))


class TestExecute:
    def test_solve_fields(self):
        res = cli.execute(cli.parse_config(cfg_text()))
        for key in ("e_alg", "e_true", "lower_bound", "upper_slack", "N",
                    "epsilon_cert", "epsilon_op", "digest"):
            assert key in res
        assert "certified epsilon exceeds 1: bounds vacuous" in res["warnings"]

    def test_solve_reports_omega_defect(self):
        res = cli.execute(cli.parse_config(cfg_text(model={"n": 5})))
        assert 0.0 <= res["omega_defect_max"] <= 1e-12

    def test_solve_reports_dp_steps(self):
        # zz_chain is uniform, so most of its 27 steps reuse an anchor
        res = cli.execute(cli.parse_config(cfg_text(model={"n": 30})))
        steps = res["dp_steps"]
        assert steps["full"] + steps["reused"] == 27 and steps["reused"] > 0

    def test_solve_reports_stored_lists(self, monkeypatch):
        # zz_chain's 28 lists share their pair_index, and the reused steps
        # their tails; bytes counts each int32 array once, and the digest
        # leaves the field out, as it does dp_steps
        text = cfg_text(model={"n": 30})
        res = cli.execute(cli.parse_config(text))
        lists = res["dp_lists"]
        assert set(lists) == {"stored", "distinct_tails", "bytes"}
        assert lists["stored"] == 28
        assert 0 < lists["distinct_tails"] < 28
        assert lists["bytes"] == 4 * res["N"] * (lists["distinct_tails"] + 1)
        monkeypatch.setattr(dp, "_stored_stats", lambda *args: {})
        other = cli.execute(cli.parse_config(text))
        assert other["dp_lists"] == {} and other["digest"] == res["digest"]

    def test_oracle_heisenberg(self):
        res = cli.execute(cli.parse_config(cfg_text(
            model={"name": "heisenberg", "n": 3}, run={"mode": "oracle"})))
        assert res["e_exact"] == pytest.approx(-4.0)

    def test_solve_equals_enumerate(self):
        a = cli.execute(cli.parse_config(cfg_text()))
        b = cli.execute(cli.parse_config(cfg_text(run={"mode": "enumerate"})))
        assert abs(a["e_alg"] - b["e_alg"]) <= 1e-12

    def test_target_error_fills_epsilon(self):
        res = cli.execute(cli.parse_config(cfg_text(
            solver={"target_error": 0.1})))
        assert res["epsilon_op"] == pytest.approx(0.1 / (2 * 1 * 16))

    def test_net_stats(self):
        res = cli.execute(cli.parse_config(cfg_text(
            solver={"D": 1, "delta": 0.25, "epsilon": 1.0},
            run={"mode": "net-stats"})))
        assert int(res["paper_bound"]) == 288 ** 5
        assert res["N"] == 16

    def test_net_stats_funnel(self):
        res = cli.execute(cli.parse_config(cfg_text(
            solver={"D": 2, "epsilon_op": 0.05}, run={"mode": "net-stats"})))
        funnel = res["funnel"]
        assert list(funnel) == ["lambda", "B", "pairs", "end"]
        for name, (a, b, real) in (("lambda", (1, 2, True)),
                                   ("B", (2, 4, False)),
                                   ("end", (2, 2, False))):
            _, cert = en.orthonormal_family(a, b, 0.25, real_nonneg=real)
            assert list(funnel[name].values()) == [
                cert.candidate_count, cert.survivors_norm_filter,
                cert.survivors_overlap_filter, cert.dropped_degenerate,
                cert.size]
        assert funnel["B"] == {
            "candidates": 65536, "kept_norm_filter": 65536,
            "kept_overlap_filter": 65536, "dropped_gram_schmidt": 576,
            "size": 64960}
        assert funnel["pairs"] == {"candidates": 4 * 64960,
                                   "kept_left_canonical": 123264}
        assert res["N"] == 123264 and res["end_net_size"] == \
            funnel["end"]["size"]

    @pytest.mark.parametrize("D,solver", [
        (1, {}), (2, {"D": 2, "epsilon_op": 0.05})])
    def test_net_stats_tiny_epsilon(self, D, solver):
        # 1e-320 limited to the fraction 0 and raised ZeroDivisionError; at
        # D=2 the bound has more digits than Python prints from an int
        res = cli.execute(cli.parse_config(cfg_text(
            solver=dict(solver, epsilon=1e-320), run={"mode": "net-stats"})))
        bound = en.net_size_estimate(D, 2, 1e-320)
        assert Decimal(res["paper_bound"]) == bound
        assert res["paper_bound_log10"] == math.floor(math.log10(bound))

    def test_commuting_mode(self):
        res = cli.execute(cli.parse_config(cfg_text(
            model={"name": "zz_chain", "n": 6}, run={"mode": "commuting"})))
        assert res["matched_exact"]
        assert res["residual_max"] <= 1e-8

    def test_baseline_mode(self):
        res = cli.execute(cli.parse_config(cfg_text(
            model={"name": "trap_model", "n": 6},
            run={"mode": "baseline", "start": "all_up"})))
        assert res["e_baseline"] == 6.0

    def test_rerun_digest_identical(self):
        a = cli.execute(cli.parse_config(cfg_text()))
        b = cli.execute(cli.parse_config(cfg_text()))
        assert a["digest"] == b["digest"]

    def test_enumerate_warns_vacuous(self):
        res = cli.execute(cli.parse_config(cfg_text(run={"mode": "enumerate"})))
        assert res["epsilon_cert"] >= 1.0
        assert "certified epsilon exceeds 1: bounds vacuous" in res["warnings"]

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_every_mode_has_shared_fields(self, mode):
        res = cli.execute(cli.parse_config(cfg_text(run={"mode": mode})))
        assert res["mode"] == mode
        assert res["model"]["name"] == "zz_chain"
        assert isinstance(res["warnings"], list)
        assert res["timings"]["total_ms"] >= 0.0
        assert len(res["digest"]) == 64

    @pytest.mark.parametrize("mode", ["solve", "enumerate"])
    def test_default_epsilon_op_is_certified(self, mode):
        eps = en.certified_epsilon(2, 1, 0.25)
        a = cli.execute(cli.parse_config(cfg_text(run={"mode": mode})))
        b = cli.execute(cli.parse_config(cfg_text(
            solver={"epsilon_op": eps}, run={"mode": mode})))
        assert a["epsilon_op"] == b["epsilon_op"] == eps
        assert a["assignment"] == b["assignment"]
        if mode == "solve":
            assert a["digest"] == b["digest"]


class TestMain:
    def test_solve_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        assert cli.main(["--config", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "solve"

    def test_output_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        doc = json.loads(cfg_text())
        doc["output"] = {"path": str(outp), "emit_mps": True}
        path.write_text(json.dumps(doc))
        assert cli.main(["--config", str(path)]) == 0
        res = json.loads(outp.read_text())
        assert "e_alg" in res
        assert (tmp_path / "res.json.mps.json").exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(solver={"delta": 0.9}))
        assert cli.main(["--config", str(path)]) == 2
        capsys.readouterr()

    def test_missing_file_exit_2(self, capsys):
        assert cli.main(["--config", "/nonexistent.json"]) == 2
        capsys.readouterr()

    def test_no_threads_option(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(path), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_cap_guard_exit_3(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(solver={"D": 2, "delta": 0.1}))
        assert cli.main(["--config", str(path)]) == 3
        capsys.readouterr()

    def test_baseline_size_guard_exit_3(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        doc = json.loads(cfg_text(model={"name": "zz_chain", "n": 15},
                                  run={"mode": "baseline"}))
        doc["output"] = {"path": str(outp)}
        path.write_text(json.dumps(doc))
        assert cli.main(["--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("infeasible:")
        assert not outp.exists()

    @pytest.mark.parametrize("name,code", [("transverse_ising", 0),
                                           ("random_hermitian", 3)])
    def test_model_terms_against_memory(self, tmp_path, capsys, monkeypatch,
                                        name, code):
        # 2 MB of memory holds 7,812 terms of 256 bytes, and the D=1
        # delta=0.25 nets: a uniform chain of 10^4 sites holds three term
        # arrays and passes, where counting its 9,999 terms would not; a
        # random chain holds all 9,999
        from dpmps import hamiltonian as ham

        monkeypatch.setattr(ham, "_physical_memory", lambda: 2 * 10**6)
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        doc = json.loads(cfg_text(model={"name": name, "n": 10_000},
                                  run={"mode": "net-stats"}))
        doc["output"] = {"path": str(outp)}
        path.write_text(json.dumps(doc))
        assert cli.main(["--config", str(path)]) == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith("infeasible: bytes of 9999 terms")
            assert not outp.exists()
        else:
            assert json.loads(outp.read_text())["N"] > 0

    @pytest.mark.parametrize("d", [1000, 10**400])
    def test_huge_site_dimension_exit_3(self, tmp_path, capsys, d):
        # d=1000 ended in numpy's allocation error ("Unable to allocate
        # 7.28 TiB"), a 401-digit d in an OverflowError, each with exit 1
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        path.write_text(json.dumps({
            "model": {"name": "diagonal_commuting", "n": 3,
                      "params": {"d": d}},
            "run": {"mode": "oracle"}, "output": {"path": str(outp)}}))
        assert cli.main(["--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("infeasible:")
        assert not outp.exists()

    @pytest.mark.parametrize("mode", ["oracle", "commuting", "baseline"])
    def test_long_chain_dense_guard_exit_3(self, tmp_path, capsys, mode):
        # 2^64 overflowed the int64 Hilbert dimension to 0, past the guard,
        # and each mode exited 1 with an IndexError
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        path.write_text(json.dumps({
            "model": {"name": "zz_chain", "n": 64}, "run": {"mode": mode},
            "output": {"path": str(outp)}}))
        assert cli.main(["--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("infeasible:")
        assert not outp.exists()

    @pytest.mark.parametrize("mode", ["oracle", "commuting", "baseline",
                                      "enumerate"])
    def test_guard_count_past_int_str_limit_exit_3(self, tmp_path, capsys,
                                                   mode):
        # 2^15000 has 4,516 digits: formatting it for the guard message
        # raised ValueError past Python's int-to-str limit, with exit 1
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        path.write_text(json.dumps({
            "model": {"name": "zz_chain", "n": 15_000}, "run": {"mode": mode},
            "output": {"path": str(outp)}}))
        assert cli.main(["--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("infeasible:")
        assert not outp.exists()

    @pytest.mark.parametrize("delta", [1e-6, 1e-320])
    def test_tiny_delta_exit_3(self, tmp_path, capsys, delta):
        # 1e-6 ended in numpy's allocation error ("Unable to allocate
        # 3.64 TiB") for the complex grid, 1e-320 in an OverflowError while
        # building the real grid, each with exit 1
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        doc = json.loads(cfg_text(solver={"delta": delta},
                                  run={"mode": "net-stats"}))
        doc["output"] = {"path": str(outp)}
        path.write_text(json.dumps(doc))
        assert cli.main(["--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("infeasible:")
        assert not outp.exists()

    def test_candidate_bytes_beyond_memory_exit_3(self, tmp_path, capsys,
                                                  monkeypatch):
        # cap 10^100 passes 6.25e10 B-family candidates at delta=0.001,
        # whose index vector alone is 466 GiB: np.arange raised
        # numpy's allocation error, with exit 1
        arange = np.arange

        def small_arange(*args, **kwargs):
            assert args[0] < 10**8, "candidate enumeration allocated"
            return arange(*args, **kwargs)

        monkeypatch.setattr(np, "arange", small_arange)
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        doc = json.loads(cfg_text(solver={"delta": 0.001, "cap": 10**100},
                                  run={"mode": "net-stats"}))
        doc["output"] = {"path": str(outp)}
        path.write_text(json.dumps(doc))
        assert cli.main(["--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: bytes of the grid candidates")
        assert "physical memory" in err
        assert not outp.exists()

    def test_family_filters_beyond_memory_exit_3(self, tmp_path, capsys,
                                                 monkeypatch):
        # delta=0.05 at D=1: the 1 x 2 families enumerate 10^4 candidates
        # in 720 kB, and their filters need more than twice that; with
        # memory in between, the guard once passed
        from dpmps import hamiltonian as ham

        enumerated = 10**4 * (8 + 32 * 2)
        memory = 2 * 10**6
        assert enumerated < memory < en._family_peak_bytes(10**4, 1, 2)
        monkeypatch.setattr(ham, "_physical_memory", lambda: memory)
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        doc = json.loads(cfg_text(solver={"delta": 0.05},
                                  run={"mode": "net-stats"}))
        doc["output"] = {"path": str(outp)}
        path.write_text(json.dumps(doc))
        assert cli.main(["--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: bytes of the grid candidates "
                              "for a=1, b=2")
        assert not outp.exists()

    def test_dp_lists_beyond_memory_exit_3(self, tmp_path, capsys,
                                           monkeypatch):
        # DP lists once passed every guard, to run out of memory minutes
        # later; the guard counts 8 N bytes per stored list, so at delta=0.1
        # (N=350) and n=2 10^4 the 56 MB of lists do not fit in 50 MB
        from dpmps import dp
        from dpmps import hamiltonian as ham

        def never(*args, **kwargs):
            raise AssertionError("DP list built")

        monkeypatch.setattr(ham, "_physical_memory", lambda: 5 * 10**7)
        monkeypatch.setattr(dp, "initial_list", never)
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        doc = json.loads(cfg_text(
            model={"name": "transverse_ising", "n": 20_000},
            solver={"delta": 0.1}))
        doc["output"] = {"path": str(outp)}
        path.write_text(json.dumps(doc))
        assert cli.main(["--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible:") and "stored lists" in err
        assert not outp.exists()

    def test_linalg_error_exit_4(self, tmp_path, capsys):
        # eigh on a Krylov matrix of entries near 1e308 does not converge;
        # its LinAlgError exited 1
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        path.write_text(json.dumps({
            "model": {"name": "transverse_ising", "n": 4,
                      "params": {"g": 1e308}},
            "run": {"mode": "oracle"}, "output": {"path": str(outp)}}))
        with np.errstate(all="ignore"):
            assert cli.main(["--config", str(path)]) == 4
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not outp.exists()

    @pytest.mark.parametrize("mode",
                             ["solve", "baseline", "enumerate", "oracle"])
    def test_huge_param_exit_4(self, tmp_path, capsys, mode):
        # solve and baseline exited 0 and wrote the non-JSON token
        # -Infinity; enumerate exited 1 with a ValueError from the
        # imaginary-part check of mps.local_energy; oracle at n=6 exited 0
        # with e_exact 3.33e307, every Lanczos residual under an infinite
        # bound
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        for n in (4, 6):
            path.write_text(json.dumps({
                "model": {"name": "transverse_ising", "n": n,
                          "params": {"g": 1e308}},
                "run": {"mode": mode}, "output": {"path": str(outp)}}))
            with np.errstate(all="ignore"):
                assert cli.main(["--config", str(path)]) == 4
            assert capsys.readouterr().err.startswith("numerical failure:")
            assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_huge_param_not_commuting_exit_2(self, tmp_path, capsys):
        # the overflowing commutator made the SVD in is_commuting raise,
        # which exited 4
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        path.write_text(json.dumps({
            "model": {"name": "transverse_ising", "n": 6,
                      "params": {"g": 1e308}},
            "run": {"mode": "commuting"}, "output": {"path": str(outp)}}))
        with np.errstate(all="ignore"):
            assert cli.main(["--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not outp.exists()

    @pytest.mark.parametrize("mode",
                             ["solve", "net-stats", "oracle", "commuting"])
    def test_non_finite_term_norm_exit_2(self, tmp_path, capsys, mode):
        # J = inf: solve ran the whole DP and exited 4 with "no admissible
        # transition", net-stats wrote a document
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        path.write_text(json.dumps({
            "model": {"name": "transverse_ising", "n": 6,
                      "params": {"g": 1.79e308}},
            "run": {"mode": mode}, "output": {"path": str(outp)}}))
        with np.errstate(all="ignore"):
            assert cli.main(["--config", str(path)]) == 2
        assert "term norm is not finite" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_numerical_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        from dpmps.errors import EmptyNetError

        def boom(cfg):
            raise EmptyNetError("all candidates removed")

        monkeypatch.setattr(cli, "execute", boom)
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text())
        assert cli.main(["--config", str(path)]) == 4
        capsys.readouterr()


def _exit_code_of(cls):
    """The exit code the base type of an error class names."""
    codes = [code for base, code in ((errors.ConfigError, 2),
                                     (errors.InfeasibleError, 3),
                                     (errors.NumericalError, 4))
             if issubclass(cls, base)]
    assert len(codes) == 1, cls
    return codes[0]


@pytest.mark.parametrize("cls", [
    obj for obj in vars(errors).values()
    if isinstance(obj, type) and issubclass(obj, Exception)
    and obj.__module__ == errors.__name__], ids=lambda cls: cls.__name__)
def test_every_error_exits_by_its_base(tmp_path, capsys, monkeypatch, cls):
    def fail(cfg, h0):
        raise cls("raised by the mode handler")

    monkeypatch.setitem(cli._HANDLERS, "solve", fail)
    path = tmp_path / "cfg.json"
    doc = json.loads(cfg_text())
    doc["output"] = {"path": str(tmp_path / "res.json"), "emit_mps": True}
    path.write_text(json.dumps(doc))
    assert cli.main(["--config", str(path)]) == _exit_code_of(cls)
    assert "raised by the mode handler" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


class TestOutputFiles:
    """A run whose output cannot be written exits 2 and leaves no file."""

    def run(self, tmp_path, capsys, outp, **over):
        path = tmp_path / "cfg.json"
        doc = json.loads(cfg_text(**over))
        doc["output"] = {"path": str(outp), "emit_mps": True}
        path.write_text(json.dumps(doc))
        code = cli.main(["--config", str(path)])
        return code, capsys.readouterr().err

    def test_missing_directory(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, tmp_path / "missing" / "r.json")
        assert code == 2
        assert err.startswith("error: cannot write output")
        assert not (tmp_path / "missing").exists()

    def test_result_unwritable_no_mps_written(self, tmp_path, capsys):
        outp = tmp_path / "res.json"
        outp.mkdir()
        code, err = self.run(tmp_path, capsys, outp)
        assert code == 2
        assert err.startswith("error: cannot write output")
        assert not (tmp_path / "res.json.mps.json").exists()

    def test_mps_unwritable_result_removed(self, tmp_path, capsys):
        outp = tmp_path / "res.json"
        (tmp_path / "res.json.mps.json").mkdir()
        code, err = self.run(tmp_path, capsys, outp)
        assert code == 2
        assert err.startswith("error: cannot write output")
        assert not outp.exists()

    def test_eigensolver_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        from dpmps import oracle

        monkeypatch.setattr(oracle, "LANCZOS_MAX_RESTARTS", 0)
        outp = tmp_path / "res.json"
        code, err = self.run(
            tmp_path, capsys, outp,
            model={"name": "random_hermitian", "n": 10, "seed": 1},
            run={"mode": "oracle"})
        assert code == 4
        assert err.startswith("numerical failure:")
        assert not outp.exists()


class TestBadInputExit2:
    """Malformed configs exit 2 with a config error and write no output."""

    def run(self, tmp_path, capsys, doc=None, **over):
        path = tmp_path / "cfg.json"
        outp = tmp_path / "res.json"
        doc = doc or json.loads(cfg_text(**over))
        doc["output"] = {"path": str(outp)}
        path.write_text(json.dumps(doc))
        code = cli.main(["--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:")
        assert not outp.exists()

    def test_non_numeric_param(self, tmp_path, capsys):
        self.run(tmp_path, capsys,
                 model={"name": "transverse_ising", "params": {"g": "abc"}})

    def test_params_not_an_object(self, tmp_path, capsys):
        self.run(tmp_path, capsys, model={"params": [1]})

    @pytest.mark.parametrize("section,key", [("solver", "D"),
                                             ("solver", "cap"),
                                             ("model", "n"), ("model", "seed"),
                                             ("run", "sweeps")])
    def test_bool_integer_field(self, tmp_path, capsys, section, key):
        self.run(tmp_path, capsys, **{section: {key: True}})

    @pytest.mark.parametrize("d,D,mode", [(1, 2, "solve"), (-1, 1, "oracle"),
                                          (2.5, 1, "solve")])
    def test_bad_site_dimension(self, tmp_path, capsys, d, D, mode):
        # d=1 with D=2 looped forever in the boundary grouping, and d=-1
        # exited 1 with a numpy ValueError
        self.run(tmp_path, capsys,
                 model={"name": "random_hermitian", "params": {"d": d}},
                 solver={"D": D}, run={"mode": mode})

    @pytest.mark.parametrize("key,val", [
        ("epsilon_op", 10**400), ("target_error", 10**400),
        ("epsilon", 10**400), ("epsilon", float("inf"))],
        ids=["epsilon_op-1e400", "target_error-1e400", "epsilon-1e400",
             "epsilon-inf"])
    def test_solver_number_not_a_finite_float(self, tmp_path, capsys, key,
                                              val):
        # each exited 1 with an OverflowError, Infinity inside Fraction
        self.run(tmp_path, capsys, solver={key: val},
                 run={"mode": "net-stats"})

    def test_model_param_not_a_finite_float(self, tmp_path, capsys):
        # float(g) raised OverflowError, with exit 1
        self.run(tmp_path, capsys,
                 model={"name": "transverse_ising", "params": {"g": 10**400}})

    def test_target_error_underflow(self, tmp_path, capsys):
        # target_error / (2 J D^2 n^2) rounded to 0.0, and the pair net
        # raised ValueError (exit 1)
        self.run(tmp_path, capsys, solver={"target_error": 5e-324})

    def test_section_not_an_object(self, tmp_path, capsys):
        doc = json.loads(cfg_text())
        doc["solver"] = "x"
        self.run(tmp_path, capsys, doc=doc)

    def test_model_type_error(self, tmp_path, capsys, monkeypatch):
        def bad_model(name, params, n, seed=None):
            raise TypeError("unsupported parameter type")

        monkeypatch.setattr(cli, "build_model", bad_model)
        self.run(tmp_path, capsys)

    @pytest.mark.parametrize("poison", ["not-utf8", "deep", "long-int"])
    def test_undecodable_config(self, tmp_path, capsys, poison):
        # each exited 1 with a traceback: a UnicodeDecodeError, a
        # RecursionError, and a ValueError past the int-to-str digit limit
        doc = json.loads(cfg_text())
        doc["output"] = {"path": str(tmp_path / "res.json")}
        text = json.dumps(doc).encode()
        if poison == "not-utf8":
            text = b"\xff\xfe" + text
        elif poison == "deep":
            text = text[:-1] + b', "x": ' + b"[" * 200_000 + b"]" * 200_000 \
                + b"}"
        else:
            text = text.replace(b'"delta": 0.25', b'"delta": ' + b"7" * 5000)
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        assert cli.main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("emit_mps", [False, True])
    @pytest.mark.parametrize("out_path", [True, 7, ["a"]],
                             ids=["true", "7", "list"])
    def test_output_path_not_a_string(self, tmp_path, capsys, monkeypatch,
                                      out_path, emit_mps):
        # true wrote the result to file descriptor 1 and closed it, 7 wrote
        # to file descriptor 7, and a list exited 1 with a TypeError
        def no_write(files):
            raise AssertionError(f"wrote {files[0][0]!r}")

        monkeypatch.setattr(cli, "_write_all", no_write)
        path = tmp_path / "cfg.json"
        path.write_text(cfg_text(output={"path": out_path,
                                         "emit_mps": emit_mps}))
        assert cli.main(["--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: output.path")
        assert os.listdir(tmp_path) == ["cfg.json"]


# --- fuzzing `main` with generated configs

MODELS = ("zz_chain", "transverse_ising", "heisenberg", "random_hermitian",
          "trap_model", "rotated_classical", "diagonal_commuting")
WRONG = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.lists(st.integers(-2, 2), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(),
                                  max_size=1))


def _field(good):
    """A valid value, or now and then one of a wrong type.  Hypothesis
    draws the ends of an integer range more often than its middle, so the
    wrong type hangs on a middle value."""
    return st.integers(0, 15).flatmap(lambda k: WRONG if k == 7 else good)


def _section(required, optional):
    return _field(st.fixed_dictionaries(
        {k: _field(v) for k, v in required.items()},
        optional={k: _field(v) for k, v in optional.items()}))


# a float-sized epsilon, or one that overflows, is infinite or is subnormal
EPSILON = st.one_of(st.floats(1e-3, 10.0),
                    st.sampled_from((10**400, float("inf"), 1e-320)))

CONFIGS = st.fixed_dictionaries({
    "model": _section(
        {"name": st.sampled_from(MODELS + ("no_such_model",)),
         "n": st.integers(3, 5)},
        {"seed": st.integers(0, 3),
         "params": st.dictionaries(
             st.sampled_from(("g", "d", "x")),
             st.one_of(st.integers(-1, 4),
                       st.floats(allow_nan=True, allow_infinity=True),
                       st.sampled_from((1e308, -1e308))),
             max_size=2)}),
    # cap is always given, so no net grows past 10^4 candidates
    "solver": _section({"cap": st.integers(-1, 10**4)}, {
        "D": st.integers(0, 2),
        "delta": st.sampled_from((0.25, 0.5, 0.0, -0.1, 0.9, 1e-6, 1e-320)),
        "epsilon_op": EPSILON,
        "target_error": EPSILON,
        "epsilon": EPSILON}),
    "run": _section({"mode": st.sampled_from(cli.MODES)},
                    {"sweeps": st.integers(-1, 2),
                     "start": st.sampled_from(("all_up", "all_down"))}),
    "output": _section({}, {"emit_mps": st.booleans()}),
})


def _reject_constant(token):
    raise AssertionError(f"non-JSON token {token} in a written document")


@settings(max_examples=50, deadline=None, database=None)
@given(doc=CONFIGS)
def test_fuzzed_config_keeps_exit_contract(doc):
    """Any config exits 0, 2, 3 or 4, a failed run leaves no file, and a
    successful one writes strict JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        outp = os.path.join(tmp, "res.json")
        if isinstance(doc.get("output"), dict):
            doc["output"]["path"] = outp
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        code = cli.main(["--config", path])
        assert code in (0, 2, 3, 4)
        if code != 0:
            assert os.listdir(tmp) == ["cfg.json"]
            return
        # the result and the MPS document are strict JSON: no NaN or
        # Infinity token
        for name in set(os.listdir(tmp)) - {"cfg.json"}:
            with open(os.path.join(tmp, name), encoding="utf-8") as f:
                json.load(f, parse_constant=_reject_constant)
