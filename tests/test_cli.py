import json

import numpy as np
import pytest

from rismf import acceptance, read_records, trial_seed
from rismf.acceptance import Criterion
from rismf.cli import main


def write_config(path, **overrides):
    body = dict(
        dims=dict(n_bs=4, m_ris=6),
        snr_grid_db=[10.0],
        k_grid=[12],
        estimators=["MF_AM"],
        n_trials=2,
        master_seed=1,
    )
    body.update(overrides)
    path.write_text(json.dumps(body))
    return str(path)


class TestSweepCommands:
    def test_single_user_run(self, tmp_path, capsys):
        # three trials, so the median and the mean differ
        config = write_config(tmp_path / "spec.json", n_trials=3)
        out = tmp_path / "results.csv"
        assert main(["single-user", "--config", config, "--out", str(out)]) == 0
        records = read_records(out)
        assert len(records) == 3
        assert all(r.scenario == "single_user_downlink" for r in records)
        stdout = capsys.readouterr().out
        assert "3 records" in stdout
        assert f"wrote {out}" in stdout
        median = np.median([r.nmse for r in records])
        assert f"median NMSE {median:.4e}  (3 trials)" in stdout

    def test_multi_user_run(self, tmp_path):
        config = write_config(
            tmp_path / "spec.json",
            scenario="multi_user_uplink",
            dims=dict(n_bs=4, m_ris=6, q_users=2, t_symbols=2),
            estimators=[],
        )
        out = tmp_path / "uplink.csv"
        assert main(["multi-user", "--config", config, "--out", str(out)]) == 0
        records = read_records(out)
        assert all(r.estimator == "MF" for r in records)

    def test_default_output_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path / "spec.json")
        assert main(["single-user", "--config", config]) == 0
        assert (tmp_path / "single_user_downlink.csv").exists()

    def test_json_format(self, tmp_path):
        config = write_config(tmp_path / "spec.json")
        out = tmp_path / "results.json"
        code = main(["single-user", "--config", config, "--out", str(out),
                     "--format", "json"])
        assert code == 0
        assert read_records(out, format="json")

    def test_summary_prints_aggregate_nmse(self, tmp_path, capsys):
        config = write_config(tmp_path / "spec.json", estimators=["MF_AM", "LR"],
                              snr_grid_db=[0.0, 10.0], n_trials=3)
        out = tmp_path / "results.json"
        assert main(["single-user", "--config", config, "--out", str(out),
                     "--format", "json"]) == 0
        stdout = capsys.readouterr().out
        raw = json.loads(out.read_text())
        for estimator in ("MF_AM", "LR"):
            for snr_db in (0.0, 10.0):
                cell = [r for r in raw if (r["estimator"], r["snr_db"]) == (estimator, snr_db)]
                agg = (sum(r["error_energy"] for r in cell)
                       / sum(r["reference_energy"] for r in cell))
                assert (f"{estimator:6s} snr {snr_db:+6.1f} dB  K    12  "
                        f"aggregate NMSE {agg:.4e}  ") in stdout

    def test_seed_and_trial_overrides(self, tmp_path):
        config = write_config(tmp_path / "spec.json")
        out = tmp_path / "results.csv"
        code = main(["single-user", "--config", config, "--out", str(out),
                     "--seed", "7", "--trials", "1"])
        assert code == 0
        records = read_records(out)
        assert len(records) == 1
        assert records[0].seed == trial_seed(7, "MF_AM", 0, 0, 0)

    @pytest.mark.parametrize("command", ["single-user", "multi-user"])
    def test_threads_do_not_change_results(self, tmp_path, command):
        if command == "single-user":
            config = write_config(tmp_path / "spec.json")
        else:
            config = write_config(
                tmp_path / "spec.json",
                scenario="multi_user_uplink",
                dims=dict(n_bs=4, m_ris=6, q_users=2, t_symbols=2),
                k_grid=[12, 24],
                estimators=[],
            )
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        assert main([command, "--config", config, "--out", str(serial)]) == 0
        assert main([command, "--config", config, "--out", str(threaded),
                     "--threads", "3"]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    def test_scenario_mismatch(self, tmp_path, capsys):
        config = write_config(tmp_path / "spec.json", scenario="single_user_downlink")
        assert main(["multi-user", "--config", config]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["single-user", "--config", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        config = tmp_path / "spec.json"
        config.write_text("[1, 2]")
        assert main(["single-user", "--config", str(config)]) == 1
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        dict(snr_grid_db="10", k_grid="12"),
        dict(k_grid=[12.7, True]),
        dict(k_grid=[0]),
        dict(n_trials=1.5),
        dict(dims=[4, 6]),
        dict(master_seed=1.7),
        dict(master_seed="7"),
        dict(master_seed=True),
        dict(dims=dict(n_bs=True, m_ris=6)),
        dict(threads=0),
        dict(threads=-3),
        dict(estimators="MF_AM"),
        dict(estimators=["MF_AM", "MF_AM"]),
        dict(schedule_kind="random"),
        # 10^(-SNR/10) overflows to inf, or underflows to a noiseless 0
        dict(snr_grid_db=[-4000.0]),
        dict(snr_grid_db=[4000.0]),
    ])
    def test_malformed_spec_exits_1(self, tmp_path, capsys, overrides):
        overrides = dict(overrides)
        threads = str(overrides.pop("threads", 1))
        config = write_config(tmp_path / "spec.json", **overrides)
        out = tmp_path / "results.csv"
        assert main(["single-user", "--config", config, "--out", str(out),
                     "--threads", threads]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, field, dims", [
        ("single-user", "k_pilots", dict(n_bs=4, m_ris=6, k_pilots=999)),
        ("single-user", "q_users", dict(n_bs=4, m_ris=6, q_users=3)),
        ("single-user", "t_symbols", dict(n_bs=4, m_ris=6, t_symbols=2)),
        ("multi-user", "k_pilots", dict(n_bs=4, m_ris=6, k_pilots=12, q_users=2, t_symbols=2)),
    ])
    def test_dims_that_select_nothing_exit_1(self, tmp_path, capsys, command, field, dims):
        scenario = "single_user_downlink" if command == "single-user" else "multi_user_uplink"
        config = write_config(tmp_path / "spec.json", scenario=scenario, dims=dims, estimators=[])
        out = tmp_path / "results.csv"
        assert main([command, "--config", config, "--out", str(out)]) == 1
        assert f"dims.{field}" in capsys.readouterr().err
        # neither the CSV nor its .meta.json sidecar is written
        assert list(tmp_path.iterdir()) == [tmp_path / "spec.json"]

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["single-user", "--config", str(tmp_path / "absent.json")]) == 2
        assert "i/o error:" in capsys.readouterr().err


class TestOverheadCommand:
    def test_stdout_table(self, capsys):
        assert main(["overhead"]) == 0
        stdout = capsys.readouterr().out
        assert "estimator,min_pilots" in stdout
        assert "LS,1600" in stdout

    def test_custom_dims(self, tmp_path, capsys):
        config = tmp_path / "dims.json"
        config.write_text(json.dumps({"dims": {"n_bs": 2, "m_ris": 3}}))
        assert main(["overhead", "--config", str(config)]) == 0
        assert "LS,6" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "body",
        [{"dims": {"n_bs": 2, "m_ris": 3, "antennas": 4}}, [2, 3], {"dims": [2, 3]},
         {"dims": {"n_bs": True, "m_ris": 6}}, {"n_bs": 2, "m_ris": 3},
         {"dims": {"n_bs": 2, "m_ris": 3, "q_users": 4}}],
        ids=["unknown-key", "list", "dims-list", "bool-count", "bare-dims", "unread-field"],
    )
    def test_bad_config_is_an_invalid_spec(self, tmp_path, capsys, body):
        config = tmp_path / "dims.json"
        config.write_text(json.dumps(body))
        assert main(["overhead", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_dims_key_is_named(self, tmp_path, capsys):
        config = tmp_path / "dims.json"
        config.write_text(json.dumps({"n_bs": 2, "m_ris": 3}))
        assert main(["overhead", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: config {config} has no 'dims' key\n"

    def test_json_output_file(self, tmp_path):
        out = tmp_path / "overhead.json"
        assert main(["overhead", "--out", str(out), "--format", "json"]) == 0
        table = json.loads(out.read_text())
        assert table["LS"] == 1600 and table["LR"] == 82

    def test_json_stdout(self, capsys):
        assert main(["overhead", "--format", "json"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["LS"] == 1600 and table["LR"] == 82


class TestVerifyCommand:
    def test_single_fast_criterion(self, capsys):
        assert main(["verify", "gradient-correctness"]) == 0
        stdout = capsys.readouterr().out
        assert "PASS gradient-correctness" in stdout
        assert "all 1 criteria passed" in stdout

    def test_expected_failure_exits_0(self, capsys):
        assert main(["verify", "noiseless-mf-exactness"]) == 0
        stdout = capsys.readouterr().out
        assert "XFAIL noiseless-mf-exactness" in stdout
        assert stdout.splitlines()[-1] == "1 criteria: 1 XFAIL"

    @pytest.mark.parametrize("unattainable, status", [("never", "XPASS"), (None, "FAIL")])
    def test_xpass_or_fail_exits_3(self, monkeypatch, capsys, unattainable, status):
        passes = unattainable is not None
        monkeypatch.setattr(acceptance, "CRITERIA", (
            Criterion("fine", lambda: (True, "ok")),
            Criterion("odd", lambda: (passes, "odd"), unattainable=unattainable),
        ))
        assert main(["verify"]) == 3
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[1].startswith(f"{status} odd (")
        assert stdout[-1] == f"2 criteria: 1 PASS, 1 {status}"

    def test_unknown_criterion(self, capsys):
        assert main(["verify", "telepathy"]) == 1
        assert "unknown criteria" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_flag_value(self):
        with pytest.raises(SystemExit) as exc:
            main(["single-user", "--format", "xml"])
        assert exc.value.code == 1
