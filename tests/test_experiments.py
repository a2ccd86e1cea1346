import dataclasses
import json
import threading

import numpy as np
import pytest
import scipy

from rismf import (
    CSV_HEADER,
    ESTIMATORS,
    ExperimentSpec,
    ResultRecord,
    SystemDims,
    aggregate_nmse,
    array_response,
    cascaded_downlink,
    cascaded_uplink,
    dft_phase_schedule,
    downlink_observe,
    estimate_multi_user,
    make_pilot_schedule,
    make_uplink_schedule,
    nmse,
    overhead_table,
    random_phase_schedule,
    random_pilots,
    read_records,
    run_sweep,
    sample_channel,
    simulate_downlink,
    simulate_uplink,
    spectral_efficiency,
    trial_seed,
    uplink_observe,
    write_results,
)
from rismf import experiments, multiuser
from rismf.experiments import _rate


class TestNmse:
    def test_perfect_estimate(self):
        h = np.array([[1.0 + 1j, 2.0], [0.5j, -1.0]])
        assert nmse(h, h.copy()) == 0.0

    def test_scalar_value(self):
        assert nmse(np.array([[2.0 + 0j]]), np.array([[1.0 + 0j]])) == pytest.approx(0.25)

    def test_scale_invariance(self):
        rng = np.random.default_rng(401)
        h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert nmse(3.0 * h, 3.0 * g) == pytest.approx(nmse(h, g))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            nmse(np.zeros((2, 2)), np.ones((2, 2)))


class TestSpectralEfficiency:
    def _rank_one(self, seed, m=6, n=4):
        rng = np.random.default_rng(seed)
        a_bar = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        return np.outer(a_bar, array_response(n, rng.uniform()).conj()), a_bar

    def test_scalar_closed_form(self):
        h = np.array([[0.8 - 0.6j]])
        expected = np.log2(1.0 + 1.0 / 0.5)
        assert spectral_efficiency(h, h, 0.5) == pytest.approx(expected)

    def test_perfect_estimate_matches_optimal(self):
        # the design ignores the estimate's scale and global phase
        h, _ = self._rank_one(411)
        opt = spectral_efficiency(h, h, 0.25)
        est = spectral_efficiency(h, (0.3 - 2j) * h, 0.25)
        assert est == pytest.approx(opt)

    def test_optimal_design_coherent_gain(self):
        # for a rank-one channel the aligned design collects |a_bar| coherently
        h, a_bar = self._rank_one(412)
        gain = np.sum(np.abs(a_bar)) ** 2
        expected = np.log2(1.0 + gain / 2.0)
        assert spectral_efficiency(h, h, 2.0) == pytest.approx(expected)

    def test_optimal_upper_bounds_other_designs(self):
        rng = np.random.default_rng(413)
        h, _ = self._rank_one(414)
        opt = spectral_efficiency(h, h, 1.0)
        for seed in range(20):
            bad = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
            assert spectral_efficiency(h, bad, 1.0) <= opt + 1e-12
            theta = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=6))
            assert _rate(h, theta, array_response(4, rng.uniform()), 1.0) <= opt + 1e-12

    @pytest.mark.parametrize("noise_var", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive_noise_var(self, noise_var):
        h, _ = self._rank_one(415)
        with pytest.raises(ValueError, match="noise variance"):
            spectral_efficiency(h, h, noise_var)


class TestOverheadTable:
    def test_reference_dimensions(self):
        table = overhead_table(SystemDims(n_bs=32, m_ris=50))
        assert table == {"MF_AM": 50, "MF_GD": 50, "LS": 1600, "LR": 82, "KBF": 1600}

    def test_degenerate_dimensions(self):
        table = overhead_table(SystemDims(n_bs=1, m_ris=1))
        assert table == {"MF_AM": 1, "MF_GD": 1, "LS": 1, "LR": 2, "KBF": 1}

    def test_monotone_in_ris_size(self):
        tables = [overhead_table(SystemDims(n_bs=8, m_ris=m)) for m in (4, 8, 16, 32)]
        for key in tables[0]:
            values = [t[key] for t in tables]
            assert values == sorted(values)


class TestSimulate:
    # Seeded sweeps and acceptance criteria rely on the draw order: channel,
    # then schedule, then noise, from one generator.
    def test_downlink_draw_order(self):
        dims = SystemDims(n_bs=4, m_ris=6, k_pilots=12)
        cascade, sched, obs = simulate_downlink(dims, 0.3, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        chan = sample_channel(dims, rng)
        ref_sched = make_pilot_schedule(dims, rng)
        ref = cascaded_downlink(chan.h_r, chan.g_matrix, psi=chan.psi)
        np.testing.assert_array_equal(cascade.h_e, ref.h_e)
        np.testing.assert_array_equal(sched.phases, ref_sched.phases)
        np.testing.assert_array_equal(
            obs.values, downlink_observe(ref, ref_sched, 0.3, rng).values
        )

    def test_uplink_draw_order(self):
        dims = SystemDims(n_bs=4, m_ris=6, k_pilots=8, q_users=2, t_symbols=2)
        cascades, sched, obs = simulate_uplink(dims, 0.3, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        ref_chan = sample_channel(dims, rng)
        ref_sched = make_uplink_schedule(dims)  # draws nothing
        g_up = ref_chan.g_uplink()
        np.testing.assert_array_equal(sched.phases, ref_sched.phases)
        ref_obs = uplink_observe(g_up, ref_chan.h_users, ref_sched, 0.3, rng)
        np.testing.assert_array_equal(obs.values, ref_obs.values)
        # the truths are built after the draws and consume none
        assert len(cascades) == dims.q_users
        for cascade, h_q in zip(cascades, ref_chan.h_users):
            ref = cascaded_uplink(g_up, h_q, psi=ref_chan.psi)
            np.testing.assert_array_equal(cascade.h_e, ref.h_e)
            np.testing.assert_array_equal(cascade.a_bar, ref.a_bar)
            assert cascade.psi == ref_chan.psi


class TestTrialSeed:
    def test_frozen_values(self):
        assert trial_seed(0, "MF_AM", 0, 0, 0) == 2940702682903527636
        assert trial_seed(20260816, "MF", 2, 1, 7) == 7724079890562039207

    def test_determinism(self):
        assert trial_seed(5, "LS", 1, 2, 3) == trial_seed(5, "LS", 1, 2, 3)

    def test_field_sensitivity(self):
        base = (7, "MF_AM", 1, 1, 1)
        seen = {trial_seed(*base)}
        for variant in [
            (8, "MF_AM", 1, 1, 1),
            (7, "MF_GD", 1, 1, 1),
            (7, "MF_AM", 2, 1, 1),
            (7, "MF_AM", 1, 2, 1),
            (7, "MF_AM", 1, 1, 2),
        ]:
            seen.add(trial_seed(*variant))
        assert len(seen) == 6

    def test_valid_generator_seed(self):
        value = trial_seed(123, "LR", 0, 4, 99)
        assert 0 <= value < 2**64
        np.random.default_rng(value)


def tiny_spec(**overrides):
    base = dict(
        scenario="single_user_downlink",
        dims=SystemDims(n_bs=4, m_ris=6),
        snr_grid_db=[0.0, 10.0],
        k_grid=[6, 12],
        estimators=("MF_AM", "LR"),
        n_trials=2,
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_schedule_defaults_by_scenario(self):
        # the downlink trains on random phases, the uplink on the DFT schedule
        dims = SystemDims(n_bs=4, m_ris=6, k_pilots=8, q_users=2, t_symbols=2)
        _, downlink, _ = simulate_downlink(dims, 0.1, np.random.default_rng(7))
        _, uplink, _ = simulate_uplink(dims, 0.1, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        sample_channel(dims, rng)
        random_pilots(4, 8, rng)
        np.testing.assert_array_equal(downlink.phases, random_phase_schedule(6, 8, rng))
        np.testing.assert_array_equal(uplink.phases, dft_phase_schedule(6, 8))

    def test_estimators_default_by_scenario(self):
        uplink_dims = SystemDims(n_bs=4, m_ris=6, q_users=2, t_symbols=2)
        assert tiny_spec(estimators=None).estimators == ("MF_AM", "MF_GD", "LS", "LR")
        for named in (None, (), ["MF"]):
            uplink = tiny_spec(scenario="multi_user_uplink", dims=uplink_dims, estimators=named)
            assert uplink.estimators == ("MF",)

    def test_uplink_rejects_downlink_estimators(self):
        with pytest.raises(ValueError, match="LS"):
            tiny_spec(
                scenario="multi_user_uplink",
                dims=SystemDims(n_bs=4, m_ris=6, q_users=2, t_symbols=2),
                estimators=("LS",),
            )

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            tiny_spec(scenario="sideways_link")

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError):
            tiny_spec(estimators=("MF_AM", "KBF"))

    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            tiny_spec(snr_grid_db=[])
        with pytest.raises(ValueError):
            tiny_spec(k_grid=[])

    def test_rejects_bad_trial_count(self):
        with pytest.raises(ValueError):
            tiny_spec(n_trials=0)

    @pytest.mark.parametrize("field, value", [
        ("snr_grid_db", "10"),
        ("k_grid", "12"),
        ("snr_grid_db", 10.0),
        ("k_grid", (6, 12)),
        ("snr_grid_db", [float("inf")]),
        ("snr_grid_db", [0.0, float("nan")]),
        ("snr_grid_db", ["10"]),
        ("snr_grid_db", [True]),
        ("k_grid", [12.7]),
        ("k_grid", [12, True]),
        ("k_grid", [0]),
        ("k_grid", [-6]),
        ("n_trials", 1.5),
        ("n_trials", True),
        ("n_trials", "2"),
        ("master_seed", 1.7),
        ("master_seed", "7"),
        ("master_seed", True),
        ("dims", [4, 6]),
        ("dims", {"n_bs": True, "m_ris": 6}),
        ("estimators", "MF_AM"),
        ("estimators", ["LR", "LR"]),
        ("estimators", {"LR": 1}),
        # 10^(-SNR/10) overflows to inf, underflows to a noiseless 0, or is inf
        ("snr_grid_db", [-4000.0]),
        ("snr_grid_db", [10.0, 4000.0]),
        ("snr_grid_db", [float("-inf")]),
    ])
    def test_rejects_malformed_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            tiny_spec(**{field: value})

    @pytest.mark.parametrize("scenario, field, value", [
        ("single_user_downlink", "k_pilots", 999),
        ("single_user_downlink", "q_users", 3),
        ("single_user_downlink", "t_symbols", 2),
        ("multi_user_uplink", "k_pilots", 12),
    ])
    @pytest.mark.parametrize("as_mapping", [False, True])
    def test_rejects_dims_the_cells_do_not_read(self, scenario, field, value, as_mapping):
        # k_grid sets the pilot count and a downlink cell has one user, so
        # these fields would select nothing and their record would be false
        dims = dict(n_bs=4, m_ris=6, **{field: value})
        if scenario == "multi_user_uplink":
            dims.update(q_users=2, t_symbols=2)
        with pytest.raises(ValueError, match=f"dims.{field}, got {value}"):
            tiny_spec(scenario=scenario, estimators=(),
                      dims=dims if as_mapping else SystemDims(**dims))

    def test_integer_seed_types_agree(self):
        # a numpy integer seed is stored as the same Python int
        spec = tiny_spec(master_seed=np.int64(99))
        assert spec == tiny_spec() and type(spec.master_seed) is int

    def test_rejects_unknown_schedule(self):
        # each link has one phase design, so a spec may not name one
        with pytest.raises(ValueError, match="schedule_kind"):
            ExperimentSpec.from_dict({**tiny_spec().to_dict(), "schedule_kind": "random"})

    def test_dict_round_trip(self):
        spec = tiny_spec()
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"scenario": "single_user_downlink"})


class TestRunSweep:
    def test_repeatable_and_thread_invariant(self):
        spec = tiny_spec()
        first = run_sweep(spec)
        second = run_sweep(spec)
        threaded = run_sweep(spec, n_threads=3)
        assert first == second == threaded

    @pytest.mark.parametrize("scenario", ["single_user_downlink", "multi_user_uplink"])
    @pytest.mark.parametrize("n_threads", [2, 4])
    def test_cells_run_on_the_calling_thread(self, monkeypatch, scenario, n_threads):
        if scenario == "multi_user_uplink":
            spec = tiny_spec(scenario=scenario, estimators=(), k_grid=[6, 12],
                             dims=SystemDims(n_bs=4, m_ris=6, q_users=2, t_symbols=2))
        else:
            spec = tiny_spec()
        serial = run_sweep(spec)
        idents = []
        for name in ("_single_user_cell", "_multi_user_cell"):
            def recorded(*args, _body=getattr(experiments, name)):
                idents.append(threading.get_ident())
                return _body(*args)
            monkeypatch.setattr(experiments, name, recorded)

        assert run_sweep(spec, n_threads=n_threads) == serial
        assert len(idents) == sum(r.nmse is not None for r in serial) > 0
        assert set(idents) == {threading.get_ident()}

    @pytest.mark.parametrize("n_threads", [0, -3, True, 1.5, "2"])
    def test_bad_thread_count_rejected(self, n_threads):
        with pytest.raises(ValueError, match="n_threads"):
            run_sweep(tiny_spec(), n_threads=n_threads)

    def test_cell_count_and_order(self):
        spec = tiny_spec()
        records = run_sweep(spec)
        assert len(records) == 2 * 2 * 2 * 2
        key = [(r.estimator, r.snr_db, r.k, r.trial) for r in records]
        assert key == sorted(key, key=lambda t: (spec.estimators.index(t[0]), t[1], t[2], t[3]))

    def test_infeasible_cells_are_marked(self):
        spec = tiny_spec(estimators=("LS",), k_grid=[6, 12])
        records = run_sweep(spec)
        assert all(r.nmse is None and r.se is None for r in records)

    def test_feasible_cells_have_metrics(self):
        spec = tiny_spec(estimators=("MF_AM",), k_grid=[12], snr_grid_db=[20.0])
        records = run_sweep(spec)
        assert all(r.nmse is not None and r.nmse >= 0.0 for r in records)
        assert all(r.se is not None and r.se > 0.0 for r in records)

    def test_multi_user_records(self):
        spec = ExperimentSpec(
            scenario="multi_user_uplink",
            dims=SystemDims(n_bs=4, m_ris=6, q_users=2, t_symbols=2),
            snr_grid_db=[10.0],
            k_grid=[6, 12],
            estimators=(),
            n_trials=2,
            master_seed=3,
        )
        records = run_sweep(spec)
        assert len(records) == 4
        assert all(r.estimator == "MF" and r.se is None for r in records)
        assert all(r.nmse is not None for r in records)
        assert spec.to_dict()["estimators"] == ["MF"]

    def test_static_table_scenario_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                scenario="overhead_table",
                dims=SystemDims(n_bs=4, m_ris=6),
                snr_grid_db=[],
                k_grid=[],
            )

    def test_nmse_non_increasing_in_snr(self):
        # Reduced dimensions keep this under ~15 s; the median is used
        # because per-trial normalization makes the mean heavy tailed at
        # this trial count.  Deterministic given the master seed.
        spec = ExperimentSpec(
            scenario="single_user_downlink",
            dims=SystemDims(n_bs=8, m_ris=12),
            snr_grid_db=[-5.0, 0.0, 5.0, 10.0, 15.0, 20.0],
            k_grid=[48],
            estimators=("MF_AM", "LR"),
            n_trials=40,
            master_seed=11,
        )
        records = run_sweep(spec)
        for est in spec.estimators:
            medians = []
            for snr in spec.snr_grid_db:
                cell = [r.nmse for r in records if r.estimator == est and r.snr_db == snr]
                assert len(cell) == spec.n_trials
                medians.append(float(np.median(cell)))
            for lo, hi in zip(medians[1:], medians[:-1]):
                assert lo <= hi, f"{est}: median NMSE rose from {hi:.3e} to {lo:.3e}"


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        spec = tiny_spec()
        records = run_sweep(spec)
        out = tmp_path / "sweep.csv"
        write_results(records, out, spec=spec)
        assert read_records(out) == records

    @pytest.mark.parametrize("scenario", ["single_user_downlink", "multi_user_uplink"])
    def test_rerun_from_the_sidecar_spec_is_byte_identical(self, tmp_path, scenario):
        spec = tiny_spec()
        if scenario == "multi_user_uplink":
            spec = tiny_spec(scenario=scenario, estimators=(), k_grid=[6, 12],
                             dims=SystemDims(n_bs=4, m_ris=6, q_users=2, t_symbols=2))
        first, rerun = tmp_path / "first.csv", tmp_path / "rerun.csv"
        write_results(run_sweep(spec), first, spec=spec)
        meta = json.loads((tmp_path / "first.csv.meta.json").read_text())
        recorded = ExperimentSpec.from_dict(meta["spec"])
        assert recorded == spec
        write_results(run_sweep(recorded), rerun, spec=recorded)
        assert rerun.read_bytes() == first.read_bytes()

    def test_json_round_trip(self, tmp_path):
        records = run_sweep(tiny_spec())
        out = tmp_path / "sweep.json"
        write_results(records, out, format="json")
        back = read_records(out, format="json")
        assert back == records
        energies = [(r.error_energy, r.reference_energy) for r in records]
        assert [(r.error_energy, r.reference_energy) for r in back] == energies

    def test_json_without_energies_reads(self, tmp_path):
        # the layout of files written before records carried energies
        raw = dataclasses.asdict(ResultRecord("single_user_downlink", "LS", 0.0, 3, 0, 17, 0.5, None))
        del raw["error_energy"], raw["reference_energy"]
        out = tmp_path / "old.json"
        out.write_text(json.dumps([raw]))
        (record,) = read_records(out, format="json")
        assert record.nmse == 0.5 and record.error_energy is None and record.reference_energy is None

    @pytest.mark.parametrize("estimator", ["a,b", "a\nb", "a\rb", 5])
    def test_unwritable_label_rejected(self, tmp_path, estimator):
        record = ResultRecord("single_user_downlink", estimator, 0.0, 3, 0, 17, 0.5, None)
        with pytest.raises(ValueError, match="estimator"):
            write_results([record], tmp_path / "bad.csv")

    def test_empty_records_write_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        write_results([], out)
        assert out.read_text() == CSV_HEADER + "\n"

    def test_infeasible_token(self, tmp_path):
        record = ResultRecord("single_user_downlink", "LS", 0.0, 3, 0, 17, None, None)
        out = tmp_path / "marked.csv"
        write_results([record], out)
        assert ",infeasible,\n" in out.read_text()
        assert read_records(out)[0].nmse is None

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nan_rejected(self, tmp_path, value):
        record = ResultRecord("single_user_downlink", "LS", 0.0, 3, 0, 17, value, None)
        with pytest.raises(ValueError):
            write_results([record], tmp_path / "bad.csv")

    def test_meta_sidecar(self, tmp_path):
        spec = tiny_spec()
        out = tmp_path / "sweep.csv"
        write_results(run_sweep(spec), out, spec=spec)
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert "version" in meta
        assert ExperimentSpec.from_dict(meta["spec"]) == spec

    def test_meta_sidecar_records_the_blas_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "sweep.csv"
        write_results(run_sweep(tiny_spec()), out)
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["numpy"] == np.__version__ and meta["scipy"] == scipy.__version__
        assert meta["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None
        }

    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_json_key_mismatch_rejected(self, tmp_path, change):
        raw = dataclasses.asdict(ResultRecord("single_user_downlink", "LS", 0.0, 3, 0, 17, 0.5, None))
        if change == "extra":
            raw["wall_time_ms"] = 0.0  # a column older files carried
        else:
            del raw["seed"]
        out = tmp_path / "old.json"
        out.write_text(json.dumps([raw]))
        with pytest.raises(ValueError, match="keys"):
            read_records(out, format="json")

    @pytest.mark.parametrize("row", ["single_user_downlink,LS,0.0,3,0,17,0.5",
                                     "single_user_downlink,LS,0.0,3,0,17,0.5,,"])
    def test_csv_row_width_rejected(self, tmp_path, row):
        out = tmp_path / "short.csv"
        out.write_text(f"{CSV_HEADER}\n{row}\n")
        with pytest.raises(ValueError, match="cells"):
            read_records(out)

    @pytest.mark.parametrize("value", ["nan", "-0.5"])
    def test_invalid_csv_record_rejected(self, tmp_path, value):
        out = tmp_path / "bad.csv"
        out.write_text(f"{CSV_HEADER}\nsingle_user_downlink,LS,0.0,3,0,17,{value},\n")
        with pytest.raises(ValueError, match="nmse"):
            read_records(out)

    @pytest.mark.parametrize("value", [float("nan"), -0.5, "0.5"])
    def test_invalid_json_record_rejected(self, tmp_path, value):
        raw = dataclasses.asdict(ResultRecord("single_user_downlink", "LS", 0.0, 3, 0, 17, value, None))
        out = tmp_path / "bad.json"
        out.write_text(json.dumps([raw]))
        with pytest.raises(ValueError, match="nmse"):
            read_records(out, format="json")

    @pytest.mark.parametrize("name,value", [
        ("snr_db", "high"), ("snr_db", float("nan")), ("k", "x"), ("k", 3.0), ("k", True),
        ("k", -3), ("trial", -1), ("trial", None), ("seed", "17"),
        ("scenario", 5), ("scenario", "a\nb"), ("estimator", "a,b"), ("estimator", "a\rb"),
        ("estimator", 5), ("error_energy", float("nan")), ("error_energy", -0.5),
        ("error_energy", "0.5"), ("error_energy", None), ("reference_energy", 0.0),
        ("reference_energy", float("inf")), ("reference_energy", None),
        ("snr_db", True), ("nmse", True), ("se", False), ("error_energy", True),
        ("reference_energy", True),
    ])
    def test_invalid_json_field_rejected(self, tmp_path, name, value):
        raw = dataclasses.asdict(ResultRecord("single_user_downlink", "LS", 0.0, 3, 0, 17, 0.5, None,
                                              0.25, 0.5))
        raw[name] = value
        out = tmp_path / "bad.json"
        out.write_text(json.dumps([raw]))
        with pytest.raises(ValueError, match=name):
            read_records(out, format="json")

    def test_header_mismatch_rejected(self, tmp_path):
        out = tmp_path / "tampered.csv"
        out.write_text("scenario,estimator\n")
        with pytest.raises(ValueError):
            read_records(out)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_results([], tmp_path / "x.bin", format="parquet")
        with pytest.raises(ValueError):
            read_records(tmp_path / "missing.bin", format="parquet")

    def test_byte_identical_rewrites(self, tmp_path):
        spec = tiny_spec()
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_results(run_sweep(spec), a, spec=spec)
        write_results(run_sweep(spec, n_threads=2), b, spec=spec)
        assert a.read_bytes() == b.read_bytes()


class TestResultRecord:
    def test_negative_nmse_rejected(self):
        record = ResultRecord("single_user_downlink", "LS", 0.0, 3, 0, 17, -1.0, None)
        with pytest.raises(ValueError):
            record.validate()


def _hand_energies(truths, estimates):
    error = sum(float(np.sum(np.abs(h_hat - h) ** 2)) for h, h_hat in zip(truths, estimates))
    reference = sum(float(np.sum(np.abs(h) ** 2)) for h in truths)
    return error, reference


class TestCellEnergies:
    """Sweep records carry the energies a hand loop over the simulators gives,
    seeded by ``trial_seed``: the reference for every aggregate NMSE."""

    def test_downlink_matches_hand_loop(self):
        spec = tiny_spec(estimators=tuple(ESTIMATORS), k_grid=[6, 24], snr_grid_db=[0.0, 20.0])
        records = run_sweep(spec)
        assert any(r.nmse is None for r in records)  # LS and LR below their floors
        hand = []
        for r in records:
            snr_index, k_index = spec.snr_grid_db.index(r.snr_db), spec.k_grid.index(r.k)
            seed = trial_seed(spec.master_seed, r.estimator, snr_index, k_index, r.trial)
            entry = ESTIMATORS[r.estimator]
            if r.k < entry.min_pilots(4, 6):
                assert r.nmse is None and (r.error_energy, r.reference_energy) == (None, None)
                continue
            dims = SystemDims(n_bs=4, m_ris=6, k_pilots=r.k)
            cascade, sched, obs = simulate_downlink(
                dims, 10.0 ** (-r.snr_db / 10.0), np.random.default_rng(seed))
            hand.append(_hand_energies([cascade.h_e], [entry.estimate(obs, sched)]))
            assert (r.error_energy, r.reference_energy) == hand[-1]
        feasible = [r for r in records if r.nmse is not None]
        assert aggregate_nmse(feasible) == sum(e for e, _ in hand) / sum(h for _, h in hand)

    def test_uplink_matches_hand_loop(self):
        dims = SystemDims(n_bs=4, m_ris=6, q_users=2, t_symbols=2)
        spec = tiny_spec(scenario="multi_user_uplink", dims=dims, estimators=(),
                         snr_grid_db=[10.0], k_grid=[6, 12], n_trials=3)
        records = run_sweep(spec)
        for r in records:
            seed = trial_seed(spec.master_seed, "MF", 0, spec.k_grid.index(r.k), r.trial)
            cascades, sched, obs = simulate_uplink(
                dataclasses.replace(dims, k_pilots=r.k), 0.1, np.random.default_rng(seed))
            h_hats = estimate_multi_user(obs, sched).h_hats
            truths = [cascade.h_e for cascade in cascades]
            assert (r.error_energy, r.reference_energy) == _hand_energies(truths, h_hats)

    def test_aggregate_needs_energies(self, tmp_path):
        spec = tiny_spec(estimators=("MF_AM",), k_grid=[12])
        out = tmp_path / "sweep.csv"
        write_results(run_sweep(spec), out)
        with pytest.raises(ValueError, match="energies"):
            aggregate_nmse(read_records(out))
        with pytest.raises(ValueError, match="energies"):
            aggregate_nmse(run_sweep(tiny_spec(estimators=("LS",), k_grid=[6])))
        with pytest.raises(ValueError):
            aggregate_nmse([])


class TestRebindableEntryPoints:
    """A span tracer wraps the sweep's cell bodies and the uplink stage-2 solve
    by rebinding their module-global names. Every call must go through those
    names, so a counting wrapper sees each cell body once per feasible cell and
    ``estimate_a_q`` once per ``estimate_multi_user`` call."""

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_one_body_call_per_feasible_cell(self, monkeypatch, n_threads):
        single = self.count_calls(monkeypatch, experiments, "_single_user_cell")
        multi = self.count_calls(monkeypatch, experiments, "_multi_user_cell")
        stage_two = self.count_calls(monkeypatch, multiuser, "estimate_a_q")

        # LR needs m + n = 10 pilots, so its K=6 cells are infeasible
        down = run_sweep(tiny_spec(), n_threads=n_threads)
        feasible = sum(r.nmse is not None for r in down)
        assert 0 < feasible < len(down)
        assert (len(single), len(multi), len(stage_two)) == (feasible, 0, 0)

        # MF needs k >= m = 6 blocks, so the K=4 cells are infeasible
        dims = SystemDims(n_bs=4, m_ris=6, q_users=2, t_symbols=2)
        up = run_sweep(tiny_spec(scenario="multi_user_uplink", dims=dims, estimators=(),
                                 k_grid=[4, 6, 12]), n_threads=n_threads)
        feasible_up = sum(r.nmse is not None for r in up)
        assert 0 < feasible_up < len(up)
        assert (len(single), len(multi), len(stage_two)) == (feasible, feasible_up, feasible_up)

    def test_stage_two_once_per_multi_user_estimate(self, monkeypatch):
        stage_two = self.count_calls(monkeypatch, multiuser, "estimate_a_q")
        dims = SystemDims(n_bs=4, m_ris=6, k_pilots=12, q_users=3, t_symbols=3)
        _, sched, obs = simulate_uplink(dims, 0.1, np.random.default_rng(5))
        for _ in range(3):
            estimate_multi_user(obs, sched)
        assert len(stage_two) == 3
        assert stage_two[0][1] is sched
