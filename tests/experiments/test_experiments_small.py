"""Reduced-size runs of every experiment module: each must produce a
well-formed report whose shape matches the paper's direction. The full
28-pair versions run in benchmarks/ (see EXPERIMENTS.md)."""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    fig1,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    table1,
)
from repro.experiments.pairs import CoRunPair
from repro.obs import EngineWindow

SMALL_PAIRS = [CoRunPair("SPMV", "NN"), CoRunPair("MM", "CFD")]


class TestRegistry:
    def test_every_table_and_figure_has_a_module(self):
        expected = {"table1"} | {f"fig{i}" for i in (1, 7, 8, 9, 10, 11, 12,
                                                     13, 14, 15, 16, 17)}
        assert expected <= set(EXPERIMENTS)
        # extensions (elided/future-work sections we implement anyway)
        assert "ffs3" in EXPERIMENTS

    def test_modules_expose_run(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)


class TestShapes:
    def test_fig1_slowdowns_exceed_one(self, harness):
        report = fig1.run(harness=harness)
        assert len(report.rows) == 28
        assert report.headline["slowdown_max"] > 20
        assert report.headline["slowdown_min"] > 1

    def test_fig7_spmv_worst_regulars_best(self):
        report = fig7.run(n_train=60, n_eval=60)
        errors = {r["benchmark"]: r["mean_error"] for r in report.rows}
        assert max(errors, key=errors.get) == "SPMV"
        assert errors["VA"] < errors["CFD"]
        assert report.headline["mean_error_mean"] < 0.12

    def test_fig8_speedups_match_paper_band(self, harness):
        report = fig8.run(harness=harness)
        assert 6 < report.headline["speedup_mean"] < 18
        assert 20 < report.headline["speedup_max"] < 40
        best = max(report.rows, key=lambda r: r["speedup"])
        assert best["pair"] == "SPMV_NN"  # the paper's 24.2x pair

    def test_fig9_speedup_decays_to_plateau(self, harness):
        report = fig9.run(
            harness=harness,
            pairs=[("SPMV", "NN")],
            fractions=(0.0, 0.5, 1.1),
        )
        speedups = [r["speedup"] for r in report.rows]
        assert speedups[0] > speedups[1] > speedups[2]
        assert speedups[2] == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize(
        "pair", fig9.DEFAULT_PAIRS, ids=lambda p: "_".join(p)
    )
    def test_fig9_zero_delay_point_drains_running_ctas(self, harness, pair):
        """The sweep's first point lands after the low kernel's launch,
        so its temporal preemption drains real work."""
        with EngineWindow(hub=True) as window:
            fig9.run(harness=harness, pairs=[pair], fractions=(0.0,))
        drains = window.hub.stall_latency()["temporal"]
        assert drains["count"] == 1
        assert drains["min_us"] > 0.0

    def test_fig10_antt_improves(self, harness):
        report = fig10.run(harness=harness)
        assert report.headline["antt_improvement_mean"] > 4
        assert all(r["antt_improvement"] > 1 for r in report.rows)

    def test_fig11_degradation_small(self, harness):
        report = fig11.run(harness=harness)
        assert 0.0 < report.headline["stp_degradation_mean"] < 0.10

    def test_fig12_flep_beats_reordering(self, harness):
        report = fig12.run(harness=harness, n_triplets=6)
        assert report.headline["antt_improvement_mean"] > 3
        assert report.headline["reorder_improvement_mean"] < 1.2
        assert report.headline["va_spmv_mm_improvement"] > 15

    def test_fig13_weighted_shares(self):
        report = fig13.run(pairs=SMALL_PAIRS, horizon_us=30_000.0)
        assert report.headline["high_share_mean"] == pytest.approx(
            2 / 3, abs=0.07
        )
        assert report.headline["low_share_mean"] == pytest.approx(
            1 / 3, abs=0.07
        )

    def test_fig14_degradation_near_budget(self):
        report = fig14.run(pairs=SMALL_PAIRS, horizon_us=30_000.0)
        assert 0.02 < report.headline["degradation_mean"] < 0.15

    def test_fig15_spatial_reduces_overhead(self, harness):
        report = fig15.run(harness=harness)
        assert len(report.rows) == 8  # one per victim benchmark
        assert report.headline["reduction_mean"] > 0.10
        assert all(r["ovh_spatial"] < r["ovh_temporal"] for r in report.rows)

    def test_fig16_more_sms_speed_up_guest(self):
        report = fig16.run(cases=[("NN", "CFD")], widths=(2, 6, 12))
        speedups = [r["speedup"] for r in report.rows]
        assert speedups == sorted(speedups)
        assert 1.8 < max(speedups) < 3.0  # paper: ~2.22x

    def test_fig17_overheads(self):
        report = fig17.run()
        assert report.headline["flep_overhead_mean"] < 0.05
        assert (
            report.headline["slicing_overhead_mean"]
            > report.headline["flep_overhead_mean"]
        )
        assert report.headline["va_slicing_beats_flep"] == 1.0
        by_bench = {r["benchmark"]: r for r in report.rows}
        for bench in ("CFD", "MD", "SPMV", "MM"):
            assert (
                by_bench[bench]["slicing_overhead"]
                > 2 * by_bench[bench]["flep_overhead"]
            )

    def test_table1_regenerates(self):
        report = table1.run()
        assert len(report.rows) == 8
        assert report.headline["amortizing_factors_matched"] == 8.0
        assert report.headline["max_rel_error_large_small"] < 0.05
