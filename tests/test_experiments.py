"""Integration tests: every experiment runs end-to-end at a tiny scale
and reproduces the paper's qualitative shape."""

import math

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import BenchScale
from repro.bench.reporting import render

TINY = BenchScale(
    n=6_000, leaf_capacity=32, point_lookups=200, range_lookups=10,
    repeats=2, seed=7,
)


@pytest.fixture(scope="module")
def results():
    """Run every experiment once at the tiny scale (module-cached)."""
    return {exp_id: fn(TINY) for exp_id, fn in EXPERIMENTS.items()}


def check_with_retry(results, exp_id, check, retries=2):
    """Run ``check`` on a result; on failure re-run the experiment.

    Wall-clock-based shape assertions can flake on a loaded single-core
    machine; work-proportional assertions never need this.
    """
    try:
        check(results[exp_id])
        return
    except AssertionError:
        last = None
        for _ in range(retries):
            try:
                check(EXPERIMENTS[exp_id](TINY))
                return
            except AssertionError as exc:
                last = exc
        raise last


class TestAllExperimentsRun:
    def test_registry_covers_every_figure_and_table(self):
        expected = {
            "fig1a", "fig1b", "fig3", "fig5a", "fig5b", "fig8", "fig9",
            "fig10a", "fig10b", "fig10c", "fig11", "fig12", "fig13",
            "fig14", "fig15", "tab1", "tab2", "tab3", "ablation",
            "mixed_rw", "cache", "fig13real", "betree",
        }
        assert set(EXPERIMENTS) == expected

    def test_every_result_renders(self, results):
        for exp_id, result in results.items():
            text = render(result)
            assert exp_id in text
            assert result.rows, exp_id

    def test_columns_present_in_rows(self, results):
        for exp_id, result in results.items():
            for row in result.rows:
                missing = set(result.columns) - set(row)
                assert not missing, (exp_id, missing)


class TestShapes:
    def test_fig3_tail_collapses(self, results):
        rows = results["fig3"].rows
        assert rows[0]["fast_pct"] == 100.0  # K=0
        assert rows[-1]["fast_pct"] < 15.0   # K=10%

    def test_fig5a_lil_dominates_tail(self, results):
        # Tolerance covers statistical ties in the ~100% regime.
        for row in results["fig5a"].rows:
            assert row["lil_fast_pct"] >= row["tail_fast_pct"] - 0.5

    def test_fig5b_model_ordering(self, results):
        for row in results["fig5b"].rows:
            assert (
                row["ideal_pct"] + 1e-9
                >= row["lil_eq1_pct"]
                >= row["tail_model_pct"] - 1e-9
            )
            assert row["lil_sim_pct"] == pytest.approx(
                row["lil_eq1_pct"], abs=2.0
            )

    def test_fig8_quit_wins_when_near_sorted(self, results):
        def check(result):
            sorted_row = result.rows[0]
            assert sorted_row["quit_x"] > 1.3
            assert sorted_row["tail_x"] > 1.3
            # tail degrades once data is slightly unsorted; QuIT holds.
            k3 = result.row_for("k_pct", 3)
            assert k3["quit_x"] > k3["tail_x"] * 0.95

        check_with_retry(results, "fig8", check)

    def test_fig9_ordering(self, results):
        for row in results["fig9"].rows:
            if 0 < row["k_pct"] <= 50:
                assert row["quit_fast_pct"] >= row["tail_fast_pct"]
        k25 = results["fig9"].row_for("k_pct", 25)
        assert k25["quit_fast_pct"] > k25["lil_fast_pct"]

    def test_fig10a_quit_occupancy_dominates(self, results):
        for row in results["fig10a"].rows:
            assert row["quit_occ_pct"] >= row["btree_occ_pct"] - 6
        sorted_row = results["fig10a"].row_for("k_pct", 0)
        assert sorted_row["quit_occ_pct"] > 90
        assert sorted_row["btree_occ_pct"] < 60

    def test_fig10b_no_read_penalty(self, results):
        def check(result):
            ratios = [row["normalized"] for row in result.rows]
            # No read overhead: on average within noise of 1.0.
            mean = sum(ratios) / len(ratios)
            assert mean < 1.15

        check_with_retry(results, "fig10b", check)

    def test_fig10c_fewer_accesses_when_sorted(self, results):
        # The 0.1% selectivity touches only 1-2 leaves at tiny scale, so
        # the reduction shows at the wider selectivities.
        sorted_row = results["fig10c"].rows[0]
        assert sorted_row["sel_1pct_x"] > 1.3
        assert sorted_row["sel_10pct_x"] > 1.5

    def test_fig11_quit_beats_lil_at_low_sortedness(self, results):
        # At very small L (displacements within a leaf's range) both
        # fast paths behave alike, so the comparison targets L >= 25%.
        for row in results["fig11"].rows:
            if row["k_pct"] >= 25 and row["l_pct"] >= 25:
                assert (
                    row["quit_fast_pct"] >= row["lil_fast_pct"] - 3
                )

    def test_fig12_pole_traps_quit_recovers(self, results):
        rows = results["fig12"].rows
        last = rows[-1]
        assert last["QuIT_fast"] > last["pole-B+-tree_fast"]
        assert last["QuIT_fast"] > last["tail-B+-tree_fast"]
        # pole flatlines after the first scrambled segment.
        assert (
            rows[-1]["pole-B+-tree_fast"]
            <= rows[1]["pole-B+-tree_fast"] * 1.2
        )

    def test_fig13_quit_insert_ceiling_higher(self, results):
        rows = results["fig13"].rows
        by = {
            (r["workload"], r["sortedness"], r["index"]): r for r in rows
        }
        quit16 = by[("inserts", "nearly sorted", "QuIT")]["t16"]
        btree16 = by[("inserts", "nearly sorted", "B+-tree")]["t16"]
        assert quit16 > 1.3 * btree16
        # Lookups scale similarly for both.
        ql = by[("lookups", "nearly sorted", "QuIT")]
        bl = by[("lookups", "nearly sorted", "B+-tree")]
        assert ql["t8"] / ql["t1"] == pytest.approx(
            bl["t8"] / bl["t1"], rel=0.2
        )

    def test_fig14_quit_faster_than_sware(self, results):
        def check(result):
            for row in result.rows:
                assert row["quit_insert_us"] < row["sware_insert_us"]
                if row["k_pct"] > 0:
                    assert (
                        row["quit_lookup_us"]
                        < row["sware_lookup_us"] * 1.1
                    )

        check_with_retry(results, "fig14", check)

    def test_fig15_quit_and_lil_beat_plain_btree(self, results):
        def check(result):
            for row in result.rows:
                if row["index"] in ("QuIT", "lil-B+-tree"):
                    assert row["speedup_x"] > 1.1
                if row["index"] == "QuIT":
                    assert row["fast_pct"] > 60

        check_with_retry(results, "fig15", check)

    def test_tab1_quit_under_20_bytes(self, results):
        quit_row = results["tab1"].row_for("index", "QuIT")
        assert 0 < quit_row["extra_vs_lil_bytes"] < 20

    def test_tab2_reduction_shrinks_with_k(self, results):
        rows = results["tab2"].rows
        assert rows[0]["reduction_x"] > 1.7  # paper: 1.96x at K=0
        assert rows[-1]["reduction_x"] == pytest.approx(1.0, abs=0.12)
        reductions = [r["reduction_x"] for r in rows]
        assert reductions[0] == max(reductions)

    def test_tab3_fast_fraction_stable_across_sizes(self, results):
        rows = results["tab3"].rows
        by_sortedness: dict[str, list[float]] = {}
        for row in rows:
            by_sortedness.setdefault(row["sortedness"], []).append(
                row["fast_pct"]
            )
        for label, fracs in by_sortedness.items():
            assert max(fracs) - min(fracs) < 12, label
        assert all(
            f == pytest.approx(100.0)
            for f in by_sortedness["fully sorted"]
        )

    def test_ablation_features_matter(self, results):
        rows = results["ablation"].rows
        by = {(r["workload"], r["index"]): r for r in rows}
        stress_full = by[("stress (Fig.12)", "QuIT")]["fast_pct"]
        stress_no_reset = by[("stress (Fig.12)", "QuIT-no-reset")]["fast_pct"]
        assert stress_full > stress_no_reset + 15
        near_full_occ = by[("near-sorted (K=5%)", "QuIT")]["occ_pct"]
        near_50_occ = by[("near-sorted (K=5%)", "QuIT-50%-split")]["occ_pct"]
        assert near_full_occ > near_50_occ + 8

    def test_betree_flat_vs_quit_proportional(self, results):
        # QuIT's work swings with sortedness far more than the Be-tree's
        # (the §6 sortedness-unawareness argument), read off the
        # deterministic work counters.  The wall-clock form of this
        # claim is a gate in benchmarks/test_betree_baseline.py.
        rows = results["betree"].rows
        be = [r["betree_moves_per_insert"] for r in rows]
        qt = [r["quit_fast_insert_fraction"] for r in rows]
        assert (max(qt) / min(qt)) > 1.5 * (max(be) / min(be))

    def test_fig13real_runs_and_is_flat(self, results):
        def check(result):
            by = {
                (r["index"], r["threads"]): r["kops_per_sec"]
                for r in result.rows
            }
            # GIL: no superlinear scaling; the wrapper must stay correct
            # and at worst mildly degrade with threads.
            for name in ("B+-tree", "QuIT"):
                assert by[(name, 4)] < by[(name, 1)] * 2.0
                assert by[(name, 4)] > 0

        check_with_retry(results, "fig13real", check)

    def test_cache_mechanism(self, results):
        rows = results["cache"].rows
        by = {
            (r["cache_pct_of_btree"], r["index"]): r for r in rows
        }
        # Simulated I/O (cache misses) is the comparable metric: hit
        # *rate* is inflated for the taller tree, which re-touches its
        # always-hot root more often per lookup.
        for frac in (10.0, 25.0, 50.0, 75.0):
            assert (
                by[(frac, "QuIT")]["simulated_io"]
                <= by[(frac, "B+-tree")]["simulated_io"]
            )

    def test_mixed_rw_sware_decays_with_reads(self, results):
        def check(result):
            by = {
                (r["read_pct"], r["index"]): r["vs_btree_x"]
                for r in result.rows
            }
            # SWARE's relative throughput is worse at read-heavy mixes
            # than write-only (§2); QuIT stays near or above the B+-tree
            # (its read path is the B+-tree's, so read-heavy mixes
            # converge to parity within timing noise).
            assert by[(90, "SWARE")] < by[(0, "SWARE")]
            for pct in (0, 25, 50, 75, 90):
                assert by[(pct, "QuIT")] > 0.7
            assert by[(0, "QuIT")] > by[(0, "SWARE")]

        check_with_retry(results, "mixed_rw", check)

    def test_fig1b_quantified_comparison(self, results):
        def check(result):
            rows = {r["index"]: r for r in result.rows}
            # QuIT: high awareness, no read penalty, best memory, no
            # knobs.
            assert rows["QuIT"]["sortedness_awareness_pct"] > 85
            assert rows["QuIT"]["read_cost_norm"] < 1.3
            assert rows["QuIT"]["bytes_per_entry_norm"] < 0.9
            assert rows["QuIT"]["tuning_knobs"] == 0
            # tail: no awareness at K=5%; SWARE: most knobs, most code —
            # QuIT gets its awareness at lower design complexity.
            assert rows["tail-B+-tree"]["sortedness_awareness_pct"] < 30
            assert rows["SWARE"]["tuning_knobs"] > 0
            assert (
                rows["SWARE"]["complexity_loc"]
                > rows["tail-B+-tree"]["complexity_loc"]
            )
            assert (
                rows["QuIT"]["complexity_loc"]
                < rows["SWARE"]["complexity_loc"]
            )

        check_with_retry(results, "fig1b", check)

    def test_fig1a_headline(self, results):
        def check(result):
            by = {(r["sortedness"], r["index"]): r for r in result.rows}
            near_quit = by[("nearly sorted", "QuIT")]
            near_sware = by[("nearly sorted", "SWARE")]
            near_btree = by[("nearly sorted", "B+-tree")]
            assert near_quit["insert_speedup_vs_btree"] > 1.2
            assert near_quit["insert_us"] < near_sware["insert_us"]
            assert not math.isnan(near_btree["lookup_us"])

        check_with_retry(results, "fig1a", check)


class TestFig10bTiming:
    def test_sides_alternate_in_single_rounds(self, monkeypatch):
        """Fig. 10b times the two trees in alternating single rounds
        (B, Q, then Q, B, ...), so a host-speed episode lands on both
        sides instead of on one whole batch."""
        from repro.bench import experiments, harness
        from repro.core import QuITTree

        calls = []

        def fake_timer(tree, targets, repeats=2):
            calls.append(("Q" if isinstance(tree, QuITTree) else "B",
                          repeats))
            return 1.0 if isinstance(tree, QuITTree) else 2.0

        monkeypatch.setattr(harness, "time_point_lookups", fake_timer)
        scale = BenchScale(
            n=500, leaf_capacity=16, point_lookups=20, range_lookups=2,
            repeats=3, seed=7,
        )
        result = experiments.exp_fig10b(scale)
        rounds = len(experiments.MAIN_K_GRID)
        assert calls == [
            ("B", 1), ("Q", 1), ("Q", 1), ("B", 1), ("B", 1), ("Q", 1),
        ] * rounds
        assert [row["normalized"] for row in result.rows] == [0.5] * rounds


class TestFig1bTiming:
    def test_baseline_is_timed_in_the_same_alternating_rounds(
        self, monkeypatch
    ):
        """Fig. 1b times the B+-tree baseline and all four designs in
        the same rotating single rounds, so ``read_cost_norm`` does
        not hinge on one early baseline measurement, and no design is
        timed twice in a row on probes its previous pass left cached."""
        from repro.bench import fig1b, harness

        calls = []

        def fake_timer(tree, targets, repeats=2):
            calls.append((type(tree).__name__, repeats))
            return 2.0 if type(tree).__name__ == "BPlusTree" else 1.0

        monkeypatch.setattr(harness, "time_point_lookups", fake_timer)
        scale = BenchScale(
            n=500, leaf_capacity=16, point_lookups=20, range_lookups=2,
            repeats=1, seed=7,
        )
        result = fig1b.exp_fig1b(scale)
        order = ["BPlusTree", "TailBPlusTree", "SABPlusTree",
                 "LilBPlusTree", "QuITTree"]
        # Two full rotations: round r starts at design r.
        rotations = [order[r % 5:] + order[:r % 5] for r in range(10)]
        assert calls == [(name, 1) for rnd in rotations for name in rnd]
        assert all(a != b for a, b in zip(calls, calls[1:]))
        assert [row["read_cost_norm"] for row in result.rows] == [0.5] * 4
