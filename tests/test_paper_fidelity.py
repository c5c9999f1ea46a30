"""Paper-fidelity pins: work-proportional results checked against the
paper's published numbers at a mid scale (these are deterministic — no
wall-clock involved — so tolerances are tight)."""

import pytest

from repro.analysis import space_reduction
from repro.core import (
    BPlusTree,
    LilBPlusTree,
    QuITTree,
    TailBPlusTree,
    TreeConfig,
)
from repro.sortedness import generate_keys

CFG = TreeConfig(leaf_capacity=64, internal_capacity=64)
N = 30_000


def ingest(cls, keys):
    tree = cls(CFG)
    for k in keys:
        tree.insert(int(k), None)
    return tree


@pytest.fixture(scope="module")
def trees_by_k():
    out = {}
    for k in (0.0, 0.01, 0.03, 0.05, 0.25, 0.50, 1.0):
        keys = generate_keys(N, k, 1.0, seed=11)
        out[k] = {
            cls.name: ingest(cls, keys)
            for cls in (BPlusTree, TailBPlusTree, LilBPlusTree, QuITTree)
        }
    return out


class TestTable2SpaceReduction:
    # Paper Table 2: 1.96 / 1.5 / 1.41 / 1.32 / 1.09 / 1.01.
    PAPER = {0.0: 1.96, 0.01: 1.5, 0.03: 1.41, 0.05: 1.32,
             0.25: 1.09, 0.50: 1.01}

    @pytest.mark.parametrize("k", list(PAPER))
    def test_reduction(self, trees_by_k, k):
        ratio = space_reduction(
            trees_by_k[k]["B+-tree"], trees_by_k[k]["QuIT"]
        )
        assert ratio == pytest.approx(self.PAPER[k], abs=0.25)


class TestFig9FastInsertMix:
    # Paper Fig. 9 / Fig. 11b: QuIT's fast-insert fraction per K.
    PAPER_QUIT = {0.0: 100, 0.01: 100, 0.03: 96, 0.05: 92,
                  0.25: 70, 0.50: 46}
    PAPER_LIL = {0.0: 100, 0.01: 99, 0.03: 94, 0.05: 90,
                 0.25: 57, 0.50: 26}

    @pytest.mark.parametrize("k", list(PAPER_QUIT))
    def test_quit(self, trees_by_k, k):
        measured = (
            trees_by_k[k]["QuIT"].stats.fast_insert_fraction * 100
        )
        assert measured == pytest.approx(self.PAPER_QUIT[k], abs=8)

    @pytest.mark.parametrize("k", list(PAPER_LIL))
    def test_lil(self, trees_by_k, k):
        measured = (
            trees_by_k[k]["lil-B+-tree"].stats.fast_insert_fraction * 100
        )
        assert measured == pytest.approx(self.PAPER_LIL[k], abs=8)

    def test_quit_dominates_lil_everywhere(self, trees_by_k):
        for k, trees in trees_by_k.items():
            assert (
                trees["QuIT"].stats.fast_insert_fraction
                >= trees["lil-B+-tree"].stats.fast_insert_fraction - 0.01
            ), k


class TestFig10aOccupancy:
    # Paper Fig. 10a: B+-tree 50-54% at K<=10; QuIT 62-77%.
    def test_btree_near_half_when_sorted(self, trees_by_k):
        occ = trees_by_k[0.0]["B+-tree"].occupancy().avg_occupancy
        assert 0.48 <= occ <= 0.56

    def test_quit_near_full_when_sorted(self, trees_by_k):
        occ = trees_by_k[0.0]["QuIT"].occupancy().avg_occupancy
        assert occ > 0.95

    def test_btree_near_ln2_when_scrambled(self, trees_by_k):
        # K = L = 100% is the random-insert regime, where the classical
        # half split settles near ln 2 ~ 69% full (Yao's analysis).  This
        # pins the leaf split independently of how leaves store entries.
        occ = trees_by_k[1.0]["B+-tree"].occupancy().avg_occupancy
        assert 0.66 <= occ <= 0.72

    @pytest.mark.parametrize("k", [0.01, 0.03, 0.05])
    def test_near_sorted_band(self, trees_by_k, k):
        bt = trees_by_k[k]["B+-tree"].occupancy().avg_occupancy
        qt = trees_by_k[k]["QuIT"].occupancy().avg_occupancy
        assert 0.48 <= bt <= 0.56
        assert 0.62 <= qt <= 0.90


class TestTailStaleness:
    def test_tail_dead_beyond_1pct(self, trees_by_k):
        # Paper Fig. 3/9: <1% fast-inserts at K>=1% (scale-shifted cliff
        # still leaves it under 15% here).
        for k in (0.03, 0.05, 0.25, 0.50):
            frac = trees_by_k[k][
                "tail-B+-tree"
            ].stats.fast_insert_fraction
            assert frac < 0.15, k

    def test_tail_perfect_when_sorted(self, trees_by_k):
        assert (
            trees_by_k[0.0]["tail-B+-tree"].stats.fast_insert_fraction
            == 1.0
        )


class TestExtensionalEquality:
    def test_all_variants_store_identical_contents(self, trees_by_k):
        for k, trees in trees_by_k.items():
            reference = None
            for name, tree in trees.items():
                contents = list(tree.keys())
                if reference is None:
                    reference = contents
                else:
                    assert contents == reference, (k, name)
