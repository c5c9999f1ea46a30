"""Property-based tests: every tree variant is extensionally a sorted
dict, and structural invariants hold after arbitrary operation sequences.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core import (
    BPlusTree,
    LilBPlusTree,
    PoleBPlusTree,
    QuITTree,
    TailBPlusTree,
    TreeConfig,
)

from conftest import ALL_TREE_CLASSES

SMALL = TreeConfig(leaf_capacity=4, internal_capacity=4)
MEDIUM = TreeConfig(leaf_capacity=8, internal_capacity=8)

keys_strategy = st.lists(
    st.integers(min_value=-10_000, max_value=10_000), max_size=300
)

tree_class_strategy = st.sampled_from(ALL_TREE_CLASSES)


@settings(max_examples=60, deadline=None)
@given(cls=tree_class_strategy, keys=keys_strategy)
def test_insert_matches_oracle(cls, keys):
    tree = cls(SMALL)
    oracle = {}
    for k in keys:
        tree.insert(k, k * 7)
        oracle[k] = k * 7
    assert list(tree.items()) == sorted(oracle.items())
    assert len(tree) == len(oracle)
    tree.validate(check_min_fill=False)


@settings(max_examples=40, deadline=None)
@given(cls=tree_class_strategy, keys=keys_strategy)
def test_lookup_matches_oracle(cls, keys):
    tree = cls(SMALL)
    oracle = {}
    for k in keys:
        tree.insert(k, str(k))
        oracle[k] = str(k)
    for k in list(oracle)[:50]:
        assert tree.get(k) == oracle[k]
    for probe in range(-5, 5):
        assert (probe in tree) == (probe in oracle)


@settings(max_examples=40, deadline=None)
@given(
    cls=tree_class_strategy,
    keys=keys_strategy,
    bounds=st.tuples(
        st.integers(-10_000, 10_000), st.integers(-10_000, 10_000)
    ),
)
def test_range_query_matches_oracle(cls, keys, bounds):
    lo, hi = min(bounds), max(bounds)
    tree = cls(SMALL)
    oracle = {}
    for k in keys:
        tree.insert(k, k)
        oracle[k] = k
    expected = sorted(
        (k, v) for k, v in oracle.items() if lo <= k < hi
    )
    assert tree.range_query(lo, hi) == expected


@settings(max_examples=40, deadline=None)
@given(
    cls=tree_class_strategy,
    keys=keys_strategy,
    delete_selector=st.integers(min_value=2, max_value=5),
)
def test_insert_delete_matches_oracle(cls, keys, delete_selector):
    tree = cls(SMALL)
    oracle = {}
    for i, k in enumerate(keys):
        if i % delete_selector == 0 and oracle:
            victim = next(iter(oracle))
            assert tree.delete(victim)
            del oracle[victim]
        tree.insert(k, i)
        oracle[k] = i
    assert list(tree.items()) == sorted(oracle.items())
    tree.validate(check_min_fill=False)


@settings(max_examples=30, deadline=None)
@given(keys=st.lists(
    st.integers(min_value=0, max_value=100_000),
    min_size=1, max_size=200, unique=True,
))
def test_bulk_load_matches_incremental(keys):
    loaded = BPlusTree(MEDIUM)
    loaded.bulk_load(sorted((k, k) for k in keys))
    incremental = BPlusTree(MEDIUM)
    for k in keys:
        incremental.insert(k, k)
    assert list(loaded.items()) == list(incremental.items())
    loaded.validate(check_min_fill=False)


@settings(max_examples=30, deadline=None)
@given(
    base=st.lists(st.integers(0, 5_000), max_size=150, unique=True),
    run=st.lists(st.integers(0, 5_000), max_size=150, unique=True),
)
def test_bulk_insert_run_matches_oracle(base, run):
    tree = BPlusTree(SMALL)
    oracle = {}
    for k in base:
        tree.insert(k, ("base", k))
        oracle[k] = ("base", k)
    tree.bulk_insert_run(sorted((k, ("run", k)) for k in run))
    for k in run:
        oracle[k] = ("run", k)
    assert list(tree.items()) == sorted(oracle.items())
    tree.validate(check_min_fill=False)


@settings(max_examples=25, deadline=None)
@given(keys=st.lists(
    st.integers(0, 2_000), min_size=20, max_size=300, unique=True,
))
def test_fastpath_variants_agree_with_classical(keys):
    classical = BPlusTree(SMALL)
    for k in keys:
        classical.insert(k, k)
    expected = list(classical.items())
    for cls in (TailBPlusTree, LilBPlusTree, PoleBPlusTree, QuITTree):
        tree = cls(SMALL)
        for k in keys:
            tree.insert(k, k)
        assert list(tree.items()) == expected, cls.name


@settings(max_examples=25, deadline=None)
@given(keys=keys_strategy)
def test_quit_occupancy_never_exceeds_capacity(keys):
    tree = QuITTree(SMALL)
    for k in keys:
        tree.insert(k, k)
    for leaf in tree.leaves():
        assert leaf.size <= SMALL.leaf_capacity


KEYS = st.integers(-500, 500)

class TreeMachine(RuleBasedStateMachine):
    """Stateful fuzz: arbitrary interleavings of per-key and bulk
    operations on a tree variant vs a dict oracle, with validation —
    structure plus the fast-path window — as a standing invariant."""

    #: Variants ``setup`` draws from.
    classes = ALL_TREE_CLASSES

    def __init__(self):
        super().__init__()
        self.tree = None
        self.oracle = {}

    @initialize(data=st.data())
    def setup(self, data):
        self.tree = data.draw(st.sampled_from(self.classes))(SMALL)
        self.oracle = {}

    @rule(key=KEYS, value=st.integers())
    def insert(self, key, value):
        self.tree.insert(key, value)
        self.oracle[key] = value

    def _insert_many(self, pairs):
        new = len({k for k, _ in pairs} - self.oracle.keys())
        assert self.tree.insert_many(pairs) == new
        self.oracle.update(pairs)

    @rule(
        lo=KEYS,
        length=st.integers(1, 40),
        step=st.integers(1, 3),
        value=st.integers(),
    )
    def insert_many_sorted(self, lo, length, step, value):
        # A dense ascending run: it chains through consecutive leaves
        # and overflows the ones it lands in.
        self._insert_many(
            [(k, value + k) for k in range(lo, lo + length * step, step)]
        )

    @rule(
        pairs=st.lists(st.tuples(KEYS, st.integers()), max_size=40),
        duplicated=st.booleans(),
    )
    def insert_many_unsorted(self, pairs, duplicated):
        if duplicated:
            # Every key again under a new value: the last write wins.
            pairs = pairs + [(k, v + 1) for k, v in reversed(pairs)]
        self._insert_many(pairs)

    @rule(key=KEYS)
    def delete(self, key):
        assert self.tree.delete(key) == (key in self.oracle)
        self.oracle.pop(key, None)

    @rule(lo=KEYS, width=st.integers(1, 60), step=st.integers(1, 3))
    def delete_run(self, lo, width, step):
        for key in range(lo, lo + width, step):
            assert self.tree.delete(key) == (key in self.oracle)
            self.oracle.pop(key, None)

    @rule(fill_factor=st.sampled_from([0.5, 0.85, 1.0]))
    def bulk_load(self, fill_factor):
        # Rebuild the same class from the oracle, then keep fuzzing:
        # every variant's post-bulk_load re-pin meets the standing
        # invariant and every later rule.
        self.tree = type(self.tree)(SMALL)
        self.tree.bulk_load(
            sorted(self.oracle.items()), fill_factor=fill_factor
        )

    @rule(key=KEYS)
    def lookup(self, key):
        assert self.tree.get(key, "absent") == self.oracle.get(
            key, "absent"
        )

    @rule(keys=st.lists(KEYS, max_size=40))
    def get_many(self, keys):
        assert self.tree.get_many(keys, "absent") == [
            self.oracle.get(k, "absent") for k in keys
        ]

    @rule(lo=KEYS, width=st.integers(0, 100))
    def range_scan(self, lo, width):
        expected = sorted(
            (k, v) for k, v in self.oracle.items() if lo <= k < lo + width
        )
        assert self.tree.range_query(lo, lo + width) == expected
        assert list(self.tree.range_iter(lo, lo + width)) == expected
        assert self.tree.count_range(lo, lo + width) == len(expected)

    @invariant()
    def structurally_valid(self):
        if self.tree is not None:
            self.tree.validate(check_min_fill=False)
            assert len(self.tree) == len(self.oracle)


TestTreeMachine = TreeMachine.TestCase
TestTreeMachine.settings = settings(
    max_examples=25,
    stateful_step_count=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("cls", ALL_TREE_CLASSES, ids=lambda c: c.name)
def test_tree_machine_per_variant(cls):
    """The machine pinned to each variant in turn, so every class gets
    runs whatever ``TestTreeMachine`` happens to draw."""
    machine = type(
        f"TreeMachine_{cls.__name__}", (TreeMachine,), {"classes": [cls]}
    )
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=10,
            stateful_step_count=50,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
