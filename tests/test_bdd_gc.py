"""Unique-table garbage collection under load.

The packed manager sweeps dead nodes at safe points, filtering (not
wiping) its computed tables and discovering roots through live
:class:`Ref` handles plus registered providers.  These tests pin the
contract from every direction a consumer depends on: liveness (what a
Ref or provider holds survives), reclamation (what nothing holds is
actually freed and its slot reused), coherence (results and caches are
semantically unchanged across a collection), and the headline
behaviour — node count over a real Property II session is
*non-monotone*, because collections actually reclaim.
"""

import itertools

import pytest

from repro.bdd import BDDManager, Ref

NAMES = ["a", "b", "c", "d", "e", "f"]


def _assignments(names):
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def _truth_table(mgr, ref, names):
    return [mgr.eval(ref, env) for env in _assignments(names)]


def _build_clutter(mgr, rounds=40):
    """Grow the table with intermediates nothing keeps a handle on."""
    vs = [mgr.var(n) for n in NAMES]
    acc = mgr.false
    for i in range(rounds):
        t = (vs[i % 6] & vs[(i + 1) % 6]) ^ (vs[(i + 2) % 6]
                                             | ~vs[(i + 3) % 6])
        acc = acc ^ t
    return acc


class TestCollect:
    def test_dropped_nodes_reclaimed_live_nodes_survive(self, new_manager):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        keep = _build_clutter(mgr)
        table_before = _truth_table(mgr, keep, NAMES)
        grown = mgr.num_nodes()
        clutter = _build_clutter(mgr, rounds=60) & keep     # noqa: F841
        del clutter                                         # now dead
        out = mgr.collect()
        assert out["freed"] > 0
        assert mgr.num_nodes() < max(grown, out["live_before"])
        # the kept function is untouched, node for node
        assert _truth_table(mgr, keep, NAMES) == table_before

    def test_collect_updates_stats_and_epoch(self, new_manager):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        _build_clutter(mgr)
        epoch = mgr.gc_epoch
        mgr.collect()
        stats = mgr.stats()
        assert stats["gc_runs"] >= 1
        assert stats["gc_reclaimed"] > 0
        assert mgr.gc_epoch == epoch + 1
        assert stats["peak_nodes"] >= stats["nodes"]

    def test_freed_slots_are_reused(self, new_manager):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        _build_clutter(mgr, rounds=60)
        mgr.collect()
        capacity = mgr._k.capacity()
        _build_clutter(mgr, rounds=30)
        # regrowth fills recycled slots before extending the arrays
        assert mgr._k.capacity() == capacity

    def test_caches_coherent_after_collect(self, new_manager):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        kept = (a & b) | ~c
        mgr.collect()
        # surviving/refiltered cache entries must agree with recompute
        assert ((a & b) | ~c) == kept
        assert (a & b) == ~(~a | ~b)
        per_op = mgr.cache_stats()
        # AND and OR share one table (De Morgan); attribution is split
        assert (per_op["and"]["entries"] + per_op["or"]["entries"]
                == mgr.computed_sizes()[0])

    def test_roots_argument_pins_anonymous_ids(self, new_manager):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        f = _build_clutter(mgr)
        raw = f.node          # escape the Ref
        table = _truth_table(mgr, f, NAMES)
        del f
        mgr.collect(roots=[raw])
        held = Ref(mgr, raw)
        assert _truth_table(mgr, held, NAMES) == table


class TestRootProviders:
    class Pins:
        def __init__(self, ids):
            self.ids = ids

        def bdd_roots(self, mgr):
            return self.ids

    def test_registered_provider_pins_nodes(self, new_manager):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        f = _build_clutter(mgr)
        table = _truth_table(mgr, f, NAMES)
        provider = self.Pins([f.node])
        mgr.register_roots(provider)
        raw = f.node
        del f
        mgr.collect()
        assert mgr._k.level(raw >> 1) != -1          # not swept
        assert _truth_table(mgr, Ref(mgr, raw), NAMES) == table

    def test_dead_provider_is_dropped(self, new_manager):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        f = _build_clutter(mgr)
        provider = self.Pins([f.node])
        mgr.register_roots(provider)
        raw = f.node
        del f, provider                  # weakref goes stale
        mgr.collect()
        assert mgr._k.level(raw >> 1) == -1          # swept

    def test_encoder_memo_survives_gc(self, new_manager):
        """The SAT encoder registers itself: ids its BDD→CNF memo is
        keyed by must not be recycled underneath it."""
        from repro.sat import DualRailEncoder
        mgr = new_manager()
        mgr.declare_all(NAMES)
        enc = DualRailEncoder()
        f = _build_clutter(mgr)
        lit = enc.bdd_lit(f)
        raw = f.node
        del f
        mgr.collect()
        assert mgr._k.level(raw >> 1) != -1          # pinned by the memo
        assert enc.bdd_lit(Ref(mgr, raw)) == lit


class TestMaybeCollect:
    def test_trigger_is_lazy_and_adaptive(self, new_manager):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        mgr.gc_threshold = 50
        kept = _build_clutter(mgr, rounds=80)
        assert mgr.maybe_collect() is not None     # over the limit
        live = mgr.num_nodes()
        # immediately after, under the doubled-live limit: no-op
        assert mgr.maybe_collect() is None
        assert mgr.num_nodes() == live
        assert kept.sat_count(len(NAMES)) == kept.sat_count(len(NAMES))

    def test_auto_gc_off_never_collects(self, new_manager):
        mgr = new_manager()
        mgr.auto_gc = False
        mgr.gc_threshold = 1
        mgr.declare_all(NAMES)
        _build_clutter(mgr)
        assert mgr.maybe_collect() is None
        assert mgr.stats()["gc_runs"] == 0


class TestPropertyIISession:
    def test_session_node_count_is_non_monotone(self):
        """The acceptance headline: across a Property II suite the
        manager's node count must go *down* as well as up — dead
        trajectory and temporary nodes are actually reclaimed at the
        session's safe points."""
        from repro.cpu import fixed_core
        from repro.retention import build_suite
        from repro.ste import CheckSession

        core = fixed_core(nregs=2, imem_depth=2, dmem_depth=2)
        mgr = BDDManager()
        mgr.gc_threshold = 30_000        # memory-bounded profile
        fast = {"fetch_pc_plus4", "control_PCWrite", "control_RegWrite",
                "execute_zero_flag", "decode_equal", "writeback_load"}
        suite = [p for p in build_suite(core, mgr, sleep=True)
                 if p.name in fast]
        assert len(suite) >= 4
        session = CheckSession(core.circuit, mgr, engine="ste")
        counts = []
        for prop in suite:
            result = session.check(prop.antecedent, prop.consequent,
                                   name=prop.name)
            assert result.passed
            counts.append(mgr.num_nodes())
        stats = mgr.stats()
        assert stats["gc_runs"] > 0
        assert stats["gc_reclaimed"] > 0
        drops = [(a, b) for a, b in zip(counts, counts[1:]) if b < a]
        assert drops, f"node counts never decreased: {counts}"
        assert stats["peak_nodes"] >= max(counts)
