"""The native BDD kernel against its pure-Python oracle.

* a hypothesis state machine drives one manager on each kernel in
  lockstep (declare, and/or/xor/not/ite, drop a Ref, collect) and
  demands identical node ids, node tables, counters and computed-table
  tapes, plus truth tables equal to an independent bitmask model;
* the failure paths: a failed build falls back to the Python kernel with
  one warning and unchanged results, node-index overflow raises
  BDDError, and managers dropped in a loop give their memory back.
"""

import gc
import inspect
import itertools
import tracemalloc
import warnings

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="the stateful kernel differential needs hypothesis")
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from conftest import kernel_class, manager_on
from repro.bdd import BDDError, BDDManager, native
from repro.bdd.kernel import PyKernel

NAMES = ["a", "b", "c", "d", "e"]
ENVS = [dict(zip(NAMES, bits))
        for bits in itertools.product((False, True), repeat=len(NAMES))]
FULL = (1 << len(ENVS)) - 1


def _var_mask(name):
    return sum(1 << j for j, env in enumerate(ENVS) if env[name])


def _truth_mask(mgr, ref):
    return sum(1 << j for j, env in enumerate(ENVS) if mgr.eval(ref, env))


def _node_table(mgr):
    k = mgr._k
    return [k.node(i) for i in range(k.capacity())]


class KernelLockstep(RuleBasedStateMachine):
    """One manager per kernel, every operation applied to both."""

    def __init__(self):
        super().__init__()
        self.native = manager_on(kernel_class("native"))
        self.python = manager_on(PyKernel)
        # handle -> (native Ref, python Ref, truth-table bitmask)
        self.live = {}
        self.next_handle = 0

    def _keep(self, n, p, mask):
        assert _truth_mask(self.native, n) == mask
        assert _truth_mask(self.python, p) == mask
        self.live[self.next_handle] = (n, p, mask)
        self.next_handle += 1

    def _pick(self, data):
        return self.live[data.draw(st.sampled_from(sorted(self.live)))]

    @rule(name=st.sampled_from(NAMES))
    def declare_var(self, name):
        self._keep(self.native.var(name), self.python.var(name),
                   _var_mask(name))

    @precondition(lambda self: self.live)
    @rule(op=st.sampled_from(["and", "or", "xor"]), data=st.data())
    def binary(self, op, data):
        n1, p1, m1 = self._pick(data)
        n2, p2, m2 = self._pick(data)
        if op == "and":
            self._keep(n1 & n2, p1 & p2, m1 & m2)
        elif op == "or":
            self._keep(n1 | n2, p1 | p2, m1 | m2)
        else:
            self._keep(n1 ^ n2, p1 ^ p2, m1 ^ m2)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def negate(self, data):
        n, p, m = self._pick(data)
        self._keep(~n, ~p, FULL & ~m)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def ite(self, data):
        nf, pf, mf = self._pick(data)
        ng, pg, mg = self._pick(data)
        nh, ph, mh = self._pick(data)
        self._keep(self.native.ite(nf, ng, nh), self.python.ite(pf, pg, ph),
                   (mf & mg) | (FULL & ~mf & mh))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def drop(self, data):
        del self.live[data.draw(st.sampled_from(sorted(self.live)))]

    @rule()
    def collect(self):
        # The kernels' own collect, rooted at exactly the live handles
        # (the manager-level root scan over the whole heap is shared
        # code, covered by test_bdd_gc.py, and too slow to repeat here).
        roots = [n.node for n, _, _ in self.live.values()]
        assert self.native._k.collect(roots) == self.python._k.collect(roots)
        for n, p, mask in self.live.values():
            assert _truth_mask(self.native, n) == mask
            assert _truth_mask(self.python, p) == mask

    @invariant()
    def same_ids(self):
        for n, p, _ in self.live.values():
            assert n.node == p.node

    @invariant()
    def same_counters(self):
        assert self.native.stats() == self.python.stats()
        assert self.native.cache_stats() == self.python.cache_stats()
        assert (self.native.computed_sizes()
                == self.python.computed_sizes())

    @invariant()
    def same_tape(self):
        assert (list(self.native.computed_entries())
                == list(self.python.computed_entries()))
        sizes = self.native.computed_sizes()
        start = tuple(s // 2 for s in sizes)
        assert (list(self.native.computed_entries(start))
                == list(self.python.computed_entries(start)))

    @invariant()
    def canonical_and_identical_tables(self):
        table = _node_table(self.native)
        assert table == _node_table(self.python)
        seen = set()
        for level, low, high in table[1:]:
            if level == -1:                 # on the free list
                continue
            assert high & 1 == 0            # regular stored high edge
            assert low != high              # no redundant test
            assert (level, low, high) not in seen
            seen.add((level, low, high))


KernelLockstep.TestCase.settings = settings(
    max_examples=150, stateful_step_count=50, deadline=None)
TestKernelLockstep = KernelLockstep.TestCase


class TestFailedBuild:
    def test_missing_compiler_falls_back_with_one_warning(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cls, name = native.select(compiler=[str(tmp_path / "no-cc")],
                                      cache_dir=tmp_path)
        assert (cls, name) == (PyKernel, "python")
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "no-cc" in str(runtime[0].message)
        assert not list(tmp_path.glob("*.so"))     # nothing half-built

    def test_fallback_kernel_gives_same_verdict_and_counts(self):
        from repro.cpu import buggy_core
        from repro.retention import build_suite
        from repro.ste import CheckSession

        core = buggy_core(nregs=2, imem_depth=2, dmem_depth=2)
        outcomes = []
        for name in ("native", "python"):
            mgr = manager_on(kernel_class(name))
            prop = next(p for p in build_suite(core, mgr, sleep=True)
                        if p.name == "control_RegWrite")
            result = CheckSession(core.circuit, mgr).check(
                prop.antecedent, prop.consequent, name=prop.name)
            outcomes.append((result.passed,
                             [(f.time, f.node) for f in result.failures],
                             mgr.stats(), mgr.cache_stats()))
        assert outcomes[0] == outcomes[1]
        assert not outcomes[0][0] and outcomes[0][1]    # the paper's bug

    def test_build_lands_once_in_the_cache(self, tmp_path):
        first = native.load(cache_dir=tmp_path)
        built = sorted(p.name for p in tmp_path.iterdir())
        assert len(built) == 1 and built[0].startswith("_native-")
        again = native.load(cache_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == built
        assert again.Kernel().num_nodes() == first.Kernel().num_nodes() == 1


class TestBuildCacheIsPrivate:
    """Loading a cached library runs its code, so a cache directory that
    someone else could have written to is refused, never searched."""

    def _refused(self, cache_dir):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cls, name = native.select(cache_dir=cache_dir)
        assert (cls, name) == (PyKernel, "python")
        assert len(caught) == 1
        assert issubclass(caught[0].category, RuntimeWarning)
        assert "only this user" in str(caught[0].message)

    def test_new_directory_is_private(self, tmp_path):
        native.load(cache_dir=tmp_path / "cache")
        assert (tmp_path / "cache").stat().st_mode & 0o777 == 0o700

    def test_writable_by_others_is_refused(self, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir()
        shared.chmod(0o777)
        self._refused(shared)
        assert not list(shared.iterdir())

    def test_owned_by_another_user_is_refused(self, tmp_path, monkeypatch):
        native.load(cache_dir=tmp_path)               # a valid build
        monkeypatch.setattr(native.os, "getuid",
                            lambda: tmp_path.stat().st_uid + 1)
        self._refused(tmp_path)


@pytest.mark.parametrize("kernel", ["native", "python"])
class TestNodeIndexOverflow:
    def _kernel(self, kernel, levels=6):
        k = kernel_class(kernel)(max_index=8)
        for _ in range(levels):
            k.add_level()
        return k

    def test_mk_raises_at_the_limit(self, kernel):
        k = self._kernel(kernel, levels=10)
        ids = [k.mk(level, 0, 1) for level in range(7)]   # indices 1..7
        assert [i >> 1 for i in ids] == list(range(1, 8))
        with pytest.raises(BDDError, match="exceeded 8 nodes"):
            k.mk(7, 0, 1)
        assert k.num_nodes() == 8                 # still usable
        assert k.mk(0, 0, 1) == ids[0]

    def test_apply_loops_raise_not_corrupt(self, kernel):
        k = self._kernel(kernel)
        xs = [k.mk(level, 0, 1) for level in range(4)]    # indices 1..4
        acc = k.and_(xs[2], xs[3])                         # index 5
        with pytest.raises(BDDError):
            k.xor(k.or_(xs[0], acc), k.xor(xs[1], acc))
        # whatever the tables kept is still a true fact
        assert k.and_(xs[2], xs[3]) == acc
        assert k.num_nodes() <= 8

    def test_limit_is_not_reachable_from_the_manager(self, kernel):
        assert not inspect.signature(BDDManager).parameters


class TestManagerMemory:
    def test_dropped_managers_free_their_tables(self):
        def churn():
            mgr = BDDManager()
            vs = [mgr.var(f"v{i}") for i in range(12)]
            acc = mgr.false
            for i in range(40):
                acc = acc ^ (vs[i % 12] & vs[(i * 5 + 1) % 12]
                             | ~vs[(i * 7 + 3) % 12])
            return mgr.num_nodes()

        churn()
        gc.collect()
        tracemalloc.start()
        try:
            churn()
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(30):
                assert churn() > 100
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024, grown
