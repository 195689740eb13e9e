"""Differential tests for the direct apply operations.

The manager's AND/OR/XOR used to be derived from the memoised ``ite``
funnel; they are now direct iterative apply loops with per-operation
computed tables.  These tests pin the rewrite down from three sides:

* *semantic* — random formulas, built by hypothesis, are evaluated
  under every assignment of their variables and compared against
  Python's own boolean operators;
* *canonical* — the results must coincide node-for-node with the
  ite-derived definitions (``f & g == ite(f, g, 0)`` etc.), which the
  normalising `ite` still computes through an independent entry point;
* *operational* — the computed tables must actually hit: repeating an
  operation may not grow the tables, and commutative calls share one
  entry thanks to canonical operand ordering.
"""

import itertools

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property-based differential tests need hypothesis")
from hypothesis import given, settings, strategies as st

from repro.bdd import Ref

NAMES = ["a", "b", "c", "d", "e"]


# ----------------------------------------------------------------------
# Random formulas as (builder, python-evaluator) pairs
# ----------------------------------------------------------------------
def _leaf(name):
    return (lambda mgr: mgr.var(name),
            lambda env: env[name])


def _const(value):
    return (lambda mgr: mgr.true if value else mgr.false,
            lambda env: value)


def _combine(op, left, right):
    build_l, eval_l = left
    build_r, eval_r = right
    if op == "and":
        return (lambda mgr: build_l(mgr) & build_r(mgr),
                lambda env: eval_l(env) and eval_r(env))
    if op == "or":
        return (lambda mgr: build_l(mgr) | build_r(mgr),
                lambda env: eval_l(env) or eval_r(env))
    if op == "xor":
        return (lambda mgr: build_l(mgr) ^ build_r(mgr),
                lambda env: eval_l(env) != eval_r(env))
    return (lambda mgr: ~build_l(mgr),
            lambda env: not eval_l(env))


formulas = st.deferred(lambda: (
    st.sampled_from(NAMES).map(_leaf)
    | st.booleans().map(_const)
    | st.tuples(st.sampled_from(["and", "or", "xor", "not"]),
                formulas, formulas).map(lambda t: _combine(*t))))


def _assignments():
    for bits in itertools.product((False, True), repeat=len(NAMES)):
        yield dict(zip(NAMES, bits))


class TestSemanticDifferential:
    @settings(max_examples=150, deadline=None)
    @given(formulas, formulas)
    def test_binary_ops_agree_with_python(self, new_manager, lhs, rhs):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        build_l, eval_l = lhs
        build_r, eval_r = rhs
        f, g = build_l(mgr), build_r(mgr)
        f_and_g = f & g
        f_or_g = f | g
        f_xor_g = f ^ g
        not_f = ~f
        for env in _assignments():
            lv, rv = eval_l(env), eval_r(env)
            assert mgr.eval(f_and_g, env) == (lv and rv)
            assert mgr.eval(f_or_g, env) == (lv or rv)
            assert mgr.eval(f_xor_g, env) == (lv != rv)
            assert mgr.eval(not_f, env) == (not lv)

    @settings(max_examples=100, deadline=None)
    @given(formulas, formulas)
    def test_apply_matches_ite_derivation(self, new_manager, lhs, rhs):
        """The seed's ite-derived operator definitions must still hold
        node-for-node.  (The xor identity exercises the recursive
        Shannon path of `ite` whenever ``~g``/``g`` are non-constant,
        cross-validating the apply loops against the independent
        expansion; the genuinely independent semantic check is
        `test_binary_ops_agree_with_python`.)"""
        mgr = new_manager()
        mgr.declare_all(NAMES)
        f = lhs[0](mgr)
        g = rhs[0](mgr)
        assert (f & g) == mgr.ite(f, g, mgr.false)
        assert (f | g) == mgr.ite(f, mgr.true, g)
        assert (f ^ g) == mgr.ite(f, ~g, g)
        assert ~f == mgr.ite(f, mgr.false, mgr.true)

    @settings(max_examples=100, deadline=None)
    @given(formulas, formulas)
    def test_commutativity_and_involution(self, new_manager, lhs, rhs):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        f = lhs[0](mgr)
        g = rhs[0](mgr)
        assert (f & g) == (g & f)
        assert (f | g) == (g | f)
        assert (f ^ g) == (g ^ f)
        assert ~~f == f


class TestIteNormalisation:
    @settings(max_examples=100, deadline=None)
    @given(formulas, formulas, formulas)
    def test_ite_semantics(self, new_manager, cond, then, else_):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        build_f, eval_f = cond
        build_g, eval_g = then
        build_h, eval_h = else_
        f, g, h = build_f(mgr), build_g(mgr), build_h(mgr)
        out = mgr.ite(f, g, h)
        assert out == ((f & g) | (~f & h))
        for env in _assignments():
            expected = eval_g(env) if eval_f(env) else eval_h(env)
            assert mgr.eval(out, env) == expected


class TestCacheStatistics:
    def _busy_refs(self, mgr):
        a, b, c, d = (mgr.var(n) for n in "abcd")
        return (a & b) | (c ^ d), (b | c) & ~a

    def test_repeating_an_op_hits_the_cache(self, new_manager):
        mgr = new_manager()
        f, g = self._busy_refs(mgr)
        first = mgr.cache_stats()["and"]
        r1 = f & g
        after_miss = mgr.cache_stats()["and"]
        assert after_miss["misses"] > first["misses"]
        r2 = f & g
        after_hit = mgr.cache_stats()["and"]
        assert r1 == r2
        assert after_hit["hits"] == after_miss["hits"] + 1
        assert after_hit["misses"] == after_miss["misses"]
        assert after_hit["entries"] == after_miss["entries"]

    def test_commutative_calls_share_one_entry(self, new_manager):
        mgr = new_manager()
        f, g = self._busy_refs(mgr)
        _ = f & g
        entries = mgr.cache_stats()["and"]["entries"]
        _ = g & f
        assert mgr.cache_stats()["and"]["entries"] == entries
        assert mgr.cache_stats()["and"]["hits"] >= 1

    def test_all_ops_report_stats(self, new_manager):
        mgr = new_manager()
        f, g = self._busy_refs(mgr)
        _ = (f & g) | (f ^ g)
        _ = ~(f | g)
        _ = mgr.ite(f, g, ~f)
        stats = mgr.cache_stats()
        assert set(stats) == {"and", "or", "xor", "not", "ite"}
        for op_stats in stats.values():
            assert set(op_stats) == {"hits", "misses", "entries"}
            assert op_stats["entries"] <= op_stats["misses"]
        assert stats["and"]["misses"] > 0
        assert stats["or"]["misses"] > 0

    def test_clear_caches_keeps_counters_and_semantics(self, new_manager):
        mgr = new_manager()
        f, g = self._busy_refs(mgr)
        before = f & g
        misses = mgr.cache_stats()["and"]["misses"]
        mgr.clear_caches()
        assert mgr.cache_stats()["and"]["entries"] == 0
        assert mgr.cache_stats()["and"]["misses"] == misses
        assert (f & g) == before

    def test_manager_stats_aggregate_cache_counters(self, new_manager):
        mgr = new_manager()
        f, g = self._busy_refs(mgr)
        _ = f & g
        _ = f & g
        stats = mgr.stats()
        assert {"nodes", "vars", "ite_cache", "apply_cache",
                "cache_hits", "cache_misses"} <= set(stats)
        per_op = mgr.cache_stats()
        assert stats["cache_hits"] == sum(s["hits"] for s in per_op.values())
        assert stats["cache_misses"] == sum(s["misses"]
                                            for s in per_op.values())


class TestComplementEdges:
    """The packed kernel stores negation as a tag bit on the edge, so a
    whole family of identities must hold *structurally* (same id, zero
    new nodes), not merely semantically.  Each is cross-checked against
    exhaustive evaluation so a sign error cannot hide behind a shared
    sign error in the checker."""

    @settings(max_examples=150, deadline=None)
    @given(formulas)
    def test_negation_is_a_tag_not_a_traversal(self, new_manager, lhs):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        build, evaluate = lhs
        f = build(mgr)
        nodes_before = mgr.num_nodes()
        g = ~f
        # O(1): no node was created, the id only flipped its tag bit.
        assert mgr.num_nodes() == nodes_before
        assert g.node == f.node ^ 1
        assert ~g == f
        for env in _assignments():
            assert mgr.eval(g, env) == (not evaluate(env))

    @settings(max_examples=100, deadline=None)
    @given(formulas)
    def test_function_and_complement_share_all_nodes(self, new_manager, lhs):
        mgr = new_manager()
        mgr.declare_all(NAMES)
        f = lhs[0](mgr)
        assert mgr.size(f) == mgr.size(~f)
        assert mgr.support(f) == mgr.support(~f)
        n = len(NAMES)
        assert mgr.sat_count(f, n) + mgr.sat_count(~f, n) == 2 ** n

    @settings(max_examples=100, deadline=None)
    @given(formulas, formulas)
    def test_de_morgan_is_the_same_table_entry(self, new_manager, lhs, rhs):
        """OR is AND through De Morgan on tagged edges, so the two
        sides are the *identical* id, not just equivalent functions."""
        mgr = new_manager()
        mgr.declare_all(NAMES)
        f = lhs[0](mgr)
        g = rhs[0](mgr)
        assert (f | g) == ~(~f & ~g)
        assert (f & g) == ~(~f | ~g)
        assert (f ^ g) == ~(f ^ ~g)
        assert (f >> g) == (~f | g)

    @settings(max_examples=100, deadline=None)
    @given(formulas)
    def test_canonical_form_high_edges_regular(self, new_manager, lhs):
        """The unique-table invariant behind all of the above: a stored
        HIGH edge never carries the complement tag (negation is pushed
        to the low edge and the parent reference instead)."""
        mgr = new_manager()
        mgr.declare_all(NAMES)
        lhs[0](mgr)
        kernel = mgr._k
        for idx in range(1, kernel.capacity()):
            level, _, high = kernel.node(idx)
            if level != -1:                     # not on the free list
                assert high & 1 == 0
