"""Reduced Ordered Binary Decision Diagram (ROBDD) manager.

This is the Boolean-function substrate underneath the whole STE stack
(the analogue of the BDD package inside Intel's Forte system used by the
paper).  The manager is a thin layer over a *kernel* that owns node
storage, the unique table, the computed tables and the apply loops:

* the native kernel (``_native.c``, compiled on first import by
  :mod:`repro.bdd.native`) keeps nodes in flat int32 arrays and its
  tables in open-addressing hash tables, and runs the AND/OR, XOR and
  ITE loops in C;
* the pure-Python kernel (:class:`repro.bdd.kernel.PyKernel`) is the
  same algorithm over lists and dicts — the fallback when the extension
  cannot be built, and the equivalence oracle of the tests.

Both produce identical node ids, counters and computed-table tapes.
:data:`KERNEL` names the one in use.  The kernel's design:

* a node id carries a **complement edge** in its lowest bit
  (``id = index << 1 | complement``), so negation is ``id ^ 1`` — O(1),
  allocation-free, and the NOT computed table disappears entirely.
  Canonicity is restored at node-creation time with the CUDD rules:
  stored nodes always have a *regular* (uncomplemented) high edge, and
  ``mk(v, f, f) == f``;
* AND and OR share one iterative kernel and one computed table through
  De Morgan (``f | g == ~(~f & ~g)``), so the dual-rail encodings the
  ternary layer builds (where the low rail is the complement of the
  high rail) hit each other's cache entries;
* XOR strips complement bits from both operands before the table
  lookup (``~f ^ g == ~(f ^ g)``), quartering its key space;
* the unique table and the computed tables are **garbage collected**:
  :meth:`BDDManager.collect` mark-and-sweeps from every live
  :class:`Ref` (found through the cyclic-GC object graph) plus
  registered root providers, freed indices go on a free list for
  reuse, and the node count stops being monotone.
  :meth:`BDDManager.maybe_collect` is the safe-point hook callers
  invoke between logical operations.

The quantification, restriction, composition and inspection algorithms
stay here in Python and read nodes through the kernel's accessors.
Nodes are exposed to callers as :class:`Ref` handles carrying their
manager, so expressions read naturally::

    mgr = BDDManager()
    a, b = mgr.var("a"), mgr.var("b")
    f = (a & b) | ~a
"""

from __future__ import annotations

import itertools
import weakref
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from .kernel import BDDError
from .native import select as _select_kernel

__all__ = ["BDDManager", "Ref", "BDDError", "KERNEL"]

# Terminal ids: index 0 is the one terminal node; the complement bit
# distinguishes FALSE (0) from TRUE (1).  Internal ids start at 2.
_FALSE = 0
_TRUE = 1

#: The kernel class every manager runs on, and its name: ``"native"``
#: when the C extension built, ``"python"`` when it fell back.
_Kernel, KERNEL = _select_kernel()


class Ref:
    """A handle to a BDD node owned by a :class:`BDDManager`.

    Supports the Python operator protocol for readable formula
    construction: ``&`` (and), ``|`` (or), ``^`` (xor), ``~`` (not),
    ``>>`` (implies), ``==`` on Refs is *identity* (canonical BDDs make
    structural equality identity equality).

    Live Refs are also the garbage collector's roots: a node reachable
    from any Ref (directly or through its children) survives
    :meth:`BDDManager.collect`.
    """

    __slots__ = ("mgr", "node")

    def __init__(self, mgr: "BDDManager", node: int):
        self.mgr = mgr
        self.node = node

    # -- operators -----------------------------------------------------
    def __and__(self, other: "Ref") -> "Ref":
        mgr = self.mgr
        if other.mgr is not mgr:
            raise BDDError("Ref belongs to a different BDDManager")
        return Ref(mgr, mgr._apply_and(self.node, other.node))

    def __or__(self, other: "Ref") -> "Ref":
        mgr = self.mgr
        if other.mgr is not mgr:
            raise BDDError("Ref belongs to a different BDDManager")
        return Ref(mgr, mgr._apply_or(self.node, other.node))

    def __xor__(self, other: "Ref") -> "Ref":
        mgr = self.mgr
        if other.mgr is not mgr:
            raise BDDError("Ref belongs to a different BDDManager")
        return Ref(mgr, mgr._apply_xor(self.node, other.node))

    def __invert__(self) -> "Ref":
        # Complement edges make negation a bit flip.
        return Ref(self.mgr, self.node ^ 1)

    def __rshift__(self, other: "Ref") -> "Ref":
        """Implication ``self -> other``."""
        mgr = self.mgr
        if other.mgr is not mgr:
            raise BDDError("Ref belongs to a different BDDManager")
        return Ref(mgr, mgr._apply_or(self.node ^ 1, other.node))

    def iff(self, other: "Ref") -> "Ref":
        """Biconditional ``self <-> other``."""
        mgr = self.mgr
        if other.mgr is not mgr:
            raise BDDError("Ref belongs to a different BDDManager")
        return Ref(mgr, mgr._apply_xor(self.node, other.node) ^ 1)

    def ite(self, then: "Ref", else_: "Ref") -> "Ref":
        return self.mgr.ite(self, then, else_)

    # -- predicates ----------------------------------------------------
    @property
    def is_true(self) -> bool:
        return self.node == _TRUE

    @property
    def is_false(self) -> bool:
        return self.node == _FALSE

    @property
    def is_const(self) -> bool:
        return self.node < 2

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ref)
            and other.mgr is self.mgr
            and other.node == self.node
        )

    def __hash__(self) -> int:
        return hash((id(self.mgr), self.node))

    def __bool__(self) -> bool:
        raise BDDError(
            "a BDD Ref has no implicit truth value; use .is_true / .is_false "
            "or compare against mgr.true / mgr.false"
        )

    def __repr__(self) -> str:
        if self.node == _TRUE:
            return "Ref(TRUE)"
        if self.node == _FALSE:
            return "Ref(FALSE)"
        return f"Ref(node={self.node}, var={self.mgr.node_var(self)!r})"

    # -- convenience passthroughs ---------------------------------------
    def support(self) -> frozenset:
        return self.mgr.support(self)

    def size(self) -> int:
        return self.mgr.size(self)

    def sat_one(self) -> Optional[Dict[str, bool]]:
        return self.mgr.sat_one(self)

    def sat_count(self, nvars: Optional[int] = None) -> int:
        return self.mgr.sat_count(self, nvars)


class BDDManager:
    """Owns the variable order, the GC policy and one kernel (node
    storage, unique and computed tables)."""

    def __init__(self):
        k = self._k = _Kernel()
        # The apply entry points are the kernel's own (bound) methods:
        # hot callers (the ternary layer, BVec) call into the kernel
        # with no manager frame in between.
        self._apply_and = k.and_
        self._apply_or = k.or_
        self._apply_xor = k.xor
        self._ite = k.ite
        self._mk = k.mk
        self._cache_epoch = 0
        self._gc_epoch = 0
        # Variable bookkeeping: name <-> level (level == order position).
        self._var_names: List[str] = []
        self._name_to_level: Dict[str, int] = {}
        # -- garbage collection policy ---------------------------------
        #: automatic collection at :meth:`maybe_collect` safe points
        self.auto_gc = True
        #: live-node floor below which collection is never triggered;
        #: the effective limit doubles from the post-collect live count
        #: so a stable working set is not rescanned over and over.
        #: The default is deliberately a *backstop*, not a tuning: a
        #: session-shared manager carries most of its value in the
        #: computed tables (property k+1 replays property k's step
        #: functions as cache hits), and a collection that actually
        #: reclaims also evicts every cached result whose operands
        #: died — measured on the retention suites, an aggressive
        #: threshold (50k) turns a 15 s session into a 60 s one purely
        #: in recompute, and a backstop low enough to fire mid-suite
        #: (8M, under the ~11M live peak of the full Property I run)
        #: quadruples that suite's wall time the same way.  Lower it
        #: (500k–1M) for memory-bounded runs where peak unique-table
        #: size matters more than wall clock.
        self.gc_threshold = 32_000_000
        # Post-collect live count; the effective trigger limit is
        # derived from it *and* the threshold at check time, so
        # assigning gc_threshold after construction takes effect
        # immediately.
        self._gc_live_floor = 0
        self._roots_providers: List[weakref.ref] = []
        self._peak_nodes = 1
        self._collections = 0
        self._reclaimed = 0
        self.true = Ref(self, _TRUE)
        self.false = Ref(self, _FALSE)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def var(self, name: str) -> Ref:
        """Return (declaring on first use) the variable named *name*."""
        level = self._name_to_level.get(name)
        if level is None:
            level = self.declare(name)
        return Ref(self, self._mk(level, _FALSE, _TRUE))

    def declare(self, name: str) -> int:
        """Declare a fresh variable at the bottom of the current order and
        return its level."""
        if name in self._name_to_level:
            raise BDDError(f"variable {name!r} already declared")
        level = len(self._var_names)
        self._var_names.append(name)
        self._name_to_level[name] = level
        self._k.add_level()
        return level

    def declare_all(self, names: Iterable[str]) -> None:
        for name in names:
            if name not in self._name_to_level:
                self.declare(name)

    def has_var(self, name: str) -> bool:
        return name in self._name_to_level

    @property
    def var_names(self) -> Tuple[str, ...]:
        return tuple(self._var_names)

    def level_of(self, name: str) -> int:
        try:
            return self._name_to_level[name]
        except KeyError:
            raise BDDError(f"unknown variable {name!r}") from None

    def node_var(self, ref: Ref) -> Optional[str]:
        """Name of the top variable of *ref* (None for terminals)."""
        if ref.node < 2:
            return None
        return self._var_names[self._k.level(ref.node >> 1)]

    def num_nodes(self) -> int:
        """Live interned nodes (including the terminal) — allocated
        minus collected, so no longer monotone."""
        return self._k.num_nodes()

    def node_triple(self, node: int) -> Tuple[str, int, int]:
        """(top variable name, low child id, high child id) of an
        internal node id — the traversal hook external engines (e.g. the
        SAT backend's BDD-to-CNF conversion) use.  The children carry
        the node's complement bit pushed through, so the triple is the
        Shannon expansion of the id's *function* (identical to what a
        plain, complement-free ROBDD would store).  Terminals (0/1)
        have no triple and raise."""
        if node < 2:
            raise BDDError("terminal nodes have no (var, low, high) triple")
        c = node & 1
        level, low, high = self._k.node(node >> 1)
        return (self._var_names[level], low ^ c, high ^ c)

    def computed_entries(self, start: Optional[Tuple[int, ...]] = None
                         ) -> Iterator[Tuple[str, Tuple[int, ...], int]]:
        """Replay the computed tables as a construction tape: yields
        ``(op, operand node ids, result node id)`` for every memoised
        apply/ite step, in insertion (creation) order.

        The tape records *how* each function was built — a BDD produced
        by ripple-carry BVec arithmetic appears as its chain of
        AND/OR/XOR steps.  The SAT backend re-encodes spec BDDs by
        replaying this tape, yielding CNF that is structurally aligned
        with the circuits it is compared against (canonical mux-DAG
        conversion of the same function produces miters CDCL search
        cannot digest).

        Complement edges fold OR into the AND table and NOT out of
        existence, so the tape has three sections (and, xor, ite); an
        ``and`` entry relates the ids *as recorded* (which may be
        complemented — the ids still name their functions exactly), and
        an ``xor`` entry's operands are always regular.

        *start* — a :meth:`computed_sizes`-shaped tuple — skips that
        many leading entries of each table, so incremental consumers
        pay only for what was computed since their previous call."""
        return self._k.computed_entries(tuple(start) if start else None)

    def computed_sizes(self) -> Tuple[int, ...]:
        """Sizes of the computed tables — a cheap change indicator for
        consumers caching a view of :meth:`computed_entries`."""
        return self._k.computed_sizes()

    def _check(self, *refs: Ref) -> None:
        for ref in refs:
            if ref.mgr is not self:
                raise BDDError("Ref belongs to a different BDDManager")

    def _not(self, f: int) -> int:
        # Complement edges: negation is a tag flip, nothing to compute.
        return f ^ 1

    # ------------------------------------------------------------------
    # ite: genuine three-operand selects (normalised to the direct ops
    # inside the kernel whenever an operand is constant, repeated or a
    # complement of another).
    # ------------------------------------------------------------------
    def ite(self, f: Ref, g: Ref, h: Ref) -> Ref:
        """If-then-else: ``f & g | ~f & h`` computed canonically."""
        self._check(f, g, h)
        return Ref(self, self._ite(f.node, g.node, h.node))

    # ------------------------------------------------------------------
    # Public binary/unary operators
    # ------------------------------------------------------------------
    def apply_not(self, f: Ref) -> Ref:
        self._check(f)
        return Ref(self, f.node ^ 1)

    def apply_and(self, f: Ref, g: Ref) -> Ref:
        self._check(f, g)
        return Ref(self, self._apply_and(f.node, g.node))

    def apply_or(self, f: Ref, g: Ref) -> Ref:
        self._check(f, g)
        return Ref(self, self._apply_or(f.node, g.node))

    def apply_xor(self, f: Ref, g: Ref) -> Ref:
        self._check(f, g)
        return Ref(self, self._apply_xor(f.node, g.node))

    def conj(self, refs: Iterable[Ref]) -> Ref:
        """Conjunction of an iterable of Refs (true for empty input)."""
        acc = _TRUE
        apply_and = self._apply_and
        for ref in refs:
            self._check(ref)
            acc = apply_and(acc, ref.node)
            if acc == _FALSE:
                break
        return Ref(self, acc)

    def disj(self, refs: Iterable[Ref]) -> Ref:
        """Disjunction of an iterable of Refs (false for empty input)."""
        acc = _FALSE
        apply_or = self._apply_or
        for ref in refs:
            self._check(ref)
            acc = apply_or(acc, ref.node)
            if acc == _TRUE:
                break
        return Ref(self, acc)

    # ------------------------------------------------------------------
    # Quantification
    # ------------------------------------------------------------------
    def exists(self, names: Iterable[str], f: Ref) -> Ref:
        """Existential quantification over the named variables."""
        self._check(f)
        levels = frozenset(self.level_of(n) for n in names)
        if not levels:
            return f
        cache: Dict[int, int] = {}
        return Ref(self, self._quant(f.node, levels, max(levels), cache,
                                     is_exists=True))

    def forall(self, names: Iterable[str], f: Ref) -> Ref:
        """Universal quantification over the named variables."""
        self._check(f)
        levels = frozenset(self.level_of(n) for n in names)
        if not levels:
            return f
        cache: Dict[int, int] = {}
        return Ref(self, self._quant(f.node, levels, max(levels), cache,
                                     is_exists=False))

    def _quant(self, node: int, levels: frozenset, max_level: int,
               cache: Dict[int, int], is_exists: bool) -> int:
        if node < 2:
            return node
        level, low, high = self._k.node(node >> 1)
        if level > max_level:
            return node
        cached = cache.get(node)
        if cached is not None:
            return cached
        c = node & 1
        low = self._quant(low ^ c, levels, max_level, cache, is_exists)
        high = self._quant(high ^ c, levels, max_level, cache, is_exists)
        if level in levels:
            if is_exists:
                result = self._apply_or(low, high)
            else:
                result = self._apply_and(low, high)
        else:
            result = self._mk(level, low, high)
        cache[node] = result
        return result

    # ------------------------------------------------------------------
    # Composition / restriction
    # ------------------------------------------------------------------
    def restrict(self, f: Ref, assignment: Mapping[str, bool]) -> Ref:
        """Cofactor *f* by the partial variable *assignment*."""
        self._check(f)
        if not assignment:
            return f
        values = {self.level_of(n): bool(v) for n, v in assignment.items()}
        cache: Dict[int, int] = {}
        node_ = self._k.node

        def walk(node: int) -> int:
            if node < 2:
                return node
            cached = cache.get(node)
            if cached is not None:
                return cached
            c = node & 1
            level, low, high = node_(node >> 1)
            if level in values:
                result = walk((high if values[level] else low) ^ c)
            else:
                result = self._mk(level, walk(low ^ c), walk(high ^ c))
            cache[node] = result
            return result

        return Ref(self, walk(f.node))

    def compose(self, f: Ref, substitution: Mapping[str, Ref]) -> Ref:
        """Simultaneously substitute BDDs for variables in *f*."""
        self._check(f)
        for g in substitution.values():
            self._check(g)
        if not substitution:
            return f
        subs = {self.level_of(n): g.node for n, g in substitution.items()}
        cache: Dict[int, int] = {}
        node_ = self._k.node

        def walk(node: int) -> int:
            if node < 2:
                return node
            cached = cache.get(node)
            if cached is not None:
                return cached
            c = node & 1
            level, low, high = node_(node >> 1)
            low = walk(low ^ c)
            high = walk(high ^ c)
            if level in subs:
                result = self._ite(subs[level], high, low)
            else:
                # The substituted cofactors may have top variables above
                # `level`, so rebuild with ite on the branch variable.
                branch = self._mk(level, _FALSE, _TRUE)
                result = self._ite(branch, high, low)
            cache[node] = result
            return result

        return Ref(self, walk(f.node))

    def rename(self, f: Ref, mapping: Mapping[str, str]) -> Ref:
        """Rename variables (names must map to distinct declared names)."""
        return self.compose(f, {old: self.var(new) for old, new in mapping.items()})

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def support(self, f: Ref) -> frozenset:
        """The set of variable names *f* depends on."""
        self._check(f)
        node_ = self._k.node
        seen = set()
        levels = set()
        stack = [f.node >> 1]
        while stack:
            idx = stack.pop()
            if idx == 0 or idx in seen:
                continue
            seen.add(idx)
            level, low, high = node_(idx)
            levels.add(level)
            stack.append(low >> 1)
            stack.append(high >> 1)
        return frozenset(self._var_names[lvl] for lvl in levels)

    def size(self, f: Ref) -> int:
        """Number of distinct internal nodes reachable from *f*,
        counting a node and its complement separately — exactly the
        node count a plain (complement-free) ROBDD of the same function
        would have, so size comparisons stay meaningful across kernels."""
        self._check(f)
        node_ = self._k.node
        seen = set()
        stack = [f.node]
        while stack:
            node = stack.pop()
            if node < 2 or node in seen:
                continue
            seen.add(node)
            c = node & 1
            _, low, high = node_(node >> 1)
            stack.append(low ^ c)
            stack.append(high ^ c)
        return len(seen)

    def eval(self, f: Ref, assignment: Mapping[str, bool]) -> bool:
        """Evaluate *f* under a total (w.r.t. its support) assignment."""
        self._check(f)
        node_ = self._k.node
        node = f.node
        while node >= 2:
            level, low, high = node_(node >> 1)
            name = self._var_names[level]
            try:
                value = assignment[name]
            except KeyError:
                raise BDDError(f"assignment missing variable {name!r}") from None
            node = (high if value else low) ^ (node & 1)
        return node == _TRUE

    # ------------------------------------------------------------------
    # Satisfiability
    # ------------------------------------------------------------------
    def sat_one(self, f: Ref) -> Optional[Dict[str, bool]]:
        """One satisfying assignment over support(f), or None if f == 0."""
        self._check(f)
        if f.node == _FALSE:
            return None
        node_ = self._k.node
        assignment: Dict[str, bool] = {}
        node = f.node
        while node != _TRUE:
            c = node & 1
            level, low, high = node_(node >> 1)
            name = self._var_names[level]
            low ^= c
            if low != _FALSE:
                assignment[name] = False
                node = low
            else:
                assignment[name] = True
                node = high ^ c
        return assignment

    def sat_all(self, f: Ref, names: Optional[Sequence[str]] = None
                ) -> Iterator[Dict[str, bool]]:
        """Enumerate all satisfying assignments, totalised over *names*
        (default: support of *f*)."""
        self._check(f)
        if names is None:
            names = sorted(self.support(f), key=self.level_of)
        names = list(names)
        name_set = set(names)
        node_ = self._k.node

        def rec(node: int, pending: List[str]) -> Iterator[Dict[str, bool]]:
            if node == _FALSE:
                return
            if node == _TRUE:
                for bits in itertools.product((False, True), repeat=len(pending)):
                    yield dict(zip(pending, bits))
                return
            c = node & 1
            level, low, high = node_(node >> 1)
            name = self._var_names[level]
            if name not in name_set:
                raise BDDError(
                    f"sat_all: function depends on {name!r} which is not in names")
            i = pending.index(name)
            before, after = pending[:i], pending[i + 1:]
            for branch, value in ((low ^ c, False), (high ^ c, True)):
                for head in itertools.product((False, True), repeat=len(before)):
                    prefix = dict(zip(before, head))
                    prefix[name] = value
                    for tail in rec(branch, after):
                        out = dict(prefix)
                        out.update(tail)
                        yield out

        yield from rec(f.node, names)

    def sat_count(self, f: Ref, nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments over *nvars* variables
        (default: the number of variables in support(f))."""
        self._check(f)
        support = self.support(f)
        if nvars is None:
            nvars = len(support)
        if nvars < len(support):
            raise BDDError("nvars smaller than the support of f")
        levels = sorted(self.level_of(n) for n in support)
        rank = {lvl: i for i, lvl in enumerate(levels)}
        nlevels = len(levels)
        node_ = self._k.node

        def level_rank(node: int) -> int:
            if node < 2:
                return nlevels
            return rank[node_(node >> 1)[0]]

        cache: Dict[int, int] = {}

        def count(node: int) -> int:
            """Models over the support variables strictly below node level."""
            if node == _TRUE:
                return 1
            if node == _FALSE:
                return 0
            cached = cache.get(node)
            if cached is not None:
                return cached
            c = node & 1
            level, low, high = node_(node >> 1)
            base = rank[level]
            result = 0
            for child in (low ^ c, high ^ c):
                sub = count(child)
                gap = level_rank(child) - base - 1
                result += sub << gap
            cache[node] = result
            return result

        top_gap = level_rank(f.node)
        return (count(f.node) << top_gap) << (nvars - len(support))

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def register_roots(self, provider: object) -> None:
        """Register a *provider* (held weakly) whose
        ``bdd_roots(mgr)`` method yields node ids that must survive
        collection — e.g. the SAT encoder pins the ids its BDD-to-CNF
        memo is keyed by."""
        self._roots_providers.append(weakref.ref(provider))

    def live_roots(self) -> List[int]:
        """Every externally reachable node id: all live :class:`Ref`
        handles of this manager (discovered through the cyclic-GC
        object graph — handles inside ternary values, trajectories and
        compiled models included) plus the registered root providers.
        Zero bookkeeping on the hot path; the scan cost is paid only
        here, at collection time."""
        import gc as _pygc
        roots = [obj.node for obj in _pygc.get_objects()
                 if type(obj) is Ref and obj.mgr is self]
        alive: List[weakref.ref] = []
        for wr in self._roots_providers:
            provider = wr()
            if provider is None:
                continue
            alive.append(wr)
            roots.extend(provider.bdd_roots(self))
        self._roots_providers[:] = alive
        return roots

    def collect(self, roots: Iterable[Union[Ref, int]] = ()
                ) -> Dict[str, int]:
        """Mark-and-sweep the unique table.

        Marks from *roots* (Refs or raw ids) plus :meth:`live_roots`,
        sweeps unmarked nodes onto the free list, and drops
        computed-table entries touching a swept id (surviving entries
        are kept — they are still true facts about live nodes).  Must
        only be called at a *safe point*: no operation in progress, no
        raw node ids held outside Refs or registered providers.  Returns
        ``{"live", "freed", "live_before"}``.
        """
        ids = [r.node if isinstance(r, Ref) else int(r) for r in roots]
        ids.extend(self.live_roots())
        live_before = self._k.num_nodes()
        # Computed-table entries whose operands and result all survive
        # are kept (wiping the tables was measured to double a
        # session's miss count; the cross-property sharing lives in
        # exactly these entries).  Entries touching a swept id go: its
        # index is about to be recycled.  Consumers of the *tape view*
        # (the SAT encoder, fingerprint memos) still rebuild via the
        # epochs below, because recycled ids invalidate their
        # accumulated id-keyed state.
        freed = self._k.collect(ids)
        if live_before > self._peak_nodes:
            self._peak_nodes = live_before
        live_after = live_before - freed
        self._cache_epoch += 1
        self._gc_epoch += 1
        self._collections += 1
        self._reclaimed += freed
        self._gc_live_floor = live_after
        return {"live": live_after, "freed": freed,
                "live_before": live_before}

    def maybe_collect(self) -> Optional[Dict[str, int]]:
        """The GC safe-point hook.

        Call between logical operations (the check session calls it
        after every property verdict).  Collects only when the live
        count crossed the adaptive limit (max of :attr:`gc_threshold`
        and twice the post-sweep live count of the previous
        collection) — cheap (one count read and two compares)
        otherwise.  The trigger lives here, not in node creation, to
        keep per-allocation bookkeeping off the hot path."""
        live = self._k.num_nodes()
        if live > self._peak_nodes:
            self._peak_nodes = live
        if (self.auto_gc and live >= self.gc_threshold
                and live >= 2 * self._gc_live_floor):
            return self.collect()
        return None

    @property
    def gc_epoch(self) -> int:
        """Bumped on every :meth:`collect` — node *indices* may be
        recycled across it, so id-keyed consumer state (the SAT
        construction tape, fingerprint memos) must be rebuilt."""
        return self._gc_epoch

    # ------------------------------------------------------------------
    # Cache maintenance / statistics
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop operation caches (unique table is kept: canonicity)."""
        self._k.clear_caches()
        self._cache_epoch += 1

    @property
    def cache_epoch(self) -> int:
        """Bumped on every :meth:`clear_caches` (and every
        :meth:`collect`, which clears them too) — lets incremental
        computed-table consumers (the SAT tape) detect a rebuild even
        when the tables regrow past their consumed offsets."""
        return self._cache_epoch

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-operation computed-table statistics.

        ``hits`` counts lookups answered from the table (both top-level
        and inside the apply loops); ``misses`` counts freshly computed
        entries; ``entries`` is the operation's share of current table
        entries (AND and OR share one physical table; NOT is a
        complement-edge bit flip, so its row is permanently zero —
        kept for schema stability)."""
        (and_h, and_m, and_e, or_h, or_m, or_e, xor_h, xor_m, ite_h,
         ite_m) = self._k.stats()
        _, xor_n, ite_n = self._k.computed_sizes()
        return {
            "and": {"hits": and_h, "misses": and_m, "entries": and_e},
            "or": {"hits": or_h, "misses": or_m, "entries": or_e},
            "xor": {"hits": xor_h, "misses": xor_m, "entries": xor_n},
            "not": {"hits": 0, "misses": 0, "entries": 0},
            "ite": {"hits": ite_h, "misses": ite_m, "entries": ite_n},
        }

    def stats(self) -> Dict[str, int]:
        (and_h, and_m, _, or_h, or_m, _, xor_h, xor_m, ite_h,
         ite_m) = self._k.stats()
        and_n, xor_n, ite_n = self._k.computed_sizes()
        nodes = self._k.num_nodes()
        if nodes > self._peak_nodes:
            self._peak_nodes = nodes
        return {
            "nodes": nodes,
            "vars": len(self._var_names),
            "ite_cache": ite_n,
            "apply_cache": and_n + xor_n,
            "cache_hits": and_h + or_h + xor_h + ite_h,
            "cache_misses": and_m + or_m + xor_m + ite_m,
            "peak_nodes": self._peak_nodes,
            "gc_runs": self._collections,
            "gc_reclaimed": self._reclaimed,
        }

    #: :meth:`stats` keys that are point-in-time sizes, not monotone
    #: counters — :meth:`delta` keeps their current values.
    GAUGE_STATS = ("nodes", "vars", "ite_cache", "apply_cache",
                   "peak_nodes")

    def snapshot(self) -> Dict[str, int]:
        """A baseline copy of :meth:`stats` for :meth:`delta`."""
        return self.stats()

    def delta(self, base: Dict[str, int]) -> Dict[str, int]:
        """Computed-table traffic since *base* (a :meth:`snapshot`):
        hit/miss counters subtract, :data:`GAUGE_STATS` sizes keep
        their current values — the rule sessions apply to report only
        their own manager traffic."""
        from ..obs.metrics import stats_delta
        return stats_delta(self.stats(), base, gauges=self.GAUGE_STATS)
