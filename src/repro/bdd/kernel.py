"""The pure-Python BDD kernel: node storage, tables and apply loops.

:class:`PyKernel` is the reference implementation of the kernel
interface :class:`~repro.bdd.manager.BDDManager` runs on.  The native
kernel (``_native.c``, built by :mod:`repro.bdd.native`) transcribes it
step for step — same canonical rules, same stack order, same table
insertion order — so both produce identical node ids, counters and
computed-table tapes.  This one is the equivalence oracle of the kernel
tests and the fallback on a host that cannot build the extension.

Layout:

* node storage is three parallel flat int lists (level, low, high)
  indexed by *node index*.  Plain lists beat ``array('q')`` here: the
  kernel is index-read dominated, and a list returns its cached
  small-int object where the typed array has to box a fresh one per
  access (~30% per read, measured);
* a node id carries a **complement edge** in its lowest bit
  (``id = index << 1 | complement``).  Canonicity is restored at
  :meth:`mk` time with the CUDD rules: stored nodes always have a
  *regular* high edge, and ``mk(v, f, f) == f``;
* the unique table is split into per-level dicts, swept level by
  level (insertion order within a level) by :meth:`collect`;
* AND and OR share one computed table through De Morgan, XOR keys on
  complement-stripped operand pairs, ITE on regular-then triples.  All
  keys are packed integers (``f << 30 | g``): ids stay below 2**30, and
  small-int keys avoid a tuple allocation per lookup.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["BDDError", "PyKernel", "MAX_INDEX", "TERMINAL_LEVEL"]


class BDDError(Exception):
    """Raised for structural misuse of the BDD manager (mixed managers,
    unknown variables, malformed assignments) and for node-table
    overflow."""


# Terminal ids: index 0 is the one terminal node; the complement bit
# distinguishes FALSE (0) from TRUE (1).  Internal ids start at 2.
_FALSE = 0
_TRUE = 1

# Key packing width: node ids stay < 2**30 (indices < 2**29).
_S = 30
MAX_INDEX = 1 << (_S - 1)

#: Level of the terminal index (sorts below every variable).
TERMINAL_LEVEL = 2 ** 31 - 1


class PyKernel:
    """Node storage, unique and computed tables, and the apply loops.

    *max_index* bounds the node index (the packed-key limit by default;
    tests lower it to reach the overflow path with a few nodes)."""

    def __init__(self, max_index: int = MAX_INDEX):
        self._max_index = max_index
        # Parallel arrays indexed by node *index* (id >> 1); entry 0 is
        # the terminal.  Freed entries carry level -1 until reused.
        self._level: List[int] = [TERMINAL_LEVEL]
        self._low: List[int] = [0]
        self._high: List[int] = [0]
        # Per-level unique subtables: (low << 30 | high) -> index.
        self._subtables: List[Dict[int, int]] = []
        # Indices available for reuse after a collect().
        self._free: List[int] = []
        self._and_cache: Dict[int, int] = {}
        self._xor_cache: Dict[int, int] = {}
        self._ite_cache: Dict[int, int] = {}
        # [hits, misses(, entries-since-clear)] per operation.  AND and
        # OR share a table, so each carries its own entry counter; the
        # per-op tables just report their size.
        self._stats_and = [0, 0, 0]
        self._stats_or = [0, 0, 0]
        self._stats_xor = [0, 0]
        self._stats_ite = [0, 0]

    # ------------------------------------------------------------------
    # Storage
    # ------------------------------------------------------------------
    def add_level(self) -> int:
        self._subtables.append({})
        return len(self._subtables) - 1

    def level(self, idx: int) -> int:
        return self._level[idx]

    def node(self, idx: int) -> Tuple[int, int, int]:
        return self._level[idx], self._low[idx], self._high[idx]

    def num_nodes(self) -> int:
        return len(self._level) - len(self._free)

    def capacity(self) -> int:
        return len(self._level)

    def stats(self) -> Tuple[int, ...]:
        return (*self._stats_and, *self._stats_or, *self._stats_xor,
                *self._stats_ite)

    def computed_sizes(self) -> Tuple[int, int, int]:
        return (len(self._and_cache), len(self._xor_cache),
                len(self._ite_cache))

    def computed_entries(self, start: Optional[Tuple[int, int, int]]
                         ) -> Iterator[Tuple[str, Tuple[int, ...], int]]:
        offsets = start or (0, 0, 0)
        mask = (1 << _S) - 1
        tables = (("and", 2, self._and_cache),
                  ("xor", 2, self._xor_cache),
                  ("ite", 3, self._ite_cache))
        for (op, arity, table), skip in zip(tables, offsets):
            items = (itertools.islice(table.items(), skip, None)
                     if skip else table.items())
            if arity == 2:
                for key, r in items:
                    yield (op, (key >> _S, key & mask), r)
            else:
                for key, r in items:
                    yield (op, (key >> 60, (key >> _S) & mask, key & mask),
                           r)

    def mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        # Canonical form: the stored high edge is always regular.
        c = high & 1
        if c:
            low ^= 1
            high ^= 1
        table = self._subtables[level]
        key = (low << _S) | high
        idx = table.get(key)
        if idx is None:
            free = self._free
            if free:
                idx = free.pop()
                self._level[idx] = level
                self._low[idx] = low
                self._high[idx] = high
            else:
                idx = len(self._level)
                if idx >= self._max_index:
                    # Beyond this index the packed keys would overlap and
                    # the tables would silently return wrong nodes — in a
                    # verification kernel that must be a loud failure.
                    raise BDDError(
                        f"unique table exceeded {self._max_index} nodes; "
                        f"packed table keys would no longer be "
                        f"collision-free")
                self._level.append(level)
                self._low.append(low)
                self._high.append(high)
            table[key] = idx
        return (idx << 1) | c

    # ------------------------------------------------------------------
    # The shared AND/OR kernel (the hot path)
    #
    # One iterative two-phase loop over an explicit stack: a 3-tuple
    # frame (a, b, key) expands a subproblem — resolving both cofactor
    # children through the terminal rules or the computed table — and a
    # 6-tuple frame (key, level, lo, lkey, hi, hkey) combines children
    # once they are available.  Children are pushed after their combine
    # frame, so LIFO order guarantees the combine frame finds them in
    # the cache.  OR enters through De Morgan and attributes its cache
    # traffic to the caller-supplied stats slot, so the per-op counters
    # survive the table merge.
    # ------------------------------------------------------------------
    def _and_kernel(self, f: int, g: int, stats: List[int]) -> int:
        # Everything below is hoisted into locals and the unique-table
        # insert (mk) is inlined at the combine point: this loop is the
        # hottest code in the package and a bound-method call per miss
        # is measurable.  Complement bits are applied behind branches
        # because regular ids dominate and ``x ^ 0`` still allocates.
        if f == g:
            return f
        if f > g:
            f, g = g, f
        if f < 2:
            return g if f else _FALSE
        if g == f ^ 1:
            return _FALSE
        cache = self._and_cache
        key0 = (f << _S) | g
        result = cache.get(key0)
        if result is not None:
            stats[0] += 1
            return result
        level_ = self._level
        low_ = self._low
        high_ = self._high
        subtables_ = self._subtables
        free_ = self._free
        get = cache.get
        hits = 0
        misses = 0
        stack: List[tuple] = [(f, g, key0)]
        push = stack.append
        while stack:
            frame = stack.pop()
            if len(frame) == 3:
                a, b, key = frame
                if key in cache:
                    continue
                ia = a >> 1
                ib = b >> 1
                la = level_[ia]
                lb = level_[ib]
                if la <= lb:
                    lvl = la
                    if a & 1:
                        a0 = low_[ia] ^ 1
                        a1 = high_[ia] ^ 1
                    else:
                        a0 = low_[ia]
                        a1 = high_[ia]
                    if la == lb:
                        if b & 1:
                            b0 = low_[ib] ^ 1
                            b1 = high_[ib] ^ 1
                        else:
                            b0 = low_[ib]
                            b1 = high_[ib]
                    else:
                        b0 = b1 = b
                else:
                    lvl = lb
                    a0 = a1 = a
                    if b & 1:
                        b0 = low_[ib] ^ 1
                        b1 = high_[ib] ^ 1
                    else:
                        b0 = low_[ib]
                        b1 = high_[ib]
                if a0 > b0:
                    a0, b0 = b0, a0
                if a0 == b0:
                    lo: Optional[int] = a0
                    lkey = 0
                elif a0 < 2:
                    lo = b0 if a0 else _FALSE
                    lkey = 0
                elif b0 == a0 ^ 1:
                    lo = _FALSE
                    lkey = 0
                else:
                    lkey = (a0 << _S) | b0
                    lo = get(lkey)
                    if lo is not None:
                        hits += 1
                if a1 > b1:
                    a1, b1 = b1, a1
                if a1 == b1:
                    hi: Optional[int] = a1
                    hkey = 0
                elif a1 < 2:
                    hi = b1 if a1 else _FALSE
                    hkey = 0
                elif b1 == a1 ^ 1:
                    hi = _FALSE
                    hkey = 0
                else:
                    hkey = (a1 << _S) | b1
                    hi = get(hkey)
                    if hi is not None:
                        hits += 1
                if lo is None or hi is None:
                    push((key, lvl, lo, lkey, hi, hkey))
                    if lo is None:
                        push((a0, b0, lkey))
                    if hi is None:
                        push((a1, b1, hkey))
                    continue
            else:
                key, lvl, lo, lkey, hi, hkey = frame
                if lo is None:
                    lo = cache[lkey]
                if hi is None:
                    hi = cache[hkey]
            misses += 1
            # Inlined mk(lvl, lo, hi) — keep in sync with that method.
            if lo == hi:
                cache[key] = lo
                continue
            cc = hi & 1
            if cc:
                lo ^= 1
                hi ^= 1
            table = subtables_[lvl]
            ukey = (lo << _S) | hi
            idx = table.get(ukey)
            if idx is None:
                if free_:
                    idx = free_.pop()
                    level_[idx] = lvl
                    low_[idx] = lo
                    high_[idx] = hi
                else:
                    idx = len(level_)
                    if idx >= self._max_index:
                        raise BDDError(
                            f"unique table exceeded {self._max_index} "
                            f"nodes; packed table keys would no longer be "
                            f"collision-free")
                    level_.append(lvl)
                    low_.append(lo)
                    high_.append(hi)
                table[ukey] = idx
            cache[key] = (idx << 1) | cc
        stats[0] += hits
        stats[1] += misses
        stats[2] += misses
        return cache[key0]

    def and_(self, f: int, g: int) -> int:
        return self._and_kernel(f, g, self._stats_and)

    def or_(self, f: int, g: int) -> int:
        # De Morgan onto the AND kernel: the complement flips are free,
        # and dual-rail values (low rail == ~high rail) make the OR of
        # one rail hit the exact cache entry the AND of the other rail
        # created.
        return self._and_kernel(f ^ 1, g ^ 1, self._stats_or) ^ 1

    def xor(self, f: int, g: int) -> int:
        # ~f ^ g == ~(f ^ g): strip both complement bits, operate on the
        # regular ids, re-apply the combined parity to the result.
        parity = (f ^ g) & 1
        f &= -2
        g &= -2
        if f == g:
            return parity
        if f > g:
            f, g = g, f
        if f == _FALSE:
            return g ^ parity
        cache = self._xor_cache
        key0 = (f << _S) | g
        result = cache.get(key0)
        if result is not None:
            self._stats_xor[0] += 1
            return result ^ parity
        level_ = self._level
        low_ = self._low
        high_ = self._high
        get = cache.get
        mk = self.mk
        hits = 0
        misses = 0
        stack: List[tuple] = [(f, g, key0)]
        push = stack.append
        while stack:
            frame = stack.pop()
            if len(frame) == 3:
                a, b, key = frame
                if key in cache:
                    continue
                ia = a >> 1
                ib = b >> 1
                la = level_[ia]
                lb = level_[ib]
                if la < lb:
                    lvl = la
                    a0 = low_[ia]
                    a1 = high_[ia]
                    b0 = b1 = b
                elif lb < la:
                    lvl = lb
                    a0 = a1 = a
                    b0 = low_[ib]
                    b1 = high_[ib]
                else:
                    lvl = la
                    a0 = low_[ia]
                    a1 = high_[ia]
                    b0 = low_[ib]
                    b1 = high_[ib]
                lp = (a0 ^ b0) & 1
                a0 &= -2
                b0 &= -2
                if a0 > b0:
                    a0, b0 = b0, a0
                if a0 == b0:
                    lo: Optional[int] = lp
                    lkey = 0
                elif a0 == _FALSE:
                    lo = b0 ^ lp
                    lkey = 0
                else:
                    lkey = (a0 << _S) | b0
                    lo = get(lkey)
                    if lo is not None:
                        lo ^= lp
                        hits += 1
                hp = (a1 ^ b1) & 1
                a1 &= -2
                b1 &= -2
                if a1 > b1:
                    a1, b1 = b1, a1
                if a1 == b1:
                    hi: Optional[int] = hp
                    hkey = 0
                elif a1 == _FALSE:
                    hi = b1 ^ hp
                    hkey = 0
                else:
                    hkey = (a1 << _S) | b1
                    hi = get(hkey)
                    if hi is not None:
                        hi ^= hp
                        hits += 1
                if lo is not None and hi is not None:
                    cache[key] = mk(lvl, lo, hi)
                    misses += 1
                else:
                    push((key, lvl, lo, lkey, lp, hi, hkey, hp))
                    if lo is None:
                        push((a0, b0, lkey))
                    if hi is None:
                        push((a1, b1, hkey))
            else:
                key, lvl, lo, lkey, lp, hi, hkey, hp = frame
                if lo is None:
                    lo = cache[lkey] ^ lp
                if hi is None:
                    hi = cache[hkey] ^ hp
                cache[key] = mk(lvl, lo, hi)
                misses += 1
        stats = self._stats_xor
        stats[0] += hits
        stats[1] += misses
        return cache[key0] ^ parity

    # ------------------------------------------------------------------
    # ite: kept for genuine three-operand selects, normalised to the
    # direct ops whenever an operand is constant, repeated or a
    # complement of another.
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        if f == _TRUE:
            return g
        if f == _FALSE:
            return h
        if g == h:
            return g
        if f & 1:
            # ite(~f, g, h) == ite(f, h, g): keep the select regular.
            f ^= 1
            g, h = h, g
        if g == f:
            g = _TRUE
        elif g == f ^ 1:
            g = _FALSE
        if h == f:
            h = _FALSE
        elif h == f ^ 1:
            h = _TRUE
        if g == h:
            return g
        if g == _TRUE:
            if h == _FALSE:
                return f
            return self.or_(f, h)
        if g == _FALSE:
            if h == _TRUE:
                return f ^ 1
            return self.and_(f ^ 1, h)
        if h == _FALSE:
            return self.and_(f, g)
        if h == _TRUE:
            return self.or_(f ^ 1, g)
        # Canonical cache form: regular then-branch
        # (ite(f, ~g, ~h) == ~ite(f, g, h)).
        n = g & 1
        if n:
            g ^= 1
            h ^= 1
        key = (f << 60) | (g << _S) | h
        cached = self._ite_cache.get(key)
        if cached is not None:
            self._stats_ite[0] += 1
            return cached ^ n
        level_ = self._level
        level = level_[f >> 1]
        lg = level_[g >> 1]
        if lg < level:
            level = lg
        lh = level_[h >> 1]
        if lh < level:
            level = lh
        f0, f1 = self._cof(f, level)
        g0, g1 = self._cof(g, level)
        h0, h1 = self._cof(h, level)
        low = self.ite(f0, g0, h0)
        high = self.ite(f1, g1, h1)
        result = self.mk(level, low, high)
        self._ite_cache[key] = result
        self._stats_ite[1] += 1
        return result ^ n

    def _cof(self, node: int, level: int) -> Tuple[int, int]:
        """Cofactors of *node* w.r.t. the variable at *level*."""
        idx = node >> 1
        if self._level[idx] != level:
            return node, node
        c = node & 1
        return self._low[idx] ^ c, self._high[idx] ^ c

    # ------------------------------------------------------------------
    # Garbage collection / cache maintenance
    # ------------------------------------------------------------------
    def collect(self, roots: Iterable[int]) -> int:
        """Mark from *roots*, sweep unmarked nodes out of the per-level
        subtables onto the free list, and drop computed-table entries
        touching a swept id.  Returns the number of nodes freed."""
        level_ = self._level
        low_ = self._low
        high_ = self._high
        marked = bytearray(len(level_))
        marked[0] = 1
        stack = list(roots)
        while stack:
            idx = stack.pop() >> 1
            if marked[idx]:
                continue
            marked[idx] = 1
            stack.append(low_[idx])
            stack.append(high_[idx])
        free = self._free
        freed = 0
        for table in self._subtables:
            dead = [key for key, idx in table.items() if not marked[idx]]
            for key in dead:
                idx = table.pop(key)
                level_[idx] = -1
                free.append(idx)
            freed += len(dead)
        mask = (1 << _S) - 1
        self._and_cache = {
            key: r for key, r in self._and_cache.items()
            if marked[(key >> _S) >> 1] and marked[(key & mask) >> 1]
            and marked[r >> 1]}
        self._xor_cache = {
            key: r for key, r in self._xor_cache.items()
            if marked[(key >> _S) >> 1] and marked[(key & mask) >> 1]
            and marked[r >> 1]}
        self._ite_cache = {
            key: r for key, r in self._ite_cache.items()
            if marked[(key >> 60) >> 1] and marked[((key >> _S) & mask) >> 1]
            and marked[(key & mask) >> 1] and marked[r >> 1]}
        # Surviving shared-table entries are re-attributed to "and"
        # (the shared table cannot tell which op created them).
        self._stats_and[2] = len(self._and_cache)
        self._stats_or[2] = 0
        return freed

    def clear_caches(self) -> None:
        self._and_cache.clear()
        self._xor_cache.clear()
        self._ite_cache.clear()
        self._stats_and[2] = 0
        self._stats_or[2] = 0
