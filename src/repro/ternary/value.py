"""The STE value lattice as dual-rail BDD pairs.

Symbolic trajectory evaluation augments the Boolean values 0 and 1 with
an *unknown* X below them in the information order (X ⊑ 0, X ⊑ 1), plus
an *overconstrained* top element ⊤ that arises when an antecedent demands
a node be both 0 and 1 at once.  A symbolic lattice value is encoded as a
pair of BDDs — the classic dual-rail encoding used by Forte:

    value = (h, l)     h: "may be 1",  l: "may be 0"

    X = (1, 1)    0 = (0, 1)    1 = (1, 0)    ⊤ = (0, 0)

Under a Boolean variable assignment φ the pair collapses to one of the
four scalars, so a single dual-rail value compactly represents a
*family* of scalar ternary values — that is precisely what lets one STE
run cover all instantiations of the symbolic state at once.

The information (trajectory) order and the monotone gate algebra are:

    join  (⊔, combine constraints):  (h1 & h2, l1 & l2)
    leq   (⊑):                       h2 → h1  and  l2 → l1 … see `leq`
    NOT   (h, l) = (l, h)
    AND   = pessimistic product (X & 0 = 0, X & 1 = X)
    MUX   monotone select — an X select merges the branches

Every operator here is monotone w.r.t. ⊑, which is the property the STE
fundamental theorem ("any binary value obtained with X's persists when
the X's are refined") rests on.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Tuple

from ..bdd import BDDError, BDDManager, Ref

__all__ = ["TernaryValue", "X", "ZERO", "ONE", "TOP", "from_bool",
           "from_bdd", "SCALAR_OF_RAILS"]

#: (h, l) rail truth values -> scalar character.  The single source of
#: truth for the dual-rail encoding, shared by the BDD engine
#: (:meth:`TernaryValue.scalar`) and the SAT engine
#: (:mod:`repro.sat.encode`, where an X-valued input is the
#: unconstrained pair of true rails).
SCALAR_OF_RAILS = {(True, True): "X", (True, False): "1",
                   (False, True): "0", (False, False): "T"}


class TernaryValue:
    """A dual-rail symbolic lattice value owned by a BDD manager."""

    __slots__ = ("mgr", "h", "l")

    def __init__(self, mgr: BDDManager, h: Ref, l: Ref):
        if h.mgr is not mgr or l.mgr is not mgr:
            raise BDDError("dual-rail components must share the manager")
        self.mgr = mgr
        self.h = h
        self.l = l

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def x(cls, mgr: BDDManager) -> "TernaryValue":
        return cls(mgr, mgr.true, mgr.true)

    @classmethod
    def zero(cls, mgr: BDDManager) -> "TernaryValue":
        return cls(mgr, mgr.false, mgr.true)

    @classmethod
    def one(cls, mgr: BDDManager) -> "TernaryValue":
        return cls(mgr, mgr.true, mgr.false)

    @classmethod
    def top(cls, mgr: BDDManager) -> "TernaryValue":
        return cls(mgr, mgr.false, mgr.false)

    @classmethod
    def of_bool(cls, mgr: BDDManager, value: bool) -> "TernaryValue":
        return cls.one(mgr) if value else cls.zero(mgr)

    @classmethod
    def of_bdd(cls, f: Ref) -> "TernaryValue":
        """Lift a Boolean function to the two-valued lattice element that
        is 1 exactly where *f* holds (never X)."""
        return cls(f.mgr, f, ~f)

    # ------------------------------------------------------------------
    # Lattice structure
    #
    # Everything below calls the kernel's int-level entry points
    # (`mgr._apply_and` / `_apply_or` / `_apply_xor` are the kernel's
    # own bound methods) on raw node ids instead of going through Ref
    # operators: dual-rail stepping performs a handful of BDD ops per
    # gate per time step, and with no Ref wrapper, manager check or
    # Python frame between the gate and the kernel, the native kernel's
    # apply loops run straight from here.
    # ------------------------------------------------------------------
    def join(self, other: "TernaryValue") -> "TernaryValue":
        """Least upper bound in the information order (⊔)."""
        self._check(other)
        mgr = self.mgr
        return TernaryValue(mgr,
                            Ref(mgr, mgr._apply_and(self.h.node, other.h.node)),
                            Ref(mgr, mgr._apply_and(self.l.node, other.l.node)))

    def meet(self, other: "TernaryValue") -> "TernaryValue":
        """Greatest lower bound (⊓): keeps only agreed information."""
        self._check(other)
        mgr = self.mgr
        return TernaryValue(mgr,
                            Ref(mgr, mgr._apply_or(self.h.node, other.h.node)),
                            Ref(mgr, mgr._apply_or(self.l.node, other.l.node)))

    def leq(self, other: "TernaryValue") -> Ref:
        """BDD of the condition under which ``self ⊑ other``.

        ⊑ holds iff every rail of *other* is contained in the same rail of
        *self* — other carries at least the information of self.
        """
        self._check(other)
        mgr = self.mgr
        return Ref(mgr, mgr._apply_and(
            mgr._apply_or(mgr._not(other.h.node), self.h.node),
            mgr._apply_or(mgr._not(other.l.node), self.l.node)))

    def is_consistent(self) -> Ref:
        """BDD of 'not overconstrained' (value != ⊤)."""
        mgr = self.mgr
        return Ref(mgr, mgr._apply_or(self.h.node, self.l.node))

    def is_defined(self) -> Ref:
        """BDD of 'carries a definite Boolean value' (0 or 1, not X/⊤)."""
        mgr = self.mgr
        return Ref(mgr, mgr._apply_xor(self.h.node, self.l.node))

    # ------------------------------------------------------------------
    # Monotone gate algebra
    # ------------------------------------------------------------------
    def __invert__(self) -> "TernaryValue":
        return TernaryValue(self.mgr, self.l, self.h)

    def __and__(self, other: "TernaryValue") -> "TernaryValue":
        self._check(other)
        mgr = self.mgr
        return TernaryValue(mgr,
                            Ref(mgr, mgr._apply_and(self.h.node, other.h.node)),
                            Ref(mgr, mgr._apply_or(self.l.node, other.l.node)))

    def __or__(self, other: "TernaryValue") -> "TernaryValue":
        self._check(other)
        mgr = self.mgr
        return TernaryValue(mgr,
                            Ref(mgr, mgr._apply_or(self.h.node, other.h.node)),
                            Ref(mgr, mgr._apply_and(self.l.node, other.l.node)))

    def __xor__(self, other: "TernaryValue") -> "TernaryValue":
        self._check(other)
        mgr = self.mgr
        and_ = mgr._apply_and
        or_ = mgr._apply_or
        sh, sl = self.h.node, self.l.node
        oh, ol = other.h.node, other.l.node
        return TernaryValue(mgr,
                            Ref(mgr, or_(and_(sh, ol), and_(sl, oh))),
                            Ref(mgr, or_(and_(sh, oh), and_(sl, ol))))

    def mux(self, then: "TernaryValue", else_: "TernaryValue") -> "TernaryValue":
        """Monotone ternary select with *self* as the control.

        control=1 -> then;  control=0 -> else_;  control=X -> the meet of
        the branches (X wherever they disagree) — the standard pessimistic
        but monotone multiplexer, which is exactly what latch and
        retention-cell models need.
        """
        self._check(then)
        self._check(else_)
        mgr = self.mgr
        and_ = mgr._apply_and
        or_ = mgr._apply_or
        ch, cl = self.h.node, self.l.node
        return TernaryValue(
            mgr,
            Ref(mgr, or_(and_(ch, then.h.node), and_(cl, else_.h.node))),
            Ref(mgr, or_(and_(ch, then.l.node), and_(cl, else_.l.node))))

    def when(self, guard: Ref) -> "TernaryValue":
        """Weaken to X outside *guard* — Defn 2's ``f when G`` clause."""
        mgr = self.mgr
        if guard.mgr is not mgr:
            raise BDDError("guard belongs to a different manager")
        outside = mgr._not(guard.node)
        return TernaryValue(mgr,
                            Ref(mgr, mgr._apply_or(self.h.node, outside)),
                            Ref(mgr, mgr._apply_or(self.l.node, outside)))

    # ------------------------------------------------------------------
    # Evaluation / inspection
    # ------------------------------------------------------------------
    def scalar(self, assignment: Mapping[str, bool]) -> str:
        """Collapse to one of '0', '1', 'X', 'T' under *assignment*."""
        h = self.mgr.eval(self.h, assignment)
        l = self.mgr.eval(self.l, assignment)
        return SCALAR_OF_RAILS[(h, l)]

    def const_scalar(self) -> Optional[str]:
        """The scalar if the value is assignment-independent, else None."""
        for name, h, l in (("X", True, True), ("1", True, False),
                           ("0", False, True), ("T", False, False)):
            if (self.h.is_true == h and self.h.is_const
                    and self.l.is_true == l and self.l.is_const):
                return name
        return None

    def equals(self, other: "TernaryValue") -> bool:
        """Canonical (BDD-level) equality of the two lattice values."""
        self._check(other)
        return self.h == other.h and self.l == other.l

    def _check(self, other: "TernaryValue") -> None:
        if other.mgr is not self.mgr:
            raise BDDError("TernaryValue operands use different managers")

    def __repr__(self) -> str:
        const = self.const_scalar()
        if const is not None:
            return f"TernaryValue({const})"
        return "TernaryValue(symbolic)"


def from_bool(mgr: BDDManager, value: bool) -> TernaryValue:
    """Convenience alias for :meth:`TernaryValue.of_bool`."""
    return TernaryValue.of_bool(mgr, value)


def from_bdd(f: Ref) -> TernaryValue:
    """Convenience alias for :meth:`TernaryValue.of_bdd`."""
    return TernaryValue.of_bdd(f)


def X(mgr: BDDManager) -> TernaryValue:
    return TernaryValue.x(mgr)


def ZERO(mgr: BDDManager) -> TernaryValue:
    return TernaryValue.zero(mgr)


def ONE(mgr: BDDManager) -> TernaryValue:
    return TernaryValue.one(mgr)


def TOP(mgr: BDDManager) -> TernaryValue:
    return TernaryValue.top(mgr)
