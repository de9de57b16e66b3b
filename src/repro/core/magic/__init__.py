"""Magic sets for modularly stratified HiLog programs (Section 6.1).

The paper extends the magic-sets transformation of Ross'90 to strongly
range-restricted HiLog programs that are modularly stratified *from left to
right*: queries may bind predicate names partially (``?- w(m)(a)``) or not
at all, and the rewriting introduces a ``magic`` predicate whose argument is
the called atom together with supplementary predicates ``sup_{r,i}`` holding
the bindings passed across each rule body.

This package provides:

* :func:`repro.core.magic.rewrite.magic_rewrite` — the declarative rewriting:
  seed fact, supplementary rules, magic rules and answer rules in the style
  of Example 6.6 (with unbound argument positions abstracted by the reserved
  symbol ``$free``, the adornment information of the classical method).
* :func:`repro.core.magic.evaluate.magic_evaluate` — query-driven evaluation:
  call patterns are propagated left-to-right (the magic-templates view of the
  same transformation), only rule instances relevant to the query are
  instantiated, and the well-founded model of that relevant fragment is
  computed.  For programs that are modularly stratified from left to right
  this returns exactly the answers of the full well-founded semantics while
  materializing only query-reachable atoms; the ``dp``/``dn``/``dn'``
  book-keeping relations of Ross'90 are replaced by this
  relevant-subprogram construction (the two coincide on the supported class,
  and the substitution is recorded in DESIGN.md).  The SIPS is the join
  planner's (:mod:`repro.engine.seminaive.sips`), re-exported here.

The names below are resolved on first use (:mod:`repro._exports`).
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.core.magic.adornment": ("FREE", "abstract_call", "adornment_of"),
    "repro.engine.seminaive.sips": ("SipsStep", "left_to_right_sips"),
    "repro.core.magic.rewrite": ("MagicProgram", "magic_rewrite"),
    "repro.core.magic.evaluate": (
        "MagicEvaluationResult", "answer_from_store", "magic_evaluate",
        "answer_query",
    ),
})
