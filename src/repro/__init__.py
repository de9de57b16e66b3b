"""repro — a reproduction of "On Negation in HiLog" (Ross, PODS 1991 / JLP 1994).

The package implements HiLog programs with negative body literals and the
paper's semantic toolkit around them:

* the HiLog language (terms, unification, parser) and its universal-relation
  encoding (:mod:`repro.hilog`),
* the ground evaluation engine: three-valued interpretations, the ``W_P``
  operator, well-founded and stable semantics (:mod:`repro.engine`),
* the classical normal-program notions the paper compares against
  (:mod:`repro.normal`),
* the paper's contributions: HiLog well-founded/stable semantics, range
  restriction, preservation under extensions, modular stratification for
  HiLog and magic sets (:mod:`repro.core`),
* incremental deductive-database sessions maintaining materialized perfect
  models under fact insertion/retraction by delete-rederive
  (:mod:`repro.db`),
* workload generators and analysis helpers for the experiments
  (:mod:`repro.workloads`, :mod:`repro.analysis`).

Quickstart::

    from repro import parse_program, hilog_well_founded_model

    program = parse_program('''
        winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).
        game(move1).
        move1(a, b). move1(b, c).
    ''')
    model = hilog_well_founded_model(program)
    print(sorted(map(repr, model.true)))

The names below are resolved on first use (:mod:`repro._exports`): a
process that imports one subpackage loads only what that subpackage needs.
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

_NAMES, __getattr__ = lazy_exports(__name__, {
    # language
    "repro.hilog": (
        "Term", "Var", "Sym", "Num", "App", "Literal", "Rule", "Program",
        "parse_term", "parse_rule", "parse_program", "parse_query",
        "format_term", "format_rule", "format_program",
        "HerbrandUniverse",
    ),
    # engine
    "repro.engine": (
        "Interpretation", "conservatively_extends", "well_founded_model",
        "stable_models",
    ),
    # incremental database sessions
    "repro.db": ("DatabaseSession", "Transaction", "UpdateSummary",
                 "open_session"),
    # core
    "repro.core": (
        "hilog_well_founded_model", "well_founded_for_hilog",
        "hilog_stable_models", "normal_well_founded_model",
        "normal_stable_models", "is_range_restricted",
        "is_strongly_range_restricted", "classify_rule",
        "check_preservation_under_extensions", "check_domain_independence",
        "modularly_stratified_for_hilog", "perfect_model_for_hilog",
        "is_datahilog", "magic_rewrite", "magic_evaluate", "answer_query",
    ),
})
__all__ = ["__version__"] + _NAMES
