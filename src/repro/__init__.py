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
"""

from repro.hilog import (
    App,
    HerbrandUniverse,
    Literal,
    Num,
    Program,
    Rule,
    Sym,
    Term,
    Var,
    format_program,
    format_rule,
    format_term,
    parse_program,
    parse_query,
    parse_rule,
    parse_term,
)
from repro.engine import Interpretation, conservatively_extends, well_founded_model, stable_models
from repro.db import DatabaseSession, Transaction, UpdateSummary, open_session
from repro.core import (
    answer_query,
    check_domain_independence,
    check_preservation_under_extensions,
    classify_rule,
    hilog_stable_models,
    hilog_well_founded_model,
    well_founded_for_hilog,
    is_datahilog,
    is_range_restricted,
    is_strongly_range_restricted,
    magic_evaluate,
    magic_rewrite,
    modularly_stratified_for_hilog,
    normal_stable_models,
    normal_well_founded_model,
    perfect_model_for_hilog,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # language
    "Term", "Var", "Sym", "Num", "App", "Literal", "Rule", "Program",
    "parse_term", "parse_rule", "parse_program", "parse_query",
    "format_term", "format_rule", "format_program",
    "HerbrandUniverse",
    # engine
    "Interpretation", "conservatively_extends", "well_founded_model", "stable_models",
    # incremental database sessions
    "DatabaseSession", "Transaction", "UpdateSummary", "open_session",
    # core
    "hilog_well_founded_model", "well_founded_for_hilog", "hilog_stable_models",
    "normal_well_founded_model", "normal_stable_models",
    "is_range_restricted", "is_strongly_range_restricted", "classify_rule",
    "check_preservation_under_extensions", "check_domain_independence",
    "modularly_stratified_for_hilog", "perfect_model_for_hilog",
    "is_datahilog",
    "magic_rewrite", "magic_evaluate", "answer_query",
]
