"""The paper's core contribution: negation in HiLog.

This package implements Sections 4–6 of "On Negation in HiLog":

* the HiLog well-founded and stable semantics (Section 4),
* HiLog range restriction and strong range restriction (Definitions 5.5/5.6),
* empirical checkers for domain independence and preservation under
  extensions (Section 5),
* modular stratification for HiLog — the Figure-1 procedure — and the
  resulting perfect-model evaluation, including the aggregate extension used
  by the parts-explosion program (Section 6),
* Datahilog recognition and the finiteness guarantee of Lemma 6.3,
* the magic-sets transformation and query-driven evaluation for modularly
  stratified HiLog programs (Section 6.1).

The names below are resolved on first use (:mod:`repro._exports`).
"""

from repro._exports import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.core.semantics": (
        "hilog_well_founded_model", "well_founded_for_hilog",
        "hilog_stable_models", "normal_well_founded_model",
        "normal_stable_models",
    ),
    "repro.core.range_restriction": (
        "is_range_restricted", "is_strongly_range_restricted",
        "rule_is_range_restricted", "rule_is_strongly_range_restricted",
        "is_query_range_restricted", "classify_rule",
    ),
    "repro.core.preservation": (
        "PreservationReport", "check_preservation_under_extensions",
        "random_disjoint_extension",
    ),
    "repro.core.domain_independence": (
        "DomainIndependenceReport", "check_domain_independence",
    ),
    "repro.core.modular": (
        "HiLogModularResult", "modularly_stratified_for_hilog",
        "perfect_model_for_hilog", "hilog_reduction",
    ),
    "repro.core.datahilog": ("is_datahilog", "datahilog_relevant_atoms"),
    "repro.core.magic": (
        "MagicProgram", "magic_rewrite", "magic_evaluate", "answer_query",
        "answer_from_store",
    ),
})
