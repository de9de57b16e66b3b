"""HiLog language substrate.

This package implements the HiLog language of Chen, Kifer and Warren as used
in Ross's "On Negation in HiLog": terms (where predicate, function and
constant symbols are not distinguished), variables, applications of arbitrary
terms to argument lists, substitutions, unification, a concrete syntax with a
one-scan parser, rules/literals/programs, Herbrand universe enumeration and
the universal-relation ("call"/"apply") encoding of Section 2 of the paper.
"""

from repro.hilog.errors import GenerationError, HiLogError, ParseError, UnificationError
from repro.hilog.terms import (
    App,
    Num,
    Sym,
    Term,
    Var,
    app,
    begin_generation,
    collect_generation,
    end_generation,
    fresh_var,
    intern_generation,
    intern_generation_sizes,
    intern_table_sizes,
    register_pin_provider,
    sym,
    term_size,
    unregister_pin_provider,
)
from repro.hilog.subst import Substitution, compose, empty_substitution
from repro.hilog.unify import match, mgu, unify
from repro.hilog.program import Literal, Program, Rule, AggregateSpec
from repro.hilog.parser import parse_program, parse_query, parse_rule, parse_term
from repro.hilog.pretty import format_literal, format_program, format_rule, format_term
from repro.hilog.herbrand import HerbrandUniverse, herbrand_symbols
from repro.hilog.universal import (
    APPLY_PREFIX,
    CALL,
    encode_atom,
    encode_program,
    encode_term,
    decode_atom,
    decode_term,
)

__all__ = [
    "HiLogError",
    "ParseError",
    "UnificationError",
    "GenerationError",
    "fresh_var",
    "begin_generation",
    "end_generation",
    "intern_generation",
    "collect_generation",
    "intern_table_sizes",
    "intern_generation_sizes",
    "register_pin_provider",
    "unregister_pin_provider",
    "Term",
    "Var",
    "Sym",
    "Num",
    "App",
    "sym",
    "app",
    "term_size",
    "Substitution",
    "empty_substitution",
    "compose",
    "unify",
    "mgu",
    "match",
    "Literal",
    "Rule",
    "Program",
    "AggregateSpec",
    "parse_term",
    "parse_rule",
    "parse_program",
    "parse_query",
    "format_term",
    "format_literal",
    "format_rule",
    "format_program",
    "HerbrandUniverse",
    "herbrand_symbols",
    "CALL",
    "APPLY_PREFIX",
    "encode_term",
    "encode_atom",
    "encode_program",
    "decode_term",
    "decode_atom",
]
