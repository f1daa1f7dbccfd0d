"""Subscription language: AST, parser, normal forms, trees and codecs."""

from .ast import (
    And,
    BooleanExpression,
    Not,
    Or,
    PredicateLeaf,
    conjunction,
    disjunction,
    leaf,
)
from .covering import (
    clause_covers,
    covers,
    dnf_covers,
    predicate_covers,
)
from .covering_index import (
    AddOutcome,
    CoveringIndex,
    RemoveOutcome,
)
from .compiler import (
    MODE_ANY,
    MODE_CLOSURE,
    MODE_DNF,
    MODE_GROUPS,
    compile_tree,
)
from .encoding import (
    CODECS,
    BasicTreeCodec,
    CorruptEncodingError,
    EncodingError,
    TreeArena,
    TreeStore,
    VarintTreeCodec,
)
from .normal_forms import (
    Clause,
    DisjunctiveNormalForm,
    DnfExplosionError,
    Literal,
    clear_dnf_cache,
    dnf_clause_count,
    to_dnf,
    to_nnf,
)
from .parser import SubscriptionSyntaxError, parse
from .subscription import Subscription, next_subscription_id
from .summary import summarize
from .tree import NodeKind, SubscriptionTree, TreeNode

__all__ = [
    "And",
    "BooleanExpression",
    "Not",
    "Or",
    "PredicateLeaf",
    "conjunction",
    "disjunction",
    "leaf",
    "clause_covers",
    "covers",
    "dnf_covers",
    "predicate_covers",
    "AddOutcome",
    "CoveringIndex",
    "RemoveOutcome",
    "MODE_ANY",
    "MODE_CLOSURE",
    "MODE_DNF",
    "MODE_GROUPS",
    "compile_tree",
    "CODECS",
    "BasicTreeCodec",
    "CorruptEncodingError",
    "EncodingError",
    "TreeArena",
    "TreeStore",
    "VarintTreeCodec",
    "Clause",
    "DisjunctiveNormalForm",
    "DnfExplosionError",
    "Literal",
    "clear_dnf_cache",
    "dnf_clause_count",
    "to_dnf",
    "to_nnf",
    "SubscriptionSyntaxError",
    "parse",
    "Subscription",
    "next_subscription_id",
    "summarize",
    "NodeKind",
    "SubscriptionTree",
    "TreeNode",
]
