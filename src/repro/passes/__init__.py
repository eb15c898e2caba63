"""Graph simplification passes and the default pipeline."""

from repro.passes.cheapen import CheapenReport, cheapen_convolutions
from repro.passes.common_subexpr import CommonSubexpressionElimination
from repro.passes.constant_folding import ConstantFolding, MaterializeConstants
from repro.passes.dead_code import EliminateDeadNodes
from repro.passes.eliminate_identity import EliminateIdentity
from repro.passes.fold_batchnorm import FoldBatchNorm
from repro.passes.fold_pad import FoldPadIntoConv
from repro.passes.fuse_activations import FuseConvActivation, FuseEpilogues
from repro.passes.pass_manager import GraphPass, PassManager, PassReport
from repro.passes.qdq import CancelQDQ, CommuteQDQPooling

__all__ = [
    "CancelQDQ",
    "CheapenReport",
    "CommonSubexpressionElimination",
    "CommuteQDQPooling",
    "ConstantFolding",
    "EliminateDeadNodes",
    "EliminateIdentity",
    "FoldBatchNorm",
    "FoldPadIntoConv",
    "FuseConvActivation",
    "FuseEpilogues",
    "GraphPass",
    "MaterializeConstants",
    "PassManager",
    "PassReport",
    "cheapen_convolutions",
    "default_pipeline",
]


def default_pipeline(fuse: bool = True) -> PassManager:
    """The pipeline `InferenceSession` runs when ``optimize=True``.

    Order matters: constants must be materialised before folding decisions,
    identities removed before pattern-matching adjacent pairs, BN folded
    before activation fusion (so Conv+BN+Relu collapses to one node).
    """
    passes: list[GraphPass] = [
        MaterializeConstants(),
        EliminateDeadNodes(),
        EliminateIdentity(),
        ConstantFolding(),
        CommonSubexpressionElimination(),
        FoldPadIntoConv(),
        FoldBatchNorm(),
    ]
    if fuse:
        passes.append(FuseConvActivation())
    return PassManager(passes)
