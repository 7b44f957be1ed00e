"""Branch prediction: the direction predictor, BTB and return-address stack.

The paper's baseline core uses a 256 Kbit TAGE-SC-L predictor, a 4K-entry
BTB and a 32-entry RAS (Table I).  Every core here predicts with a
TAGE-lite predictor that captures the essential TAGE mechanism (tagged
tables with geometrically increasing history lengths and a bimodal
fallback).
"""

from repro.branch.predictors import BimodalPredictor, TageLitePredictor
from repro.branch.btb import BranchTargetBuffer
from repro.branch.ras import ReturnAddressStack

__all__ = [
    "BimodalPredictor",
    "TageLitePredictor",
    "BranchTargetBuffer",
    "ReturnAddressStack",
]
