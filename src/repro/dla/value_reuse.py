"""Value reuse (the *Reuse of values* optimization, Sec. III-D1): the
validation scoreboard.

:class:`ValidationScoreboard` is the decode-stage scoreboard that lets the
main thread skip validating ALU instructions whose source registers were all
produced by value-predicted instructions (Fig. 4): if every input is itself a
prediction, the output prediction is correct whenever the inputs are, so
executing it again adds nothing.

The rest of the mechanism lives elsewhere.  Value-reuse targets are the
profile's slow PCs (:meth:`repro.dla.profiling.ProgramProfile.slow_pcs`),
and the Slow Instruction Filter's runtime rule (a value misprediction stops
prediction for that PC) is part of the hint unit's verdict draws
(:mod:`repro.dla.hints`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

from repro.isa.instructions import OP_CLASS_CODE, OpClass


class ValidationScoreboard:
    """Decode-stage scoreboard for skipping value-prediction validation.

    The main core marks a destination register *validated* when an ALU
    instruction producing a value prediction writes it; any other writer
    clears the mark.  An ALU instruction that (a) has a value prediction and
    (b) reads only validated registers can skip execution entirely — its
    prediction is implied by its inputs' predictions.  The paper reports this
    removes about 11% of validations.
    """

    _SKIPPABLE_CLASSES = {
        OpClass.INT_ALU,
        OpClass.INT_MUL,
        OpClass.FP_ALU,
        OpClass.FP_MUL,
    }
    #: Same set expressed as plain int class codes (decoded fast path).
    _SKIPPABLE_CODES = frozenset(OP_CLASS_CODE[cls] for cls in _SKIPPABLE_CLASSES)

    def __init__(self) -> None:
        self._validated: Set[int] = set()
        self.skips = 0
        self.validations = 0

    def process(self, op_class: OpClass, dst: Optional[int],
                srcs: Sequence[int], has_prediction: bool) -> bool:
        """Update the scoreboard for one instruction; returns True when the
        instruction's validation can be skipped."""
        return self.process_code(OP_CLASS_CODE[op_class], dst, srcs, has_prediction)

    def process_code(self, class_code: int, dst: Optional[int],
                     srcs: Sequence[int], has_prediction: bool) -> bool:
        """:meth:`process` keyed by the decoded int class code (hot path)."""
        skip = False
        skippable = class_code in self._SKIPPABLE_CODES
        if has_prediction and skippable and srcs:
            validated = self._validated
            if all(src in validated for src in srcs):
                skip = True
                self.skips += 1
            else:
                self.validations += 1
        elif has_prediction:
            self.validations += 1

        if dst is not None:
            if has_prediction and skippable:
                self._validated.add(dst)
            else:
                self._validated.discard(dst)
        return skip
