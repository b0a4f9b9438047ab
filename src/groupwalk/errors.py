"""Error taxonomy shared across the package."""

from __future__ import annotations


class GroupwalkError(Exception):
    pass


class SpecMismatchError(GroupwalkError):
    """Rejected input: element or set does not belong to the expected group."""


class BudgetError(GroupwalkError):
    """A resource cap was exceeded.

    `stage` is set when the overrun happened inside a construction stage.
    """

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message if stage is None else f"stage {stage}: {message}")
        self.stage = stage


class ConvolutionRefused(BudgetError):
    """A convolution's pair count passes the limit, so it was refused up front.

    Refused before any work, it ends a TV curve at the last step reached
    (`budget_flag`); every other BudgetError, such as the accumulator cap
    reached mid-convolution, ends the run with exit code 2.
    """
