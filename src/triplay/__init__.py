"""Tri-agent self-play curriculum engine.

A search policy retrieves images where a solver is most uncertain, a question
policy synthesizes calibrated tasks over them, and the solver trains against
majority-vote pseudo-labels filtered to a difficulty window. Every role is
scored with group-relative advantages, and its batches are exported for an
external trainer; a deterministic synthetic world, whose toy policies ascend
the clipped objective in-process, validates the loop end to end.
"""

__version__ = "0.1.0"
