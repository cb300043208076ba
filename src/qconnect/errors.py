"""Shared exception taxonomy for the qconnect package."""

from __future__ import annotations


class QConnectError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QConnectError):
    """An argument lies outside the region where the requested quantity is defined
    or where its defining series/product converges."""


class PoleError(QConnectError):
    """Evaluation hit (or came numerically too close to) a pole."""


class ResonanceError(QConnectError):
    """A parameter ratio degenerated onto the power lattice of the base q,
    collapsing a denominator that the generic theory assumes nonzero."""


class ConvergenceError(QConnectError):
    """A truncated sum failed to meet its tail tolerance within the term cap."""


class WordError(QConnectError):
    """A transposition word does not realize the requested permutation."""


class ConfigError(QConnectError):
    """Invalid run configuration."""


class SamplingError(QConnectError):
    """A rejection sampler ran out of attempts."""


class BranchWarning(UserWarning):
    """Emitted when non-integer powers are taken outside the branch-safe sector,
    where principal-branch power laws may silently break."""
