"""Shared exception hierarchy for the engine."""


class EngineError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(EngineError):
    pass


class ZeroVector(EngineError):
    pass


class EmptyIndex(EngineError):
    pass


class ManifestError(EngineError):
    pass


class OutOfRange(EngineError):
    pass


class EmptyAnswers(EngineError):
    pass


class InvalidWindow(EngineError):
    pass


class GroupTooSmall(EngineError):
    pass


class DomainTooSmall(EngineError):
    def __init__(self, domain: str, size: int):
        super().__init__(f"domain {domain!r} has {size} member(s), need at least 2")
        self.domain = domain
        self.size = size


class JudgeFailure(EngineError):
    pass


class MalformedResponse(EngineError):
    pass


class Transport(EngineError):
    pass


class RateLimited(Transport):
    pass


class MissingSlot(EngineError):
    pass


class DegenerateDistribution(EngineError):
    pass


class ConfigError(EngineError):
    pass
