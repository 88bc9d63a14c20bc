"""Exception hierarchy shared across the package."""


class RareError(Exception):
    """Base class for all package errors."""


class ValidationError(RareError):
    """A domain object violates one of its invariants."""


class DatasetError(ValidationError):
    """A dataset file is unreadable or contains a malformed record."""


class LmBackendError(RareError):
    """Base class for language-model backend failures."""


class TransportError(LmBackendError):
    """Endpoint unreachable after bounded retries."""


class MalformedReplyError(LmBackendError):
    """Endpoint replied with a body the client cannot interpret."""


class ScriptMissError(LmBackendError):
    """The scripted backend has no entry matching a prompt."""


class CorpusError(ValidationError):
    """Corpus or index construction failure (an unreadable corpus file,
    duplicate ids, empty corpus)."""


class NoViableChildError(RareError):
    """Every sampled outcome for an action was discarded as unparseable."""


class NoCandidatesError(RareError):
    """A full search produced no terminal trajectory."""


class AbstainError(RareError):
    """A baseline produced no parseable answer; scored as incorrect."""
