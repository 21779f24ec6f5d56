"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """A linear solve or iteration failed to reach its accuracy contract."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or inconsistent."""


class OracleFailure(RuntimeError):
    """A verification oracle could not produce a trustworthy answer."""
