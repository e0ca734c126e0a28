"""Exception hierarchy shared across the package."""


class SzegolabError(Exception):
    """Base class for all package errors."""


class ConfigError(SzegolabError):
    """Invalid parameters, config files or preconditions."""


class ModelError(SzegolabError):
    """Invalid ensemble / box / symmetry combinations."""


class NumericError(SzegolabError):
    """Numerical failure (eigensolver breakdown, singular fit, ...)."""


class DegenerateFitError(NumericError):
    """All sampled values below the numerical floor; no fit possible."""


def config_value(key: str, raw, convert):
    """``convert(raw)``, with a ``ValueError`` turned into a ``ConfigError`` naming ``key``."""
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} = {raw!r} is not valid: {exc}") from None


def check_keys(section: str, block, known) -> None:
    """Refuse a key of ``[section]`` outside ``known``, naming the section and the key."""
    for key in block:
        if key not in known:
            raise ConfigError(f"[{section}] has no key {key!r} (known: {' '.join(known)})")
