"""Flat key-value experiment configuration (INI sections, no nesting)."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .errors import ConfigError, check_keys, config_value
from .lattices import K_MAX, EnsembleSpec, Symbol1D, symbol_fourier_coefficients
from . import mc
from .spectral import ScalarFunction

# the keys each experiment kind reads from its option sections (every section but
# [experiment], [ensemble], [g] and [h]); load_config refuses any other key, by the
# kind the file names, so `szegolab verify` runs another kind's file with its defaults
OPTION_KEYS = {
    "expansion_fit": ("ells", "R", "formula_L", "gate_crosscheck"),
    "coefficient_formula": ("L", "R", "include_error_term"),
    "szego_1d": ("symbol", "symbol.coeffs", "k_max", "l_grid", "gate_at_l", "gate_tol"),
    "log_enhancement": ("ells", "R", "expect"),
    "verify": ("box_side", "kernel_mode", "ct_z", "ct_theta", "gate_min_mu", "trace_inner",
               "trace_outer", "trace_box_lo", "trace_box_hi"),
}
# kinds that draw ensemble samples: they need [ensemble] and [g], and [h] where they apply h
SAMPLED_KINDS = ("expansion_fit", "coefficient_formula", "log_enhancement", "verify")


def parse_scalar_function(text: str) -> ScalarFunction:
    """Parse ``bump(c,w,k)`` / ``poly(c0,c1,...)`` / ``indicator(a,b)`` /
    ``identity`` / ``zero``."""
    text = text.strip()
    if text == "identity":
        return ScalarFunction.identity()
    if text == "zero":
        return ScalarFunction.zero()
    if not (text.endswith(")") and "(" in text):
        raise ConfigError(f"cannot parse function spec {text!r}")
    name, args = text[:-1].split("(", 1)
    name = name.strip()
    vals = [a.strip() for a in args.split(",")] if args.strip() else []
    try:
        if name == "bump":
            return ScalarFunction.bump(float(vals[0]), float(vals[1]), int(vals[2]))
        if name == "poly":
            return ScalarFunction.poly(tuple(float(v) for v in vals))
        if name == "indicator":
            return ScalarFunction.indicator(float(vals[0]), float(vals[1]))
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bad arguments in function spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown function form {name!r}")


def boolean(text: str) -> bool:
    """``true``/``false``, ``yes``/``no``, ``on``/``off`` or ``1``/``0``, in any case."""
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError("use true/false, yes/no, on/off or 1/0")
    return word in ("1", "true", "yes", "on")


def number_list(convert):
    """Converter of a space-separated list of numbers, which must not be empty."""
    def parse(text: str) -> list:
        values = [convert(v) for v in text.split()]
        if not values:
            raise ValueError("the list is empty")
        return values
    return parse


def parse_symbol(block: Dict[str, str], k_max: int = K_MAX) -> Symbol1D:
    """Symbol from ``symbol.coeffs``, or the named form ``one`` or ``expcos(c)``."""
    if "symbol.coeffs" in block and "symbol" in block:
        raise ConfigError("symbol and symbol.coeffs are both set: set one of them")
    if "symbol.coeffs" in block:
        return config_value("symbol.coeffs", block["symbol.coeffs"], Symbol1D.parse)
    form = block.get("symbol", "one").strip()
    if form == "one":
        return Symbol1D.from_dict({0: 1.0})
    if form.startswith("expcos(") and form.endswith(")"):
        c = config_value("symbol", form, lambda t: float(t[len("expcos("):-1]))
        return symbol_fourier_coefficients(
            lambda th: np.exp(2.0 * c * np.cos(th)), k_max, max(8 * k_max, 256))
    raise ConfigError(f"unknown symbol form {form!r}")


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 0
    samples: int = 1
    out_dir: str = "out"
    workers: int = 1
    d: int = 1
    ensemble: Optional[EnsembleSpec] = None
    g: Optional[ScalarFunction] = None
    h: Optional[ScalarFunction] = None
    options: Dict[str, str] = field(default_factory=dict)

    def opt(self, key: str, convert, default=None):
        """Option ``key`` through ``convert``, or ``default`` if the config does not set it."""
        if key not in self.options:
            return default
        return config_value(key, self.options[key], convert)

    @property
    def has_trace_probe(self) -> bool:
        """Whether a verify run also fits the boundary trace exponent q~."""
        return "trace_inner" in self.options and "trace_outer" in self.options

    def validate(self):
        missing = [key for key in ("trace_inner", "trace_outer") if key not in self.options]
        if missing and any(key.startswith("trace_") for key in self.options):
            raise ConfigError(f"a trace probe needs trace_inner and trace_outer: "
                              f"{' and '.join(missing)} is not set")
        if self.kind in SAMPLED_KINDS:
            applies_h = self.kind != "verify" or self.has_trace_probe
            for name in ("ensemble", "g", "h") if applies_h else ("ensemble", "g"):
                if getattr(self, name) is None:
                    raise ConfigError(f"a {self.kind} experiment needs a [{name}] section")
        if self.kind == "log_enhancement" and self.d != 1:
            raise ConfigError(f"log_enhancement runs in d = 1 only, got d = {self.d}")
        if self.samples < 1:
            raise ConfigError("sample budget must be >= 1")
        if self.ensemble is not None:
            self.ensemble.validate_for(self.d)
        if self.ensemble is not None and self.ensemble.kind == "periodic":
            hull = int(np.prod(self.ensemble.period))
            if self.samples % hull:
                raise ConfigError(f"samples = {self.samples}: a periodic ensemble's samples "
                                  f"enumerate its {hull} translates, so they must be a "
                                  f"multiple of {hull}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


def _ini_error(path: str, exc: configparser.Error) -> ConfigError:
    """``ConfigError`` naming the file and the line where the INI syntax broke."""
    line = getattr(exc, "lineno", None)
    if isinstance(exc, configparser.MissingSectionHeaderError):
        reason = "a key comes before any [section] header"
    elif isinstance(exc, configparser.ParsingError):
        line, text = exc.errors[0]
        reason = f"cannot parse {text}"
    elif isinstance(exc, configparser.DuplicateSectionError):
        reason = f"section [{exc.section}] appears twice"
    elif isinstance(exc, configparser.DuplicateOptionError):
        reason = f"key {exc.option!r} appears twice in [{exc.section}]"
    else:
        reason = str(exc)
    where = f", line {line}" if line else ""
    return ConfigError(f"config file {path!r}{where}: {reason}")


def _function_section(sections: Dict, name: str) -> Optional[ScalarFunction]:
    """The function of the ``[g]`` or ``[h]`` section, if the file has one."""
    if name not in sections:
        return None
    block = sections[name]
    check_keys(name, block, ("form",))
    if "form" not in block:
        raise ConfigError(f"[{name}] needs a 'form' key")
    return parse_scalar_function(block["form"])


def load_config(path: str, overrides: Optional[Dict[str, str]] = None) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (W, formula_L, ...)
    try:
        read = parser.read(path)
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise _ini_error(path, exc) from None
    if not read:
        raise ConfigError(f"config file {path!r} not found or unreadable")
    if "experiment" not in sections:
        raise ConfigError("config needs an [experiment] section")
    exp = dict(sections["experiment"])
    check_keys("experiment", exp, ("kind", "seed", "samples", "out", "workers", "d"))
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    # the kind the file names decides its option keys, whatever `szegolab verify` runs
    own_kind = exp.get("kind", overrides.get("kind", "")).strip()
    exp.update(overrides)
    if "kind" not in exp:
        raise ConfigError("missing experiment 'kind'")
    if own_kind not in OPTION_KEYS:
        raise ConfigError(f"unknown experiment kind {own_kind!r}")

    g = _function_section(sections, "g")
    h = _function_section(sections, "h")

    options: Dict[str, str] = {}
    home: Dict[str, str] = {}       # the option section that set each key
    for section, block in sections.items():
        if section not in ("experiment", "ensemble", "g", "h"):
            check_keys(section, block, OPTION_KEYS[own_kind])
            for key, value in block.items():
                if key in home:
                    raise ConfigError(f"{key!r} is set in both [{home[key]}] and "
                                      f"[{section}]: set it in one option section")
                home[key], options[key] = section, value

    cfg = ExperimentConfig(
        kind=exp["kind"].strip(),
        seed=config_value("seed", exp.get("seed", 0), int),
        samples=config_value("samples", exp.get("samples", 1), int),
        out_dir=exp.get("out", "out"),
        workers=config_value("workers", exp.get("workers", mc.usable_cpus()), int),
        d=config_value("d", exp.get("d", 1), int), g=g, h=h, options=options)
    if "ensemble" in sections:
        cfg.ensemble = EnsembleSpec.from_config(sections["ensemble"], cfg.seed)
    cfg.validate()
    return cfg
