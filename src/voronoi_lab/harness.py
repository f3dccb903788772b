"""Verification sweeps over the closed-form identities in this package.

Seven suites, each pairing a direct computation with an independent closed
form or dual route and sweeping a parameter box.  A run produces a
VerificationReport whose canonical JSON serialization (sorted keys, 17
significant digits, wall time excluded) is byte-identical across runs with
the same config, seed and precision, so reports can be diffed in CI.

Case execution may fan out over threads (--jobs); records are sorted by a
canonical encoding of their parameter dicts after the merge barrier, so the
report never depends on scheduling.  Each record cites its suite's anchor
string so a failure names both the offending parameter tuple and the claim
it contradicts.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .characters import enumerate_characters, primitive_characters
from .exponential_sums import (
    _chain_tree,
    _closed_form_inputs,
    _layers,
    _lemma22_rows,
    _lemma23_rows,
    average_kloosterman_closed_lemma34_table,
    gauss_sum_tables,
    kloosterman_vector,
    tau,
)
from .hecke import (
    isobaric_source,
    random_satake_source,
    raw_table_source,
    verify_hecke_relations,
)
from .lfunctions import (
    GammaFactorSpec,
    LValueRequest,
    dirichlet_l_refusal,
    functional_equation_check,
    g_pm_arguments,
    g_pm_eval,
    gamma_pole,
    twisted_l_arguments,
    twisted_l_isobaric,
)
from .residues import divisor_count, primes_up_to, unit_residues
from .voronoi import (
    VoronoiInstance,
    _read_once,
    a_n_coefficient,
    b_n_coefficients,
    b_n_tail_bound,
    curly_g_coefficients,
    curly_h_coefficients,
    g_coefficients,
    h_coefficients,
    lq_additive_coefficients,
    mobius_collapse,
    parity_gamma,
    voronoi_rhs_coefficients,
    z_probe_arguments,
    z_probe_with_bound,
)

__all__ = [
    "CaseRecord",
    "ConfigError",
    "REPORT_SCHEMA",
    "SweepConfig",
    "VerificationReport",
    "canonical_json",
    "emit_report",
    "list_suites",
    "load_report",
    "run_suite",
    "suite_names",
]

REPORT_SCHEMA = "voronoi-lab-report/1"

_UINT64_MAX = 2**64 - 1

# Arbitrary fixed probes for the two Gamma-ratio slots; any pair of distinct
# nonzero complex numbers exercises the parity selection.
_G_EVEN_PROBE = 0.8 + 0.3j
_G_ODD_PROBE = -0.4 + 1.1j


class ConfigError(ValueError):
    """Invalid sweep configuration; the message names the offending field."""


# ---------------------------------------------------------------------------
# Canonical JSON


def _float_repr(x: float) -> str:
    # JSON has no non-finite numbers; they travel as strings float() reads back.
    if math.isnan(x):
        return '"NaN"'
    if math.isinf(x):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    return "%.17g" % x


def _canonical(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_repr(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        out.append("[%s,%s]" % (_float_repr(obj.real), _float_repr(obj.imag)))
    elif isinstance(obj, str):
        out.append(obj if type(obj) is _Encoded else json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canonical(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string report key: {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _canonical(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


class _Encoded(str):
    """Text canonical_json has already produced; it is written as it is."""


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, %.17g floats, complex as [re, im].

    NaN and infinities are written as the strings "NaN", "Infinity" and
    "-Infinity".
    """
    out: list[str] = []
    _canonical(obj, out)
    return "".join(out)


# Parameter dicts of plain str keys and str, int or list-of-int values encode
# to the same text through the standard encoder, in one C-accelerated pass.
_PLAIN_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _plain_parameters(parameters: dict) -> bool:
    """True when every key is a str and every value a str, an int or a list of ints.

    Types are matched exactly: bool, numpy scalars and str subclasses are not plain.
    """
    for key, value in parameters.items():
        t = type(value)
        if type(key) is not str or not (
            t is str or t is int or (t is list and all(type(x) is int for x in value))
        ):
            return False
    return True


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# Records and reports


@dataclass(slots=True)
class CaseRecord:
    """One verified identity instance (possibly the worst point of a batch).

    ``tolerance`` is the threshold ``rel_error`` was compared against, except
    in the voronoi-core suite where it is an absolute allowance (certified
    tail plus a relative cushion) compared against ``abs_error``; the suite
    description says which convention applies.

    Records are slotted and not frozen, so a sweep builds its thousands of
    them without a per-field ``object.__setattr__``; nothing changes one
    after it is built.  The slot ``_parameters_json`` caches the sort key on
    its first read and takes no part in ``==`` or ``repr``.
    """

    anchor: str
    parameters: dict
    lhs: complex
    rhs: complex
    abs_error: float
    rel_error: float
    tolerance: float
    passed: bool
    _parameters_json: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def parameters_json(self) -> str:
        """canonical_json of the parameters: the record's sort key and its text in a report."""
        text = self._parameters_json
        if text is None:
            params = self.parameters
            if _plain_parameters(params):
                text = _PLAIN_ENCODER.encode(params)
            else:
                text = canonical_json(params)
            self._parameters_json = text
        return text

    def to_dict(self) -> dict:
        return self._fields(_jsonable(self.parameters))

    def _fields(self, parameters) -> dict:
        return {
            "anchor": self.anchor,
            "parameters": parameters,
            "lhs": _pair(self.lhs),
            "rhs": _pair(self.rhs),
            "abs_error": float(self.abs_error),
            "rel_error": float(self.rel_error),
            "tolerance": float(self.tolerance),
            "pass": bool(self.passed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CaseRecord":
        return cls(
            anchor=data["anchor"],
            parameters=data["parameters"],
            lhs=complex(*map(float, data["lhs"])),
            rhs=complex(*map(float, data["rhs"])),
            abs_error=float(data["abs_error"]),
            rel_error=float(data["rel_error"]),
            tolerance=float(data["tolerance"]),
            passed=data["pass"],
        )


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(obj[k]) for k in obj}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)) and not isinstance(obj, float):
        return _pair(obj)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _rel_case(anchor, parameters, lhs, rhs, rel_error, tolerance) -> CaseRecord:
    return CaseRecord(
        anchor=anchor,
        parameters=parameters,
        lhs=complex(lhs),
        rhs=complex(rhs),
        abs_error=abs(complex(lhs) - complex(rhs)),
        rel_error=float(rel_error),
        tolerance=float(tolerance),
        passed=bool(rel_error <= tolerance),
    )


def _abs_case(anchor, parameters, lhs, rhs, allowance) -> CaseRecord:
    abs_err = abs(complex(lhs) - complex(rhs))
    scale = max(abs(complex(lhs)), abs(complex(rhs)), 1e-300)
    return CaseRecord(
        anchor=anchor,
        parameters=parameters,
        lhs=complex(lhs),
        rhs=complex(rhs),
        abs_error=abs_err,
        rel_error=abs_err / scale,
        tolerance=float(allowance),
        passed=bool(abs_err <= allowance),
    )


@dataclass
class VerificationReport:
    suite: str
    anchor: str
    records: list[CaseRecord]
    config_echo: dict
    wall_time: float = 0.0
    version: str = __version__
    schema: str = REPORT_SCHEMA

    @property
    def cases(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if not r.passed)

    @property
    def max_rel_error(self) -> float:
        """Largest rel_error, NaN if any record's is NaN (whatever the order)."""
        return float(np.max([r.rel_error for r in self.records], initial=0.0))

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self, include_timing: bool = False) -> dict:
        return self._document(include_timing, [r.to_dict() for r in self.records])

    def _document(self, include_timing: bool, records: list[dict]) -> dict:
        summary = {
            "cases": self.cases,
            "failures": self.failures,
            "max_rel_error": float(self.max_rel_error),
        }
        if include_timing:
            summary["wall_time_seconds"] = float(self.wall_time)
        return {
            "anchor": self.anchor,
            "config": _jsonable(self.config_echo),
            "records": records,
            "schema": self.schema,
            "suite": self.suite,
            "summary": summary,
            "version": self.version,
        }

    def to_canonical_json(self, include_timing: bool = False) -> str:
        # Timing is excluded by default so identical sweeps emit identical
        # bytes; pass include_timing=True for human-facing copies.  Each
        # record's parameters go in as the text run_suite sorted them by.
        records = [r._fields(_Encoded(r.parameters_json)) for r in self.records]
        return canonical_json(self._document(include_timing, records)) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        report = cls(
            suite=data["suite"],
            anchor=data["anchor"],
            records=[CaseRecord.from_dict(r) for r in data["records"]],
            config_echo=data["config"],
            wall_time=data.get("summary", {}).get("wall_time_seconds", 0.0),
            version=data["version"],
            schema=data["schema"],
        )
        if report.failures != data["summary"]["failures"]:
            raise ValueError("summary failure count does not match records")
        return report


def emit_report(report: VerificationReport, path, include_timing: bool = False) -> str:
    """Write the canonical JSON serialization; returns the path written."""
    text = report.to_canonical_json(include_timing)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return str(path)


def _parse_int(text: str):
    # %.17g writes -0.0 as "-0"; no integer prints that way, so it is the float.
    return -0.0 if text == "-0" else int(text)


def load_report(path) -> VerificationReport:
    with open(path, "r", encoding="ascii") as fh:
        return VerificationReport.from_dict(json.load(fh, parse_int=_parse_int))


# ---------------------------------------------------------------------------
# Sweep configuration


@dataclass
class SweepConfig:
    suite: str
    ranges: dict = field(default_factory=dict)
    seed: int = 0
    tolerance: float | None = None
    precision: int | None = None
    jobs: int = 1

    def validate(self) -> dict:
        """Check every field, and build a suite that refuses points; return its parsed ranges."""
        ranges = self._parse()
        spec = _SUITES[self.suite]
        if spec.refuses_points:
            spec.builder(ranges, spec.default_tolerance, self)
        return ranges

    def _parse(self) -> dict:
        if not isinstance(self.suite, str):
            raise ConfigError("suite: expected a suite name")
        if self.suite not in _SUITES:
            raise ConfigError(
                f"suite: unknown suite {self.suite!r}; expected one of "
                + ", ".join(suite_names())
            )
        if not isinstance(self.ranges, dict):
            raise ConfigError("ranges: expected a table of range overrides")
        spec = _SUITES[self.suite]
        for key in self.ranges:
            if key not in spec.ranges:
                raise ConfigError(
                    f"ranges.{key}: unknown range for suite {self.suite!r}; "
                    f"known ranges: " + ", ".join(sorted(spec.ranges))
                )
        _int(0, _UINT64_MAX)(self.seed, "seed")
        if self.tolerance is not None:
            if not isinstance(self.tolerance, (int, float)) or isinstance(self.tolerance, bool):
                raise ConfigError("tolerance: expected a number")
            if not self.tolerance > 0 or math.isinf(self.tolerance):
                raise ConfigError("tolerance: must be finite and positive")
        if self.precision is not None:
            if not spec.reads_precision:
                raise ConfigError(
                    f"precision: suite {self.suite!r} runs in double precision; only "
                    + ", ".join(name for name, other in _SUITES.items() if other.reads_precision)
                    + " reads a working precision"
                )
            _int(24)(self.precision, "precision")  # bits
        _int(1)(self.jobs, "jobs")
        return {
            key: parse(self.ranges.get(key, default), f"ranges.{key}")
            for key, (default, parse) in spec.ranges.items()
        }

    @classmethod
    def from_mapping(cls, mapping: dict, source: str = "config") -> "SweepConfig":
        if not isinstance(mapping, dict):
            raise ConfigError(f"{source}: expected a table at the top level")
        known = sorted(f.name for f in fields(cls))
        for key in mapping:
            if key not in known:
                raise ConfigError(f"{source}: unknown key {key!r}; expected " + ", ".join(known))
        if "suite" not in mapping:
            raise ConfigError(f"{source}: missing required key 'suite'")
        config = cls(**mapping)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path) -> "SweepConfig":
        path = str(path)
        with open(path, "rb") as fh:
            raw = fh.read()
        if path.endswith(".json"):
            loaders = ("json",)
        elif path.endswith(".toml"):
            loaders = ("toml",)
        else:
            loaders = ("toml", "json")
        last_err = None
        for kind in loaders:
            try:
                if kind == "toml":
                    try:
                        import tomllib
                    except ModuleNotFoundError:  # pragma: no cover
                        import tomli as tomllib
                    mapping = tomllib.loads(raw.decode("utf-8"))
                else:
                    mapping = json.loads(raw.decode("utf-8"))
            except Exception as exc:  # parse errors carry line/column info
                last_err = exc
                continue
            return cls.from_mapping(mapping, source=path)
        raise ConfigError(f"{path}: cannot parse config ({last_err})")


def _seed_int(config_seed: int, *parts: int) -> int:
    ss = np.random.SeedSequence([config_seed & _UINT64_MAX, *(p & _UINT64_MAX for p in parts)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# Range parsers.  Each parse(value, label) returns the value a builder reads,
# or raises ConfigError naming label.


def _is_real(value) -> bool:
    """An int or float (not a bool) that is a finite float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _complex(value, label: str) -> complex:
    if _is_real(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{label}: expected a finite number or a [re, im] pair of finite numbers")


def _int(minimum: int, maximum: float = math.inf):
    def parse(value, label: str) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{label}: expected an integer")
        if value < minimum:
            raise ConfigError(f"{label}: must be at least {minimum}")
        if value > maximum:
            raise ConfigError(f"{label}: must be at most {maximum}")
        return value

    return parse


def _ints(minimum: int | None = None):
    def parse(value, label: str) -> tuple[int, ...]:
        if not isinstance(value, (list, tuple)) or any(
            not isinstance(v, int) or isinstance(v, bool) for v in value
        ):
            raise ConfigError(f"{label}: expected a list of integers")
        if minimum is not None and any(v < minimum for v in value):
            raise ConfigError(f"{label}: entries must be at least {minimum}")
        return tuple(value)

    return parse


def _conductors(parse):
    """parse, then reject conductors that are 2 mod 4: they have no primitive character."""

    def run(value, label: str):
        out = parse(value, label)
        if any(v % 4 == 2 for v in (out if isinstance(out, tuple) else (out,))):
            raise ConfigError(f"{label}: conductors that are 2 mod 4 have no primitive character")
        return out

    return run


def _length(parse, length: int):
    """parse, then require exactly length entries."""

    def run(value, label: str):
        out = parse(value, label)
        if len(out) != length:
            raise ConfigError(f"{label}: each entry must have length {length}")
        return out

    return run


def _each(entry, what: str):
    """A list whose every entry entry(value, label) parses."""

    def parse(value, label: str) -> list:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{label}: expected a list of {what}")
        return [entry(v, label) for v in value]

    return parse


def _choices(allowed: tuple[str, ...], what: str):
    def choice(value, label: str) -> str:
        if value not in allowed:
            raise ConfigError(f"{label}: {value!r} is not one of " + ", ".join(allowed))
        return value

    return _each(choice, what)


def _re_below(bound: float):
    def parse(value, label: str) -> complex:
        z = _complex(value, label)
        if not z.real < bound:
            raise ConfigError(f"{label}: real part must be below {bound}")
        return z

    return parse


def _real_pair(value, label: str) -> tuple[float, float]:
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value))):
        raise ConfigError(f"{label}: expected an [s, w] pair of finite real numbers")
    return float(value[0]), float(value[1])


def _shift_set(value, label: str) -> tuple[complex, ...]:
    # Shifts are given as integer imaginary parts; they must sum to zero.
    parts = _ints()(value, label)
    if not parts:
        raise ConfigError(f"{label}: expected a nonempty list of integer imaginary parts")
    if sum(parts) != 0:
        raise ConfigError(f"{label}: shift imaginary parts must sum to zero")
    return tuple(1j * p for p in parts)


# ---------------------------------------------------------------------------
# Suite implementations.  Each builder returns a list of zero-argument
# callables producing CaseRecord lists; units are independent so they can be
# scheduled on any worker without changing the (post-sort) report.


@dataclass(frozen=True)
class _SuiteSpec:
    """One suite: what it checks, and one table of its sweep ranges.

    ``ranges`` maps each range name to ``(default, parse)``.  Parsing runs
    parse(value, "ranges.<name>") once on every effective value (the override,
    else the default) for ``builder`` (parsed ranges, tolerance, config), which
    returns the unit callables.  The report echoes the ranges as given.
    ``refuses_points`` marks the suites whose builder hands each unit's L-value
    and Gamma arguments to ``_refuse``; validation builds them, so a point a
    unit would refuse is a ConfigError naming its field.
    ``reads_precision`` marks the suites whose builder reads
    ``config.precision``; validation refuses a precision for the others.
    """

    name: str
    anchor: str
    description: str
    ranges: dict
    default_tolerance: float
    builder: object
    refuses_points: bool = False
    reads_precision: bool = False

    @property
    def defaults(self) -> dict:
        return {key: default for key, (default, _) in self.ranges.items()}


def _gauss_units(ranges, tol, config):
    lemmas = ranges["lemmas"]
    cstar_max = ranges["cstar_max"]
    c_max = ranges["c_max"]
    m_max = ranges["m_max"]
    n_max = ranges["n_max"]
    anchor = _SUITES["gauss-lemmas"].anchor
    closed_rows = {"2.2": _lemma22_rows, "2.3": _lemma23_rows}
    closed = [(lemma, closed_rows[lemma]) for lemma in ("2.2", "2.3") if lemma in lemmas]

    def unit(cstar):
        def run():
            chars = primitive_characters(cstar)
            m_arr = np.arange(1, m_max + 1)
            # the closed lemmas read the tables at c = k c* <= c_max (none
            # when c* > c_max), Lemma 2.5 those at k <= n_max; each table
            # g(chi*, k c*, .) is built once, gathered at m and dropped
            cs = range(cstar, c_max + 1, cstar) if closed else ()
            ns = range(1, n_max + 1) if "2.5" in lemmas else ()
            direct = np.empty((len(chars), len(cs), m_max), dtype=complex)
            gk = np.empty((len(chars), len(ns), m_max), dtype=complex)
            k_max = max(len(cs), len(ns))
            tables = gauss_sum_tables(cstar, range(cstar, k_max * cstar + 1, cstar))
            for k, table in enumerate(tables, 1):
                if k == 1:  # tau(chi*) = g(chi*, c*, 1), copied out of the table
                    tau_val = table[:, [1 % cstar], None]
                at_m = table[:, m_arr % (k * cstar)]
                if k <= len(cs):
                    direct[:, k - 1] = at_m
                if k <= len(ns):
                    gk[:, k - 1] = at_m
            records = []
            inputs = _closed_form_inputs(chars, cs, m_arr) if closed else None  # read by both
            for lemma, rows_of in closed:
                lhs = rows_of(inputs)
                diff = direct - lhs
                rel = np.hypot(diff.real, diff.imag) / np.sqrt(np.array(cs, dtype=float))[:, None]
                rows = [{"lemma": lemma, "chi": chi.label, "c": c} for chi in chars for c in cs]
                flat = (a.reshape(-1, m_max) for a in (direct, lhs, rel))
                records += _worst_records(anchor, rows, *flat, tol, lambda p: {"m": p + 1})
            if not ns:
                return records
            direct = diff = lhs = rel = inputs = None  # freed before the Lemma 2.5 arrays are built
            # one pass over d adds chi*(d) g(chi*, (n/d) c*, m) to every
            # multiple n of d, so each lhs[n] sums its divisors in ascending
            # order.  chi*(d) is zero exactly when (d, c*) > 1, and those d
            # add nothing.
            vv = np.array([chi.value_vector for chi in chars])
            lhs = np.zeros((len(chars), n_max, m_max), dtype=complex)
            for d in ns:
                if math.gcd(d, cstar) == 1:
                    lhs[:, d - 1 :: d] += vv[:, d % cstar, None, None] * gk[:, : n_max // d]
            n_col = np.array(ns)[:, None]
            rhs = np.where(
                m_arr % n_col == 0, tau_val * np.conj(vv[:, m_arr // n_col % cstar]) * n_col, 0j
            )
            # |rhs| is exactly sqrt(c*) n whenever nonzero, so this one
            # scale covers the vanishing branch too.
            rel = np.abs(lhs - rhs) / (math.sqrt(cstar) * np.array(ns))[:, None]
            rows = [{"lemma": "2.5", "chi": chi.label, "n": n} for chi in chars for n in ns]
            flat = (a.reshape(-1, m_max) for a in (lhs, rhs, rel))
            return records + _worst_records(anchor, rows, *flat, tol, lambda p: {"m": p + 1})

        return run

    # one unit per conductor c*, over its primitive characters (none when
    # c* = 2 mod 4) and every selected lemma; records stay one per
    # (lemma, chi*, c) or (chi*, n)
    return [unit(cstar) for cstar in range(1, cstar_max + 1) if primitive_characters(cstar)]


def _worst_records(anchor, rows, lhs, rhs, rel, tol, point) -> list[CaseRecord]:
    """One record per row of rel[row, p], for the row's worst point p.

    The worst point is the first maximum in p order, as a scan keeping
    strictly larger values would pick; a NaN anywhere in a row outranks every
    number, so the row's record carries it and fails instead of passing or
    being skipped.  lhs and rhs broadcast to rel's shape; record i has the
    parameters {**rows[i], **point(p)}.
    """
    at = np.arange(len(rel)), np.argmax(rel, axis=1)
    lhs, rhs = (
        np.broadcast_to(a, rel.shape)[at].astype(complex, copy=False).tolist() for a in (lhs, rhs)
    )
    tol = float(tol)
    # the fields of _rel_case, from the Python complex and float values
    # tolist already gives
    return [
        CaseRecord(anchor, {**row, **point(p)}, l, r, abs(l - r), e, tol, e <= tol)
        for row, p, l, r, e in zip(rows, at[1].tolist(), lhs, rhs, rel[at].tolist())
    ]


def _row_peak(*arrays) -> np.ndarray:
    """Per row, the largest |entry| over arrays, NaN ignored, floored at 1e-30; a column."""
    return np.fmax(np.fmax.reduce(np.abs(np.hstack(arrays)), axis=1), 1e-30)[:, None]


def _kloosterman_units(ranges, tol, config):
    degrees = ranges["degrees"]
    c_max = ranges["c_max"]
    q_max = ranges["q_max"]
    n_values = ranges["n_values"]
    anchor = _SUITES["kloosterman-average"].anchor
    units = []
    if not n_values:  # no points, so no worst point to report
        return units
    # The direct walk's innermost-layer tables, shared by every unit of this
    # sweep and dropped with it.  Pool threads that race on a key each build
    # the same table, so the store needs no lock.
    leaves = {}

    def unit(n_deg, c, q):
        def run():
            chars = enumerate_characters(c)
            vv = np.stack([ch.value_vector[unit_residues(c)] for ch in chars])
            tree = _chain_tree(c, _layers(q))
            # Both routes give every (character, chain, n) of the unit in one
            # array, the chains of each q' one block after another: the
            # closed one from Gauss sums, the direct one as the character
            # average of one walk of (c, q).  The walk and the difference are
            # dropped as soon as they are read.
            closed = average_kloosterman_closed_lemma34_table(c, q, n_values)
            kl = kloosterman_vector(n_values, c, q, leaves)
            direct = (vv @ kl.reshape(len(kl), -1)).reshape(closed.shape)
            del kl
            diff = direct - closed
            rel = np.hypot(diff.real, diff.imag)
            del diff
            rel /= np.sqrt(np.prod(tree.moduli, axis=1))[None, :, None]
            flat = (len(chars), -1)
            records = []
            for qq, cols in tree.blocks:
                rows = [{"degree": n_deg, "c": c, "q": list(qq), "chi": ch.label} for ch in chars]

                def point(p, block=tree.chains[cols]):
                    j, t = divmod(p, len(n_values))
                    return {"d": block[j].tolist(), "n": n_values[t]}

                records += _worst_records(
                    anchor,
                    rows,
                    direct[:, cols].reshape(flat),
                    closed[:, cols].reshape(flat),
                    rel[:, cols].reshape(flat),
                    tol,
                    point,
                )
            return records

        return run

    # a unit is (degree, c, q_1..q_{K-2}), batched over every choice of its
    # last two layers q_{K-1}, q_K (its one layer at degree 3, none at 2)
    choices = tuple(range(1, q_max + 1))
    for n_deg in degrees:
        batched = min(n_deg - 2, 2)
        for c in range(1, c_max + 1):
            for q in itertools.product(choices, repeat=n_deg - 2 - batched):
                units.append(unit(n_deg, c, q + (choices,) * batched))
    return units


def _hecke_units(ranges, tol, config):
    degrees = ranges["degrees"]
    prime_max = ranges["prime_max"]
    exp_max = ranges["exponent_max"]
    draws = ranges["draws"]
    d3_max = ranges["d3_check_max"]
    anchor = _SUITES["hecke"].anchor
    primes = primes_up_to(prime_max)
    units = []

    def draw_unit(draw, n_deg):
        def run():
            rng = np.random.default_rng(_seed_int(config.seed, 202, draw, n_deg))
            src = random_satake_source(n_deg, prime_max, _seed_int(config.seed, 101, draw, n_deg))
            p = int(primes[rng.integers(0, len(primes))])
            n = p ** int(rng.integers(1, exp_max + 1))
            m = tuple(p ** int(e) for e in rng.integers(0, exp_max + 1, n_deg - 1))
            pairs = verify_hecke_relations(src, n, m)
            recs = []
            for relation, (lhs, rhs) in zip(("last-slot", "first-slot"), pairs):
                scale = max(abs(lhs), abs(rhs), 1.0)
                recs.append(
                    _rel_case(
                        anchor,
                        {
                            "check": "recursion",
                            "relation": relation,
                            "degree": n_deg,
                            "draw": draw,
                            "p": p,
                            "n": n,
                            "m": list(m),
                        },
                        lhs,
                        rhs,
                        abs(lhs - rhs) / scale,
                        tol,
                    )
                )
            return recs

        return run

    def d3_unit():
        def run():
            src = isobaric_source(3, (0j, 0j, 0j), max(d3_max, 2))
            ns = range(1, d3_max + 1)
            got = np.array([[src.coefficient((n, 1)) for n in ns]])
            want = np.array([[divisor_count(3, n) for n in ns]], dtype=float)
            rel = np.abs(got - want) / want
            rows = [{"check": "d3", "n_max": d3_max}]
            return _worst_records(anchor, rows, got, want, rel, tol, lambda p: {"n": p + 1})

        return run

    for draw in range(draws):
        for n_deg in degrees:
            units.append(draw_unit(draw, n_deg))
    if d3_max > 0 and degrees:
        units.append(d3_unit())
    return units


def _equivalence_units(ranges, tol, config):
    degrees = ranges["degrees"]
    c_values = ranges["c_values"]
    q_max = ranges["q_max"]
    x = ranges["coefficients"]
    s = ranges["s"]
    anchor = _SUITES["equivalence"].anchor
    units = []
    leaves = {}  # every unit reads the n columns +-1..x: one leaf store per sweep

    def unit(n_deg, c, q):
        def run():
            src = raw_table_source(n_deg, seed=_seed_int(config.seed, 303, n_deg, c, *q))
            units_c = unit_residues(c)
            family = VoronoiInstance(src, q, c, truncation=x)
            add = lq_additive_coefficients(family)[units_c]
            rhs = voronoi_rhs_coefficients(family, s, leaves)[units_c]
            r10, r01 = rhs[:, 0], rhs[:, 1]
            dual = _G_EVEN_PROBE * r10 + _G_ODD_PROBE * r01
            chars = enumerate_characters(c)
            # vv[chi, a]: the character table on the units, so averaging over
            # a is vv @ (rows by a), and the conjugate table maps back.
            vv = np.stack([chi.value_vector[units_c] for chi in chars])
            insts = [
                VoronoiInstance(src, q, c, chi_star=chi.primitive(), truncation=x) for chi in chars
            ]
            h = np.stack([h_coefficients(inst) for inst in insts])
            g = np.stack(
                [
                    g_coefficients(
                        inst, s, parity_gamma(inst.chi_star, _G_EVEN_PROBE, _G_ODD_PROBE)
                    )
                    for inst in insts
                ]
            )
            w = np.array([(c / inst.cstar) ** (1 - 2 * s) for inst in insts])
            wg = w[:, None] * g
            odd = np.array([inst.chi_star.parity == -1 for inst in insts])[:, None]
            head = {"degree": n_deg, "c": c, "q": list(q)}
            by_chi = [{**head, "chi": chi.label} for chi in chars]
            by_a = [{**head, "a": int(a)} for a in units_c]

            def records(direction, rows, got, want, scale):
                rows = [{**row, "direction": direction} for row in rows]
                rel = np.abs(got - want) / scale
                return _worst_records(anchor, rows, got, want, rel, tol, lambda k: {"worst_n": k})

            fwd_add = vv @ add
            fwd_dual = vv @ dual
            # The parity-mismatched Gamma slot must average to zero.
            mismatched = np.where(odd, vv @ r10, vv @ r01)
            rev_add = np.conj(vv).T @ h / len(units_c)
            rev_dual = (np.conj(vv).T * w) @ g / len(units_c)
            return [
                *records("forward-additive", by_chi, fwd_add, h, _row_peak(h, fwd_add)),
                *records("forward-dual", by_chi, fwd_dual, wg, _row_peak(wg, fwd_dual)),
                *records("parity-zero", by_chi, mismatched, 0.0, _row_peak(r10, r01).max()),
                *records("reverse-additive", by_a, rev_add, add, _row_peak(add)),
                *records("reverse-dual", by_a, rev_dual, dual, _row_peak(dual)),
            ]

        return run

    for n_deg in degrees:
        for c in c_values:
            for q in itertools.product(range(1, q_max + 1), repeat=n_deg - 2):
                units.append(unit(n_deg, c, q))
    return units


def _mobius_units(ranges, tol, config):
    degrees = ranges["degrees"]
    cstar_values = ranges["cstar_values"]
    n_values = ranges["n_values"]
    modulus_max = ranges["modulus_max"]
    q_max = ranges["q_max"]
    x = ranges["coefficients"]
    s = ranges["s"]
    anchor = _SUITES["mobius"].anchor
    units = []

    def unit(n_deg, cstar, n):
        def run():
            src = raw_table_source(n_deg, seed=_seed_int(config.seed, 404, n_deg, cstar, n))
            store = {}  # each h and g series of the unit, evaluated once
            rows, got, want = [], [], []
            for chi_star in primitive_characters(cstar):
                for q in itertools.product(range(1, q_max + 1), repeat=n_deg - 2):
                    base = VoronoiInstance(src, q, cstar, chi_star=chi_star, truncation=x)
                    target = VoronoiInstance(src, q, n * cstar, chi_star=chi_star, truncation=x)
                    head = {"degree": n_deg, "cstar": cstar, "chi": chi_star.label, "q": list(q)}
                    for family, curly, want_f in (
                        (
                            "divisor-corrected-h",
                            lambda q2, n2: curly_h_coefficients(
                                replace(base, q=q2), n2, s, store
                            ),
                            _read_once(store, h_coefficients, target)
                            * complex(n) ** (2 * s - 1),
                        ),
                        (
                            "divisor-corrected-g",
                            lambda q2, n2: curly_g_coefficients(
                                replace(base, q=q2), n2, s, _G_EVEN_PROBE, store
                            ),
                            _read_once(store, g_coefficients, target, s, _G_EVEN_PROBE),
                        ),
                    ):
                        rows.append({**head, "n": n, "family": family})
                        got.append(mobius_collapse(curly, q, n, s, chi_star))
                        want.append(want_f)
            if not rows:  # no primitive character of conductor cstar
                return []
            got, want = np.array(got), np.array(want)
            rel = np.abs(got - want) / _row_peak(want, got)
            return _worst_records(anchor, rows, got, want, rel, tol, lambda k: {"worst_n": k})

        return run

    for n_deg in degrees:
        for cstar in cstar_values:
            for n in n_values:
                if n * cstar <= modulus_max:
                    units.append(unit(n_deg, cstar, n))
    return units


def _refuse(label, unit, modulus, l_args, gammas=None, deltas=None, precision=None) -> None:
    """Raise ConfigError, naming label's field and the unit, at a point the unit would refuse.

    l_args are where the unit evaluates dirichlet_l at modulus (principal only
    at modulus 1); gammas maps each parity delta to the Gamma arguments of its
    G at that parity.  deltas() gives its twists' parities; it runs only when
    an argument is on a pole, so no character is enumerated otherwise.
    """
    where = f"the {unit} of conductor {modulus}"
    for z in l_args:
        refusal = dirichlet_l_refusal(z, modulus, modulus == 1, precision)
        if refusal is not None:
            raise ConfigError(f"{label} gives {where} the L-value argument {z} ({refusal})")
    poles = {d for d, args in (gammas or {}).items() if any(gamma_pole(z) is not None for z in args)}
    hit = poles & deltas() if poles else set()
    if hit:
        kind = "even" if 0 in hit else "odd"
        raise ConfigError(
            f"{label} puts a Gamma factor of {where} within 1e-6 of a pole ({kind} twist)"
        )


def _gamma_arguments(s, lambdas) -> dict:
    """delta -> every Gamma argument of G(s) with these lambdas and parity delta."""
    return {
        delta: [z for pair in g_pm_arguments(s, GammaFactorSpec(lambdas, delta)) for z in pair]
        for delta in (0, 1)
    }


def _voronoi_units(ranges, tol, config):
    families = ranges["families"]
    s = ranges["s"]
    y = ranges["truncation_y"]
    n_values = ranges["n_values"]
    cstar_values = ranges["cstar_values"]
    x_probe = ranges["x_probe"]
    probe_cstar = ranges["probe_cstar"]
    anchor = _SUITES["voronoi-core"].anchor
    units = []

    # One source per (degree, shifts), with the largest prime bound any unit
    # needs, built by the first unit that reads it: rows and blocks share its
    # caches, and a build that only validates builds none.  b_n's powers
    # depend on neither source nor twist, so every unit shares one store.
    bounds: dict = {}
    sources: dict = {}
    weights: dict = {}
    building = threading.Lock()

    def source(key):
        with building:
            if key not in sources:
                sources[key] = isobaric_source(*key, bounds[key])
            return sources[key]

    def twist_of(cstar):
        """The twist of a conductor's units, its first primitive character, and its delta."""
        chi_star = primitive_characters(cstar)[0]
        return chi_star, 0 if chi_star.parity == 1 else 1

    def side_by_side_unit(n_deg, shifts, cstar, qs):
        key = n_deg, shifts
        bounds[key] = max(bounds.get(key, 0), 2 * y + 10)
        lambdas = tuple(-sh for sh in shifts)
        _refuse(
            f"ranges.s: s = {s}", f"gl{n_deg} unit", cstar, twisted_l_arguments(s, shifts),
            _gamma_arguments(s, lambdas), lambda: {twist_of(cstar)[1]}
        )

        def run():
            src = source(key)
            chi_star, delta = twist_of(cstar)
            gval = g_pm_eval(s, GammaFactorSpec(lambdas, delta))
            pref = gval * tau(chi_star) ** n_deg * cstar ** (-n_deg * s)
            lval = twisted_l_isobaric(LValueRequest(s, chi_star, shifts))
            recs = []
            for q in qs:
                inst = VoronoiInstance(src, q, cstar, chi_star=chi_star)
                b_vals = b_n_coefficients(inst, n_values, s, pref, y, weights)
                for n, b_val in zip(n_values, b_vals):
                    a_val = a_n_coefficient(inst, n, s, lval)
                    tail = b_n_tail_bound(inst, n, s, pref, y)
                    allowance = tail + tol * max(abs(a_val), abs(b_val))
                    recs.append(
                        _abs_case(
                            anchor,
                            {
                                "family": "gl%d" % n_deg,
                                "shifts": [int(sh.imag) for sh in shifts],
                                "chi": chi_star.label,
                                "q": list(q),
                                "n": n,
                                "s": s,
                                "truncation_y": y,
                            },
                            a_val,
                            b_val,
                            allowance,
                        )
                    )
            return recs

        return run

    def probe_unit(sz, wz, twist, probe):
        n_deg, shifts, cstar, qz = probe
        key = n_deg, shifts
        bounds[key] = max(bounds.get(key, 0), 2 * x_probe)
        den_arg, k_arg = z_probe_arguments(sz, wz)
        l_args = twisted_l_arguments(sz, shifts) + [den_arg] + ([k_arg] if n_deg == 2 else [])
        _refuse(f"ranges.probe_points: [s, w] = {[sz, wz]}", f"{twist} probe", cstar, l_args)

        def run():
            chi_star = twist_of(cstar)[0]
            inst = VoronoiInstance(source(key), qz, cstar, chi_star=chi_star)
            via_l, via_a, bound = z_probe_with_bound(inst, sz, wz, x_probe)
            return [
                _abs_case(
                    anchor,
                    {
                        "family": "z",
                        "twist": twist,
                        "chi": chi_star.label,
                        "q": list(qz),
                        "s": sz,
                        "w": wz,
                        "x": x_probe,
                    },
                    via_l,
                    via_a,
                    bound,
                )
            ]

        return run

    if "gl3" in families:
        for shifts in ranges["gl3_shift_sets"]:
            for cstar in cstar_values:
                units.append(side_by_side_unit(3, shifts, cstar, ranges["q_values"]))
    if "gl2" in families:
        for shifts in ranges["gl2_shift_sets"]:
            for cstar in cstar_values:
                units.append(side_by_side_unit(2, shifts, cstar, [()]))
    if "z" in families:
        for sz, wz in ranges["probe_points"]:
            # twist -> (degree, shifts, conductor, q) of each instance probed
            # at (s, w).  The remainder bound anchors on an L-value at
            # 2w - 2s + 1; the trivial twist and degree 2 keep off the zeta pole.
            probes = {"isobaric": (3, (1j, 0j, -1j), probe_cstar, (2,))}
            if 2 * wz - 2 * sz + 1 > 1.05:
                probes["trivial"] = (3, (0j, 0j, 0j), 1, (1,))
                probes["degree-2"] = (2, (1j, -1j), probe_cstar, ())
            units += [probe_unit(sz, wz, twist, probe) for twist, probe in probes.items()]
    return units


def _lfunc_units(ranges, tol, config):
    shift_sets = ranges["shift_sets"]
    cstar_min = ranges["cstar_min"]
    cstar_max = ranges["cstar_max"]
    s_values = ranges["s_values"]
    anchor = _SUITES["lfunc"].anchor

    def points(s, shifts):
        # functional_equation_check evaluates L(s + s_i) and L(1 - s - s_i),
        # and G(s) with lambda = -shifts at the parity of its twist
        dual = tuple(-sh for sh in shifts)
        l_args = twisted_l_arguments(s, shifts) + twisted_l_arguments(1 - s, dual)
        return f"ranges.s_values: s = {s}", l_args, _gamma_arguments(s, dual)

    checks = [points(s, shifts) for s in s_values for shifts in shift_sets]

    def unit(cstar):
        def deltas():
            # only 3, 4 (odd) and 12 (even) lack a parity: a huge cstar enumerates nothing
            if cstar in (3, 4, 12):
                return {0 if chi.parity == 1 else 1 for chi in primitive_characters(cstar)}
            return {0, 1}

        for label, l_args, gammas in checks:
            _refuse(label, "lfunc unit", cstar, l_args, gammas, deltas, config.precision)

        def run():
            recs = []
            for chi in primitive_characters(cstar):
                for shifts in shift_sets:
                    for s in s_values:
                        lhs, rhs = functional_equation_check(
                            LValueRequest(s, chi, shifts), precision=config.precision
                        )
                        scale = max(abs(lhs), abs(rhs), 1e-300)
                        recs.append(
                            _rel_case(
                                anchor,
                                {
                                    "chi": chi.label,
                                    "shifts": [int(sh.imag) for sh in shifts],
                                    "s": s,
                                },
                                lhs,
                                rhs,
                                abs(lhs - rhs) / scale,
                                tol,
                            )
                        )
            return recs

        return run

    # a conductor has primitive characters unless it is 2 mod 4; the largest
    # is refused first, as dirichlet_l refuses no less at a larger modulus
    return [unit(cstar) for cstar in range(cstar_max, cstar_min - 1, -1) if cstar % 4 != 2]


_SUITES: dict[str, _SuiteSpec] = {}
for _spec in (
    _SuiteSpec(
        "gauss-lemmas",
        "Lemmas 2.2, 2.3 and 2.5",
        "Gauss sums at non-primitive moduli against their closed forms, and "
        "the divisor-sum average against tau(chi*) n",
        {
            "lemmas": (["2.2", "2.3", "2.5"], _choices(("2.2", "2.3", "2.5"), "lemma labels")),
            "cstar_max": (24, _int(1)),
            "c_max": (96, _int(1)),
            "m_max": (60, _int(1)),
            "n_max": (40, _int(1)),
        },
        1e-9,
        _gauss_units,
    ),
    _SuiteSpec(
        "kloosterman-average",
        "Lemma 3.4",
        "character-averaged hyper-Kloosterman sums against the Gauss-sum "
        "product closed form, vanishing branch included",
        {
            "degrees": ([3, 4, 5], _ints(2)),
            "c_max": (12, _int(1)),
            "q_max": (4, _int(1)),
            "n_values": ([1, 2, 5], _ints()),
        },
        1e-8,
        _kloosterman_units,
    ),
    _SuiteSpec(
        "hecke",
        "Eqs. 3 and 4",
        "Schur-coefficient Hecke recursions at prime powers for seeded "
        "unitary draws, and the ternary divisor check for the trivial "
        "isobaric source",
        {
            "degrees": ([3, 4], _ints(2)),
            "prime_max": (7, _int(2)),
            "exponent_max": (3, _int(1)),
            "draws": (100, _int(0)),
            "d3_check_max": (10000, _int(0)),
        },
        1e-10,
        _hecke_units,
    ),
    _SuiteSpec(
        "equivalence",
        "Prop. 3.6",
        "character averaging between additive-twist and Gauss-sum "
        "coefficient vectors, forward and reverse, with parity-mismatch "
        "vanishing",
        {
            "degrees": ([3, 4], _ints(2)),
            "c_values": ([2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], _ints(1)),
            "q_max": (3, _int(1)),
            "coefficients": (50, _int(1)),
            "s": ([0.35, -0.6], _complex),
        },
        1e-10,
        _equivalence_units,
    ),
    _SuiteSpec(
        "mobius",
        "Prop. 3.5",
        "Mobius inversion collapsing the divisor-corrected series back to a "
        "single larger modulus",
        {
            "degrees": ([3, 4], _ints(2)),
            "cstar_values": ([3, 4, 5], _ints(1)),
            "n_values": ([2, 3, 4], _ints(1)),
            "modulus_max": (12, _int(1)),
            "q_max": (3, _int(1)),
            "coefficients": (50, _int(1)),
            "s": ([0.35, -0.6], _complex),
        },
        1e-10,
        _mobius_units,
    ),
    _SuiteSpec(
        "voronoi-core",
        "Theorem 3.1 a_n=b_n",
        "truncated summation formula with certified coefficient tails, plus "
        "the double-series rearrangement probe; tolerances are absolute "
        "allowances (tail + rel cushion, or the certified probe bound)",
        {
            "families": (["gl3", "gl2", "z"], _choices(("gl3", "gl2", "z"), "family names")),
            # the certified tail needs 1 - Re s > 1.05
            "s": ([-1.5, 0.0], _re_below(-0.05)),
            "truncation_y": (10000, _int(1)),
            "n_values": ([1, 2, 3, 7, 10], _ints(1)),
            "cstar_values": ([3, 4, 5], _conductors(_ints(1))),
            # one layer size per GL(3) comparison
            "q_values": ([[1], [2]], _each(_length(_ints(1), 1), "integer lists")),
            "gl3_shift_sets": (
                [[0, 0, 0], [1, 0, -1]],
                _each(_length(_shift_set, 3), "shift sets"),
            ),
            "gl2_shift_sets": ([[1, -1]], _each(_length(_shift_set, 2), "shift sets")),
            "x_probe": (10000, _int(1)),
            "probe_points": ([[2.5, 4.0], [3.0, 3.0]], _each(_real_pair, "[s, w] pairs")),
            # conductor 1 would put the probe's L-value on the zeta pole
            "probe_cstar": (5, _conductors(_int(2))),
        },
        1e-6,
        _voronoi_units,
        refuses_points=True,
    ),
    _SuiteSpec(
        "lfunc",
        "Eq. 16",
        "functional equation of isobaric twists against the Gamma-ratio and "
        "Gauss-sum prefactor",
        {
            "shift_sets": ([[0, 0, 0], [1, 0, -1]], _each(_shift_set, "shift sets")),
            # conductor 1 (the trivial character) is outside the primitive-twist regime
            "cstar_min": (3, _int(2)),
            "cstar_max": (12, _int(2)),
            "s_values": (
                [[-1.5, 0.0], [-0.5, 0.0], [0.25, 2.0]],
                _each(_complex, "numbers or [re, im] pairs"),
            ),
        },
        1e-9,
        _lfunc_units,
        refuses_points=True,
        reads_precision=True,
    ),
):
    _SUITES[_spec.name] = _spec


def suite_names() -> tuple[str, ...]:
    return tuple(_SUITES)


def list_suites() -> str:
    """One line per suite: name, anchor, and what the sweep checks."""
    lines = []
    for name, spec in _SUITES.items():
        lines.append(f"{name} — {spec.anchor}: {spec.description}")
    return "\n".join(lines)


def run_suite(config: SweepConfig) -> VerificationReport:
    """Execute one suite; deterministic given (config, seed, precision)."""
    ranges = config._parse()  # the build below refuses what validate() would
    spec = _SUITES[config.suite]
    tol = spec.default_tolerance if config.tolerance is None else float(config.tolerance)
    start = time.perf_counter()
    units = spec.builder(ranges, tol, config)
    if config.jobs > 1 and len(units) > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            chunks = list(pool.map(lambda u: u(), units))
    else:
        chunks = [u() for u in units]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: r.parameters_json)
    # jobs is deliberately not echoed: worker count is scheduling only, so
    # reports from differently provisioned machines stay byte-comparable.
    echo = {
        "precision": config.precision,
        "ranges": {**spec.defaults, **config.ranges},
        "seed": config.seed,
        "suite": config.suite,
        "tolerance": config.tolerance,
    }
    return VerificationReport(
        suite=config.suite,
        anchor=spec.anchor,
        records=records,
        config_echo=echo,
        wall_time=time.perf_counter() - start,
    )
