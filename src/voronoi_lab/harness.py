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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .characters import enumerate_characters, induce, primitive_characters
from .exponential_sums import (
    _chain_moduli,
    average_kloosterman_closed_lemma34_table,
    gauss_sum_closed_lemma22_rows,
    gauss_sum_closed_lemma23_rows,
    gauss_sum_vector,
    kloosterman_divisor_chains,
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
    functional_equation_check,
    g_pm_arguments,
    g_pm_eval,
    gamma_pole,
    twisted_l_isobaric,
)
from .residues import divisor_count, primes_up_to, unit_residues
from .voronoi import (
    VoronoiInstance,
    a_n_coefficient,
    b_n_coefficient,
    b_n_tail_bound,
    curly_g_coefficients,
    curly_h_coefficients,
    g_coefficients,
    h_coefficients,
    lq_additive_coefficients,
    mobius_collapse,
    parity_gamma,
    voronoi_rhs_coefficients,
    z_probe,
    z_probe_bound,
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


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


# ---------------------------------------------------------------------------
# Records and reports


@dataclass(frozen=True)
class CaseRecord:
    """One verified identity instance (possibly the worst point of a batch).

    ``tolerance`` is the threshold ``rel_error`` was compared against, except
    in the voronoi-core suite where it is an absolute allowance (certified
    tail plus a relative cushion) compared against ``abs_error``; the suite
    description says which convention applies.
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
            text = canonical_json(self.parameters)
            object.__setattr__(self, "_parameters_json", text)
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

    def validate(self) -> None:
        if self.suite not in _SUITES:
            raise ConfigError(
                f"suite: unknown suite {self.suite!r}; expected one of "
                + ", ".join(suite_names())
            )
        if not isinstance(self.ranges, dict):
            raise ConfigError("ranges: expected a table of range overrides")
        allowed = _SUITES[self.suite].defaults
        for key in self.ranges:
            if key not in allowed:
                raise ConfigError(
                    f"ranges.{key}: unknown range for suite {self.suite!r}; "
                    f"known ranges: " + ", ".join(sorted(allowed))
                )
        spec = _SUITES[self.suite]
        for key, check in spec.range_checks.items():
            if key in self.ranges:
                check(self.ranges[key], f"ranges.{key}")
        if spec.joint_check is not None:
            spec.joint_check({**spec.defaults, **self.ranges})
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigError("seed: expected an integer")
        if not 0 <= self.seed <= _UINT64_MAX:
            raise ConfigError("seed: must fit in an unsigned 64-bit integer")
        if self.tolerance is not None:
            if not isinstance(self.tolerance, (int, float)) or isinstance(self.tolerance, bool):
                raise ConfigError("tolerance: expected a number")
            if not self.tolerance > 0 or math.isinf(self.tolerance):
                raise ConfigError("tolerance: must be finite and positive")
        if self.precision is not None:
            if not isinstance(self.precision, int) or isinstance(self.precision, bool):
                raise ConfigError("precision: expected an integer (bits)")
            if self.precision < 24:
                raise ConfigError("precision: below 24 bits is not meaningful")
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool):
            raise ConfigError("jobs: expected an integer")
        if self.jobs < 1:
            raise ConfigError("jobs: must be at least 1")

    @classmethod
    def from_mapping(cls, mapping: dict, source: str = "config") -> "SweepConfig":
        if not isinstance(mapping, dict):
            raise ConfigError(f"{source}: expected a table at the top level")
        known = {"suite", "ranges", "seed", "tolerance", "precision", "jobs"}
        for key in mapping:
            if key not in known:
                raise ConfigError(
                    f"{source}: unknown key {key!r}; expected "
                    + ", ".join(sorted(known))
                )
        if "suite" not in mapping:
            raise ConfigError(f"{source}: missing required key 'suite'")
        config = cls(
            suite=mapping["suite"],
            ranges=dict(mapping.get("ranges", {})),
            seed=mapping.get("seed", 0),
            tolerance=mapping.get("tolerance"),
            precision=mapping.get("precision"),
            jobs=mapping.get("jobs", 1),
        )
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


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, label: str) -> complex:
    if _is_real(value):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value)):
        return complex(value[0], value[1])
    raise ConfigError(f"{label}: expected a number or a [re, im] pair")


def _as_int_list(value, label: str) -> list[int]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{label}: expected a list of integers")
    out = []
    for v in value:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ConfigError(f"{label}: expected a list of integers")
        out.append(v)
    return out


def _check_int(minimum: int):
    def check(value, label: str) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{label}: expected an integer")
        if value < minimum:
            raise ConfigError(f"{label}: must be at least {minimum}")

    return check


def _check_int_list(minimum: int | None = None):
    def check(value, label: str) -> None:
        values = _as_int_list(value, label)
        if minimum is not None and any(v < minimum for v in values):
            raise ConfigError(f"{label}: entries must be at least {minimum}")

    return check


def _check_conductors(check):
    """check, then reject conductors that are 2 mod 4: they have no primitive character."""

    def run(value, label: str) -> None:
        check(value, label)
        if any(v % 4 == 2 for v in (value if isinstance(value, (list, tuple)) else [value])):
            raise ConfigError(f"{label}: conductors that are 2 mod 4 have no primitive character")

    return run


def _check_length(check, length: int):
    """check, then require exactly length entries."""

    def run(value, label: str) -> None:
        check(value, label)
        if len(value) != length:
            raise ConfigError(f"{label}: each entry must have length {length}")

    return run


def _check_each(entry, what: str):
    """A list whose every entry passes entry(value, label)."""

    def check(value, label: str) -> None:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{label}: expected a list of {what}")
        for v in value:
            entry(v, label)

    return check


def _check_choice(allowed: tuple[str, ...]):
    def check(value, label: str) -> None:
        if value not in allowed:
            raise ConfigError(f"{label}: {value!r} is not one of " + ", ".join(allowed))

    return check


def _check_re_below(bound: float):
    def check(value, label: str) -> None:
        if not _as_complex(value, label).real < bound:
            raise ConfigError(f"{label}: real part must be below {bound}")

    return check


def _check_real_pair(value, label: str) -> None:
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value))):
        raise ConfigError(f"{label}: expected an [s, w] pair of real numbers")


def _as_shift_set(value, label: str) -> tuple[complex, ...]:
    # Shifts are stored as integer imaginary parts; they must sum to zero.
    parts = _as_int_list(value, label)
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
    name: str
    anchor: str
    description: str
    defaults: dict
    default_tolerance: float
    builder: object  # (ranges, tolerance, config) -> list[callable]
    # range name -> check(value, label) raising ConfigError; run on overrides
    range_checks: dict = field(default_factory=dict)
    # check(ranges) raising ConfigError, run on the effective ranges after range_checks
    joint_check: object = None


def _gauss_units(ranges, tol, config):
    lemmas = ranges["lemmas"]
    cstar_max = ranges["cstar_max"]
    c_max = ranges["c_max"]
    m_max = ranges["m_max"]
    n_max = ranges["n_max"]
    anchor = _SUITES["gauss-lemmas"].anchor
    units = []

    def closed_unit(chi, lemma, closed_rows):
        def run():
            cs = range(chi.modulus, c_max + 1, chi.modulus)
            m_arr = np.arange(1, m_max + 1)
            shape = (len(cs), m_max)  # (0, m_max) when c* > c_max: no rows, no records
            direct = np.reshape([gauss_sum_vector(chi, c)[m_arr % c] for c in cs], shape)
            closed = closed_rows(chi, cs, m_arr)
            diff = direct - closed
            rel = np.hypot(diff.real, diff.imag) / np.sqrt(np.array(cs, dtype=float))[:, None]
            rows = [{"lemma": lemma, "chi": chi.label, "c": c} for c in cs]
            return _worst_records(anchor, rows, direct, closed, rel, tol, lambda p: {"m": p + 1})

        return run

    def average_unit(chi):
        def run():
            cstar = chi.modulus
            vv = chi.value_vector
            tau_val = tau(chi)
            m_arr = np.arange(1, m_max + 1)
            ns = range(1, n_max + 1)
            # g(chi*, k c*, m) for every k <= n_max; one pass over d then adds
            # chi*(d) g(chi*, (n/d) c*, m) to every multiple n of d, so each
            # lhs[n] sums its divisors in ascending order.
            gk = np.stack([gauss_sum_vector(chi, k * cstar)[m_arr % (k * cstar)] for k in ns])
            lhs = np.zeros((n_max, m_max), dtype=complex)
            for d in ns:
                chid = vv[d % cstar]
                if chid != 0:
                    lhs[d - 1 :: d] += chid * gk[: n_max // d]
            n_col = np.array(ns)[:, None]
            rhs = np.where(
                m_arr % n_col == 0, tau_val * np.conj(vv[m_arr // n_col % cstar]) * n_col, 0j
            )
            # |rhs| is exactly sqrt(c*) n whenever nonzero, so this one
            # scale covers the vanishing branch too.
            rel = np.abs(lhs - rhs) / (math.sqrt(cstar) * np.array(ns))[:, None]
            rows = [{"lemma": "2.5", "chi": chi.label, "n": n} for n in ns]
            return _worst_records(anchor, rows, lhs, rhs, rel, tol, lambda p: {"m": p + 1})

        return run

    for cstar in range(1, cstar_max + 1):
        for chi in primitive_characters(cstar):
            if "2.2" in lemmas:
                units.append(closed_unit(chi, "2.2", gauss_sum_closed_lemma22_rows))
            if "2.3" in lemmas:
                units.append(closed_unit(chi, "2.3", gauss_sum_closed_lemma23_rows))
            if "2.5" in lemmas:
                units.append(average_unit(chi))
    return units


def _worst_records(anchor, rows, lhs, rhs, rel, tol, point) -> list[CaseRecord]:
    """One record per row of rel[row, p], for the row's worst point p.

    The worst point is the first maximum in p order, as a scan keeping
    strictly larger values would pick; a NaN anywhere in a row outranks every
    number, so the row's record carries it and fails instead of passing or
    being skipped.  lhs and rhs broadcast to rel's shape; record i has the
    parameters {**rows[i], **point(p)}.
    """
    lhs = np.broadcast_to(lhs, rel.shape)
    rhs = np.broadcast_to(rhs, rel.shape)
    return [
        _rel_case(anchor, {**row, **point(p)}, lhs[i, p], rhs[i, p], rel[i, p], tol)
        for i, (row, p) in enumerate(zip(rows, np.argmax(rel, axis=1).tolist()))
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
            chains = np.array(kloosterman_divisor_chains(c, q), dtype=np.int64)
            # Both routes give every (character, chain, n) of the unit in one
            # array: the closed one from Gauss sums over the chains it checks,
            # the direct one as the character average of one walk of (c, q).
            closed = average_kloosterman_closed_lemma34_table(c, q, chains, n_values)
            kl = kloosterman_vector(n_values, c, q, leaves)
            direct = (vv @ kl.reshape(len(kl), -1)).reshape(closed.shape)
            scale = np.sqrt(np.prod(_chain_moduli(c, q, chains), axis=1))
            diff = direct - closed
            rel = (np.hypot(diff.real, diff.imag) / scale[None, :, None]).reshape(len(chars), -1)
            rows = [{"degree": n_deg, "c": c, "q": list(q), "chi": ch.label} for ch in chars]

            def point(p):
                j, t = divmod(p, len(n_values))
                return {"d": chains[j].tolist(), "n": n_values[t]}

            flat = (len(chars), -1)
            return _worst_records(
                anchor, rows, direct.reshape(flat), closed.reshape(flat), rel, tol, point
            )

        return run

    for n_deg in degrees:
        for c in range(1, c_max + 1):
            for q in itertools.product(range(1, q_max + 1), repeat=n_deg - 2):
                units.append(unit(n_deg, c, q))
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
    s = _as_complex(ranges["s"], "ranges.s")
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
            insts = [VoronoiInstance(src, q, c, chi=chi, truncation=x) for chi in chars]
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
    s = _as_complex(ranges["s"], "ranges.s")
    anchor = _SUITES["mobius"].anchor
    units = []

    def unit(n_deg, cstar, n):
        def run():
            src = raw_table_source(n_deg, seed=_seed_int(config.seed, 404, n_deg, cstar, n))
            rows, got, want = [], [], []
            for chi_star in primitive_characters(cstar):
                chi_big = induce(chi_star, n * cstar)
                for q in itertools.product(range(1, q_max + 1), repeat=n_deg - 2):
                    base = VoronoiInstance(src, q, cstar, chi=chi_star, truncation=x)
                    target = VoronoiInstance(src, q, n * cstar, chi=chi_big, truncation=x)
                    head = {"degree": n_deg, "cstar": cstar, "chi": chi_star.label, "q": list(q)}
                    for family, curly, want_f in (
                        (
                            "divisor-corrected-h",
                            lambda q2, n2: curly_h_coefficients(replace(base, q=q2), n2, s),
                            h_coefficients(target) * complex(n) ** (2 * s - 1),
                        ),
                        (
                            "divisor-corrected-g",
                            lambda q2, n2: curly_g_coefficients(
                                replace(base, q=q2), n2, s, _G_EVEN_PROBE
                            ),
                            g_coefficients(target, s, _G_EVEN_PROBE),
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


def _voronoi_units(ranges, tol, config):
    families = ranges["families"]
    s = _as_complex(ranges["s"], "ranges.s")
    y = ranges["truncation_y"]
    n_values = ranges["n_values"]
    cstar_values = ranges["cstar_values"]
    q_values = [tuple(q) for q in ranges["q_values"]]
    gl3_shift_sets = [_as_shift_set(v, "ranges.gl3_shift_sets") for v in ranges["gl3_shift_sets"]]
    gl2_shift_sets = [_as_shift_set(v, "ranges.gl2_shift_sets") for v in ranges["gl2_shift_sets"]]
    x_probe = ranges["x_probe"]
    probe_points = [(float(p[0]), float(p[1])) for p in ranges["probe_points"]]
    probe_cstar = ranges["probe_cstar"]
    anchor = _SUITES["voronoi-core"].anchor
    units = []
    truncation = 50  # outer length X of each instance; a_n, b_n and z_probe do not read it

    # One source per (degree, shifts), built once the units are known, with
    # the largest prime bound any of them needs: rows and blocks share its caches.
    bounds: dict = {}
    sources: dict = {}

    def side_by_side_unit(n_deg, shifts, cstar, qs):
        bounds[n_deg, shifts] = max(bounds.get((n_deg, shifts), 0), 2 * y + 10)

        def run():
            src = sources[n_deg, shifts]
            chi_star = primitive_characters(cstar)[0]
            delta = 0 if chi_star.parity == 1 else 1
            gval = g_pm_eval(s, GammaFactorSpec(tuple(-sh for sh in shifts), delta))
            pref = gval * tau(chi_star) ** n_deg * cstar ** (-n_deg * s)
            lval = twisted_l_isobaric(LValueRequest(s, chi_star, shifts))
            weights = {}  # b_n's powers, shared by every (q, n) of the unit
            recs = []
            for q in qs:
                inst = VoronoiInstance(src, q, cstar, chi=chi_star, truncation=truncation)
                for n in n_values:
                    a_val = a_n_coefficient(inst, n, s, lval)
                    b_val = b_n_coefficient(inst, n, s, pref, y, weights)
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

    # twist -> (degree, shifts, conductor, q) of the probed instance
    probes = {
        "isobaric": (3, (1j, 0j, -1j), probe_cstar, (2,)),
        "trivial": (3, (0j, 0j, 0j), 1, (1,)),
        "degree-2": (2, (1j, -1j), probe_cstar, ()),
    }

    def probe_unit(sz, wz, twist):
        n_deg, shifts, cstar, qz = probes[twist]
        bounds[n_deg, shifts] = max(bounds.get((n_deg, shifts), 0), 2 * x_probe)

        def run():
            chi_star = primitive_characters(cstar)[0]
            src = sources[n_deg, shifts]
            inst = VoronoiInstance(src, qz, cstar, chi=chi_star, truncation=truncation)
            via_l, via_a = z_probe(inst, sz, wz, x_probe)
            bound = z_probe_bound(inst, sz, wz, x_probe)
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
        for shifts in gl3_shift_sets:
            for cstar in cstar_values:
                units.append(side_by_side_unit(3, shifts, cstar, q_values))
    if "gl2" in families:
        for shifts in gl2_shift_sets:
            for cstar in cstar_values:
                units.append(side_by_side_unit(2, shifts, cstar, [()]))
    if "z" in families:
        for sz, wz in probe_points:
            units.append(probe_unit(sz, wz, "isobaric"))
            # The remainder bound anchors on an L-value at 2w - 2s + 1; keep
            # the trivial twist and the degree-2 branch off the edge of the
            # zeta pole.
            if 2 * wz - 2 * sz + 1 > 1.05:
                units.append(probe_unit(sz, wz, "trivial"))
                units.append(probe_unit(sz, wz, "degree-2"))
    for (n_deg, shifts), bound in bounds.items():
        sources[n_deg, shifts] = isobaric_source(n_deg, shifts, bound)
    return units


def _gamma_pole_deltas(s, shift_sets) -> list[int]:
    """The parities delta at which G(s) for lambda = -shifts has a Gamma argument on a pole."""
    return [
        delta
        for delta in (0, 1)
        if any(
            gamma_pole(z) is not None
            for shifts in shift_sets
            for pair in g_pm_arguments(s, GammaFactorSpec(tuple(-sh for sh in shifts), delta))
            for z in pair
        )
    ]


def _check_voronoi_poles(ranges) -> None:
    """Reject an s at which a gl3 or gl2 unit's g_pm_eval would refuse to evaluate.

    A unit's G has lambda = -shifts and its twist's parity; the twist is the
    first primitive character of its conductor.
    """
    s = _as_complex(ranges["s"], "ranges.s")
    deltas = {0 if primitive_characters(c)[0].parity == 1 else 1 for c in ranges["cstar_values"]}
    for family in ("gl3", "gl2"):
        key = f"{family}_shift_sets"
        shift_sets = [_as_shift_set(v, f"ranges.{key}") for v in ranges[key]]
        hit = deltas.intersection(_gamma_pole_deltas(s, shift_sets))
        if hit and family in ranges["families"]:
            kind = "even" if min(hit) == 0 else "odd"
            raise ConfigError(
                f"ranges.s: s = {ranges['s']} puts a Gamma factor of a {family} unit "
                f"with an {kind} twist within 1e-6 of a pole"
            )


def _check_lfunc_poles(ranges) -> None:
    """Reject an s at which g_pm_eval or dirichlet_l would refuse to evaluate.

    The Gamma arguments depend on s, the shift set and the parity delta of the
    twist, so a Gamma pole only matters when a primitive character of that
    parity has a conductor in [cstar_min, cstar_max].  The L-values sit at
    s + s_i and 1 - s - s_i; dirichlet_l evaluates a nonprincipal L exactly at
    1 but rejects any point within 1e-6 of 1 that is not on it.
    """
    shift_sets = [_as_shift_set(v, "ranges.shift_sets") for v in ranges["shift_sets"]]
    for value in ranges["s_values"]:
        s = _as_complex(value, "ranges.s_values")
        # the same float operations as functional_equation_check's two requests
        l_args = [z for shifts in shift_sets for sh in shifts for z in (s + sh, (1 - s) + -sh)]
        if any(abs(z - 1.0) < 1e-6 and z != 1.0 for z in l_args):
            raise ConfigError(
                f"ranges.s_values: s = {value} puts an L-value argument within 1e-6 "
                f"of 1 without being exactly 1"
            )
        for delta in _gamma_pole_deltas(s, shift_sets):
            parity = 1 if delta == 0 else -1
            if any(
                chi.parity == parity
                for cstar in range(ranges["cstar_min"], ranges["cstar_max"] + 1)
                for chi in primitive_characters(cstar)
            ):
                kind = "even" if delta == 0 else "odd"
                raise ConfigError(
                    f"ranges.s_values: s = {value} puts a Gamma factor of the {kind} "
                    f"functional equation within 1e-6 of a pole"
                )


def _lfunc_units(ranges, tol, config):
    shift_sets = [_as_shift_set(v, "ranges.shift_sets") for v in ranges["shift_sets"]]
    cstar_min = ranges["cstar_min"]
    cstar_max = ranges["cstar_max"]
    s_values = [_as_complex(v, "ranges.s_values") for v in ranges["s_values"]]
    anchor = _SUITES["lfunc"].anchor
    units = []

    def unit(cstar):
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

    for cstar in range(cstar_min, cstar_max + 1):
        if primitive_characters(cstar):
            units.append(unit(cstar))
    return units


_SUITES: dict[str, _SuiteSpec] = {}
for _spec in (
    _SuiteSpec(
        "gauss-lemmas",
        "Lemmas 2.2, 2.3 and 2.5",
        "Gauss sums at non-primitive moduli against their closed forms, and "
        "the divisor-sum average against tau(chi*) n",
        {
            "lemmas": ["2.2", "2.3", "2.5"],
            "cstar_max": 24,
            "c_max": 96,
            "m_max": 60,
            "n_max": 40,
        },
        1e-9,
        _gauss_units,
        {
            "lemmas": _check_each(_check_choice(("2.2", "2.3", "2.5")), "lemma labels"),
            **{key: _check_int(1) for key in ("cstar_max", "c_max", "m_max", "n_max")},
        },
    ),
    _SuiteSpec(
        "kloosterman-average",
        "Lemma 3.4",
        "character-averaged hyper-Kloosterman sums against the Gauss-sum "
        "product closed form, vanishing branch included",
        {"degrees": [3, 4, 5], "c_max": 12, "q_max": 4, "n_values": [1, 2, 5]},
        1e-8,
        _kloosterman_units,
        {
            "degrees": _check_int_list(2),
            "c_max": _check_int(1),
            "q_max": _check_int(1),
            "n_values": _check_int_list(),
        },
    ),
    _SuiteSpec(
        "hecke",
        "Eqs. 3 and 4",
        "Schur-coefficient Hecke recursions at prime powers for seeded "
        "unitary draws, and the ternary divisor check for the trivial "
        "isobaric source",
        {
            "degrees": [3, 4],
            "prime_max": 7,
            "exponent_max": 3,
            "draws": 100,
            "d3_check_max": 10000,
        },
        1e-10,
        _hecke_units,
        {
            "degrees": _check_int_list(2),
            "prime_max": _check_int(2),
            "exponent_max": _check_int(1),
            "draws": _check_int(0),
            "d3_check_max": _check_int(0),
        },
    ),
    _SuiteSpec(
        "equivalence",
        "Prop. 3.6",
        "character averaging between additive-twist and Gauss-sum "
        "coefficient vectors, forward and reverse, with parity-mismatch "
        "vanishing",
        {
            "degrees": [3, 4],
            "c_values": [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
            "q_max": 3,
            "coefficients": 50,
            "s": [0.35, -0.6],
        },
        1e-10,
        _equivalence_units,
        {
            "degrees": _check_int_list(2),
            "c_values": _check_int_list(1),
            "q_max": _check_int(1),
            "coefficients": _check_int(1),
            "s": _as_complex,
        },
    ),
    _SuiteSpec(
        "mobius",
        "Prop. 3.5",
        "Mobius inversion collapsing the divisor-corrected series back to a "
        "single larger modulus",
        {
            "degrees": [3, 4],
            "cstar_values": [3, 4, 5],
            "n_values": [2, 3, 4],
            "modulus_max": 12,
            "q_max": 3,
            "coefficients": 50,
            "s": [0.35, -0.6],
        },
        1e-10,
        _mobius_units,
        {
            "degrees": _check_int_list(2),
            "cstar_values": _check_int_list(1),
            "n_values": _check_int_list(1),
            "modulus_max": _check_int(1),
            "q_max": _check_int(1),
            "coefficients": _check_int(1),
            "s": _as_complex,
        },
    ),
    _SuiteSpec(
        "voronoi-core",
        "Theorem 3.1 a_n=b_n",
        "truncated summation formula with certified coefficient tails, plus "
        "the double-series rearrangement probe; tolerances are absolute "
        "allowances (tail + rel cushion, or the certified probe bound)",
        {
            "families": ["gl3", "gl2", "z"],
            "s": [-1.5, 0.0],
            "truncation_y": 10000,
            "n_values": [1, 2, 3, 7, 10],
            "cstar_values": [3, 4, 5],
            "q_values": [[1], [2]],
            "gl3_shift_sets": [[0, 0, 0], [1, 0, -1]],
            "gl2_shift_sets": [[1, -1]],
            "x_probe": 10000,
            "probe_points": [[2.5, 4.0], [3.0, 3.0]],
            "probe_cstar": 5,
        },
        1e-6,
        _voronoi_units,
        {
            "families": _check_each(_check_choice(("gl3", "gl2", "z")), "family names"),
            # the certified tail needs 1 - Re s > 1.05
            "s": _check_re_below(-0.05),
            "truncation_y": _check_int(1),
            "n_values": _check_int_list(1),
            "cstar_values": _check_conductors(_check_int_list(1)),
            # one layer size per GL(3) comparison
            "q_values": _check_each(_check_length(_check_int_list(1), 1), "integer lists"),
            "gl3_shift_sets": _check_each(_check_length(_as_shift_set, 3), "shift sets"),
            "gl2_shift_sets": _check_each(_check_length(_as_shift_set, 2), "shift sets"),
            "x_probe": _check_int(1),
            "probe_points": _check_each(_check_real_pair, "[s, w] pairs"),
            # conductor 1 would put the probe's L-value on the zeta pole
            "probe_cstar": _check_conductors(_check_int(2)),
        },
        _check_voronoi_poles,
    ),
    _SuiteSpec(
        "lfunc",
        "Eq. 16",
        "functional equation of isobaric twists against the Gamma-ratio and "
        "Gauss-sum prefactor",
        {
            "shift_sets": [[0, 0, 0], [1, 0, -1]],
            "cstar_min": 3,
            "cstar_max": 12,
            "s_values": [[-1.5, 0.0], [-0.5, 0.0], [0.25, 2.0]],
        },
        1e-9,
        _lfunc_units,
        {
            "shift_sets": _check_each(_as_shift_set, "shift sets"),
            # conductor 1 (the trivial character) is outside the primitive-twist regime
            "cstar_min": _check_int(2),
            "cstar_max": _check_int(2),
            "s_values": _check_each(_as_complex, "numbers or [re, im] pairs"),
        },
        _check_lfunc_poles,
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
    config.validate()
    spec = _SUITES[config.suite]
    ranges = dict(spec.defaults)
    ranges.update(config.ranges)
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
        "ranges": ranges,
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
