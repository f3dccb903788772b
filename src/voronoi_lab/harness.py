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
from .characters import (
    DirichletCharacter,
    conductor,
    enumerate_characters,
    induce,
    primitive_characters,
    principal,
)
from .exponential_sums import (
    average_kloosterman_closed_lemma34_table,
    clear_kloosterman_cache,
    gauss_sum_closed_lemma22,
    gauss_sum_closed_lemma23,
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
    g_pm_eval,
    twisted_l_isobaric,
)
from .residues import divisor_count, euler_phi, primes_up_to, unit_residues
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
        out.append(json.dumps(obj, ensure_ascii=True))
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

    def to_dict(self) -> dict:
        return {
            "anchor": self.anchor,
            "parameters": _jsonable(self.parameters),
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
            "records": [r.to_dict() for r in self.records],
            "schema": self.schema,
            "suite": self.suite,
            "summary": summary,
            "version": self.version,
        }

    def to_canonical_json(self, include_timing: bool = False) -> str:
        # Timing is excluded by default so identical sweeps emit identical
        # bytes; pass include_timing=True for human-facing copies.
        return canonical_json(self.to_dict(include_timing)) + "\n"

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
        for key, check in _SUITES[self.suite].range_checks.items():
            if key in self.ranges:
                check(self.ranges[key], f"ranges.{key}")
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


def _as_complex(value, label: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(
        isinstance(v, (int, float)) for v in value
    ):
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


def _gauss_units(ranges, tol, config):
    lemmas = [str(x) for x in ranges["lemmas"]]
    cstar_max = ranges["cstar_max"]
    c_max = ranges["c_max"]
    m_max = ranges["m_max"]
    n_max = ranges["n_max"]
    anchor = _SUITES["gauss-lemmas"].anchor
    units = []

    def closed_unit(chi, lemma, closed_form):
        def run():
            recs = []
            cstar = chi.modulus
            for c in range(cstar, c_max + 1, cstar):
                direct = gauss_sum_vector(chi, c)
                scale = math.sqrt(c)
                worst = (-1.0, None)
                for m in range(1, m_max + 1):
                    want = closed_form(chi, c, m)
                    rel = abs(direct[m % c] - want) / scale
                    if rel > worst[0]:
                        worst = (rel, (m, direct[m % c], want))
                m, lhs, rhs = worst[1]
                recs.append(
                    _rel_case(
                        anchor,
                        {"lemma": lemma, "chi": chi.label, "c": c, "m": m},
                        lhs,
                        rhs,
                        worst[0],
                        tol,
                    )
                )
            return recs

        return run

    def average_unit(chi):
        def run():
            recs = []
            cstar = chi.modulus
            vv = chi.value_vector
            tau_val = tau(chi)
            m_arr = np.arange(m_max + 1)
            for n in range(1, n_max + 1):
                lhs = np.zeros(m_max + 1, dtype=complex)
                for d in range(1, n + 1):
                    if n % d:
                        continue
                    chid = vv[d % cstar]
                    if chid == 0:
                        continue
                    mod = (n // d) * cstar
                    lhs += chid * gauss_sum_vector(chi, mod)[m_arr % mod]
                rhs = np.zeros(m_max + 1, dtype=complex)
                mult = np.arange(n, m_max + 1, n)
                if mult.size:
                    rhs[mult] = tau_val * np.conj(vv[(mult // n) % cstar]) * n
                # |rhs| is exactly sqrt(c*) n whenever nonzero, so this one
                # scale covers the vanishing branch too.
                scale = math.sqrt(cstar) * n
                rel = np.abs(lhs - rhs) / scale
                rel[0] = -1.0
                m = int(np.argmax(rel))
                recs.append(
                    _rel_case(
                        anchor,
                        {"lemma": "2.5", "chi": chi.label, "n": n, "m": m},
                        lhs[m],
                        rhs[m],
                        float(rel[m]),
                        tol,
                    )
                )
            return recs

        return run

    for cstar in range(1, cstar_max + 1):
        for chi in primitive_characters(cstar):
            if "2.2" in lemmas:
                units.append(closed_unit(chi, "2.2", gauss_sum_closed_lemma22))
            if "2.3" in lemmas:
                units.append(closed_unit(chi, "2.3", gauss_sum_closed_lemma23))
            if "2.5" in lemmas:
                units.append(average_unit(chi))
    return units


def _worst_points(rel: np.ndarray) -> np.ndarray:
    """Per row of rel[x, p], the index of its worst point.

    The first maximum in p order, as a scan keeping strictly larger values
    would pick; a NaN anywhere in a row outranks every number, so the row's
    record carries it and fails instead of passing or being skipped.
    """
    return np.argmax(rel, axis=1)


def _kloosterman_units(ranges, tol, config):
    degrees = ranges["degrees"]
    c_max = ranges["c_max"]
    q_max = ranges["q_max"]
    n_values = ranges["n_values"]
    anchor = _SUITES["kloosterman-average"].anchor
    units = []
    if not n_values:  # no points, so no worst point to report
        return units

    def unit(n_deg, c, q):
        def run():
            chars = enumerate_characters(c)
            vv = np.stack([ch.value_vector for ch in chars])
            chains = list(kloosterman_divisor_chains(c, q))
            # Closed route: every (character, chain, n) of the unit in one
            # array.  Direct route: one layered Kloosterman vector per
            # (chain, n), averaged against all characters at once.
            closed = average_kloosterman_closed_lemma34_table(c, q, chains, n_values)
            direct = np.empty_like(closed)
            scale = np.empty(len(chains))
            for j, d in enumerate(chains):
                mods = [c]
                for qi, di in zip(q, d):
                    mods.append(qi * mods[-1] // di)
                scale[j] = math.sqrt(math.prod(mods))
                for t, n in enumerate(n_values):
                    direct[:, j, t] = vv @ kloosterman_vector(n, c, q, d)
            diff = direct - closed
            rel = (np.hypot(diff.real, diff.imag) / scale[None, :, None]).reshape(len(chars), -1)
            worst = _worst_points(rel)
            recs = []
            for i, ch in enumerate(chars):
                j, t = divmod(int(worst[i]), len(n_values))
                recs.append(
                    _rel_case(
                        anchor,
                        {
                            "degree": n_deg,
                            "c": c,
                            "q": list(q),
                            "chi": ch.label,
                            "d": list(chains[j]),
                            "n": n_values[t],
                        },
                        direct[i, j, t],
                        closed[i, j, t],
                        rel[i, worst[i]],
                        tol,
                    )
                )
            # Chain vectors are only shared within one (c, q) box; drop them
            # so long sweeps stay flat in memory.
            clear_kloosterman_cache()
            return recs

        return run

    for n_deg in degrees:
        for c in range(1, c_max + 1):
            for q in itertools.product(range(1, q_max + 1), repeat=n_deg - 2):
                units.append(unit(n_deg, c, q))
    return units


def _hecke_units(ranges, tol, config):
    degrees = _as_int_list(ranges["degrees"], "ranges.degrees")
    prime_max = ranges["prime_max"]
    exp_max = int(ranges["exponent_max"])
    draws = int(ranges["draws"])
    d3_max = int(ranges["d3_check_max"])
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
            worst = (-1.0, None)
            for n in range(1, d3_max + 1):
                want = divisor_count(3, n)
                got = src.coefficient((n, 1))
                rel = abs(got - want) / want
                if rel > worst[0]:
                    worst = (rel, (n, got, want))
            n, lhs, rhs = worst[1]
            return [
                _rel_case(
                    anchor,
                    {"check": "d3", "n_max": d3_max, "n": n},
                    lhs,
                    rhs,
                    worst[0],
                    tol,
                )
            ]

        return run

    for draw in range(draws):
        for n_deg in degrees:
            units.append(draw_unit(draw, n_deg))
    if d3_max > 0 and degrees:
        units.append(d3_unit())
    return units


def _equivalence_units(ranges, tol, config):
    degrees = _as_int_list(ranges["degrees"], "ranges.degrees")
    c_values = _as_int_list(ranges["c_values"], "ranges.c_values")
    q_max = int(ranges["q_max"])
    x = int(ranges["coefficients"])
    s = _as_complex(ranges["s"], "ranges.s")
    anchor = _SUITES["equivalence"].anchor
    units = []

    def unit(n_deg, c, q):
        def run():
            src = raw_table_source(n_deg, seed=_seed_int(config.seed, 303, n_deg, c, *q))
            units_c = [int(a) for a in unit_residues(c)]
            add_coefs, r10, r01 = {}, {}, {}
            for a in units_c:
                inst_a = VoronoiInstance(src, q, c, a=a, truncation=x)
                add_coefs[a] = lq_additive_coefficients(inst_a)
                r10[a] = voronoi_rhs_coefficients(inst_a, s, 1.0, 0.0)
                r01[a] = voronoi_rhs_coefficients(inst_a, s, 0.0, 1.0)
            basis_scale = max(
                1e-30,
                *(float(np.max(np.abs(r10[a]))) for a in units_c),
                *(float(np.max(np.abs(r01[a]))) for a in units_c),
            )
            chars = enumerate_characters(c)
            h_by_chi, g_by_chi = {}, {}
            recs = []

            def vec_case(direction, key, got, want, scale):
                diff = np.abs(got - want)
                idx = int(np.argmax(diff))
                params = {"degree": n_deg, "c": c, "q": list(q), "direction": direction}
                params.update(key)
                params["worst_n"] = idx
                recs.append(
                    _rel_case(
                        anchor, params, got[idx], want[idx], float(diff[idx]) / scale, tol
                    )
                )

            for chi in chars:
                inst_c = VoronoiInstance(src, q, c, chi=chi, truncation=x)
                cstar = inst_c.cstar
                avg = sum(chi.value_vector[a] * add_coefs[a] for a in units_c)
                href = h_coefficients(inst_c)
                h_by_chi[chi] = href
                scale = max(1e-30, float(np.max(np.abs(href))), float(np.max(np.abs(avg))))
                vec_case("forward-additive", {"chi": chi.label}, avg, href, scale)

                avg_r = sum(
                    chi.value_vector[a] * (_G_EVEN_PROBE * r10[a] + _G_ODD_PROBE * r01[a])
                    for a in units_c
                )
                gref = g_coefficients(
                    inst_c, s, parity_gamma(inst_c.chi_star, _G_EVEN_PROBE, _G_ODD_PROBE)
                )
                g_by_chi[chi] = gref
                want = (c / cstar) ** (1 - 2 * s) * gref
                scale = max(1e-30, float(np.max(np.abs(want))), float(np.max(np.abs(avg_r))))
                vec_case("forward-dual", {"chi": chi.label}, avg_r, want, scale)

                # The parity-mismatched Gamma slot must average to zero.
                mis = (1.0, 0.0) if inst_c.chi_star.parity == -1 else (0.0, 1.0)
                avg_z = sum(
                    chi.value_vector[a] * (mis[0] * r10[a] + mis[1] * r01[a])
                    for a in units_c
                )
                vec_case(
                    "parity-zero", {"chi": chi.label}, avg_z, np.zeros_like(avg_z), basis_scale
                )

            phi_c = euler_phi(c)
            cond = {chi: conductor(chi)[0] for chi in chars}
            for a in units_c:
                rec_a = (
                    sum(np.conj(chi.value_vector[a]) * h_by_chi[chi] for chi in chars) / phi_c
                )
                scale = max(1e-30, float(np.max(np.abs(add_coefs[a]))))
                vec_case("reverse-additive", {"a": a}, rec_a, add_coefs[a], scale)
                rec_r = (
                    sum(
                        np.conj(chi.value_vector[a])
                        * (c / cond[chi]) ** (1 - 2 * s)
                        * g_by_chi[chi]
                        for chi in chars
                    )
                    / phi_c
                )
                direct = _G_EVEN_PROBE * r10[a] + _G_ODD_PROBE * r01[a]
                scale = max(1e-30, float(np.max(np.abs(direct))))
                vec_case("reverse-dual", {"a": a}, rec_r, direct, scale)
            clear_kloosterman_cache()
            return recs

        return run

    for n_deg in degrees:
        for c in c_values:
            for q in itertools.product(range(1, q_max + 1), repeat=n_deg - 2):
                units.append(unit(n_deg, c, q))
    return units


def _mobius_units(ranges, tol, config):
    degrees = _as_int_list(ranges["degrees"], "ranges.degrees")
    cstar_values = ranges["cstar_values"]
    n_values = _as_int_list(ranges["n_values"], "ranges.n_values")
    modulus_max = int(ranges["modulus_max"])
    q_max = int(ranges["q_max"])
    x = int(ranges["coefficients"])
    s = _as_complex(ranges["s"], "ranges.s")
    anchor = _SUITES["mobius"].anchor
    units = []

    def unit(n_deg, cstar, n):
        def run():
            src = raw_table_source(n_deg, seed=_seed_int(config.seed, 404, n_deg, cstar, n))
            recs = []
            for chi_star in primitive_characters(cstar):
                chi_big = induce(chi_star, n * cstar)
                for q in itertools.product(range(1, q_max + 1), repeat=n_deg - 2):
                    base = VoronoiInstance(src, q, cstar, chi=chi_star, truncation=x)
                    target = VoronoiInstance(src, q, n * cstar, chi=chi_big, truncation=x)

                    got_h = mobius_collapse(
                        lambda q2, n2: curly_h_coefficients(replace(base, q=q2), n2, s),
                        q,
                        n,
                        s,
                        chi_star,
                    )
                    want_h = h_coefficients(target) * complex(n) ** (2 * s - 1)
                    got_g = mobius_collapse(
                        lambda q2, n2: curly_g_coefficients(
                            replace(base, q=q2), n2, s, _G_EVEN_PROBE
                        ),
                        q,
                        n,
                        s,
                        chi_star,
                    )
                    want_g = g_coefficients(target, s, _G_EVEN_PROBE)
                    for family, got, want in (
                        ("divisor-corrected-h", got_h, want_h),
                        ("divisor-corrected-g", got_g, want_g),
                    ):
                        diff = np.abs(got - want)
                        idx = int(np.argmax(diff))
                        scale = max(
                            1e-30, float(np.max(np.abs(want))), float(np.max(np.abs(got)))
                        )
                        recs.append(
                            _rel_case(
                                anchor,
                                {
                                    "family": family,
                                    "degree": n_deg,
                                    "cstar": cstar,
                                    "chi": chi_star.label,
                                    "q": list(q),
                                    "n": n,
                                    "worst_n": idx,
                                },
                                got[idx],
                                want[idx],
                                float(diff[idx]) / scale,
                                tol,
                            )
                        )
            return recs

        return run

    for n_deg in degrees:
        for cstar in cstar_values:
            for n in n_values:
                if n * cstar <= modulus_max:
                    units.append(unit(n_deg, cstar, n))
    return units


def _voronoi_units(ranges, tol, config):
    families = [str(f) for f in ranges["families"]]
    for fam in families:
        if fam not in ("gl3", "gl2", "z"):
            raise ConfigError(f"ranges.families: unknown family {fam!r}; expected gl3, gl2, z")
    s = _as_complex(ranges["s"], "ranges.s")
    y = ranges["truncation_y"]
    n_values = _as_int_list(ranges["n_values"], "ranges.n_values")
    cstar_values = ranges["cstar_values"]
    q_values = [tuple(_as_int_list(q, "ranges.q_values")) for q in ranges["q_values"]]
    gl3_shift_sets = [_as_shift_set(v, "ranges.gl3_shift_sets") for v in ranges["gl3_shift_sets"]]
    gl2_shift_sets = [_as_shift_set(v, "ranges.gl2_shift_sets") for v in ranges["gl2_shift_sets"]]
    x_probe = ranges["x_probe"]
    probe_points = [
        (float(p[0]), float(p[1]))
        for p in (
            ranges["probe_points"]
            if isinstance(ranges["probe_points"], (list, tuple))
            else ()
        )
    ]
    probe_cstar = ranges["probe_cstar"]
    anchor = _SUITES["voronoi-core"].anchor
    units = []
    truncation = 50  # series container length; a_n/b_n queries stay below it

    sources: dict = {}

    def source_for(n_deg, shifts, bound):
        key = (n_deg, shifts, bound)
        if key not in sources:
            sources[key] = isobaric_source(n_deg, shifts, bound)
        return sources[key]

    def side_by_side_unit(n_deg, shifts, cstar, qs):
        def run():
            src = source_for(n_deg, shifts, 2 * y + 10)
            chi_star = primitive_characters(cstar)[0]
            delta = 0 if chi_star.parity == 1 else 1
            gval = g_pm_eval(s, GammaFactorSpec(tuple(-sh for sh in shifts), delta))
            pref = gval * tau(chi_star) ** n_deg * cstar ** (-n_deg * s)
            lval = twisted_l_isobaric(LValueRequest(s, chi_star, shifts))
            recs = []
            for q in qs:
                inst = VoronoiInstance(src, q, cstar, chi=chi_star, truncation=truncation)
                for n in n_values:
                    a_val = a_n_coefficient(inst, n, s, lval)
                    b_val = b_n_coefficient(inst, n, s, pref, y)
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

    def probe_unit(sz, wz, twist):
        def run():
            if twist == "trivial":
                src = source_for(3, (0j, 0j, 0j), 2 * x_probe)
                inst = VoronoiInstance(
                    src, (1,), 1, chi=principal(1), truncation=truncation
                )
                chi_label = principal(1).label
                qz = [1]
            elif twist == "degree-2":
                src = source_for(2, (1j, -1j), 2 * x_probe)
                chi_star = primitive_characters(probe_cstar)[0]
                inst = VoronoiInstance(src, (), probe_cstar, chi=chi_star, truncation=truncation)
                chi_label = chi_star.label
                qz = []
            else:
                src = source_for(3, (1j, 0j, -1j), 2 * x_probe)
                chi_star = primitive_characters(probe_cstar)[0]
                inst = VoronoiInstance(
                    src, (2,), probe_cstar, chi=chi_star, truncation=truncation
                )
                chi_label = chi_star.label
                qz = [2]
            via_l, via_a = z_probe(inst, sz, wz, x_probe)
            bound = z_probe_bound(inst, sz, wz, x_probe)
            return [
                _abs_case(
                    anchor,
                    {
                        "family": "z",
                        "twist": twist,
                        "chi": chi_label,
                        "q": qz,
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
    return units


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
        {key: _check_int(1) for key in ("cstar_max", "c_max", "m_max", "n_max")},
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
        {"prime_max": _check_int(2)},
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
        {"cstar_values": _check_int_list(1)},
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
            "truncation_y": _check_int(1),
            "x_probe": _check_int(1),
            "cstar_values": _check_conductors(_check_int_list(1)),
            # conductor 1 would put the probe's L-value on the zeta pole
            "probe_cstar": _check_conductors(_check_int(2)),
        },
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
        # conductor 1 (the trivial character) is outside the primitive-twist regime
        {"cstar_min": _check_int(2), "cstar_max": _check_int(2)},
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
    records.sort(key=lambda r: canonical_json(_jsonable(r.parameters)))
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
