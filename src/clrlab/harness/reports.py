"""Experiment configuration and machine-readable reports."""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from ..config import ENUMERATION_BUDGET, MAX_MATRIX_DIM, blas_threads
from ..errors import ConfigError

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, index: int) -> int:
    """Per-trial sub-seed: hash of (seed XOR trial index), 64 bits."""
    mixed = (int(seed) ^ int(index)) & _MASK64
    digest = hashlib.sha256(mixed.to_bytes(8, "little")).digest()
    return int.from_bytes(digest[:8], "little")


def inputs_digest(*parts) -> str:
    """Short SHA-256 digest of heterogeneous trial inputs."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def _is_int(value) -> bool:
    """True for an int that is not a bool (JSON true/false parse to bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """True for an int or float, not a bool, that is a finite float."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


@dataclass
class ExperimentConfig:
    """Knobs for one experiment run.

    The experiment's entry in ``experiments.EXPERIMENTS`` declares what it
    reads: its default trials (None here means that default), its
    tolerance keys (per-gate slack constants) and option keys
    (experiment-specific extras such as dmax or amplitude) with their
    defaults, and which of n_max, N_max and grid_points it reads.
    ``validate`` rejects anything outside that declaration.
    """

    experiment: str
    seed: int = 2026
    trials: int | None = None
    n_max: int = 4
    N_max: int = 3
    grid_points: tuple[int, ...] | None = None
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    options: dict = field(default_factory=dict)

    def validate(self) -> None:
        # experiments.py imports this module, so the registry is looked up here.
        from .experiments import EXPERIMENTS

        spec = EXPERIMENTS.get(self.experiment)
        if spec is None:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; pick one of "
                f"{', '.join(EXPERIMENTS)}"
            )
        for name in ("seed", "trials", "n_max", "N_max"):
            value = getattr(self, name)
            if not (_is_int(value) or (name == "trials" and value is None)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("tolerances", "options"):
            value = getattr(self, name)
            if not isinstance(value, dict):
                raise ConfigError(f"{name} must be a JSON object, got {value!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        if self.trials is not None and self.trials < 1:
            raise ConfigError(f"trials must be a positive integer, got {self.trials!r}")
        if not (1 <= self.n_max <= 8):
            raise ConfigError(f"n_max must be in [1, 8], got {self.n_max}")
        if not (1 <= self.N_max <= MAX_MATRIX_DIM):
            raise ConfigError(f"N_max must be in [1, {MAX_MATRIX_DIM}], got {self.N_max}")
        if self.N_max**self.n_max > ENUMERATION_BUDGET:
            raise ConfigError(
                f"N_max**n_max = {self.N_max**self.n_max} exceeds the "
                f"enumeration budget {ENUMERATION_BUDGET}"
            )
        if self.grid_points is not None:
            if not isinstance(self.grid_points, (list, tuple)):
                raise ConfigError(f"grid_points must be a list, got {self.grid_points!r}")
            pts = tuple(self.grid_points)
            if not pts or any(not _is_int(m) or m < 1 for m in pts):
                raise ConfigError(f"grid_points must be positive integers, got {pts}")
            if len(pts) > 3:
                raise ConfigError(f"at most 3 grid axes supported, got {pts}")
        for key, val in self.tolerances.items():
            if not _is_number(val):
                raise ConfigError(f"tolerance {key!r} must be a finite number, got {val!r}")
        # the experiment's declaration: no key or field beyond it
        name = self.experiment
        for kind, given, known in (("tolerance", self.tolerances, spec.tolerances),
                                   ("option", self.options, spec.options)):
            unknown = sorted(set(given) - set(known))
            if unknown:
                raise ConfigError(
                    f"unknown {kind} keys for {name}: {unknown}; it takes "
                    f"{sorted(known) or 'none'}")
        for key, value in self.options.items():
            option = spec.options[key]
            if not option.accepts(value):
                raise ConfigError(f"option {key!r} must be {option.rule}, got {value!r}")
        if self.trials is not None and spec.trials is None:
            raise ConfigError(f"{name} takes no trials, got {self.trials}")
        for field_name in ("n_max", "N_max", "grid_points"):
            value = getattr(self, field_name)
            default = self.__dataclass_fields__[field_name].default
            if field_name not in spec.reads:
                if value != default:
                    raise ConfigError(
                        f"{name} does not read {field_name}, so it must stay "
                        f"{default!r}, got {value!r}")
            elif field_name in spec.least and value is not None:
                # a bound on grid_points counts its axes
                size, unit = (len(value), " axes") if field_name == "grid_points" else (value, "")
                if size < spec.least[field_name]:
                    raise ConfigError(f"{name} needs {field_name} >= "
                                      f"{spec.least[field_name]}{unit}, got {value}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        if isinstance(kwargs.get("grid_points"), list):
            kwargs["grid_points"] = tuple(kwargs["grid_points"])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        data = asdict(self)
        if data["grid_points"] is not None:
            data["grid_points"] = list(data["grid_points"])
        return data


def _versions() -> dict:
    from .. import __version__

    return {
        "clrlab": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "blas_threads": blas_threads(),
    }


@dataclass
class ExperimentReport:
    """Per-trial records plus a summary derived from them.

    Hard-gate failures are counted in summary["hard_failures"]; monitor
    rows (records with gate == "monitor") never contribute.  Two runs
    with the same config produce identical records and summary; only the
    timestamp differs.
    """

    experiment: str
    config: dict
    records: list
    summary: dict
    csv_columns: list
    versions: dict = field(default_factory=_versions)
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat()
    )

    @property
    def passed(self) -> bool:
        return int(self.summary.get("hard_failures", 0)) == 0

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "versions": self.versions,
            "timestamp": self.timestamp,
            "records": self.records,
            "summary": self.summary,
            "csv_columns": self.csv_columns,
        }

    def write(self, outdir) -> tuple[Path, Path]:
        """Write report.json and summary.csv under outdir; returns the paths."""
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        json_path = out / "report.json"
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        csv_path = out / "summary.csv"
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.csv_columns, extrasaction="ignore")
            writer.writeheader()
            for rec in self.records:
                writer.writerow({k: rec.get(k, "") for k in self.csv_columns})
        return json_path, csv_path
