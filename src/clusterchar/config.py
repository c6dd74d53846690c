"""Run configuration: defaults, key=value files, environment override."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

ENV_CONFIG = "CLUSTERCHAR_CONFIG"
INT_FIELDS = ("rng_seed", "sample_bound", "retries", "enumeration_cap")


@dataclass
class RunConfig:
    rng_seed: int = 20240801
    sample_bound: int = 10
    retries: int = 8
    enumeration_cap: int = 5_000_000
    cache_path: str | None = None
    output: str = "text"

    def __post_init__(self):
        for name in INT_FIELDS:
            if int(getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.output not in ("text", "json"):
            raise ValueError(f"output must be 'text' or 'json', got {self.output!r}")

    def library_kwargs(self, cap: bool = True) -> dict[str, int]:
        """The `bound`, `retries` and (with `cap`) `cap` keywords of a certified library call."""
        kwargs = {"bound": self.sample_bound, "retries": self.retries}
        return {**kwargs, "cap": self.enumeration_cap} if cap else kwargs


def load_config(path: str | None = None) -> RunConfig:
    """Plain key=value lines; missing keys take defaults; '#' starts a comment.

    A named file that cannot be read raises OSError.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    values: dict[str, object] = {}
    if path:
        known = {f.name for f in fields(RunConfig)}
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#")[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, _, raw = line.partition("=")
                key = key.strip()
                raw = raw.strip()
                if key not in known:
                    raise ValueError(f"unknown config key: {key!r}")
                values[key] = int(raw) if key in INT_FIELDS else raw
    return RunConfig(**values)
