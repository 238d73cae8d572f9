"""Finding and severity types for the static-analysis engine."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum


class Severity(str, Enum):
    """How serious a finding is; both levels fail the gate."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: Severity
    message: str
    module_path: str = ""

    def fingerprint(self) -> str:
        """Line-independent identity carried by the JSON and SARIF reports.

        Line numbers churn on unrelated edits, so the fingerprint hashes
        only the rule, the package-relative path, and the message.
        """
        key = f"{self.rule}:{self.module_path or self.path}:{self.message}"
        return hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"
