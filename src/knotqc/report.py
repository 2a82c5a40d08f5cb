"""Structured command output: line-oriented key=value with lossless parsing."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ParseError


@dataclass
class InvariantReport:
    """Pairs an input object with a computed value and run metadata."""

    input_kind: str
    input_text: str
    invariant: str
    value: str | None = None
    estimate: complex | None = None
    time_ms: float = 0.0
    metadata: dict[str, str] = field(default_factory=dict)

    def to_lines(self) -> list[str]:
        lines = [
            f"input={self.input_kind}:{self.input_text}",
            f"invariant={self.invariant}",
        ]
        if self.value is not None:
            lines.append(f"value={self.value}")
        if self.estimate is not None:
            lines.append(f"estimate_re={self.estimate.real!r}")
            lines.append(f"estimate_im={self.estimate.imag!r}")
        lines.append(f"time_ms={self.time_ms!r}")
        for key in sorted(self.metadata):
            lines.append(f"meta.{key}={self.metadata[key]}")
        return lines

    def to_text(self) -> str:
        return "\n".join(self.to_lines())

    @classmethod
    def from_lines(cls, lines) -> "InvariantReport":
        fields: dict[str, str] = {}
        metadata: dict[str, str] = {}
        for line in lines:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"bad report line {line!r}")
            key, value = line.split("=", 1)
            if key.startswith("meta."):
                metadata[key[5:]] = value
            else:
                fields[key] = value
        try:
            kind, text = fields["input"].split(":", 1)
            report = cls(
                input_kind=kind,
                input_text=text,
                invariant=fields["invariant"],
                value=fields.get("value"),
                time_ms=float(fields.get("time_ms", "0.0")),
                metadata=metadata,
            )
            if "estimate_re" in fields:
                report.estimate = complex(
                    float(fields["estimate_re"]), float(fields["estimate_im"])
                )
        except (KeyError, ValueError) as exc:
            raise ParseError(f"incomplete report: {exc}") from None
        return report

    @classmethod
    def from_text(cls, text: str) -> "InvariantReport":
        return cls.from_lines(text.splitlines())


def format_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"
