"""Exception hierarchy. Every error carries a machine-readable name for the CLI."""

from __future__ import annotations


class ClusterCharError(Exception):
    """Base class; `name` is stable and machine-readable, `internal` marks bugs."""

    name = "Error"
    internal = False

    def __init__(self, message: str = ""):
        super().__init__(message or self.name)


def _make(name: str, internal: bool = False) -> type[ClusterCharError]:
    return type(name, (ClusterCharError,), {"name": name, "internal": internal})


# quiver-core
LoopFound = _make("LoopFound")
TwoCycleFound = _make("TwoCycleFound")
CycleFound = _make("CycleFound")
BadVertexIndex = _make("BadVertexIndex")
NotDynkin = _make("NotDynkin")
DimensionMismatch = _make("DimensionMismatch")

# laurent
VariableCountMismatch = _make("VariableCountMismatch")
ZeroPolynomial = _make("ZeroPolynomial")
NonExactDivision = _make("NonExactDivision", internal=True)
ParseError = _make("ParseError")

# rep-lab
FieldMismatch = _make("FieldMismatch")
QuiverMismatch = _make("QuiverMismatch")
NegativeExt = _make("NegativeExt", internal=True)
DecompositionUncertified = _make("DecompositionUncertified", internal=True)
CapExceeded = _make("CapExceeded")
SubdimensionOutOfRange = _make("SubdimensionOutOfRange")
NotPolynomialCount = _make("NotPolynomialCount")

# generic
KernelNotProjectiveShape = _make("KernelNotProjectiveShape", internal=True)
GenericityUncertified = _make("GenericityUncertified")

# cluster-algebra
BadVertex = _make("BadVertex")
NotFiniteType = _make("NotFiniteType")
