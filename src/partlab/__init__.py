"""partlab: a verification laboratory for integer partition identities.

Every counting family is evaluable by two independent engines, an exhaustive
enumeration oracle and a truncated formal power series, and every registered
identity can be checked over a parameter grid with structured reports.

``import partlab`` loads the counting and series layers only.  The identity
layer (``partlab.identities``, whose ``verify --jobs`` runs its cells in
per-process shares) loads the first time it or one of its exports (``verify``,
``verify_cells``, ``list_identities``, ``IdentitySpec``, ``IdentityReport``)
is read, through the module ``__getattr__`` (PEP 562).
"""

from .enumeration import ALL, DISTINCT, EnumKind, generate, multiplicity_at_most
from .errors import (
    DomainError,
    InvalidPartitionError,
    OrderMismatchError,
    PartlabError,
    ResourceLimitError,
    UnknownFamilyError,
    UnknownIdentityError,
    UnsupportedFamilyError,
)
# partlab.gf_family checks the cell first; qseries.gf_family does not.
from .families import count_enum, count_series, recurrence_d_e, series_for as gf_family
from .partition import Partition, format_partition, parse_partition
from .qseries import Series

__version__ = "0.1.0"

# Read off partlab.identities, which is imported on the first such read.
_IDENTITY_EXPORTS = ("IdentityReport", "IdentitySpec", "list_identities", "verify", "verify_cells")

__all__ = [
    "ALL",
    "DISTINCT",
    "DomainError",
    "EnumKind",
    "IdentityReport",
    "IdentitySpec",
    "InvalidPartitionError",
    "OrderMismatchError",
    "Partition",
    "PartlabError",
    "ResourceLimitError",
    "Series",
    "UnknownFamilyError",
    "UnknownIdentityError",
    "UnsupportedFamilyError",
    "count_enum",
    "count_series",
    "format_partition",
    "generate",
    "gf_family",
    "list_identities",
    "multiplicity_at_most",
    "parse_partition",
    "recurrence_d_e",
    "verify",
    "verify_cells",
    "__version__",
]


def __getattr__(name: str):
    if name != "identities" and name not in _IDENTITY_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Absolute, as "from . import identities" would ask this hook for the
    # name again.
    import partlab.identities as identities

    return identities if name == "identities" else getattr(identities, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
