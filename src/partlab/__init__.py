"""partlab: a verification laboratory for integer partition identities.

Every counting family is evaluable by two independent engines, an exhaustive
enumeration oracle and a truncated formal power series, and every registered
identity can be checked over a parameter grid with structured reports.
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
from .identities import IdentityReport, IdentitySpec, list_identities, verify, verify_cells
from .partition import Partition, format_partition, parse_partition
from .qseries import Series

__version__ = "0.1.0"

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
